"""The Section 3.4 objective: iterations completed within a deadline.

The paper's formal objective is to *maximise the number of successfully
completed iterations within N time slots*; the evaluation then switches to
the equivalent fixed-iterations/minimise-makespan protocol for ease of
instantiation.  This module provides the deadline-form experiment as a
first-class study: run each heuristic against the same availability
samples with a hard slot budget and compare completed-iteration counts.

This is also where the *proactive* extension (SimulatorOptions.proactive)
shows its value: with a deadline looming, aggressively terminating a task
stalled on a RECLAIMED worker can rescue an iteration that would otherwise
not finish in time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .._validation import require_positive_int
from ..analysis.plotting import format_table
from ..core.heuristics.registry import make_scheduler
from ..sim.master import MasterSimulator, SimulatorOptions
from ..workload.application import IterativeApplication
from ..workload.scenarios import Scenario, ScenarioGenerator
from .backends import ScenarioRef, as_scenario_ref, make_backend, resolve_scenario

__all__ = [
    "DeadlineStudyResult",
    "DeadlineUnit",
    "run_deadline_study",
    "render_deadline_study",
]


@dataclass
class DeadlineStudyResult:
    """Aggregated deadline-objective outcomes.

    Attributes:
        deadline_slots: the slot budget N.
        iterations_by_heuristic: heuristic → completed-iteration counts,
            one entry per (scenario, trial) instance, instance-aligned
            across heuristics.
        instances: number of problem instances.
    """

    deadline_slots: int
    iterations_by_heuristic: Dict[str, List[int]]
    instances: int

    def mean_iterations(self, heuristic: str) -> float:
        values = self.iterations_by_heuristic[heuristic]
        return sum(values) / len(values) if values else 0.0

    def rows(self) -> List[Tuple[str, float, int]]:
        """``(heuristic, mean iterations, instances won)`` best-first.

        A heuristic "wins" an instance when no other heuristic completed
        more iterations on it.
        """
        names = list(self.iterations_by_heuristic)
        wins = {name: 0 for name in names}
        for i in range(self.instances):
            best = max(self.iterations_by_heuristic[name][i] for name in names)
            for name in names:
                if self.iterations_by_heuristic[name][i] == best:
                    wins[name] += 1
        return sorted(
            ((name, self.mean_iterations(name), wins[name]) for name in names),
            key=lambda row: -row[1],
        )


@dataclass(frozen=True)
class DeadlineUnit:
    """One deadline-objective simulation as a picklable work unit.

    The unit carries the overridden application explicitly (the deadline
    form replaces the iteration target so the slot budget binds), while
    platform and scheduler randomness still derive from the scenario
    reference + trial — identical in any process.
    """

    scenario_ref: ScenarioRef
    app: IterativeApplication
    trial: int
    heuristic: str
    deadline_slots: int
    options: SimulatorOptions

    def run(self) -> int:
        scenario = resolve_scenario(self.scenario_ref)
        sim = MasterSimulator(
            scenario.build_platform(self.trial),
            self.app,
            make_scheduler(self.heuristic),
            options=self.options,
            rng=scenario.scheduler_rng(self.trial, self.heuristic),
        )
        report = sim.run_slots(self.deadline_slots)
        return int(report.completed_iterations)


def run_deadline_study(
    *,
    deadline_slots: int = 2000,
    heuristics: Sequence[str] = ("emct*", "mct", "ud*", "random"),
    scenarios: Optional[Sequence[Scenario]] = None,
    scenario_count: int = 4,
    trials: int = 2,
    proactive: bool = False,
    seed=12061,
    backend=None,
    jobs=None,
    replan_policy: str = "event",
) -> DeadlineStudyResult:
    """Run the deadline-objective comparison.

    Args:
        deadline_slots: the budget ``N`` of Section 3.4.
        heuristics: registry names to compare.
        scenarios: explicit scenario population; default draws
            ``scenario_count`` scenarios from the (n=20, ncom=5, wmin=3)
            cell.
        scenario_count: size of the default population.
        trials: trials per scenario.
        proactive: enable the proactive termination extension.
        seed: campaign seed.
        backend: execution backend name or instance (DESIGN.md §4);
            results are backend-independent.
        jobs: worker count when ``backend`` is a name.
        replan_policy: the replan-trigger policy (DESIGN.md §10).

    Raises:
        ValueError: when the default population is requested with a
            non-positive ``scenario_count``.
    """
    if scenarios is None:
        require_positive_int(scenario_count, "scenario_count")
        generator = ScenarioGenerator(seed)
        scenarios = [
            generator.scenario(20, 5, 3, index) for index in range(scenario_count)
        ]
    options = SimulatorOptions(proactive=proactive, replan_policy=replan_policy)
    units: List[DeadlineUnit] = []
    for scenario in scenarios:
        # The deadline form has no iteration target; ask for far more
        # iterations than the budget can fit so the budget binds.
        app = type(scenario.app)(
            tasks_per_iteration=scenario.app.tasks_per_iteration,
            iterations=10_000,
            t_prog=scenario.app.t_prog,
            t_data=scenario.app.t_data,
        )
        ref = as_scenario_ref(scenario)
        for trial in range(trials):
            for name in heuristics:
                units.append(
                    DeadlineUnit(
                        scenario_ref=ref,
                        app=app,
                        trial=trial,
                        heuristic=name,
                        deadline_slots=deadline_slots,
                        options=options,
                    )
                )
    outcomes = dict(make_backend(backend, jobs=jobs).run(units))
    iterations: Dict[str, List[int]] = {name: [] for name in heuristics}
    for index in range(len(units)):  # unit order: instance-aligned fold
        iterations[units[index].heuristic].append(outcomes[index])
    instances = len(units) // max(len(tuple(heuristics)), 1)
    return DeadlineStudyResult(
        deadline_slots=deadline_slots,
        iterations_by_heuristic=iterations,
        instances=instances,
    )


def render_deadline_study(result: DeadlineStudyResult) -> str:
    """Text table for the deadline study."""
    rows = [
        (name, round(mean, 2), wins) for name, mean, wins in result.rows()
    ]
    return format_table(
        ["Algorithm", "mean iterations", "wins"],
        rows,
        title=(
            f"Deadline objective — iterations completed within "
            f"{result.deadline_slots} slots ({result.instances} instances)"
        ),
    )

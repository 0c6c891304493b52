"""Programmatic ablation studies for the design choices in DESIGN.md §5.

Each ablation runs paired simulations (identical availability samples) and
reports mean makespans side by side.  This module is the reusable
implementation plus text rendering, exposed through the CLI
(``repro-experiments ablation``); the claims the ablations back (two
replicas help, event-driven re-planning is free, the UD approximation and
the contention factor pay off) are asserted in ``tests/test_studies.py``.

Arms execute as picklable :class:`SimulationUnit` work units on an
execution backend (``--backend``/``--jobs``; DESIGN.md §4), and means are
reduced in unit order, so results are identical under serial and parallel
execution.

Ablations:

* ``replication``   — 0 / 1 / 2 extra replicas per task (paper: 2).
* ``replanning``    — replan-trigger policies (DESIGN.md §10): event-driven
  vs every-slot vs sticky, on the ``replan_policy`` knob.
* ``ud-exact``      — UD with the paper's rank-1 P_UD vs matrix power.
* ``contention``    — Eq. 1 vs Eq. 2 (the ``*`` correction) on comm-heavy
  workloads.
* ``proactive``     — the dynamic class vs the proactive extension.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from .._validation import require_positive_int
from ..analysis.plotting import format_table
from ..core.heuristics.registry import make_scheduler
from ..sim.master import MasterSimulator, SimulatorOptions
from ..workload.scenarios import Scenario, ScenarioGenerator
from .backends import (
    ExecutionBackend,
    ScenarioRef,
    as_scenario_ref,
    make_backend,
    resolve_scenario,
)

__all__ = [
    "AblationResult",
    "ABLATIONS",
    "SimulationUnit",
    "run_ablation",
    "render_ablation",
]


@dataclass
class AblationResult:
    """One ablation's outcome.

    Attributes:
        name: ablation id.
        arms: arm label → (mean makespan, mean scheduler rounds).
        instances: paired instances per arm.
    """

    name: str
    arms: Dict[str, Tuple[float, float]]
    instances: int


@dataclass(frozen=True)
class SimulationUnit:
    """One (scenario, trial, heuristic, options) simulation as a work unit.

    ``run()`` returns ``(makespan, scheduler rounds)``; truncated runs are
    scored at the slot budget, as everywhere in the harness.
    """

    scenario_ref: ScenarioRef
    trial: int
    heuristic: str
    options: SimulatorOptions
    max_slots: int = 400_000

    def run(self) -> Tuple[float, float]:
        scenario = resolve_scenario(self.scenario_ref)
        sim = MasterSimulator(
            scenario.build_platform(self.trial),
            scenario.app,
            make_scheduler(self.heuristic),
            options=self.options,
            rng=scenario.scheduler_rng(self.trial, self.heuristic),
        )
        report = sim.run(max_slots=self.max_slots)
        makespan = (
            report.makespan if report.makespan is not None else self.max_slots
        )
        return float(makespan), float(report.scheduler_rounds)


def _mean_over(
    scenarios: Sequence[Scenario],
    trials: int,
    heuristic: str,
    options: SimulatorOptions,
    backend: ExecutionBackend,
    max_slots: int = 400_000,
) -> Tuple[float, float, int]:
    units = [
        SimulationUnit(
            scenario_ref=as_scenario_ref(scenario),
            trial=trial,
            heuristic=heuristic,
            options=options,
            max_slots=max_slots,
        )
        for scenario in scenarios
        for trial in range(trials)
    ]
    outcomes: Dict[int, Tuple[float, float]] = dict(backend.run(units))
    total_makespan = 0.0
    total_rounds = 0.0
    for index in range(len(units)):  # unit order: deterministic reduction
        makespan, rounds = outcomes[index]
        total_makespan += makespan
        total_rounds += rounds
    count = len(units)
    return total_makespan / count, total_rounds / count, count


def _replication(scenarios, trials, backend, base_options) -> AblationResult:
    arms = {}
    count = 0
    for cap in (0, 1, 2):
        options = replace(
            base_options, replication=cap > 0, max_replicas=max(cap, 0)
        )
        mean, rounds, count = _mean_over(
            scenarios, trials, "emct", options, backend
        )
        arms[f"{cap} extra replicas"] = (mean, rounds)
    return AblationResult("replication", arms, count)


def _replanning(scenarios, trials, backend, base_options) -> AblationResult:
    """Replan-trigger semantics, on the ``replan_policy`` knob (DESIGN.md
    §10): the paper's event-driven default, the every-slot ablation arm
    and the relaxed sticky policy in one table.  ``experiments/replan_study.py``
    is the full shape validation; this arm shows the makespan/round
    trade-off at a glance."""
    arms = {}
    count = 0
    for label, policy in (
        ("event-driven", "event"),
        ("every-slot", "every-slot"),
        ("sticky", "sticky"),
    ):
        options = replace(base_options, replan_policy=policy)
        mean, rounds, count = _mean_over(
            scenarios, trials, "emct*", options, backend
        )
        arms[label] = (mean, rounds)
    return AblationResult("replanning", arms, count)


def _ud_exact(scenarios, trials, backend, base_options) -> AblationResult:
    arms = {}
    count = 0
    for name in ("ud", "ud-exact"):
        mean, rounds, count = _mean_over(
            scenarios, trials, name, base_options, backend
        )
        arms[name] = (mean, rounds)
    return AblationResult("ud-exact", arms, count)


def _contention(_scenarios, trials, backend, base_options) -> AblationResult:
    # Uses its own contention-prone population (Table 3's ×10 setting).
    population = ScenarioGenerator(77).contention_prone(10, 3)
    arms = {}
    count = 0
    for name in ("mct", "mct*", "emct", "emct*"):
        mean, rounds, count = _mean_over(
            population, trials, name, base_options, backend
        )
        arms[name] = (mean, rounds)
    return AblationResult("contention", arms, count)


def _proactive(scenarios, trials, backend, base_options) -> AblationResult:
    arms = {}
    count = 0
    for label, proactive in (("dynamic", False), ("proactive", True)):
        options = replace(base_options, proactive=proactive)
        mean, rounds, count = _mean_over(
            scenarios, trials, "emct*", options, backend
        )
        arms[label] = (mean, rounds)
    return AblationResult("proactive", arms, count)


ABLATIONS = {
    "replication": _replication,
    "replanning": _replanning,
    "ud-exact": _ud_exact,
    "contention": _contention,
    "proactive": _proactive,
}


def run_ablation(
    name: str,
    *,
    scenarios: int = 3,
    trials: int = 2,
    seed: int = 31,
    n: int = 10,
    ncom: int = 5,
    wmin: int = 5,
    backend=None,
    jobs=None,
    replan_policy: str = "event",
) -> AblationResult:
    """Run one named ablation on a fresh scenario population.

    Raises:
        KeyError: for unknown ablation names (message lists valid ones).
        ValueError: when ``scenarios`` is not positive.
    """
    require_positive_int(scenarios, "scenarios")
    try:
        runner = ABLATIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown ablation {name!r}; valid: {', '.join(sorted(ABLATIONS))}"
        ) from None
    generator = ScenarioGenerator(seed)
    population = [generator.scenario(n, ncom, wmin, i) for i in range(scenarios)]
    return runner(
        population,
        trials,
        make_backend(backend, jobs=jobs),
        SimulatorOptions(replan_policy=replan_policy),
    )


def render_ablation(result: AblationResult) -> str:
    """Text table for one ablation."""
    rows: List[tuple] = [
        (arm, round(mean, 1), round(rounds, 1))
        for arm, (mean, rounds) in result.arms.items()
    ]
    return format_table(
        ["arm", "mean makespan", "mean scheduler rounds"],
        rows,
        title=f"ablation: {result.name} ({result.instances} paired instances/arm)",
    )

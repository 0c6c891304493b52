"""Relaxed replan-policy validation study (DESIGN.md §10).

The relaxed replan policies (``SimulatorOptions.replan_policy``:
``sticky``, ``debounce:k``, ``relevant-up``) *change the replan-trigger
semantics* — they are not bit-identical to the paper's event-driven
design, so they must be validated the way the paper's own claims are:
against the **shape targets** — Table 2/3 (per-heuristic average
degradation-from-best and the induced ranking) and Figure 2 (dfb-vs-wmin
curves) — alongside the speedup they buy.

For each policy the study runs the same paired population (identical
availability samples across heuristics *and* policies) and reports,
relative to the ``event`` baseline:

* ``avg dfb`` per heuristic and the **maximum dfb shift** across the
  Table-2-style population (how much the headline table moves);
* the **rank correlation** (Spearman) between the policy's heuristic
  ordering and the baseline's — the paper's qualitative claim is the
  *ordering* (EMCT* first, random last), so a relaxed policy that keeps
  rho ≈ 1 preserves the story even if absolute dfb drifts;
* the **dfb-vs-wmin curve shift** (Figure 2's shape): the maximum
  per-(wmin, heuristic) change of average dfb;
* the **makespan inflation** (mean makespan vs baseline, in percent) —
  the real price of replanning less;
* the measured **round reduction** and **wall-clock speedup**.

Default tolerances (reported, not enforced): a policy is flagged
``shape-preserving`` when its maximum dfb shift stays within
:data:`DFB_SHIFT_TOLERANCE` points *and* its rank correlation stays above
:data:`RANK_TOLERANCE`.  ``relevant-up`` is expected to pass both with
margin (it ignores only exits of empty processors, the churn class
that most often leaves the plan unchanged); ``sticky`` and coarse
debounce windows trade shape for speed and are expected to fail the
makespan side visibly — that is the point of printing it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .._validation import require_positive_int
from ..analysis.plotting import format_table
from ..core.heuristics.registry import make_scheduler
from ..sim.master import MasterSimulator, SimulatorOptions
from ..sim.relevance import parse_replan_policy
from ..workload.scenarios import ScenarioGenerator
from .dfb import DfbAccumulator

__all__ = [
    "DFB_SHIFT_TOLERANCE",
    "RANK_TOLERANCE",
    "PolicyOutcome",
    "ReplanStudyResult",
    "run_replan_study",
    "render_replan_study",
]

#: Max tolerated shift of any per-heuristic average dfb (percent points).
DFB_SHIFT_TOLERANCE = 2.0
#: Min tolerated Spearman rank correlation of the heuristic ordering.
RANK_TOLERANCE = 0.95

#: Policies compared by default (the event baseline first).
DEFAULT_POLICIES: Tuple[str, ...] = (
    "event",
    "relevant-up",
    "debounce:5",
    "sticky",
    "every-slot",
)

#: Representative ranking population: the paper's headline family, the
#: probability scores, and two random baselines to anchor the tail.
DEFAULT_HEURISTICS: Tuple[str, ...] = (
    "emct*",
    "emct",
    "mct",
    "ud*",
    "lw*",
    "random1w",
    "random",
)

#: The dfb-vs-wmin axis of the Figure 2 shape check.
DEFAULT_WMIN_VALUES: Tuple[int, ...] = (1, 5, 10)


@dataclass
class PolicyOutcome:
    """One policy's measured outcome over the study population.

    Attributes:
        policy: the policy spec string.
        avg_dfb: heuristic → average dfb over all instances.
        dfb_by_wmin: wmin → (heuristic → average dfb) — Figure 2's axis.
        mean_makespan: heuristic → mean makespan.
        rounds: total scheduler rounds executed across all runs.
        seconds: wall-clock spent simulating this policy's sweep.
    """

    policy: str
    avg_dfb: Dict[str, float] = field(default_factory=dict)
    dfb_by_wmin: Dict[int, Dict[str, float]] = field(default_factory=dict)
    mean_makespan: Dict[str, float] = field(default_factory=dict)
    rounds: int = 0
    seconds: float = 0.0

    def ranking(self) -> List[str]:
        """Heuristics ordered best (lowest avg dfb) to worst."""
        return sorted(self.avg_dfb, key=lambda name: self.avg_dfb[name])


@dataclass
class ReplanStudyResult:
    """The study's full outcome (baseline first in ``outcomes``)."""

    outcomes: List[PolicyOutcome]
    instances: int
    heuristics: Tuple[str, ...]
    wmin_values: Tuple[int, ...]

    @property
    def baseline(self) -> PolicyOutcome:
        return self.outcomes[0]

    def deviation(self, outcome: PolicyOutcome) -> Dict[str, float]:
        """Shape-deviation metrics of ``outcome`` vs the baseline."""
        base = self.baseline
        max_dfb_shift = max(
            (
                abs(outcome.avg_dfb[name] - base.avg_dfb[name])
                for name in base.avg_dfb
            ),
            default=0.0,
        )
        curve_shift = 0.0
        for wmin, base_row in base.dfb_by_wmin.items():
            row = outcome.dfb_by_wmin.get(wmin, {})
            for name, value in base_row.items():
                curve_shift = max(curve_shift, abs(row.get(name, value) - value))
        rho = _spearman(base.ranking(), outcome.ranking())
        base_makespan = sum(base.mean_makespan.values())
        makespan_pct = (
            100.0
            * (sum(outcome.mean_makespan.values()) - base_makespan)
            / base_makespan
            if base_makespan
            else 0.0
        )
        return {
            "max_dfb_shift": max_dfb_shift,
            "figure2_max_shift": curve_shift,
            "rank_correlation": rho,
            "makespan_inflation_pct": makespan_pct,
            "round_reduction": (
                1.0 - outcome.rounds / base.rounds if base.rounds else 0.0
            ),
            "speedup": (
                base.seconds / outcome.seconds if outcome.seconds else 0.0
            ),
            "shape_preserving": (
                max_dfb_shift <= DFB_SHIFT_TOLERANCE and rho >= RANK_TOLERANCE
            ),
        }


def _spearman(base_order: List[str], order: List[str]) -> float:
    """Spearman rank correlation of two orderings of the same names."""
    n = len(base_order)
    if n < 2:
        return 1.0
    position = {name: index for index, name in enumerate(order)}
    d2 = sum(
        (index - position[name]) ** 2
        for index, name in enumerate(base_order)
    )
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def run_replan_study(
    *,
    policies: Sequence[str] = DEFAULT_POLICIES,
    heuristics: Sequence[str] = DEFAULT_HEURISTICS,
    scenarios: int = 2,
    trials: int = 2,
    seed: int = 12061,
    n: int = 20,
    ncom: int = 10,
    wmin_values: Sequence[int] = DEFAULT_WMIN_VALUES,
    max_slots: int = 400_000,
) -> ReplanStudyResult:
    """Run the relaxed-policy validation sweep.

    Every (scenario, trial) presents the identical availability sample to
    every heuristic *and* every policy (the platform RNG derivation does
    not involve either), so all comparisons are paired.

    Args:
        policies: policy spec strings; the first is the baseline and the
            convention is to keep that ``"event"``.
        heuristics: registry names ranked by the study.
        scenarios: scenarios per (n, ncom, wmin) cell.
        trials: trials per scenario.
        seed: campaign seed.
        n, ncom: the fixed cell parameters; ``wmin_values`` spans the
            Figure 2 axis.
        wmin_values: wmin grid (the Figure 2 shape check).
        max_slots: per-run slot budget (truncated runs score the budget).

    Raises:
        ValueError: for an unknown policy spec, an empty policy list, or
            a non-positive ``scenarios`` or ``trials``.
    """
    for policy in policies:
        parse_replan_policy(policy)  # fail fast on typos
    if not policies:
        raise ValueError("need at least one policy (the baseline)")
    require_positive_int(scenarios, "scenarios")
    require_positive_int(trials, "trials")
    generator = ScenarioGenerator(seed)
    population = [
        (wmin, generator.scenario(n, ncom, wmin, index))
        for wmin in wmin_values
        for index in range(scenarios)
    ]
    outcomes: List[PolicyOutcome] = []
    instances = 0
    for policy in policies:
        options = SimulatorOptions(replan_policy=policy)
        accumulator = DfbAccumulator()
        by_wmin: Dict[int, DfbAccumulator] = {
            wmin: DfbAccumulator() for wmin in wmin_values
        }
        makespan_totals: Dict[str, float] = {name: 0.0 for name in heuristics}
        rounds = 0
        count = 0
        begin = time.perf_counter()
        for wmin, scenario in population:
            for trial in range(trials):
                makespans: Dict[str, float] = {}
                for heuristic in heuristics:
                    platform = scenario.build_platform(trial)
                    sim = MasterSimulator(
                        platform,
                        scenario.app,
                        make_scheduler(heuristic, platform=platform),
                        options=options,
                        rng=scenario.scheduler_rng(trial, heuristic),
                    )
                    report = sim.run(max_slots=max_slots)
                    makespan = (
                        report.makespan
                        if report.makespan is not None
                        else max_slots
                    )
                    makespans[heuristic] = float(makespan)
                    makespan_totals[heuristic] += makespan
                    rounds += report.scheduler_rounds
                key = (*scenario.key, trial)
                accumulator.add_instance(key, makespans)
                by_wmin[wmin].add_instance(key, makespans)
                count += 1
        seconds = time.perf_counter() - begin
        outcomes.append(
            PolicyOutcome(
                policy=policy,
                avg_dfb={
                    name: accumulator.average_dfb(name) for name in heuristics
                },
                dfb_by_wmin={
                    wmin: {
                        name: acc.average_dfb(name) for name in heuristics
                    }
                    for wmin, acc in by_wmin.items()
                },
                mean_makespan={
                    name: makespan_totals[name] / count for name in heuristics
                },
                rounds=rounds,
                seconds=seconds,
            )
        )
        instances = count
    return ReplanStudyResult(
        outcomes=outcomes,
        instances=instances,
        heuristics=tuple(heuristics),
        wmin_values=tuple(wmin_values),
    )


def render_replan_study(result: ReplanStudyResult) -> str:
    """Text rendering: the dfb table per policy + the deviation summary."""
    blocks: List[str] = []
    base = result.baseline
    header = ["heuristic"] + [outcome.policy for outcome in result.outcomes]
    rows = []
    for name in sorted(base.avg_dfb, key=lambda h: base.avg_dfb[h]):
        rows.append(
            (name,)
            + tuple(
                round(outcome.avg_dfb[name], 2) for outcome in result.outcomes
            )
        )
    blocks.append(
        format_table(
            header,
            rows,
            title=(
                f"average dfb per replan policy "
                f"({result.instances} paired instances)"
            ),
        )
    )
    dev_rows = []
    for outcome in result.outcomes[1:]:
        deviation = result.deviation(outcome)
        dev_rows.append(
            (
                outcome.policy,
                round(deviation["max_dfb_shift"], 2),
                round(deviation["figure2_max_shift"], 2),
                round(deviation["rank_correlation"], 3),
                round(deviation["makespan_inflation_pct"], 2),
                round(100.0 * deviation["round_reduction"], 1),
                round(deviation["speedup"], 2),
                "yes" if deviation["shape_preserving"] else "NO",
            )
        )
    blocks.append(
        format_table(
            [
                "policy",
                "max dfb shift",
                "fig2 shift",
                "rank rho",
                "makespan +%",
                "rounds -%",
                "speedup",
                "shape-ok",
            ],
            dev_rows,
            title=(
                "deviation vs event baseline "
                f"(tolerances: dfb shift <= {DFB_SHIFT_TOLERANCE}, "
                f"rho >= {RANK_TOLERANCE})"
            ),
        )
    )
    return "\n\n".join(blocks)

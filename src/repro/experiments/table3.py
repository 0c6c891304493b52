"""Table 3 regenerator: contention-prone experiments (×5 and ×10 comms).

The paper reruns the greedy heuristics on communication-heavy scenarios
(``n = 20``, ``ncom = 5``, ``wmin = 1``) with transfer times scaled by 5
and by 10 (100 scenarios × 10 trials each), showing that the
contention-corrected (``*``) variants win as communication intensifies and
that UD\\*/UD take the lead at ×10 while plain MCT collapses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from .._validation import require_positive_int
from ..analysis.plotting import format_table
from ..core.heuristics.registry import GREEDY_HEURISTICS
from ..sim.master import SimulatorOptions
from ..workload.scenarios import ScenarioGenerator
from .harness import CampaignConfig, CampaignResult, run_campaign

__all__ = ["PAPER_TABLE3", "Table3Result", "run_table3", "render_table3"]

#: Published Table 3 average dfb values, keyed by communication factor.
PAPER_TABLE3: Dict[int, Dict[str, float]] = {
    5: {
        "emct*": 3.87,
        "mct*": 4.10,
        "ud*": 5.23,
        "emct": 6.13,
        "ud": 6.42,
        "mct": 7.70,
        "lw*": 8.76,
        "lw": 10.11,
    },
    10: {
        "ud*": 2.76,
        "ud": 3.20,
        "emct*": 3.66,
        "lw*": 4.02,
        "mct*": 4.22,
        "lw": 4.46,
        "emct": 8.02,
        "mct": 15.50,
    },
}


@dataclass
class Table3Result:
    """Measured Table 3 half (one communication factor)."""

    campaign: CampaignResult
    comm_factor: int
    scenarios: int
    trials: int

    def rows(self):
        """``(heuristic, measured dfb)`` best-first."""
        return [
            (name, dfb) for name, dfb, _wins in self.campaign.accumulator.table()
        ]


def run_table3(
    comm_factor: int,
    *,
    scenarios: int = 10,
    trials: int = 2,
    heuristics: Optional[Sequence[str]] = None,
    seed=12061,
    progress=None,
    backend=None,
    jobs: Optional[int] = None,
    checkpoint=None,
    replan_policy: str = "event",
) -> Table3Result:
    """Execute one half of Table 3 (``comm_factor`` 5 or 10).

    Paper scale is ``scenarios=100, trials=10``; defaults are laptop-scale.
    ``backend``/``jobs``/``checkpoint`` configure parallel and resumable
    execution (statistics are backend-independent);
    ``replan_policy`` the replan-trigger policy (DESIGN.md §10 —
    relaxed policies change the results; validate with
    ``repro-experiments replan-study``).

    Raises:
        ValueError: for a ``comm_factor`` other than 5 or 10, or a
            non-positive ``scenarios``.
    """
    if comm_factor not in (5, 10):
        raise ValueError(
            f"comm_factor must be 5 or 10 (the paper's two columns), got {comm_factor}"
        )
    require_positive_int(scenarios, "scenarios")
    generator = ScenarioGenerator(seed)
    population = generator.contention_prone(comm_factor, scenarios)
    config = CampaignConfig(
        heuristics=tuple(heuristics or GREEDY_HEURISTICS),
        trials=trials,
        options=SimulatorOptions(replan_policy=replan_policy),
    )
    campaign = run_campaign(
        population,
        config,
        progress=progress,
        backend=backend,
        jobs=jobs,
        checkpoint=checkpoint,
    )
    return Table3Result(
        campaign=campaign,
        comm_factor=comm_factor,
        scenarios=scenarios,
        trials=trials,
    )


def render_table3(result: Table3Result) -> str:
    """Measured-vs-paper rendering of one Table 3 half."""
    paper = PAPER_TABLE3[result.comm_factor]
    rows = []
    for name, dfb in result.rows():
        rows.append((name, round(dfb, 2), paper.get(name, float("nan"))))
    table = format_table(
        ["Algorithm", "dfb (measured)", "dfb (paper)"],
        rows,
        title=(
            f"Table 3 — communication times ×{result.comm_factor} "
            f"({result.campaign.instances} instances; paper: 1,000)"
        ),
    )
    notes = [
        "",
        f"n=20 ncom=5 wmin=1, Tdata={result.comm_factor}, "
        f"Tprog={5 * result.comm_factor}; "
        f"{result.scenarios} scenario(s) × {result.trials} trial(s)",
        "shape targets: '*' variants beat their plain counterparts; "
        "at ×10, UD*/UD lead and plain MCT is worst.",
    ]
    if result.campaign.truncated_runs:
        notes.append(
            f"WARNING: {len(result.campaign.truncated_runs)} run(s) hit the "
            "slot budget."
        )
    return table + "\n" + "\n".join(notes)

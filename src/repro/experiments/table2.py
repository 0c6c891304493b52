"""Table 2 regenerator: average dfb and wins over the full grid.

The paper's Table 2 aggregates 296,400 problem instances (the full
``(n, ncom, wmin)`` grid × 247 scenarios × 10 trials) for all seventeen
heuristics.  :func:`run_table2` executes the identical protocol at a
configurable scale and prints the measured rows next to the paper's
published values, so the *shape* comparison (ranking, MCT-family on top,
EMCT ≤ MCT, randoms far behind, ``Randomxw`` ≤ ``Randomx``) is immediate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from .._validation import require_positive_int
from ..analysis.plotting import format_table
from ..core.heuristics.registry import PAPER_HEURISTICS
from ..sim.master import SimulatorOptions
from ..workload.scenarios import (
    PAPER_N_VALUES,
    PAPER_NCOM_VALUES,
    PAPER_WMIN_VALUES,
    ScenarioGenerator,
)
from .harness import CampaignConfig, CampaignResult, run_campaign

__all__ = ["PAPER_TABLE2", "Table2Result", "run_table2", "render_table2"]

#: The paper's published Table 2: heuristic → (average dfb, wins).
PAPER_TABLE2: Dict[str, Tuple[float, int]] = {
    "emct": (4.77, 80320),
    "emct*": (4.81, 78947),
    "mct": (5.35, 73946),
    "mct*": (5.46, 70952),
    "ud*": (7.06, 42578),
    "ud": (8.09, 31120),
    "lw*": (11.15, 28802),
    "lw": (12.74, 19529),
    "random1w": (28.42, 259),
    "random2w": (28.43, 301),
    "random4w": (28.51, 278),
    "random3w": (31.49, 188),
    "random3": (44.01, 87),
    "random4": (47.33, 88),
    "random1": (47.44, 36),
    "random2": (47.53, 73),
    "random": (47.87, 45),
}


@dataclass
class Table2Result:
    """Measured Table 2 rows plus provenance."""

    campaign: CampaignResult
    scenarios_per_cell: int
    trials: int
    n_values: Tuple[int, ...]
    ncom_values: Tuple[int, ...]
    wmin_values: Tuple[int, ...]

    def rows(self):
        """``(heuristic, measured dfb, measured wins)`` best-first."""
        return self.campaign.accumulator.table()

    def rows_with_ci(self, confidence: float = 0.95):
        """``(heuristic, dfb, (ci low, ci high), wins)`` best-first.

        Intervals come from :meth:`~repro.experiments.dfb.DfbAccumulator.
        average_dfb_ci`, whose resampling streams derive from the
        heuristic names — two builds of the same campaign report the
        same bounds.
        """
        acc = self.campaign.accumulator
        return [
            (name, dfb, acc.average_dfb_ci(name, confidence=confidence), wins)
            for name, dfb, wins in acc.table()
        ]


def run_table2(
    *,
    scenarios_per_cell: int = 2,
    trials: int = 2,
    heuristics: Optional[Sequence[str]] = None,
    n_values: Sequence[int] = PAPER_N_VALUES,
    ncom_values: Sequence[int] = PAPER_NCOM_VALUES,
    wmin_values: Sequence[int] = PAPER_WMIN_VALUES,
    seed=12061,
    progress=None,
    backend=None,
    jobs: Optional[int] = None,
    checkpoint=None,
    replan_policy: str = "event",
) -> Table2Result:
    """Execute the Table 2 protocol.

    Defaults are laptop-scale (the paper's full scale is
    ``scenarios_per_cell=247, trials=10``); the protocol is otherwise
    identical.  Restrict ``n_values``/``wmin_values`` for quicker runs;
    ``backend``/``jobs``/``checkpoint`` configure parallel and resumable
    execution (statistics are backend-independent), and
    ``replan_policy`` the replan-trigger policy (DESIGN.md §10 —
    relaxed policies change the results; validate with
    ``repro-experiments replan-study``).

    Raises:
        ValueError: when ``scenarios_per_cell`` is not positive.
    """
    require_positive_int(scenarios_per_cell, "scenarios_per_cell")
    generator = ScenarioGenerator(seed)
    scenarios = list(
        generator.grid(
            scenarios_per_cell,
            n_values=tuple(n_values),
            ncom_values=tuple(ncom_values),
            wmin_values=tuple(wmin_values),
        )
    )
    config = CampaignConfig(
        heuristics=tuple(heuristics or PAPER_HEURISTICS),
        trials=trials,
        options=SimulatorOptions(replan_policy=replan_policy),
    )
    campaign = run_campaign(
        scenarios,
        config,
        progress=progress,
        backend=backend,
        jobs=jobs,
        checkpoint=checkpoint,
    )
    return Table2Result(
        campaign=campaign,
        scenarios_per_cell=scenarios_per_cell,
        trials=trials,
        n_values=tuple(n_values),
        ncom_values=tuple(ncom_values),
        wmin_values=tuple(wmin_values),
    )


def render_table2(result: Table2Result) -> str:
    """Measured-vs-paper Table 2 text rendering.

    The dfb column carries a deterministic 95% bootstrap interval (same
    campaign → same bounds, build after build).
    """
    rows = []
    for name, dfb, (ci_low, ci_high), wins in result.rows_with_ci():
        paper_dfb, paper_wins = PAPER_TABLE2.get(name, (float("nan"), 0))
        rows.append(
            (
                name,
                round(dfb, 2),
                f"[{ci_low:.2f}, {ci_high:.2f}]",
                wins,
                paper_dfb,
                paper_wins,
            )
        )
    table = format_table(
        [
            "Algorithm",
            "dfb (measured)",
            "dfb 95% CI",
            "wins (measured)",
            "dfb (paper)",
            "wins (paper)",
        ],
        rows,
        title=(
            "Table 2 — results over all problem instances "
            f"({result.campaign.instances} instances; paper: 296,400)"
        ),
    )
    notes = [
        "",
        f"grid: n={list(result.n_values)} ncom={list(result.ncom_values)} "
        f"wmin={list(result.wmin_values)}, "
        f"{result.scenarios_per_cell} scenario(s)/cell × {result.trials} trial(s)",
        "shape targets: MCT family best (EMCT <= MCT), then UD, then LW, "
        "randoms far behind; Randomxw beats Randomx.",
    ]
    if result.campaign.truncated_runs:
        notes.append(
            f"WARNING: {len(result.campaign.truncated_runs)} run(s) hit the "
            "slot budget and were scored at the budget."
        )
    return table + "\n" + "\n".join(notes)

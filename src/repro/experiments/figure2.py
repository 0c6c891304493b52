"""Figure 2 regenerator: average dfb versus ``wmin``.

The paper's Figure 2 plots, for six heuristics (mct, mct\\*, emct, emct\\*,
ud\\*, lw\\*), the dfb averaged over all instances sharing a ``wmin`` value.
Increasing ``wmin`` scales task durations relative to the availability
time-scale, so state transitions during a task become more likely: the
figure shows the EMCT curves dipping below MCT around ``wmin ≈ 3`` and
UD\\* overtaking EMCT at large ``wmin``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .._validation import require_positive_int
from ..analysis.plotting import ascii_plot, format_table
from ..sim.master import SimulatorOptions
from ..workload.scenarios import (
    PAPER_N_VALUES,
    PAPER_NCOM_VALUES,
    PAPER_WMIN_VALUES,
    ScenarioGenerator,
)
from .harness import CampaignConfig, CampaignResult, run_campaign

__all__ = ["FIGURE2_HEURISTICS", "Figure2Result", "run_figure2", "render_figure2"]

#: The six series of the paper's Figure 2, in legend order.
FIGURE2_HEURISTICS: Tuple[str, ...] = ("mct", "mct*", "emct", "emct*", "ud*", "lw*")


@dataclass
class Figure2Result:
    """Measured Figure 2 series."""

    campaign: CampaignResult
    wmin_values: Tuple[int, ...]
    heuristics: Tuple[str, ...]
    scenarios_per_cell: int
    trials: int

    def series(self) -> Dict[str, List[float]]:
        """heuristic → average dfb per ``wmin`` (aligned to wmin_values).

        Averages instance dfb over every scenario whose key carries the
        given ``wmin`` — the same marginalisation the paper uses.
        """
        out: Dict[str, List[float]] = {name: [] for name in self.heuristics}
        for wmin in self.wmin_values:
            sums = {name: 0.0 for name in self.heuristics}
            counts = {name: 0 for name in self.heuristics}
            for key, acc in self.campaign.per_scenario.items():
                # Scenario key layout: (n, ncom, wmin, comm_factor, index).
                if key[2] != wmin:
                    continue
                for name in self.heuristics:
                    values = acc.dfb_values(name)
                    sums[name] += sum(values)
                    counts[name] += len(values)
            for name in self.heuristics:
                out[name].append(
                    sums[name] / counts[name] if counts[name] else float("nan")
                )
        return out


def run_figure2(
    *,
    scenarios_per_cell: int = 2,
    trials: int = 2,
    heuristics: Sequence[str] = FIGURE2_HEURISTICS,
    n_values: Sequence[int] = PAPER_N_VALUES,
    ncom_values: Sequence[int] = PAPER_NCOM_VALUES,
    wmin_values: Sequence[int] = PAPER_WMIN_VALUES,
    seed=12061,
    progress=None,
    backend=None,
    jobs: Optional[int] = None,
    checkpoint=None,
    replan_policy: str = "event",
) -> Figure2Result:
    """Execute the Figure 2 protocol (same grid as Table 2).

    The dfb here is computed *within the plotted heuristic population*
    (the paper's figure likewise shows the six-way comparison).
    ``backend``/``jobs``/``checkpoint`` configure parallel and resumable
    execution (statistics are backend-independent);
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
        heuristics=tuple(heuristics),
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
    return Figure2Result(
        campaign=campaign,
        wmin_values=tuple(wmin_values),
        heuristics=tuple(heuristics),
        scenarios_per_cell=scenarios_per_cell,
        trials=trials,
    )


def render_figure2(result: Figure2Result) -> str:
    """ASCII rendering of Figure 2 plus the underlying numbers."""
    series = result.series()
    chart = ascii_plot(
        series,
        list(result.wmin_values),
        title="Figure 2 — average dfb vs wmin",
        x_label="wmin",
        y_label="average dfb (%)",
        height=18,
    )
    rows = []
    for wmin_idx, wmin in enumerate(result.wmin_values):
        rows.append(
            (wmin, *[round(series[name][wmin_idx], 2) for name in result.heuristics])
        )
    table = format_table(["wmin", *result.heuristics], rows)
    notes = (
        "\nshape targets: EMCT curves cross below MCT around wmin≈3-4; "
        "UD* overtakes EMCT at large wmin."
    )
    return chart + "\n\n" + table + notes

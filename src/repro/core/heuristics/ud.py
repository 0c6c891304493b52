"""UD — "Unlikely Down" heuristics (paper Section 6.3.3).

UD estimates, via Theorem 2, the *wall-clock* number of slots
:math:`k = E^{(q)}(CT(P_q, n_q + 1))` the processor will need for its
workload — counting the slots it will spend RECLAIMED — and ranks
processors by the probability of not crashing during those ``k`` slots,
using the paper's rank-1 approximation of :math:`P_{UD}(k)`:

.. math::
   P^{(q)}_{UD}(k) \\approx (1 - P^{(q)}_{u,d})
   \\left(1 - \\frac{P^{(q)}_{u,d}\\pi^{(q)}_u + P^{(q)}_{r,d}\\pi^{(q)}_r}
   {\\pi^{(q)}_u + \\pi^{(q)}_r}\\right)^{k-2}

``UD*`` uses Equation 2's contention-corrected ``CT`` inside the
expectation.  An ``exact`` switch replaces the approximation by the
matrix-power form (with ``k`` rounded to the nearest integer) — an
extension used by the ablation benchmarks to quantify how much the paper's
approximation costs.
"""

from __future__ import annotations

import math

from ..expectation import (
    expected_next_up,
    p_no_down_approx,
    p_no_down_exact,
)
from .base import (
    GreedyScheduler,
    _as_list,
    ProcessorView,
    RoundState,
    SchedulingContext,
    completion_time_estimate,
)

__all__ = ["UdScheduler"]


class UdScheduler(GreedyScheduler):
    """``UD`` / ``UD*``: maximise the probability of no crash before finish.

    Args:
        contention: enables Equation 2's correcting factor (the ``*``).
        exact: use the exact matrix-power :math:`P_{UD}` instead of the
            paper's rank-1 approximation (ablation extension; the registry
            names these ``ud-exact`` / ``ud*-exact``).  The matrix power
            does not vectorise over candidates, so the exact variants run
            through the legacy-path compatibility shim instead of batch
            scoring — same placements, scalar cost.
    """

    maximize = True
    _belief_needs = "UD needs one"

    def __init__(self, *, contention: bool = False, exact: bool = False):
        self.use_contention_factor = contention
        self.exact = exact
        self.batch_scoring = not exact
        base = "ud*" if contention else "ud"
        self.name = base + ("-exact" if exact else "")
        self._e_up_cache: dict[int, float] = {}

    def _expected_slots(self, view: ProcessorView, workload: float) -> float:
        if view.belief is None:
            raise ValueError(
                f"processor {view.index} has no Markov belief; UD needs one"
            )
        e_up = self._e_up_cache.get(view.index)
        if e_up is None:
            e_up = expected_next_up(view.belief)
            self._e_up_cache[view.index] = e_up
        return 1.0 + max(workload - 1.0, 0.0) * e_up

    def score(
        self,
        ctx: SchedulingContext,
        view: ProcessorView,
        nq_plus_one: int,
        contention_factor: int,
    ) -> float:
        ct = completion_time_estimate(
            view, nq_plus_one, ctx.t_data, contention_factor=contention_factor
        )
        k = self._expected_slots(view, ct)
        if self.exact:
            return p_no_down_exact(view.belief, max(1, round(k)))
        return p_no_down_approx(view.belief, max(1.0, k))

    def _score_ct_row(self, rs: RoundState, cache: dict, ct_row) -> list:
        # ``math.pow`` per element, as in LW: a large-p row is scored
        # over its list form.
        ct_row = _as_list(ct_row)
        e_up = self._gather_belief(rs, cache, "e_up")
        base = self._gather_belief(rs, cache, "ud_base")
        avg_down = self._gather_belief(rs, cache, "ud_avg_down")
        degenerate = self._gather_belief(rs, cache, "ud_degenerate")
        row = []
        for ct, e, b, a, dg in zip(ct_row, e_up, base, avg_down, degenerate):
            k = max(1.0, 1.0 + max(ct - 1.0, 0.0) * e)
            if dg > 0.0:
                row.append(0.0 if k > 2.0 else b)
            else:
                row.append(b * math.pow(1.0 - a, max(k - 2.0, 0.0)))
        return row

    def _score_ct_one(self, rs: RoundState, cache: dict, ct: int, i: int) -> float:
        e = self._gather_belief(rs, cache, "e_up")[i]
        b = self._gather_belief(rs, cache, "ud_base")[i]
        k = max(1.0, 1.0 + max(ct - 1.0, 0.0) * e)
        if self._gather_belief(rs, cache, "ud_degenerate")[i] > 0.0:
            return 0.0 if k > 2.0 else b
        a = self._gather_belief(rs, cache, "ud_avg_down")[i]
        return b * math.pow(1.0 - a, max(k - 2.0, 0.0))


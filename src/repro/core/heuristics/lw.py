"""LW — "Likely to Work" heuristics (paper Section 6.3.2).

LW ranks processors by the probability of surviving (no DOWN state) long
enough to complete the estimated workload, using Lemma 1's per-UP-slot
survival probability:

.. math::
   q_0 = \\arg\\max_q \\left(P^{(q)}_+\\right)^{CT(P_q,\\,n_q+1)}

``LW*`` uses Equation 2's contention-corrected ``CT`` as the exponent.

Note the workload enters only through the *exponent*; unlike UD the
probability base ignores the time spent RECLAIMED, which is why UD
dominates LW in the paper's results (and in ours).
"""

from __future__ import annotations

import math

from ..expectation import p_plus
from .base import (
    GreedyScheduler,
    _as_list,
    ProcessorView,
    RoundState,
    SchedulingContext,
    completion_time_estimate,
)

__all__ = ["LwScheduler"]


class LwScheduler(GreedyScheduler):
    """``LW`` / ``LW*``: maximise the UP-run survival probability.

    Args:
        contention: enables Equation 2's correcting factor (the ``*``).
    """

    maximize = True
    batch_scoring = True
    _belief_needs = "LW needs one"

    def __init__(self, *, contention: bool = False):
        self.use_contention_factor = contention
        self.name = "lw*" if contention else "lw"
        self._p_plus_cache: dict[int, float] = {}

    def _p_plus(self, view: ProcessorView) -> float:
        if view.belief is None:
            raise ValueError(
                f"processor {view.index} has no Markov belief; LW needs one"
            )
        cached = self._p_plus_cache.get(view.index)
        if cached is None:
            cached = p_plus(view.belief)
            self._p_plus_cache[view.index] = cached
        return cached

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
        return self._p_plus(view) ** ct

    def _score_ct_row(self, rs: RoundState, cache: dict, ct_row) -> list:
        # libm's pow per element: numpy's power is not promised to round
        # like it, so a large-p row is scored over its list form.
        p_plus_up = self._gather_belief(rs, cache, "p_plus")
        return [math.pow(base, ct) for base, ct in zip(p_plus_up, _as_list(ct_row))]

    def _score_ct_one(self, rs: RoundState, cache: dict, ct: int, i: int) -> float:
        p_plus_up = self._gather_belief(rs, cache, "p_plus")
        return math.pow(p_plus_up[i], ct)


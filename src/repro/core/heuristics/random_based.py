"""The random heuristic family (paper Section 6.2).

``Random`` picks uniformly among UP processors.  ``Random1``–``Random4``
weight the pick by a reliability signal derived from the processor's Markov
belief:

1. **Random1 — Long time UP**: weight :math:`P^{(q)}_{u,u}` — favours
   processors that stay UP for long stretches.
2. **Random2 — Likely to work more**: weight :math:`P^{(q)}_+` (Lemma 1) —
   favours processors likely to be UP again before crashing.
3. **Random3 — Often UP**: weight :math:`\\pi^{(q)}_u` — favours processors
   with a large steady-state UP fraction.
4. **Random4 — Rarely DOWN**: weight :math:`1 - \\pi^{(q)}_d` — penalises
   processors that are often DOWN.

Each variant also exists with the weight divided by :math:`w_q`
(suffix ``w``: ``Random1w`` … ``Random4w``), folding speed into the
reliability signal.  The paper finds the ``w`` variants uniformly better
(Table 2), which our reproduction confirms.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from ..expectation import p_plus
from ..markov import MarkovAvailabilityModel
from .base import ProcessorView, RoundState, Scheduler, SchedulingContext

__all__ = [
    "RandomScheduler",
    "WeightedRandomScheduler",
    "make_random_variant",
    "RANDOM_WEIGHTS",
    "RANDOM_WEIGHT_COLUMNS",
]


def _require_belief(view: ProcessorView) -> MarkovAvailabilityModel:
    if view.belief is None:
        raise ValueError(
            f"processor {view.index} has no Markov belief; the weighted random "
            "heuristics need one (use Processor.from_markov or pass belief=...)"
        )
    return view.belief


#: The paper's four reliability weights, keyed by variant number.
RANDOM_WEIGHTS: Dict[int, Callable[[ProcessorView], float]] = {
    1: lambda view: _require_belief(view).p_uu,
    2: lambda view: p_plus(_require_belief(view)),
    3: lambda view: _require_belief(view).pi_u,
    4: lambda view: 1.0 - _require_belief(view).pi_d,
}

#: The same four weights as (column name, post-gather transform) pairs
#: against the :class:`RoundState` cached belief columns.
RANDOM_WEIGHT_COLUMNS: Dict[int, tuple] = {
    1: ("p_uu", False),
    2: ("p_plus", False),
    3: ("pi_u", False),
    4: ("pi_d", True),  # weight is 1 - pi_d
}

_MISSING_BELIEF = (
    "the weighted random heuristics need one (use Processor.from_markov or "
    "pass belief=...)"
)


class RandomScheduler(Scheduler):
    """``Random``: uniform choice among UP processors."""

    name = "random"

    def select(
        self,
        ctx: SchedulingContext,
        candidates: List[ProcessorView],
        nq: Dict[int, int],
        n_active: int,
    ) -> Optional[int]:
        if not candidates:
            return None
        pick = int(ctx.rng.integers(len(candidates)))
        return candidates[pick].index

    def place_array(
        self,
        rs: RoundState,
        n_tasks: int,
        allowed: Optional[np.ndarray] = None,
    ) -> List[Optional[int]]:
        """Array path: same per-task uniform draws over the UP index array."""
        cand = rs.up_candidates(allowed)
        if cand.size == 0:
            return [None] * n_tasks
        cand_list = cand.tolist()
        rng = rs.rng
        return [cand_list[int(rng.integers(len(cand_list)))] for _ in range(n_tasks)]

    def place_distinct(
        self, rs: RoundState, n_tasks: int, allowed: np.ndarray
    ) -> List[Optional[int]]:
        """Replicas in one call, with the base loop's draws: one uniform
        ``integers`` per replica over the remaining candidates, ascending."""
        cand = rs.up_candidates(allowed).tolist()
        rng = rs.rng
        picks: List[Optional[int]] = [
            cand.pop(int(rng.integers(len(cand))))
            for _ in range(min(n_tasks, len(cand)))
        ]
        return self._distinct_tail(picks, n_tasks, allowed)


class WeightedRandomScheduler(Scheduler):
    """``RandomX``/``RandomXw``: reliability-weighted random choice.

    Args:
        weight_fn: maps a processor view to a non-negative weight.
        divide_by_speed: the ``w`` suffix — divide the weight by
            :math:`w_q` to also favour fast processors.
        name: registry name.
        variant: the paper's variant number (1–4) when ``weight_fn`` is one
            of :data:`RANDOM_WEIGHTS`; enables the vectorised array path
            (weights read off the round state's cached belief columns).
            ``None`` — e.g. a custom weight function — routes
            :meth:`place_array` through the legacy-path shim instead.
    """

    def __init__(
        self,
        weight_fn: Callable[[ProcessorView], float],
        *,
        divide_by_speed: bool = False,
        name: str = "random-weighted",
        variant: Optional[int] = None,
    ):
        self._weight_fn = weight_fn
        self._divide_by_speed = divide_by_speed
        self.name = name
        if variant is not None and variant not in RANDOM_WEIGHT_COLUMNS:
            raise ValueError(f"variant must be 1..4 or None, got {variant}")
        self._variant = variant
        self._weights_rs: Optional[RoundState] = None
        self._weights: Optional[tuple] = None

    def weight(self, view: ProcessorView) -> float:
        """The (possibly speed-normalised) sampling weight for ``view``."""
        value = float(self._weight_fn(view))
        if value < 0:
            raise ValueError(
                f"weight function returned negative weight {value} for "
                f"processor {view.index}"
            )
        if self._divide_by_speed:
            value /= view.speed_w
        return value

    def select(
        self,
        ctx: SchedulingContext,
        candidates: List[ProcessorView],
        nq: Dict[int, int],
        n_active: int,
    ) -> Optional[int]:
        if not candidates:
            return None
        weights = np.array([self.weight(view) for view in candidates], dtype=float)
        total = weights.sum()
        if total <= 0.0:
            # All weights vanished (e.g. every candidate believed hopeless);
            # degrade gracefully to a uniform pick rather than stalling.
            pick = int(ctx.rng.integers(len(candidates)))
            return candidates[pick].index
        probabilities = weights / total
        pick = int(
            np.searchsorted(np.cumsum(probabilities), ctx.rng.random(), side="right")
        )
        pick = min(pick, len(candidates) - 1)  # guard against fp rounding
        return candidates[pick].index

    def weight_vector(self, rs: RoundState) -> tuple:
        """The length-p sampling-weight vector over ``rs``, and whether any
        entry is NaN (a processor without a belief model).

        Belief columns and speeds are static for a run, so the vector is
        built once per :class:`RoundState` and cached, keyed on the object.
        Each entry is the same elementwise IEEE operation sequence the
        per-view weight functions apply (``1 - pi_d`` complement, ``/ w_q``
        division), so ``vector[cand]`` is bit-identical to the weights the
        legacy ``select`` builds per call.
        """
        if self._weights_rs is not rs:
            column, complement = RANDOM_WEIGHT_COLUMNS[self._variant]
            weights = rs.belief_column(column)
            if complement:
                weights = 1.0 - weights
            if self._divide_by_speed:
                weights = weights / rs.speed_w
            self._weights = (weights, bool(np.isnan(weights).any()))
            self._weights_rs = rs
        return self._weights

    def place_array(
        self,
        rs: RoundState,
        n_tasks: int,
        allowed: Optional[np.ndarray] = None,
    ) -> List[Optional[int]]:
        """Array path: a constant number of numpy calls per call.

        The legacy loop recomputes the (unchanging) weight vector on every
        placement; here the per-run weight vector is gathered once, the
        cumulative distribution is built once, and all tasks are placed by
        one batched draw and one inverse-CDF lookup — with the identical
        RNG stream (``rng.random(n)`` yields the same values as ``n``
        scalar ``rng.random()`` calls; the all-weights-vanished fallback
        keeps one ``rng.integers`` per task).
        """
        if self._variant is None:
            return super().place_array(rs, n_tasks, allowed)
        cand = rs.up_candidates(allowed)
        if cand.size == 0:
            return [None] * n_tasks
        all_weights, has_nan = self.weight_vector(rs)
        weights = all_weights[cand]
        if has_nan and np.isnan(weights).any():
            rs.require_beliefs(cand, _MISSING_BELIEF)  # raises with the index
        cand_list = cand.tolist()
        rng = rs.rng
        total = weights.sum()
        if total <= 0.0:
            # All weights vanished: degrade to uniform, as the scalar path.
            return [
                cand_list[int(rng.integers(len(cand_list)))] for _ in range(n_tasks)
            ]
        # The method form skips np.cumsum's Python dispatch wrapper.
        cumulative = (weights / total).cumsum()
        last = len(cand_list) - 1
        picks = cumulative.searchsorted(rng.random(n_tasks), side="right").tolist()
        return [cand_list[min(pick, last)] for pick in picks]  # fp-rounding guard

    def place_distinct(
        self, rs: RoundState, n_tasks: int, allowed: np.ndarray
    ) -> List[Optional[int]]:
        """Replicas in one call, with the base loop's draws.

        Each replica is one single placement over the remaining
        candidates, ascending: their weights are re-summed and the
        cumulative distribution rebuilt by the same numpy operations on
        the same values, so every draw — one ``random`` per replica, or
        one ``integers`` once the remaining weights vanish — lands where
        the loop's would.  A candidate without a belief raises on the
        first replica, as the loop's first placement does.
        """
        if self._variant is None:
            return super().place_distinct(rs, n_tasks, allowed)
        cand = rs.up_candidates(allowed)
        r = min(n_tasks, int(cand.size))
        if r == 0:
            return self._distinct_tail([], n_tasks, allowed)
        all_weights, has_nan = self.weight_vector(rs)
        weights = all_weights[cand]
        if has_nan and np.isnan(weights).any():
            rs.require_beliefs(cand, _MISSING_BELIEF)  # raises with the index
        cand_list = cand.tolist()
        rng = rs.rng
        picks: List[Optional[int]] = []
        for _ in range(r):
            total = weights.sum()
            if total <= 0.0:
                pick = int(rng.integers(len(cand_list)))
            else:
                cumulative = (weights / total).cumsum()
                pick = int(cumulative.searchsorted(rng.random(), side="right"))
                pick = min(pick, len(cand_list) - 1)  # fp-rounding guard
            picks.append(cand_list.pop(pick))
            weights = np.concatenate((weights[:pick], weights[pick + 1 :]))
        return self._distinct_tail(picks, n_tasks, allowed)


def make_random_variant(variant: int, weighted_by_speed: bool) -> Scheduler:
    """Factory for ``Random1``..``Random4`` and their ``w`` variants.

    Args:
        variant: 1–4, selecting the paper's weight definition.
        weighted_by_speed: True for the ``w`` suffix.
    """
    if variant not in RANDOM_WEIGHTS:
        raise ValueError(f"variant must be 1..4, got {variant}")
    suffix = "w" if weighted_by_speed else ""
    return WeightedRandomScheduler(
        RANDOM_WEIGHTS[variant],
        divide_by_speed=weighted_by_speed,
        name=f"random{variant}{suffix}",
        variant=variant,
    )

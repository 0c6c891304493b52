"""Passive baseline (paper Section 6.1's first heuristic class).

The paper sketches three heuristic classes — passive, dynamic, proactive —
and evaluates only dynamic ones.  We implement the passive class as an
ablation baseline: it keeps whatever processor received a task until that
processor goes DOWN, never migrating planned work to better processors that
come UP later.

Concretely, :class:`PassiveScheduler` wraps an inner selection heuristic
(MCT by default).  The first time a task slot must be placed it consults
the inner heuristic; on later rounds it re-issues the *same* processor for
each remembered task position as long as that processor is UP or
RECLAIMED, and only falls back to the inner heuristic for positions whose
processor went DOWN.

Because the dynamic simulator re-collects unpinned tasks each round, the
memory is positional: remembered choices are replayed in order for the
remaining (unpinned) tasks of the current iteration.  That reproduces the
defining passive behaviour — "the current configuration is changed only
when one of the enrolled processors becomes DOWN" — without needing task
identity to survive the re-planning boundary.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ...types import ProcState
from .base import RoundState, Scheduler, SchedulingContext
from .mct import MctScheduler

__all__ = ["PassiveScheduler"]


class PassiveScheduler(Scheduler):
    """Sticky assignment baseline: re-plan only on DOWN.

    Args:
        inner: heuristic used for initial placements and DOWN replacements
            (default: plain MCT).
    """

    def __init__(self, inner: Optional[Scheduler] = None):
        self._inner = inner if inner is not None else MctScheduler()
        self.name = f"passive({self._inner.name})"
        self._memory: List[int] = []  # processor per remaining-task position
        self._iteration_key: Optional[int] = None

    def place(
        self,
        ctx: SchedulingContext,
        n_tasks: int,
        allowed: Optional[Sequence[int]] = None,
    ) -> List[Optional[int]]:
        # Replica batches (restricted `allowed`) go straight to the inner
        # heuristic: replication is orthogonal to passivity.
        if allowed is not None:
            return self._inner.place(ctx, n_tasks, allowed)

        states: Dict[int, ProcState] = {
            view.index: view.state for view in ctx.processors
        }
        # Keep remembered choices whose processor is not DOWN.
        self._memory = [
            proc
            for proc in self._memory
            if states.get(proc, ProcState.DOWN) != ProcState.DOWN
        ]
        placements: List[Optional[int]] = []
        reused = 0
        for position in range(n_tasks):
            if position < len(self._memory):
                placements.append(self._memory[position])
                reused += 1
            else:
                placements.append(None)
        missing = n_tasks - reused
        if missing > 0:
            fresh = self._inner.place(ctx, missing, None)
            for offset, choice in enumerate(fresh):
                placements[reused + offset] = choice
                if choice is not None:
                    self._memory.append(choice)
        return placements

    def place_array(
        self,
        rs: RoundState,
        n_tasks: int,
        allowed: Optional[np.ndarray] = None,
    ) -> List[Optional[int]]:
        """Array path: the sticky-memory logic over the state column.

        Same structure as :meth:`place` — replica batches delegate to the
        inner heuristic, remembered choices survive unless their processor
        is DOWN (read straight from ``rs.state``), and only the missing
        tail consults the inner heuristic's array path.
        """
        if allowed is not None:
            return self._inner.place_array(rs, n_tasks, allowed)
        down = int(ProcState.DOWN)
        state = rs.state
        self._memory = [q for q in self._memory if int(state[q]) != down]
        placements: List[Optional[int]] = []
        reused = 0
        for position in range(n_tasks):
            if position < len(self._memory):
                placements.append(self._memory[position])
                reused += 1
            else:
                placements.append(None)
        missing = n_tasks - reused
        if missing > 0:
            fresh = self._inner.place_array(rs, missing, None)
            for offset, choice in enumerate(fresh):
                placements[reused + offset] = choice
                if choice is not None:
                    self._memory.append(choice)
        return placements

    def place_distinct(
        self, rs: RoundState, n_tasks: int, allowed: np.ndarray
    ) -> List[Optional[int]]:
        """Replica batches go to the inner heuristic, as in :meth:`place_array`."""
        return self._inner.place_distinct(rs, n_tasks, allowed)

    def select(self, ctx, candidates, nq, n_active):  # pragma: no cover
        # place() is fully overridden; select() is never reached.
        raise NotImplementedError("PassiveScheduler overrides place()")

    def reset(self) -> None:
        """Forget all sticky choices (called between simulations)."""
        self._memory.clear()

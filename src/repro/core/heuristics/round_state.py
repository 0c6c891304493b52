"""Array-backed scheduling context: the :class:`RoundState` API.

The legacy scheduler contract materialises a :class:`~repro.core.heuristics.
base.ProcessorView` dataclass per processor per scheduling round and scores
candidates one Python call at a time.  The paper's heuristics, however, only
consume a handful of per-processor *scalars* — state, :math:`w_q`,
``Delay(q)``, pinned count, program ownership, and belief-chain
probabilities — which is exactly the shape a structure-of-arrays layout
serves.  :class:`RoundState` holds those scalars as parallel numpy columns:

===================  =========  ==============================================
column               dtype      meaning
===================  =========  ==============================================
``state``            uint8      ground-truth state vector (``ProcState`` ints)
``speed_w``          int64      :math:`w_q` (static)
``delay``            int64      the paper's ``Delay(q)`` estimate
``pinned_count``     int64      instances whose work has begun on the worker
``has_program``      bool       full program resident
``prog_remaining``   int64      program transfer slots still needed
===================  =========  ==============================================

plus lazily computed, cached *belief columns* (:meth:`belief_column`)
derived from each processor's Markov chain: ``p_uu``, ``p_plus`` (Lemma 1),
``pi_u``, ``pi_d``, ``e_up`` (Theorem 2's :math:`E(up)`), and the UD
heuristic's precomputed ``ud_base`` / ``ud_avg_down`` / ``ud_degenerate``.
Belief columns hold ``NaN`` where a processor has no belief model;
:meth:`require_beliefs` converts that into the same ``ValueError`` the
legacy scalar heuristics raise.

**Ownership and maintenance.**  The object is a dumb container: whoever
owns it (normally :class:`~repro.sim.master.MasterSimulator`) writes the
dynamic columns in place and is responsible for keeping them equal to what
the legacy eager snapshot would contain at every scheduling round.  The
master recomputes, at each executed round, the processors it touched
since the previous one (DESIGN.md §8 lists the touching events) instead
of rebuilding p views from scratch; the columns carry no maintenance
state of their own.  Mutators must call :meth:`invalidate` after a batch
of column writes so the lazy compatibility caches are dropped.

**Compatibility shim.**  :meth:`view` materialises a single legacy
:class:`ProcessorView` (cached until :meth:`invalidate`), and
:meth:`as_context` wraps the whole state in a
:class:`~repro.core.heuristics.base.SchedulingContext` whose ``processors``
sequence materialises views lazily on first access — so external heuristics
written against the legacy scalar API keep working, paying the dataclass
cost only for the processors they actually touch.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ...types import ProcState
from ..expectation import expected_next_up, p_plus
from ..markov import MarkovAvailabilityModel

__all__ = ["RoundState", "LazyViewSequence"]

#: Process-global refresh-token source (see :attr:`RoundState.version`).
_VERSION_COUNTER = itertools.count(1)


def _ud_avg_down(model: MarkovAvailabilityModel) -> float:
    """The UD approximation's stationary-weighted escape probability.

    Matches the per-call expression in
    :func:`~repro.core.expectation.p_no_down_approx`; 0.0 for degenerate
    chains (``pi_u + pi_r <= 0``), which the ``ud_degenerate`` column
    routes to the legacy special case instead.
    """
    pi_u, pi_r = model.pi_u, model.pi_r
    if pi_u + pi_r <= 0.0:
        return 0.0
    return (model.p_ud * pi_u + model.p_rd * pi_r) / (pi_u + pi_r)


#: name -> scalar extractor for the cached belief-derived columns.
_BELIEF_COLUMNS: Dict[str, Callable[[MarkovAvailabilityModel], float]] = {
    "p_uu": lambda m: m.p_uu,
    "p_plus": p_plus,
    "pi_u": lambda m: m.pi_u,
    "pi_d": lambda m: m.pi_d,
    "e_up": expected_next_up,
    "ud_base": lambda m: 1.0 - m.p_ud,
    "ud_avg_down": _ud_avg_down,
    "ud_degenerate": lambda m: 1.0 if (m.pi_u + m.pi_r) <= 0.0 else 0.0,
}


class LazyViewSequence(Sequence):
    """``SchedulingContext.processors`` backed by a :class:`RoundState`.

    Indexing materialises (and caches) the requested
    :class:`~repro.core.heuristics.base.ProcessorView`; iteration
    materialises all of them.  Field-for-field equal to the eagerly built
    legacy snapshots (asserted by the shim test suite).
    """

    def __init__(self, round_state: "RoundState"):
        self._rs = round_state

    def __len__(self) -> int:
        return len(self._rs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._rs.view(q) for q in range(*index.indices(len(self)))]
        q = int(index)
        if q < 0:
            q += len(self)
        if not 0 <= q < len(self):
            raise IndexError(f"processor index {index} out of range")
        return self._rs.view(q)

    def __iter__(self):
        for q in range(len(self)):
            yield self._rs.view(q)


class RoundState:
    """Structure-of-arrays scheduling context shared across rounds.

    Args:
        speed_w: per-processor :math:`w_q` (static column).
        beliefs: per-processor Markov belief model (``None`` entries allowed;
            heuristics that need a belief raise on them, as in the legacy
            path).
        t_prog: program transfer length in slots.
        t_data: task input transfer length in slots.
        ncom: master channel budget (``None`` = unbounded).
        rng: RNG stream reserved for scheduler randomness.  Must be the
            *same* stream the legacy context would carry, so that the batch
            and scalar paths draw identical sequences.
        pipeline_provider: callable ``q -> tuple`` returning the worker's
            ``pinned_pipeline`` in service order, used only when a legacy
            ``ProcessorView`` is materialised through the shim.  Defaults
            to empty pipelines.
        slot: current time slot (updated by the owner per round).
        remaining_tasks: the context's ``m - m'`` (updated per round).
    """

    def __init__(
        self,
        *,
        speed_w: Sequence[int],
        beliefs: Sequence[Optional[MarkovAvailabilityModel]],
        t_prog: int,
        t_data: int,
        ncom: Optional[int],
        rng: np.random.Generator,
        pipeline_provider: Optional[Callable[[int], tuple]] = None,
        slot: int = 0,
        remaining_tasks: int = 0,
    ):
        self.speed_w = np.asarray(speed_w, dtype=np.int64)
        p = int(self.speed_w.size)
        self.beliefs: List[Optional[MarkovAvailabilityModel]] = list(beliefs)
        if len(self.beliefs) != p:
            raise ValueError(
                f"beliefs has {len(self.beliefs)} entries for {p} processors"
            )
        self.t_prog = t_prog
        self.t_data = t_data
        self.ncom = ncom
        self.rng = rng
        self.slot = slot
        self.remaining_tasks = remaining_tasks

        # Dynamic columns, written in place by the owner.
        self.state = np.full(p, int(ProcState.DOWN), dtype=np.uint8)
        self.delay = np.zeros(p, dtype=np.int64)
        self.pinned_count = np.zeros(p, dtype=np.int64)
        self.has_program = np.zeros(p, dtype=bool)
        self.prog_remaining = np.full(p, int(t_prog), dtype=np.int64)

        #: Refresh token: renewed by :meth:`invalidate`, so schedulers can
        #: key per-round caches (candidate sets, score rows) and drop them
        #: exactly when the columns move.  Drawn from a process-global
        #: counter so tokens never collide across RoundState instances.
        self.version = next(_VERSION_COUNTER)

        self._pipeline_provider = pipeline_provider or (lambda q: ())
        self._belief_columns: Dict[str, np.ndarray] = {}
        self._belief_column_lists: Dict[str, list] = {}
        self._speed_list: Optional[list] = None
        self._up: Optional[np.ndarray] = None
        self._views: Dict[int, object] = {}
        self._ctx = None

    def __len__(self) -> int:
        return int(self.speed_w.size)

    # ------------------------------------------------------------------ #
    # Belief-derived columns.                                              #
    # ------------------------------------------------------------------ #
    def belief_column(self, name: str) -> np.ndarray:
        """The cached belief-derived column ``name`` (NaN where no belief).

        Columns are computed lazily on first access with the *same* scalar
        functions the legacy heuristics call per view, so the cached floats
        are bit-identical to the legacy per-round computations.
        """
        column = self._belief_columns.get(name)
        if column is None:
            try:
                fn = _BELIEF_COLUMNS[name]
            except KeyError:
                known = ", ".join(sorted(_BELIEF_COLUMNS))
                raise KeyError(
                    f"unknown belief column {name!r}; known columns: {known}"
                ) from None
            column = np.full(len(self), np.nan, dtype=np.float64)
            for q, model in enumerate(self.beliefs):
                if model is not None:
                    column[q] = fn(model)
            self._belief_columns[name] = column
        return column

    def require_beliefs(self, indices: np.ndarray, needs: str) -> None:
        """Raise the legacy missing-belief ``ValueError`` if any of
        ``indices`` has no belief model, naming the first such index in
        ``indices`` order — the same processor the legacy scalar loop
        (which scores candidates in ascending order) would have tripped
        on first."""
        for q in np.asarray(indices).tolist():
            if self.beliefs[q] is None:
                raise ValueError(
                    f"processor {q} has no Markov belief; {needs}"
                )

    def belief_column_list(self, name: str) -> list:
        """The belief column as a cached Python float list (static, like
        the column itself) — the scheduler hot path gathers from lists to
        skip per-call numpy fancy indexing."""
        column = self._belief_column_lists.get(name)
        if column is None:
            column = self.belief_column(name).tolist()
            self._belief_column_lists[name] = column
        return column

    def speed_list(self) -> list:
        """``speed_w`` as a cached Python int list (static column)."""
        if self._speed_list is None:
            self._speed_list = self.speed_w.tolist()
        return self._speed_list

    # ------------------------------------------------------------------ #
    # Candidate selection.                                                 #
    # ------------------------------------------------------------------ #
    def up_candidates(self, allowed: Optional[np.ndarray] = None) -> np.ndarray:
        """Indices of UP processors (ascending), optionally restricted.

        Mirrors the legacy ``Scheduler._candidates`` semantics:
        ``allowed=None`` means every UP processor; otherwise ``allowed`` is
        a length-p boolean mask and the UP set is filtered to it, order
        preserved.  The UP index array is computed once per round (cached
        until :meth:`invalidate`; the base replication loop asks once per
        replica) and returned as-is for ``allowed=None`` — callers must
        not mutate it.
        """
        up = self._up
        if up is None:
            up = self._up = np.nonzero(self.state == int(ProcState.UP))[0]
        if allowed is None:
            return up
        return up[allowed[up]]

    # ------------------------------------------------------------------ #
    # Compatibility shim (lazy legacy views).                              #
    # ------------------------------------------------------------------ #
    def view(self, q: int):
        """Materialise the legacy :class:`ProcessorView` for processor ``q``.

        Cached until :meth:`invalidate`; field-for-field equal to the
        eager snapshot :func:`repro.sim.reference.eager_context` builds.
        """
        cached = self._views.get(q)
        if cached is None:
            from .base import ProcessorView  # local import: base imports us

            cached = ProcessorView(
                index=q,
                speed_w=int(self.speed_w[q]),
                state=ProcState(int(self.state[q])),
                belief=self.beliefs[q],
                has_program=bool(self.has_program[q]),
                delay=int(self.delay[q]),
                pinned_count=int(self.pinned_count[q]),
                prog_remaining=int(self.prog_remaining[q]),
                pinned_pipeline=tuple(self._pipeline_provider(q)),
            )
            self._views[q] = cached
        return cached

    def as_context(self):
        """The lazy legacy :class:`SchedulingContext` over this state.

        Cached until :meth:`invalidate`; handed to schedulers that do not
        implement the batch contract (external heuristics, the exact-UD
        ablation) so they keep working unchanged.
        """
        if self._ctx is None:
            from .base import SchedulingContext  # local import: no cycle

            self._ctx = SchedulingContext(
                slot=self.slot,
                t_prog=self.t_prog,
                t_data=self.t_data,
                ncom=self.ncom,
                processors=LazyViewSequence(self),
                remaining_tasks=self.remaining_tasks,
                rng=self.rng,
            )
        return self._ctx

    def invalidate(self) -> None:
        """Drop the lazy view/context/UP-list caches after columns changed.

        Owners call this once per refresh; belief columns are static and
        survive (they depend only on the immutable belief models).
        """
        self.version = next(_VERSION_COUNTER)
        self._up = None
        if self._views:
            self._views = {}
        self._ctx = None

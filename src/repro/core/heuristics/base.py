"""Scheduler interface: the contract between the simulator and heuristics.

At each scheduling round the master builds a :class:`SchedulingContext`
containing, for every processor, a :class:`ProcessorView` snapshot: its
current state, its believed Markov chain, its speed, whether it holds the
program, and the paper's ``Delay(q)`` estimate.  The scheduler then *places*
a batch of task instances — the ``m - m'`` remaining (unpinned) tasks of the
current iteration, or a batch of replicas — onto UP processors.

All of the paper's heuristics share the same outer structure (Section 6.1:
"All heuristics assign tasks to processors one-by-one, until m tasks are
assigned"), so :class:`GreedyScheduler` and the random schedulers only
implement a per-task *selection rule*; the one-by-one loop, the per-round
``n_q`` bookkeeping and the ``n_active`` counter used by the
contention-corrected variants live here.

Two entry points realise that protocol:

* :meth:`Scheduler.place` — the legacy scalar path over an eagerly built
  :class:`SchedulingContext` of :class:`ProcessorView` snapshots;
* :meth:`Scheduler.place_array` — the array-backed path over a
  :class:`~repro.core.heuristics.round_state.RoundState`.  The CT-based
  greedy heuristics score it from one ``n_q = 0`` row per round and
  contention factor (:meth:`GreedyScheduler._score_ct_row`) plus one
  scalar re-score per placement (:meth:`GreedyScheduler._score_ct_one`).
  The two paths are **bit identical** — same scores (the kernels repeat
  the scalar ``score`` path's IEEE-754 operations, with ``math.pow``
  where numpy's SIMD ``np.power`` differs from libm by an ulp), same
  one-by-one greedy order, same lowest-index tie-break, same RNG draw
  sequence — which the equivalence suite asserts per registry heuristic.
  Schedulers that do not opt into batch scoring (the exact-UD ablations,
  the clairvoyant oracle, external subclasses) transparently run the
  legacy path over the lazy compatibility shim
  (:meth:`RoundState.as_context`).  A replication round's replicas come
  from one :meth:`Scheduler.place_distinct` call, equal to a loop of
  single ``place_array`` calls.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...rng import default_scheduler_rng
from ...types import ProcState
from ..markov import MarkovAvailabilityModel
from .round_state import RoundState

#: Processor count from which the array-path round caches are assembled
#: with numpy gathers instead of Python list comprehensions.  Both
#: assemblies produce element-for-element identical values (exact int64
#: arithmetic / pure copies), so the threshold is a pure speed knob: below
#: it the fixed per-ufunc overhead loses to list ops, above it the numpy
#: path is the difference between O(p) Python and O(p) C per round.
_VECTOR_MIN_P = 128


def _uniform_factor(k: int, n_active: int, n_tasks: int, ncom: int) -> Optional[int]:
    """The contention factor of every score a placement call evaluates,
    or ``None`` when it can vary within the call.

    Over ``k`` candidates of which ``n_active`` already hold pinned work,
    every factor evaluation of an ``n_tasks``-placement call sees an
    active count in ``[n_active, min(k, n_active + min(k - n_active,
    n_tasks) + 1)]`` (``n_active`` only grows, by one per first placement
    on a pinned-free candidate), and ``ceil(·/ncom)`` is monotone, so
    when the two endpoints agree the factor is provably constant.
    """
    upper = n_active + min(k - n_active, n_tasks) + 1
    if upper > k:
        upper = k
    factor = max(1, -(-n_active // ncom))
    return factor if factor == max(1, -(-upper // ncom)) else None


def _as_list(row) -> list:
    """A score or CT row as a list (large-p rows are numpy arrays)."""
    return row.tolist() if isinstance(row, np.ndarray) else row


class _RoundCache(dict):
    """A greedy round's cache (:meth:`GreedyScheduler._round_setup`).

    At large p only the arrays are stored up front; a read of the list
    form ``up_list`` or ``pinned_zero`` converts its array once and keeps
    the list for the rest of the round.
    """

    def __missing__(self, key):
        if key == "up_list":
            value = self["up_arr"].tolist()
        elif key == "pinned_zero":
            value = self["pinned_zero_arr"].tolist()
        else:
            raise KeyError(key)
        self[key] = value
        return value


__all__ = [
    "ProcessorView",
    "SchedulingContext",
    "RoundState",
    "Scheduler",
    "GreedyScheduler",
    "completion_time_estimate",
]


@dataclass
class ProcessorView:
    """Immutable-by-convention snapshot of one processor for one round.

    Attributes:
        index: processor index.
        speed_w: :math:`w_q`, UP slots per task.
        state: current ground-truth state (the master knows states via the
            heartbeat assumption, Section 3.2).
        belief: the Markov chain the scheduler believes governs this
            processor (``None`` only in contexts where no Markov-informed
            heuristic is in use).
        has_program: True when the worker currently holds the full program.
        delay: the paper's ``Delay(q)`` — slots before the worker finishes
            its already-pinned activities, under the stay-UP/no-contention
            simplification (Section 6.3.1).  Includes remaining program
            transfer time for workers that still need (part of) the program.
        pinned_count: number of task instances already pinned to the worker
            (used to seed the ``n_active`` counter).
        prog_remaining: program transfer slots still needed (0 when the
            worker holds the program).
        pinned_pipeline: per pinned instance, in service order, a tuple
            ``(data_remaining, compute_remaining, computing)``.  The paper's
            heuristics only consume the aggregate ``delay``; the detailed
            pipeline feeds extensions such as the clairvoyant baseline.
    """

    index: int
    speed_w: int
    state: ProcState
    belief: Optional[MarkovAvailabilityModel]
    has_program: bool
    delay: int
    pinned_count: int
    prog_remaining: int = 0
    pinned_pipeline: tuple = ()

    @property
    def is_up(self) -> bool:
        """True when the processor can currently be assigned work."""
        return self.state == ProcState.UP


@dataclass
class SchedulingContext:
    """Everything a heuristic may look at during one scheduling round.

    Attributes:
        slot: current time slot.
        t_prog: program transfer length (slots).
        t_data: task input transfer length (slots).
        ncom: master channel budget (``None`` = unbounded).
        processors: snapshot of all processors (indexable by processor
            index — the list is ordered).
        remaining_tasks: ``m - m'`` — tasks of the current iteration whose
            work has not begun anywhere.
        rng: RNG stream reserved for scheduler randomness (the random
            heuristic family), distinct from availability sampling streams.
            Pass an explicit stream whenever two contexts must not share
            randomness; when omitted, the default is the *seeded*
            :func:`~repro.rng.default_scheduler_rng` stream — an unseeded
            ``default_rng()`` here would silently fall back to OS entropy
            and make randomised heuristics unreproducible run-to-run.
    """

    slot: int
    t_prog: int
    t_data: int
    ncom: Optional[int]
    processors: List[ProcessorView]
    remaining_tasks: int
    rng: np.random.Generator = field(default_factory=default_scheduler_rng)

    def up_processors(self) -> List[ProcessorView]:
        """Views of the processors currently UP, ascending index."""
        return [view for view in self.processors if view.is_up]


def completion_time_estimate(
    view: ProcessorView,
    nq: int,
    t_data: int,
    *,
    contention_factor: int = 1,
) -> float:
    """The paper's ``CT(P_q, n_q)`` estimate (Equations 1 and 2).

    Equation 1 (``contention_factor == 1``):

    .. math::
       CT(P_q, n_q) = Delay(q) + T_{data}
                      + \\max(n_q - 1, 0)\\,\\max(T_{data}, w_q) + w_q

    Equation 2 replaces :math:`T_{data}` by
    :math:`\\lceil n_{active} / n_{com} \\rceil T_{data}` — the caller passes
    that ceiling as ``contention_factor``.

    Args:
        view: the processor snapshot (provides ``Delay(q)`` and ``w_q``).
        nq: number of tasks assigned to this processor *in this round*,
            including the candidate one (the paper evaluates
            ``CT(P_q, n_q + 1)``; callers pass the incremented value).
        t_data: the uncorrected data transfer time.
        contention_factor: ``ceil(n_active / n_com)`` for Equation 2.

    Returns:
        The estimated completion-time in slots (float to allow its use as
        the workload of Theorem 2's expectation).
    """
    if nq < 1:
        raise ValueError(f"nq must be >= 1 when estimating a placement, got {nq}")
    eff_t_data = contention_factor * t_data
    return (
        view.delay
        + eff_t_data
        + max(nq - 1, 0) * max(eff_t_data, view.speed_w)
        + view.speed_w
    )


class Scheduler(abc.ABC):
    """Base class for all scheduling heuristics.

    Subclasses implement :meth:`select`, choosing one processor for one
    task given the per-round load picture.  The shared :meth:`place` loop
    then realises the paper's one-by-one assignment protocol.

    Schedulers may be stateful across rounds (the passive baseline is), but
    all paper heuristics are round-stateless.
    """

    #: Registry name; subclasses set this (e.g. ``"emct*"``).
    name: str = "scheduler"

    def place(
        self,
        ctx: SchedulingContext,
        n_tasks: int,
        allowed: Optional[Sequence[int]] = None,
    ) -> List[Optional[int]]:
        """Assign ``n_tasks`` task instances to processors, one by one.

        Args:
            ctx: the scheduling context.
            n_tasks: how many instances to place.
            allowed: optional sequence of the processor indices that may
                be used (the reference simulator restricts replica
                placement to idle workers).  Defaults to all UP processors.

        Returns:
            A list of length ``n_tasks`` with the chosen processor index
            per instance, or ``None`` for instances that could not be
            placed (no eligible processor).
        """
        candidates = self._candidates(ctx, allowed)
        placements: List[Optional[int]] = []
        nq: Dict[int, int] = {view.index: 0 for view in candidates}
        n_active = sum(1 for view in candidates if view.pinned_count > 0)
        for _ in range(n_tasks):
            if not candidates:
                placements.append(None)
                continue
            choice = self.select(ctx, candidates, nq, n_active)
            if choice is None:
                placements.append(None)
                continue
            if nq[choice] == 0:
                view = next(v for v in candidates if v.index == choice)
                if view.pinned_count == 0:
                    n_active += 1
            nq[choice] += 1
            placements.append(choice)
        return placements

    def place_array(
        self,
        rs: RoundState,
        n_tasks: int,
        allowed: Optional[np.ndarray] = None,
    ) -> List[Optional[int]]:
        """Assign ``n_tasks`` instances from an array-backed round state.

        The array-path twin of :meth:`place`; the master calls this with
        its incrementally maintained :class:`RoundState`.  ``allowed`` is
        ``None`` (every UP processor) or a length-p boolean mask of the
        eligible processors (the master's idle mask for replicas).  The
        base implementation is the compatibility shim: it converts the
        mask to an index list once, materialises the lazy legacy context
        (:meth:`RoundState.as_context`) and runs the scalar path, so any
        external :class:`Scheduler` subclass keeps working — and keeps
        producing bit-identical placements — without changes.
        Batch-capable subclasses override this.
        """
        if allowed is not None:
            allowed = np.flatnonzero(allowed).tolist()
        return self.place(rs.as_context(), n_tasks, allowed)

    def place_distinct(
        self, rs: RoundState, n_tasks: int, allowed: np.ndarray
    ) -> List[Optional[int]]:
        """Place up to ``n_tasks`` replicas on distinct allowed processors.

        ``allowed`` is a length-p boolean mask (the master's idle mask);
        it is not modified.  The base implementation is the replication
        loop itself: one single placement (:meth:`place_array`) per task,
        each choice that the master will not refuse — not ``None``, not
        DOWN — taken off the mask, stopping once the mask is empty.  An
        unknown processor ends the loop; the master raises on it.  The
        ``i``-th entry is the choice for the ``i``-th task, so the list is
        shorter than ``n_tasks`` exactly when the mask ran out.
        """
        mask = allowed.copy()
        n_free = int(np.count_nonzero(mask))
        down = int(ProcState.DOWN)
        state = rs.state
        choices: List[Optional[int]] = []
        for _ in range(n_tasks):
            if n_free == 0:
                break
            choice = self.place_array(rs, 1, mask)[0]
            choices.append(choice)
            if choice is None:
                continue
            if not 0 <= choice < len(mask):
                break
            if state[choice] != down:
                mask[choice] = False
                n_free -= 1
        return choices

    @staticmethod
    def _distinct_tail(
        picks: List[Optional[int]], n_tasks: int, allowed: np.ndarray
    ) -> List[Optional[int]]:
        """Finish a batched :meth:`place_distinct` answer as the base loop
        does: after the ``r`` picks it stops once the mask is empty; with
        allowed processors left over (none of them UP) it answers
        ``None`` per remaining task."""
        r = len(picks)
        if r < n_tasks and int(np.count_nonzero(allowed)) > r:
            picks.extend([None] * (n_tasks - r))
        return picks

    # No simulator code calls this; it stays only because the end-to-end
    # benchmark tracer wraps it by name.
    def would_replan(self, rs: RoundState, probe: object) -> bool:
        return True

    def _candidates(
        self, ctx: SchedulingContext, allowed: Optional[Sequence[int]]
    ) -> List[ProcessorView]:
        ups = ctx.up_processors()
        if allowed is None:
            return ups
        allowed_set = set(allowed)
        return [view for view in ups if view.index in allowed_set]

    @abc.abstractmethod
    def select(
        self,
        ctx: SchedulingContext,
        candidates: List[ProcessorView],
        nq: Dict[int, int],
        n_active: int,
    ) -> Optional[int]:
        """Choose the processor for the next task.

        Args:
            ctx: the scheduling context.
            candidates: UP processors eligible for this placement batch.
            nq: tasks assigned per processor so far *in this round* (keyed
                by processor index; counts exclude pinned work, which is
                captured by ``Delay``).
            n_active: the paper's ``n_active`` counter — processors that
                have (or just received) work, used by the Equation 2
                contention correction.

        Returns:
            The chosen processor index, or ``None`` to leave the task
            unassigned this round.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class GreedyScheduler(Scheduler):
    """Shared skeleton for score-based greedy heuristics (MCT/LW/UD family).

    Subclasses implement :meth:`score`; the candidate minimising (or
    maximising, per :attr:`maximize`) the score wins.  Ties break toward
    the lower processor index, matching the deterministic tie-break used
    throughout the package.

    **Scoring forms.**  A CT-based subclass scores in three forms that
    must agree bit for bit at every ``(q, n_q, factor)``: :meth:`score`
    (the legacy scalar path over a :class:`ProcessorView`),
    :meth:`_score_ct_row` (one ``n_q = 0`` row over the round's UP set)
    and :meth:`_score_ct_one` (one re-score after a placement).  The two
    kernels take integer ``CT`` values from :meth:`_ct_bases`, so they
    must repeat :meth:`score`'s IEEE-754 operation sequence exactly —
    exponentiation through ``math.pow``, never ``np.power``.  Setting
    :attr:`batch_scoring` opts into the array-path :meth:`place_array`;
    the scores must then satisfy the lazy heap's monotonicity
    requirement — monotone (non-decreasing for minimised scores,
    non-increasing for maximised ones) in both ``n_q`` and ``n_active``.
    """

    #: Whether higher scores are better (LW/UD maximise probabilities).
    maximize: bool = False

    #: Whether Equation 2's contention factor replaces ``t_data``.
    use_contention_factor: bool = False

    #: True when the instance implements :meth:`_score_ct_row` /
    #: :meth:`_score_ct_one`; False routes :meth:`place_array` through the
    #: legacy-path compatibility shim (external heuristics, trace walkers).
    batch_scoring: bool = False

    #: The missing-belief error suffix for heuristics whose score needs a
    #: Markov belief (``None`` for belief-free scores).  The array path's
    #: score rows span the whole UP set, so belief checks happen against
    #: the *candidates* of each placement call — matching the legacy
    #: scalar loop, which only ever scores candidates.
    _belief_needs: Optional[str] = None

    def contention_factor(self, ctx: SchedulingContext, n_active: int) -> int:
        """``ceil(n_active / ncom)`` when enabled and bounded, else 1."""
        if not self.use_contention_factor or ctx.ncom is None:
            return 1
        return max(1, -(-n_active // ctx.ncom))

    @abc.abstractmethod
    def score(
        self,
        ctx: SchedulingContext,
        view: ProcessorView,
        nq_plus_one: int,
        contention_factor: int,
    ) -> float:
        """Score of placing the next task on ``view``."""

    def _score_ct_row(self, rs: RoundState, cache: dict, ct_row):
        """Row kernel: scores of the round's UP set (``cache["up_list"]``
        order) from integer ``CT`` values — a list below
        ``_VECTOR_MIN_P``, an int64 array from it up, where the result
        may be an array too.  The result may be ``ct_row`` itself, so
        neither row is ever mutated."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement batch scoring"
        )

    def _score_ct_one(self, rs: RoundState, cache: dict, ct: int, i: int) -> float:
        """Re-score kernel: the score of UP position ``i`` at integer ``ct``."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement batch scoring"
        )

    def select(
        self,
        ctx: SchedulingContext,
        candidates: List[ProcessorView],
        nq: Dict[int, int],
        n_active: int,
    ) -> Optional[int]:
        # n_active counts this candidate placement as active, matching the
        # paper's "incremented when a task is assigned to a newly enrolled
        # processor": the transfer we are costing will itself be active.
        best_index: Optional[int] = None
        best_score = 0.0
        for view in candidates:
            value = self._speculative_score(ctx, view, nq[view.index], n_active)
            if best_index is None:
                best_index, best_score = view.index, value
            elif self.maximize and value > best_score:
                best_index, best_score = view.index, value
            elif not self.maximize and value < best_score:
                best_index, best_score = view.index, value
        return best_index

    def _speculative_score(
        self, ctx: SchedulingContext, view: ProcessorView, nq_view: int, n_active: int
    ) -> float:
        speculative_active = n_active
        if nq_view == 0 and view.pinned_count == 0:
            speculative_active += 1
        factor = self.contention_factor(ctx, speculative_active)
        return self.score(ctx, view, nq_view + 1, factor)

    def place(
        self,
        ctx: SchedulingContext,
        n_tasks: int,
        allowed: Optional[Sequence[int]] = None,
    ) -> List[Optional[int]]:
        """Greedy placement via a lazy-revalidation heap.

        Produces exactly the same assignments as the generic one-by-one
        loop (same scores, same lowest-index tie-break) but evaluates the
        score function ~``p + n_tasks`` times per round instead of
        ``p × n_tasks``.  Correctness of the lazy heap relies on scores
        being monotone in both ``n_q`` and ``n_active`` (``CT`` grows with
        both, so minimised scores only grow stale-upward and maximised
        probabilities only grow stale-downward); a popped entry is
        re-scored and re-pushed if it no longer matches.
        """
        if n_tasks == 0:
            return []  # nothing to place: score no candidate
        candidates = self._candidates(ctx, allowed)
        placements: List[Optional[int]] = []
        if not candidates:
            return [None] * n_tasks
        nq: Dict[int, int] = {view.index: 0 for view in candidates}
        n_active = sum(1 for view in candidates if view.pinned_count > 0)
        sign = -1.0 if self.maximize else 1.0
        heap = [
            (
                sign * self._speculative_score(ctx, view, 0, n_active),
                view.index,
                view,
            )
            for view in candidates
        ]
        heapq.heapify(heap)
        for _ in range(n_tasks):
            while True:
                key, index, view = heap[0]
                current = sign * self._speculative_score(
                    ctx, view, nq[index], n_active
                )
                if current == key:
                    break
                heapq.heapreplace(heap, (current, index, view))
            placements.append(index)
            if nq[index] == 0 and view.pinned_count == 0:
                n_active += 1
            nq[index] += 1
            heapq.heapreplace(
                heap,
                (
                    sign * self._speculative_score(ctx, view, nq[index], n_active),
                    index,
                    view,
                ),
            )
        return placements

    # -- per-round cache for the array path -------------------------------
    _round_version = None
    _round_cache: Optional[dict] = None
    #: Row elements built by :meth:`_score_ct_row`, summed over the run
    #: (surfaced as ``MasterSimulator.op_counts["rows_scored"]``).
    rows_scored = 0

    def _round_setup(self, rs: RoundState) -> dict:
        """Per-round candidate/score cache, keyed on ``rs.version``.

        A scheduling round issues several calls against an unchanged round
        state (the main ``place_array`` batch, then the replicas'
        ``place_distinct``), and within a round a score depends only on
        ``(q, n_q + 1, factor)``.  The cache holds the UP candidate list,
        the per-factor CT coefficients and nq-zero score rows, and belief
        gathers.  At the paper's p ≈ 20 everything is assembled as plain
        Python lists (the fixed per-ufunc numpy overhead dwarfs
        per-element Python arithmetic there); from ``_VECTOR_MIN_P``
        processors up, the assembly runs as numpy gathers over the column
        arrays instead — exact integer/copy operations, so every element
        is identical — and the CT coefficients and score rows stay arrays,
        with the UP index array (``up_arr``) kept for the large-p argmin
        loop (:meth:`_place_argmin`).  There the list forms ``up_list`` /
        ``pinned_zero`` are built on first read (:class:`_RoundCache`),
        since only the contended heap loop reads them.  Nothing survives
        a refresh: the next ``rs.version`` rebuilds the cache from the
        columns.
        """
        if self._round_version != rs.version:
            up_state = int(ProcState.UP)
            cache = self._round_cache = _RoundCache(
                row0={}, row0_arr={}, ct={}, gathers=None, belief={}, belief_arr={}
            )
            if len(rs) >= _VECTOR_MIN_P:
                up_arr = np.nonzero(rs.state == up_state)[0]
                cache["up_arr"] = up_arr
                cache["pinned_zero_arr"] = rs.pinned_count[up_arr] == 0
            else:
                state_list = rs.state.tolist()
                up_list = [q for q, s in enumerate(state_list) if s == up_state]
                pinned_list = rs.pinned_count.tolist()
                cache["up_list"] = up_list
                cache["up_arr"] = None
                cache["pinned_zero"] = [pinned_list[q] == 0 for q in up_list]
                cache["pinned_zero_arr"] = None
            self._round_version = rs.version
        return self._round_cache

    def _gather_belief(self, rs: RoundState, cache: dict, name: str) -> list:
        """Belief column over the round's UP set as a Python float list.

        Memoised per round (the full-column list is static and cached on
        the round state).  NaN entries (missing beliefs) pass through:
        score rows cover the whole UP set while a placement call may be
        restricted to a subset, and the legacy contract only raises when
        a belief-less processor is an actual *candidate* — which
        ``place_array`` enforces against its candidate keys.
        """
        gathered = cache["belief"].get(name)
        if gathered is None:
            if cache["up_arr"] is not None:
                gathered = self._gather_belief_array(rs, cache, name).tolist()
            else:
                up_list = cache["up_list"]
                column = rs.belief_column_list(name)
                gathered = [column[q] for q in up_list]
            cache["belief"][name] = gathered
        return gathered

    def _gather_belief_array(
        self, rs: RoundState, cache: dict, name: str
    ) -> np.ndarray:
        """Large p only: the belief column over the UP set as a float64
        array (one gather per round), for row kernels scored with numpy."""
        gathered = cache["belief_arr"].get(name)
        if gathered is None:
            gathered = cache["belief_arr"][name] = rs.belief_column(name)[
                cache["up_arr"]
            ]
        return gathered

    def _ct_bases(self, rs: RoundState, cache: dict, factor: int) -> tuple:
        """Per-factor CT coefficients over the UP set, memoised per round.

        ``CT(P_q, nq + 1) = base_q + nq · step_q`` with
        ``base_q = Delay(q) + eff + w_q`` and ``step_q = max(eff, w_q)``
        where ``eff = factor · t_data`` — integer arithmetic, hence
        exactly associative and bit-identical to the scalar
        :func:`completion_time_estimate` at every ``(q, nq, factor)``,
        whether assembled element-wise or as int64 numpy expressions
        (the large-p branch, which keeps them as int64 arrays: a
        ``tolist`` and back per row would cost more than the row).
        """
        ct_bases = cache["ct"].get(factor)
        if ct_bases is None:
            gathers = cache["gathers"]
            if gathers is None:
                up_arr = cache["up_arr"]
                if up_arr is not None:
                    gathers = cache["gathers"] = (
                        rs.delay[up_arr],
                        rs.speed_w[up_arr],
                    )
                else:
                    up_list = cache["up_list"]
                    delay_list = rs.delay.tolist()
                    speed_list = rs.speed_list()
                    gathers = cache["gathers"] = (
                        [delay_list[q] for q in up_list],
                        [speed_list[q] for q in up_list],
                    )
            delay, speed = gathers
            eff = factor * rs.t_data
            if isinstance(delay, np.ndarray):
                ct_bases = cache["ct"][factor] = (
                    delay + (eff + speed),
                    np.maximum(eff, speed),
                )
            else:
                ct_bases = cache["ct"][factor] = (
                    [d + eff + w for d, w in zip(delay, speed)],
                    [eff if eff > w else w for w in speed],
                )
        return ct_bases

    def _place_argmin(
        self, rs: RoundState, cache: dict, n_tasks: int, allowed
    ) -> list:
        """Large-p placement: one masked argmin per task over the UP positions.

        The keys are the memoised signed ``n_q = 0`` row; positions outside
        ``allowed`` read ``+inf`` (every CT-based score is finite), and each
        placed position is re-scored in place.  ``argmin`` returns the
        first occurrence of the minimum and ``up_arr`` ascends, so each
        pick is the lazy heap's lexicographic minimum ``(key, q)``.  A row
        holding a NaN (a processor without a belief) has its candidates
        checked, raising the legacy error for the first belief-less one in
        ascending order as the scalar loop does; a NaN outside ``allowed``
        is masked to ``+inf`` like any other non-candidate.  Returns
        ``NotImplemented`` when the contention factor can vary within the
        call, sending the caller to the contended heap loop.
        """
        up_arr = cache["up_arr"]
        sel = None if allowed is None else allowed[up_arr]
        k = up_arr.size if sel is None else int(np.count_nonzero(sel))
        if k == 0:
            return [None] * n_tasks
        if not self.use_contention_factor or rs.ncom is None:
            factor = 1
        else:
            pinned_zero = cache["pinned_zero_arr"]
            if sel is not None:
                pinned_zero = sel & pinned_zero
            n_active = k - int(np.count_nonzero(pinned_zero))
            factor = _uniform_factor(k, n_active, n_tasks, rs.ncom)
            if factor is None:
                return NotImplemented  # mixed factors: contended heap loop
        keys, has_nan = self._row0_keys(rs, cache, factor)
        if has_nan:
            rs.require_beliefs(
                up_arr if sel is None else up_arr[sel], self._belief_needs
            )
        working = keys.copy() if sel is None else np.where(sel, keys, np.inf)
        base, step = self._ct_bases(rs, cache, factor)
        sign = -1.0 if self.maximize else 1.0
        score_ct = self._score_ct_one
        picked: List[int] = []
        nq: Dict[int, int] = {}
        while True:
            i = int(working.argmin())
            picked.append(i)
            if len(picked) == n_tasks:
                return up_arr[picked].tolist()
            count = nq.get(i, 0) + 1
            nq[i] = count
            ct = int(base[i]) + count * int(step[i])
            working[i] = sign * score_ct(rs, cache, ct, i)

    def _row0(self, rs: RoundState, cache: dict, factor: int):
        """Every UP processor's score at ``n_q = 0``, memoised per round.

        This is the row every placement call starts from (and the only
        full-width scoring work a round pays): the CT at ``nq = 0`` is the
        ``base`` coefficient itself, scored by one :meth:`_score_ct_row`
        call.  A list below ``_VECTOR_MIN_P``; from it up, the kernel
        receives the int64 ``base`` array and may return an array.
        """
        row = cache["row0"].get(factor)
        if row is None:
            base, _step = self._ct_bases(rs, cache, factor)
            row = cache["row0"][factor] = self._score_ct_row(rs, cache, base)
            self.rows_scored += len(row)
        return row

    def _row0_keys(self, rs: RoundState, cache: dict, factor: int) -> tuple:
        """The ``n_q = 0`` row as a signed float64 array, and whether it
        holds a NaN, memoised per round.

        ``sign * value`` in float64 is the same operation element-wise or
        vectorised, so these keys equal the scalar paths' keys bit for
        bit.  Hoisting the float64 conversion and the NaN test here
        makes them one per round × factor, shared by the round's main
        placement and its replica selection, instead of one per call.
        """
        entry = cache["row0_arr"].get(factor)
        if entry is None:
            sign = -1.0 if self.maximize else 1.0
            keys = sign * np.asarray(
                self._row0(rs, cache, factor), dtype=np.float64
            )
            entry = cache["row0_arr"][factor] = (keys, bool(np.isnan(keys).any()))
        return entry

    def place_array(
        self,
        rs: RoundState,
        n_tasks: int,
        allowed: Optional[np.ndarray] = None,
    ) -> List[Optional[int]]:
        """Array-path greedy placement over cached per-round score rows.

        ``allowed`` is ``None`` or a length-p boolean mask (see
        :meth:`Scheduler.place_array`).  The one-by-one loop, the
        ``n_q``/``n_active`` bookkeeping and the lowest-index tie-break
        are the legacy :meth:`place` loop's, with every score read from
        the ``n_q = 0`` row (memoised per round and contention factor,
        shared with the round's replica selection) or re-scored from the
        cached CT coefficients.  From ``_VECTOR_MIN_P`` processors, every
        call whose contention factor is constant runs the masked argmin
        loop (:meth:`_place_argmin`); below it, every call runs the lazy
        heap.  Two exact shortcuts replace the legacy re-validation
        re-scores: without contention a heap entry can never go stale
        (its key is refreshed whenever its ``n_q`` moves, and nothing
        else enters its score), and with contention an entry is stale
        only when its applicable factor differs from the factor it was
        scored at — in both cases the comparison the legacy loop performs
        would succeed, so popping directly is bit-identical.  Heap keys
        are the same float64 values in the same ``(key, index)`` order
        as the scalar path, so the produced assignments are too.  Mixed
        contention factors at any p run the contended heap loop, whose
        first pop is the same minimum ``(key, index)`` pair.
        """
        if not self.batch_scoring:
            return super().place_array(rs, n_tasks, allowed)
        if n_tasks == 0:
            return []  # nothing to place: skip candidate setup and scoring
        cache = self._round_setup(rs)
        if cache["up_arr"] is not None:
            placed = self._place_argmin(rs, cache, n_tasks, allowed)
            if placed is not NotImplemented:
                return placed
        up_list = cache["up_list"]
        if allowed is None:
            positions = None  # identity: candidate j is UP position j
            cand_list = up_list
            pinned_zero = cache["pinned_zero"]
        else:
            mask = allowed.tolist()
            positions = [i for i, q in enumerate(up_list) if mask[q]]
            cand_list = [up_list[i] for i in positions]
            all_pinned_zero = cache["pinned_zero"]
            pinned_zero = [all_pinned_zero[i] for i in positions]
        k = len(cand_list)
        if k == 0:
            return [None] * n_tasks
        n_active = k - sum(pinned_zero)
        sign = -1.0 if self.maximize else 1.0
        ncom = rs.ncom
        if not self.use_contention_factor or ncom is None:
            uniform_factor: Optional[int] = 1
        else:
            uniform_factor = _uniform_factor(k, n_active, n_tasks, ncom)

        # Initial speculative scores: nq = 0 everywhere, so each candidate
        # speculates itself newly active iff it has no pinned work; at
        # most two distinct contention factors occur among them.
        if uniform_factor is not None:
            keys_factor = uniform_factor
        else:
            factor_base = max(1, -(-n_active // ncom))
            factor_spec = max(1, -(-(n_active + 1) // ncom))
            entry_factor = [factor_base] * k
            if factor_spec == factor_base:
                keys_factor = factor_base
            else:
                keys_factor = None
                row_base = _as_list(self._row0(rs, cache, factor_base))
                row_spec = _as_list(self._row0(rs, cache, factor_spec))
                keys = []
                for j in range(k):
                    i = j if positions is None else positions[j]
                    if pinned_zero[j]:
                        keys.append(sign * row_spec[i])
                        entry_factor[j] = factor_spec
                    else:
                        keys.append(sign * row_base[i])
        if keys_factor is not None:
            # One factor for every initial key: read the memoised row
            # (the heap loop reads lists; at large p it runs only for
            # mixed contention factors).
            row0 = _as_list(self._row0(rs, cache, keys_factor))
            if positions is None:
                keys = [sign * value for value in row0]
            else:
                keys = [sign * row0[i] for i in positions]
        if self._belief_needs is not None and any(key != key for key in keys):
            # A NaN key means a *candidate* lacks a belief model: raise the
            # legacy error for the first such candidate, as the scalar
            # heap-init scoring (ascending candidate order) would.
            rs.require_beliefs(cand_list, self._belief_needs)
        placements: List[Optional[int]] = []
        score_ct = self._score_ct_one
        heap = [(keys[j], cand_list[j], j) for j in range(k)]
        heapq.heapify(heap)
        nq = [0] * k

        if uniform_factor is not None:
            # Tight loop: every heap entry is always current (the factor is
            # constant, and the placed candidate's key is refreshed on the
            # spot), so each placement is pop + one fresh score + replace.
            base, step = self._ct_bases(rs, cache, uniform_factor)
            for _ in range(n_tasks):
                key, index, j = heap[0]
                placements.append(index)
                count = nq[j] + 1
                nq[j] = count
                i = j if positions is None else positions[j]
                heapq.heapreplace(
                    heap,
                    (
                        sign * score_ct(rs, cache, base[i] + count * step[i], i),
                        index,
                        j,
                    ),
                )
            return placements
        # Contended loop: a heap entry goes stale only when its applicable
        # factor moved (entry_factor tracks the factor it was scored at).
        ct_cache = cache["ct"]

        def rescore(j: int, f: int) -> float:
            bases = ct_cache.get(f)
            if bases is None:
                bases = self._ct_bases(rs, cache, f)
            base, step = bases
            i = j if positions is None else positions[j]
            return sign * score_ct(rs, cache, int(base[i]) + nq[j] * int(step[i]), i)

        for _ in range(n_tasks):
            while True:
                key, index, j = heap[0]
                spec = n_active + (1 if nq[j] == 0 and pinned_zero[j] else 0)
                f = max(1, -(-spec // ncom))
                if f == entry_factor[j]:
                    break
                current = rescore(j, f)
                entry_factor[j] = f
                if current == key:
                    break
                heapq.heapreplace(heap, (current, index, j))
            placements.append(index)
            if nq[j] == 0 and pinned_zero[j]:
                n_active += 1
            nq[j] += 1
            # nq[j] > 0 now, so the speculative n_active is just n_active.
            f = max(1, -(-n_active // ncom))
            entry_factor[j] = f
            heapq.heapreplace(heap, (rescore(j, f), index, j))
        return placements

    def place_distinct(
        self, rs: RoundState, n_tasks: int, allowed: np.ndarray
    ) -> List[Optional[int]]:
        """Replicas as one selection over the round's ``n_q = 0`` row.

        Equal to the base loop of single placements.  When no candidate
        holds pinned work (always so on the master's idle mask), a single
        placement over the candidates sees ``n_active = 0``, so every
        candidate speculates an active count of 1 and scores at factor
        ``ceil(1 / ncom) = 1``: the pick is the minimum ``(key, q)`` of
        the factor-1 row over the mask.  Taking it off the mask leaves the
        rest pinned-free and the round state is unchanged, so the loop's
        ``r = min(n_tasks, k)`` picks are the ``r`` smallest pairs in
        ascending order — one ``partition`` at large p, one sort of the
        candidates below ``_VECTOR_MIN_P``.  Candidates are UP, so the
        loop would refuse none of them.  Pinned candidates under the
        contention factor, and non-batch schedulers, run the base loop.
        """
        picks = NotImplemented
        if self.batch_scoring and n_tasks:
            cache = self._round_setup(rs)
            if cache["up_arr"] is not None:
                picks = self._distinct_large(rs, cache, n_tasks, allowed)
            else:
                picks = self._distinct_small(rs, cache, n_tasks, allowed)
        if picks is NotImplemented:
            return super().place_distinct(rs, n_tasks, allowed)
        return self._distinct_tail(picks, n_tasks, allowed)

    def _distinct_large(
        self, rs: RoundState, cache: dict, n_tasks: int, allowed: np.ndarray
    ) -> list:
        """The ``r`` smallest ``(key, q)`` pairs of the signed factor-1 row
        over the mask, ascending: one ``partition`` of the keys with the
        non-candidates at ``+inf`` (every CT-based score is finite), then a
        stable sort of the ``r`` picks (``up_arr`` ascends, so position
        order is q order)."""
        up_arr = cache["up_arr"]
        sel = allowed[up_arr]
        contended = self.use_contention_factor and rs.ncom is not None
        if contended and not cache["pinned_zero_arr"][sel].all():
            return NotImplemented  # a pinned candidate: the factor may vary
        k = int(np.count_nonzero(sel))
        r = min(n_tasks, k)
        if r == 0:
            return []
        keys, has_nan = self._row0_keys(rs, cache, 1)
        if has_nan:
            rs.require_beliefs(up_arr[sel], self._belief_needs)
        if r < k:
            # Every key up to the r-th smallest; on ties at that cut, every
            # key below it and then the lowest-q ties.
            masked = np.where(sel, keys, np.inf)
            cut = np.partition(masked, r - 1)[r - 1]
            chosen = np.flatnonzero(masked <= cut)
            if chosen.size > r:
                chosen_keys = masked[chosen]
                below = chosen[chosen_keys < cut]
                ties = chosen[chosen_keys == cut][: r - below.size]
                chosen = np.concatenate((below, ties))
        else:
            chosen = np.flatnonzero(sel)
        chosen = chosen[np.argsort(keys[chosen], kind="stable")]
        return up_arr[chosen].tolist()

    def _distinct_small(
        self, rs: RoundState, cache: dict, n_tasks: int, allowed: np.ndarray
    ) -> list:
        """Below ``_VECTOR_MIN_P``: one sort of the candidates' ``(key, q)``
        pairs over the factor-1 row."""
        up_list = cache["up_list"]
        mask = allowed.tolist()
        positions = [i for i, q in enumerate(up_list) if mask[q]]
        pinned_zero = cache["pinned_zero"]
        contended = self.use_contention_factor and rs.ncom is not None
        if contended and not all(pinned_zero[i] for i in positions):
            return NotImplemented  # a pinned candidate: the factor may vary
        if not positions:
            return []
        row0 = self._row0(rs, cache, 1)
        sign = -1.0 if self.maximize else 1.0
        pairs = [(sign * row0[i], up_list[i]) for i in positions]
        if self._belief_needs is not None and any(key != key for key, _q in pairs):
            # NaN: a candidate lacks a belief; raise for the first one.
            rs.require_beliefs([q for _key, q in pairs], self._belief_needs)
        pairs.sort()
        return [q for _key, q in pairs[:n_tasks]]

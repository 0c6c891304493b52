"""Availability sources: ground-truth state generators for the simulator.

The simulator asks, slot by slot, "what state is processor q in now?".
That question is answered by an :class:`AvailabilitySource`.  Three families
are provided:

* :class:`MarkovSource` — samples the paper's 3-state chain lazily, in
  chunks, so arbitrarily long runs never need a pre-sized trace.
* :class:`TraceSource` — replays a fixed vector :math:`S_q` (offline
  instances, regression fixtures, and Failure-Trace-Archive-style traces
  loaded through :mod:`repro.workload.traces`).
* :class:`SemiMarkovSource` / :class:`WeibullSource` — non-memoryless
  generators for the paper's future-work direction (Section 8): state
  *sojourn times* are drawn from arbitrary distributions instead of the
  geometric sojourns a Markov chain implies.  These exercise the
  model-mismatch code path (heuristics still believe a Markov chain).

All sources share one contract (:class:`AvailabilitySource`):

* ``state_at(slot)`` — random access with O(1) amortised cost for the
  simulator's monotone access pattern.  **Hot path**: slots are assumed
  to be non-negative ints; validation lives in the batched accessors and
  the callers, never here.
* ``next_change_after(slot, limit=...)`` — the run-length query the
  span-stepped simulator core is built on (DESIGN.md §6): the first slot
  after ``slot`` whose state differs from ``state_at(slot)``.
* ``block(start, stop)`` / ``materialized(length)`` — batched state
  reads (tests, belief fitting).
* ``up_count_in`` / ``nth_up_after`` — UP-slot arithmetic for the
  span-stepped refined-glide path.

**Storage** (DESIGN.md §6/§9): the lazy families hold the generated
trace *run-length encoded* — ``(start, state)`` runs plus a cumulative
UP-slot count per run — so memory is O(transitions) rather than
O(slots), ``next_change_after`` is the end of the current run, and
``up_count_in``/``nth_up_after`` are binary searches over the per-run
UP counts instead of densely materialised prefix sums.  A per-source
cursor caches the bounds of the most recently read run, making the
simulator's monotone access pattern O(1) per query.
:class:`TraceSource` keeps the caller's dense vector (it is externally
owned and finite).

All sources are deterministic given their RNG/trace.  For the lazy
families the trace content is independent of the access pattern: every
generated slot consumes exactly one underlying draw in slot order, so a
span-stepped run that scans ahead sees the same states a slot-stepped run
does (and the run-length encoding never changes what is drawn — dense
chunks are sampled exactly as before and compressed on append).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Callable, Optional, Protocol, Sequence

import numpy as np

from .._validation import require_nonnegative_int, require_positive, require_positive_int
from ..core.markov import MarkovAvailabilityModel
from ..types import ProcState

__all__ = [
    "AvailabilitySource",
    "MarkovSource",
    "TraceSource",
    "SemiMarkovSource",
    "RunLengthMarkovSource",
    "WeibullSource",
]

#: Bytes per stored run in the RLE representation: int64 start + uint8
#: state + int64 cumulative UP count (see ``storage_bytes``).
_RLE_BYTES_PER_RUN = 8 + 1 + 8

#: Bytes per slot of the dense representation the RLE storage replaces:
#: uint8 trace plus the int64 UP prefix sum the span-stepped queries
#: used to materialise (see ``dense_bytes``).
_DENSE_BYTES_PER_SLOT = 1 + 8

_UP = int(ProcState.UP)


class AvailabilitySource(Protocol):
    """Anything that can report a processor's state over time.

    Implementations must be deterministic given their construction inputs
    and support arbitrary (monotone-cheap) random access.  ``slot``
    arguments are assumed non-negative; per-call validation is deliberately
    left to callers so ``state_at`` stays off the hot path's profile.
    """

    def state_at(self, slot: int) -> int:
        """Ground-truth state (as ``int(ProcState)``) at slot ``slot``."""
        ...

    def next_change_after(
        self, slot: int, *, limit: Optional[int] = None
    ) -> Optional[int]:
        """First slot ``s > slot`` with ``state_at(s) != state_at(slot)``.

        Args:
            slot: reference slot.
            limit: give up after this slot — return ``None`` when no
                change occurs in ``(slot, limit]``.  Callers **must**
                pass a limit when the source may stay in one state
                forever (absorbing chains, exhausted traces); lazy
                sources would otherwise scan without bound.

        Returns:
            The change slot, or ``None`` if the state holds through
            ``limit`` (or forever, for sources that can prove it).
        """
        ...

    def block(self, start: int, stop: int) -> np.ndarray:
        """States for slots ``[start, stop)`` as a ``uint8`` array."""
        ...

    def materialized(self, length: int) -> np.ndarray:
        """The first ``length`` slots as a concrete array (tests, export)."""
        ...

    def up_count_in(self, start: int, stop: int) -> int:
        """Number of UP slots in ``[start, stop)``.

        O(1) amortised via a lazily maintained UP prefix sum; the
        span-stepped simulator uses it to advance a computing worker
        across a window in which the worker may freeze (RECLAIMED) and
        resume arbitrarily — compute progress is exactly the UP count.
        """
        ...

    def nth_up_after(
        self, slot: int, k: int, *, limit: Optional[int] = None
    ) -> Optional[int]:
        """The slot of the ``k``-th UP slot strictly after ``slot``.

        Returns ``None`` when fewer than ``k`` UP slots occur in
        ``(slot, limit]``.  This is the completion milestone of a
        computing instance with ``k`` slots of work left.  As with
        :meth:`next_change_after`, pass a ``limit`` whenever the source
        may never serve ``k`` UP slots.
        """
        ...

    def storage_bytes(self) -> int:
        """Live bytes of the source's state storage (benchmark metric)."""
        ...

    def dense_bytes(self) -> int:
        """Bytes a dense representation of the same coverage would hold
        (uint8 state per slot + int64 UP prefix): the denominator of the
        benchmark's ``trace_compression``."""
        ...


class _RleTraceSource:
    """Shared machinery for sources storing a run-length-encoded trace.

    The materialised trace is held as runs in three ``array.array``
    columns: ``_run_starts[i]`` is the first slot of run ``i``,
    ``_run_states[i]`` its state, and ``_run_up[i]`` the number of UP
    slots in runs ``0..i-1`` (the per-run UP prefix sum).  Appends are C
    appends and reads return plain ints, so a sojourn-at-a-time generator
    never touches a numpy scalar.  ``_length`` slots are materialised in
    total, so run ``i`` covers ``[_run_starts[i], _run_starts[i+1])``
    (the last run ends at ``_length`` and may still be extended by
    growth).

    Subclasses implement :meth:`_grow_to`, extending coverage to at least
    the given length by appending runs via :meth:`_append_run` /
    :meth:`_append_dense` (consuming exactly one underlying draw per
    generated slot, in slot order, so trace content never depends on the
    growth schedule).  Queries ask only for the coverage they read —
    ``_length + 1`` when a change point or UP slot lies past the end — so
    a source that grows one sojourn at a time holds at most one run
    beyond the last slot a query read.

    A cursor (``_cur_start``/``_cur_end``/``_cur_state``) caches the
    bounds of the most recently located run; the simulator's monotone
    access pattern hits it almost always, making ``state_at`` a pair of
    int comparisons.  A cursor on the last run may go stale-short when
    the run is later extended — that is safe: the miss re-locates the
    same run with the fresh end.
    """

    def _init_rle(self) -> None:
        self._run_starts = array("q")
        self._run_states = array("B")
        self._run_up = array("q")
        self._length = 0
        self._hint = 0
        self._cur_start = 0
        self._cur_end = 0  # exclusive; 0 = cursor invalid
        self._cur_state = -1

    def _grow_to(self, length: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _ensure(self, length: int) -> None:
        if length > self._length:
            self._grow_to(length)

    # ------------------------------------------------------------------ #
    # Run appends (subclass generators call these).                        #
    # ------------------------------------------------------------------ #
    def _append_run(self, state: int, count: int) -> None:
        """Append ``count`` slots of ``state``, merging with the last run."""
        states = self._run_states
        length = self._length
        self._length = length + count
        if not states:
            up = 0
        else:
            last = states[-1]
            if last == state:
                return
            up = self._run_up[-1]
            if last == _UP:
                up += length - self._run_starts[-1]
        self._run_up.append(up)
        self._run_starts.append(length)
        states.append(state)

    def _append_dense(self, states: np.ndarray) -> None:
        """Compress a freshly generated dense chunk into runs (vectorised:
        one boundary scan per chunk, then three array extends)."""
        m = len(states)
        if m == 0:
            return
        bounds = np.flatnonzero(states[1:] != states[:-1]) + 1
        starts_rel = np.empty(len(bounds) + 1, dtype=np.int64)
        starts_rel[0] = 0
        starts_rel[1:] = bounds
        run_states = states[starts_rel]
        base = self._length
        first = 0
        if self._run_states and self._run_states[-1] == run_states[0]:
            # The leading segment extends the trailing stored run.
            first = 1
            if len(starts_rel) == 1:
                self._length = base + m
                return
        ends_rel = np.empty(len(starts_rel), dtype=np.int64)
        ends_rel[:-1] = starts_rel[1:]
        ends_rel[-1] = m
        segment_up = (run_states == _UP) * (ends_rel - starts_rel)
        cumulative = np.concatenate([[0], np.cumsum(segment_up)])
        total_up = self._total_up()
        self._run_starts.extend((base + starts_rel[first:]).tolist())
        self._run_states.extend(run_states[first:].tolist())
        self._run_up.extend(
            (total_up + cumulative[first : len(starts_rel)]).tolist()
        )
        self._length = base + m

    # ------------------------------------------------------------------ #
    # Run lookup.                                                          #
    # ------------------------------------------------------------------ #
    def _run_index(self, slot: int) -> int:
        """Index of the run containing ``slot`` (< ``_length``), with the
        cursor updated to it."""
        hint = self._hint
        starts = self._run_starts
        n = len(starts)
        if starts[hint] <= slot:
            # Monotone access: the answer is almost always the hinted run
            # or one of the next two; fall back to binary search only on
            # genuine jumps.
            if hint + 1 == n or slot < starts[hint + 1]:
                index = hint
            elif hint + 2 == n or slot < starts[hint + 2]:
                index = hint + 1
            elif hint + 3 == n or slot < starts[hint + 3]:
                index = hint + 2
            else:
                index = bisect_right(starts, slot) - 1
        else:
            index = bisect_right(starts, slot) - 1
        self._hint = index
        self._cur_start = starts[index]
        self._cur_state = self._run_states[index]
        self._cur_end = starts[index + 1] if index + 1 < n else self._length
        return index

    def _up_before(self, stop: int) -> int:
        """UP slots in ``[0, stop)``; requires ``0 <= stop <= _length``."""
        if stop <= 0:
            return 0
        index = self._run_index(stop - 1)
        count = self._run_up[index]
        if self._cur_state == _UP:
            count += stop - self._cur_start
        return count

    def _total_up(self) -> int:
        starts = self._run_starts
        if not starts:
            return 0
        if self._run_states[-1] == _UP:
            return self._run_up[-1] + self._length - starts[-1]
        return self._run_up[-1]

    # ------------------------------------------------------------------ #
    # AvailabilitySource contract.                                         #
    # ------------------------------------------------------------------ #
    def state_at(self, slot: int) -> int:
        # Hot path (called once per processor per boundary): no validation,
        # and the cursor answers without touching numpy at all.
        if self._cur_start <= slot < self._cur_end:
            return self._cur_state
        if slot >= self._length:
            self._grow_to(slot + 1)
        self._run_index(slot)
        return self._cur_state

    def next_change_after(
        self, slot: int, *, limit: Optional[int] = None
    ) -> Optional[int]:
        if slot >= self._length:
            self._grow_to(slot + 1)
        if not (self._cur_start <= slot < self._cur_end):
            self._run_index(slot)
        next_index = self._hint + 1
        starts = self._run_starts
        # ``slot`` may lie in the last materialised run: grow until a new
        # run appears (the run may first extend) or the limit is spanned.
        while next_index == len(starts):
            if limit is not None and self._length > limit:
                return None
            self._grow_to(self._length + 1)
        change = starts[next_index]
        if limit is not None and change > limit:
            return None
        return change

    def block(self, start: int, stop: int) -> np.ndarray:
        start = require_nonnegative_int(start, "start")
        if stop < start:
            raise ValueError(f"stop must be >= start, got [{start}, {stop})")
        out = np.empty(stop - start, dtype=np.uint8)
        if stop == start:
            return out
        self._ensure(stop)
        position = start
        index = self._run_index(start)
        starts = self._run_starts
        n = len(starts)
        while position < stop:
            end = starts[index + 1] if index + 1 < n else self._length
            segment = end if end < stop else stop
            out[position - start : segment - start] = self._run_states[index]
            position = segment
            index += 1
        return out

    def materialized(self, length: int) -> np.ndarray:
        length = require_positive_int(length, "length")
        return self.block(0, length)

    def up_count_in(self, start: int, stop: int) -> int:
        if stop <= start:
            return 0
        self._ensure(stop)
        return self._up_before(stop) - self._up_before(start)

    def nth_up_after(
        self, slot: int, k: int, *, limit: Optional[int] = None
    ) -> Optional[int]:
        if k <= 0:
            raise ValueError(f"k must be >= 1, got {k}")
        self._ensure(slot + 1)
        target = self._up_before(slot + 1) + k
        # Grow until the target-th UP slot is materialised (never straight
        # to a large ``limit``: the answer is usually a few sojourns away).
        while self._total_up() < target:
            if limit is not None and self._length > limit:
                return None
            self._grow_to(self._length + 1)
        # The target-th UP slot lies in the (UP) run j with
        # ``_run_up[j] < target`` and ``_run_up[j+1] >= target``.
        j = bisect_left(self._run_up, target) - 1
        found = self._run_starts[j] + (target - self._run_up[j]) - 1
        if limit is not None and found > limit:
            return None
        return found

    # ------------------------------------------------------------------ #
    # Storage diagnostics (benchmarks, DESIGN.md §9 memory bound).         #
    # ------------------------------------------------------------------ #
    @property
    def run_count(self) -> int:
        """Number of stored runs (state transitions + 1)."""
        return len(self._run_starts)

    @property
    def slots_materialized(self) -> int:
        """Slots generated so far (the dense-equivalent trace length)."""
        return self._length

    def storage_bytes(self) -> int:
        """Live bytes of the RLE representation (runs × 17)."""
        return len(self._run_starts) * _RLE_BYTES_PER_RUN

    def dense_bytes(self) -> int:
        """Bytes the replaced dense representation would hold for the
        same coverage: a uint8 state per slot plus the int64 UP prefix
        sum the span-stepped queries used to materialise."""
        return self._length * _DENSE_BYTES_PER_SLOT


class MarkovSource(_RleTraceSource):
    """Lazily sampled Markov availability (the paper's ground truth).

    The trace is extended in geometric chunks as the simulation advances,
    so the cost of a run is proportional to its makespan, not to a guessed
    horizon.  Chunks are sampled densely — exactly the draws the dense
    implementation made, in the same order — and stored run-length
    encoded, so memory is O(transitions).
    """

    _CHUNK = 1024

    def __init__(
        self,
        model: MarkovAvailabilityModel,
        rng: np.random.Generator,
        *,
        initial: Optional[int] = None,
    ):
        self._model = model
        self._rng = rng
        self._init_rle()
        chunk = model.sample_trace(self._CHUNK, rng, initial=initial)
        self._last_state = int(chunk[-1])
        self._append_dense(chunk)

    @property
    def model(self) -> MarkovAvailabilityModel:
        """The generating chain (also the default scheduler belief)."""
        return self._model

    def _grow_to(self, length: int) -> None:
        while self._length < length:
            grow = max(self._CHUNK, self._length)  # double each time
            # Shares ``model.extend_trace``'s draw protocol exactly.
            chunk = self._model.continue_trace(
                self._last_state, grow, self._rng
            )
            self._last_state = int(chunk[-1])
            self._append_dense(chunk)


class TraceSource:
    """Replays a fixed availability vector :math:`S_q`.

    Slots beyond the end of the trace report ``pad_state`` (DOWN by
    default, so an exhausted offline trace never silently contributes
    compute).
    """

    def __init__(
        self, trace: Sequence[int], *, pad_state: ProcState = ProcState.DOWN
    ):
        arr = np.asarray(trace, dtype=np.uint8)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("trace must be a non-empty 1-D sequence")
        if arr.max(initial=0) > 2:
            raise ValueError("trace entries must be ProcState values (0, 1, 2)")
        self._trace = arr
        self._pad = int(pad_state)
        self._up_prefix: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._trace)

    def state_at(self, slot: int) -> int:
        # Hot path: bounds implicit (negative slots raise via the 0 <=
        # check below; beyond-the-end slots report the pad state).
        if 0 <= slot < len(self._trace):
            return int(self._trace[slot])
        if slot < 0:
            raise ValueError(f"slot must be >= 0, got {slot}")
        return self._pad

    def next_change_after(
        self, slot: int, *, limit: Optional[int] = None
    ) -> Optional[int]:
        current = self.state_at(slot)
        length = len(self._trace)
        change: Optional[int] = None
        if slot + 1 < length:
            hits = np.flatnonzero(self._trace[slot + 1 :] != current)
            if hits.size:
                change = slot + 1 + int(hits[0])
        if change is None and self._pad != current:
            # Constant through the trace tail, then the pad takes over.
            change = max(length, slot + 1)
        if change is None or (limit is not None and change > limit):
            return None
        return change

    def block(self, start: int, stop: int) -> np.ndarray:
        start = require_nonnegative_int(start, "start")
        if stop < start:
            raise ValueError(f"stop must be >= start, got [{start}, {stop})")
        length = len(self._trace)
        if stop <= length:
            return self._trace[start:stop].copy()
        out = np.full(stop - start, self._pad, dtype=np.uint8)
        if start < length:
            out[: length - start] = self._trace[start:]
        return out

    def materialized(self, length: int) -> np.ndarray:
        length = require_positive_int(length, "length")
        return self.block(0, length)

    def _prefix(self) -> np.ndarray:
        if self._up_prefix is None:
            self._up_prefix = np.concatenate(
                [[0], np.cumsum(self._trace == int(ProcState.UP), dtype=np.int64)]
            )
        return self._up_prefix

    def up_count_in(self, start: int, stop: int) -> int:
        if stop <= start:
            return 0
        prefix = self._prefix()
        length = len(self._trace)
        in_trace = int(prefix[min(stop, length)] - prefix[min(start, length)])
        if self._pad == int(ProcState.UP) and stop > length:
            in_trace += stop - max(start, length)
        return in_trace

    def nth_up_after(
        self, slot: int, k: int, *, limit: Optional[int] = None
    ) -> Optional[int]:
        if k <= 0:
            raise ValueError(f"k must be >= 1, got {k}")
        prefix = self._prefix()
        length = len(self._trace)
        before = int(prefix[min(slot + 1, length)])  # UP slots in [0, slot]
        if self._pad == int(ProcState.UP) and slot + 1 > length:
            before += slot + 1 - length
        target = before + k
        found: Optional[int] = None
        if target <= prefix[-1]:
            found = int(np.searchsorted(prefix, target, side="left")) - 1
        elif self._pad == int(ProcState.UP):
            # The missing UP slots come from the padded tail.
            found = max(length, slot + 1) + (target - int(prefix[-1])) - 1
            if slot + 1 > length:
                found = slot + k
        if found is None or (limit is not None and found > limit):
            return None
        return found

    # Storage diagnostics (symmetry with the RLE sources; the vector is
    # externally supplied, so dense *is* this source's representation).
    def storage_bytes(self) -> int:
        """Live bytes: the dense vector plus the UP prefix if built."""
        prefix = self._up_prefix
        return int(self._trace.nbytes) + (0 if prefix is None else int(prefix.nbytes))

    def dense_bytes(self) -> int:
        """Dense-equivalent bytes (same formula as the RLE sources)."""
        return len(self._trace) * _DENSE_BYTES_PER_SLOT


def _checked_jump_rows(embedded: np.ndarray, initials: Sequence[int]) -> list:
    """Validate ``p`` semi-Markov sources' jump matrices in one pass.

    ``embedded`` is a ``(p, 3, 3)`` stack of jump matrices, with one
    starting state per source.  Checks zero diagonals, entries in
    ``[0, 1]`` and rows summing to 1 for the whole stack at once, then
    that every source starts in UP, RECLAIMED or DOWN.  Errors on a
    multi-source batch name the first offending source's position.

    Returns:
        Per source, per state, the two cumulative jump thresholds as
        plain floats: the jump draw is then two scalar compares instead
        of a cumsum + searchsorted pair per run (bit-identical —
        ``side="right"`` on a 3-element cumulative row *is* "count of
        thresholds <= u").
    """
    if embedded.ndim != 3 or embedded.shape[1:] != (3, 3):
        raise ValueError("embedded matrix must be 3x3")
    if len(initials) != len(embedded):
        raise ValueError(
            f"got {len(embedded)} embedded matrices and "
            f"{len(initials)} initial states"
        )
    diagonal = np.arange(3)
    nonzero_diagonal = (np.abs(embedded[:, diagonal, diagonal]) > 1e-12).any(axis=1)
    if nonzero_diagonal.any():
        raise ValueError(
            "embedded matrix diagonal must be zero"
            + _where(embedded, int(np.argmax(nonzero_diagonal)))
        )
    out_of_range = ((embedded < -1e-12) | (embedded > 1 + 1e-12)).any(axis=(1, 2))
    if out_of_range.any():
        raise ValueError(
            "embedded jump probabilities must lie in [0, 1]"
            + _where(embedded, int(np.argmax(out_of_range)))
        )
    unbalanced = ~np.isclose(embedded.sum(axis=2), 1.0, atol=1e-9).all(axis=1)
    if unbalanced.any():
        raise ValueError(
            "embedded matrix rows must sum to 1"
            + _where(embedded, int(np.argmax(unbalanced)))
        )
    for position, initial in enumerate(initials):
        if initial not in (0, 1, 2):
            raise ValueError(
                f"initial state must be 0, 1 or 2, got {initial!r}"
                + _where(embedded, position)
            )
    return np.cumsum(embedded, axis=2)[:, :, :2].tolist()


def _where(batch: Sequence, position: int) -> str:
    """The error suffix naming a source's position in a multi-source batch."""
    return f" (processor {position})" if len(batch) > 1 else ""


class SemiMarkovSource(_RleTraceSource):
    """Sojourn-time-driven availability (non-memoryless future work).

    The process alternates states according to an *embedded* transition
    matrix over UP/RECLAIMED/DOWN, but the time spent in each visit is drawn
    from a caller-supplied sojourn sampler per state — e.g. lognormal UP
    intervals, heavy-tailed DOWN repairs.  With geometric sojourns this
    reduces exactly to the Markov chain (asserted in tests); that case has
    its own closure-free type, :class:`RunLengthMarkovSource`.

    Each visit draws its sojourn, then one ``rng.random()`` for the jump.

    Args:
        embedded: a 3×3 matrix of *jump* probabilities; diagonal must be 0
            (self-transitions are expressed by the sojourn length instead).
        sojourn_samplers: for each state, a callable ``(rng) -> int`` giving
            the number of slots spent per visit (must be ≥ 1).
        rng: generator for both jumps and sojourns.
        initial: starting state (default UP).
    """

    def __init__(
        self,
        embedded: np.ndarray,
        sojourn_samplers: dict[int, Callable[[np.random.Generator], int]],
        rng: np.random.Generator,
        *,
        initial: int = int(ProcState.UP),
    ):
        embedded = np.asarray(embedded, dtype=float)
        [jump_cum] = _checked_jump_rows(embedded[None], [initial])
        [sojourns] = self._checked_sojourns([sojourn_samplers])
        self._start(jump_cum, sojourns, rng, initial)

    @classmethod
    def batch(
        cls,
        embedded: np.ndarray,
        sojourns: Sequence,
        rngs: Sequence[np.random.Generator],
        *,
        initials: Sequence[int],
    ) -> list["SemiMarkovSource"]:
        """``p`` sources from a ``(p, 3, 3)`` stack of jump matrices.

        ``sojourns`` holds one per-state sojourn law per source, in the
        form the constructor's second argument takes.  The whole stack is
        validated and turned into cumulative jump rows in one vectorised
        pass, so a 10k-worker platform does not pay ten thousand
        per-matrix checks (DESIGN.md §12).  Source ``q`` draws from
        ``rngs[q]`` only, exactly as the constructor would, so the result
        is bit-identical to ``p`` constructor calls.
        """
        embedded = np.asarray(embedded, dtype=float)
        jump_rows = _checked_jump_rows(embedded, initials)
        if not len(sojourns) == len(rngs) == len(embedded):
            raise ValueError(
                f"got {len(embedded)} embedded matrices, {len(sojourns)} "
                f"sojourn laws and {len(rngs)} generators"
            )
        sources = []
        for jump_cum, law, rng, initial in zip(
            jump_rows, cls._checked_sojourns(sojourns), rngs, initials
        ):
            source = cls.__new__(cls)
            source._start(jump_cum, law, rng, initial)
            sources.append(source)
        return sources

    @staticmethod
    def _checked_sojourns(sojourn_samplers: Sequence[dict]) -> Sequence[dict]:
        """Check that every source has a sampler per state."""
        for position, samplers in enumerate(sojourn_samplers):
            for s in (0, 1, 2):
                if s not in samplers:
                    raise ValueError(
                        f"missing sojourn sampler for state {s}"
                        + _where(sojourn_samplers, position)
                    )
        return sojourn_samplers

    def _start(
        self,
        jump_cum: list,
        sojourns,
        rng: np.random.Generator,
        initial: int,
    ) -> None:
        """Adopt validated inputs and draw the first sojourn (a sampler
        that cannot produce one fails here, not mid-run)."""
        self._jump_cum = jump_cum
        self._sojourns = sojourns
        self._rng = rng
        self._state = int(initial)
        self._init_rle()
        self._grow_to(1)

    def _grow_to(self, length: int) -> None:
        # Draw sojourns only until ``length`` is covered; each sojourn is
        # appended directly as one run — the process *is* its run-length
        # encoding.
        while self._length < length:
            sojourn = int(self._sojourns[self._state](self._rng))
            if sojourn < 1:
                raise ValueError(
                    f"sojourn sampler for state {self._state} returned {sojourn}; "
                    "sojourns must be >= 1 slot"
                )
            self._append_run(self._state, sojourn)
            cum0, cum1 = self._jump_cum[self._state]
            u = self._rng.random()
            self._state = 0 if u < cum0 else (1 if u < cum1 else 2)


class RunLengthMarkovSource(SemiMarkovSource):
    """The run-length form of a Markov chain (DESIGN.md §9, §12).

    A chain's sojourn in state ``s`` is ``Geometric(leave[s])`` with
    ``leave[s] = 1 - P[s, s]``; on leaving it jumps by the embedded
    matrix.  This is :class:`SemiMarkovSource` with geometric samplers,
    drawing the same two values in the same order per visit —
    ``rng.geometric(leave[s])``, then one ``rng.random()`` jump — so the
    trace is bit-identical to it.  The sojourn law is the plain float row
    ``leave`` instead of per-state sampler closures: a 10k-worker build
    creates no per-worker sampler objects, and a sojourn costs no extra
    Python frame.

    Args:
        embedded: the chain's 3×3 jump matrix (zero diagonal).
        leave: per-state leave probabilities, each in ``(0, 1]``.
        rng: generator for both jumps and sojourns.
        initial: starting state (default UP).
    """

    def __init__(
        self,
        embedded: np.ndarray,
        leave: Sequence[float],
        rng: np.random.Generator,
        *,
        initial: int = int(ProcState.UP),
    ):
        super().__init__(embedded, leave, rng, initial=initial)

    @staticmethod
    def _checked_sojourns(leave: Sequence) -> list:
        """Leave rows as plain float lists, each probability in ``(0, 1]``."""
        rows = np.asarray(leave, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ValueError("leave probabilities must be one row of 3 per source")
        bad = ~((rows > 0.0) & (rows <= 1.0)).all(axis=1)
        if bad.any():
            raise ValueError(
                "leave probabilities must lie in (0, 1]"
                + _where(rows, int(np.argmax(bad)))
            )
        return rows.tolist()

    def _grow_to(self, length: int) -> None:
        rng = self._rng
        leave = self._sojourns
        while self._length < length:
            state = self._state
            self._append_run(state, int(rng.geometric(leave[state])))
            cum0, cum1 = self._jump_cum[state]
            u = rng.random()
            self._state = 0 if u < cum0 else (1 if u < cum1 else 2)


class WeibullSource(SemiMarkovSource):
    """Availability with Weibull-distributed UP intervals.

    Empirical studies cited by the paper ([8, 9, 10]) report that UP
    interval durations on real desktop grids are well fit by Weibull
    distributions with shape < 1 (bursty, heavy-tailed).  This source keeps
    geometric RECLAIMED/DOWN sojourns (parameterised by their mean) but
    draws UP sojourns from ``Weibull(shape, scale)``, rounded up to ≥ 1
    slot.  Used for model-mismatch experiments.

    Args:
        shape: Weibull shape parameter ``k`` (``< 1`` → heavy tail).
        scale: Weibull scale parameter ``λ`` in slots.
        mean_reclaimed: mean RECLAIMED sojourn (geometric), slots.
        mean_down: mean DOWN sojourn (geometric), slots.
        p_up_to_reclaimed: probability that an ending UP interval goes to
            RECLAIMED rather than DOWN.
        rng: generator.
    """

    def __init__(
        self,
        *,
        shape: float,
        scale: float,
        mean_reclaimed: float,
        mean_down: float,
        p_up_to_reclaimed: float,
        rng: np.random.Generator,
    ):
        shape = require_positive(shape, "shape")
        scale = require_positive(scale, "scale")
        mean_reclaimed = require_positive(mean_reclaimed, "mean_reclaimed")
        mean_down = require_positive(mean_down, "mean_down")
        if not 0.0 <= p_up_to_reclaimed <= 1.0:
            raise ValueError("p_up_to_reclaimed must lie in [0, 1]")

        def up_sojourn(r: np.random.Generator) -> int:
            return max(1, int(np.ceil(scale * r.weibull(shape))))

        def geometric(mean: float) -> Callable[[np.random.Generator], int]:
            p = min(1.0, 1.0 / mean)

            def sample(r: np.random.Generator) -> int:
                return int(r.geometric(p))

            return sample

        embedded = np.array(
            [
                [0.0, p_up_to_reclaimed, 1.0 - p_up_to_reclaimed],
                [0.9, 0.0, 0.1],  # reclaimed mostly returns to UP
                [1.0, 0.0, 0.0],  # repair always returns to UP
            ]
        )
        super().__init__(
            embedded,
            {
                int(ProcState.UP): up_sojourn,
                int(ProcState.RECLAIMED): geometric(mean_reclaimed),
                int(ProcState.DOWN): geometric(mean_down),
            },
            rng,
        )

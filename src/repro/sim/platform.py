"""Platform model: volatile processors behind an always-UP master.

The paper's platform (Section 3.2) is ``p`` processors
:math:`P_1, \\dots, P_p`, each needing :math:`w_q` UP slots per task, whose
availability is an (a priori unknown) state vector over
UP / RECLAIMED / DOWN.  The master is always UP and always knows every
processor's current state (heartbeat assumption).

:class:`Processor` couples the static description (speed, Markov chain used
by the *heuristics* as their belief model) with the dynamic availability
source used by the *simulator* (a state provider, usually a sampled trace).
Keeping the belief model and the ground-truth generator as two distinct
attributes makes model-mismatch experiments possible: heuristics can be
handed a Markov belief while the ground truth comes from, say, a Weibull
trace (see :mod:`repro.sim.availability`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import require_positive_int
from ..core.markov import MarkovAvailabilityModel
from ..types import ProcState
from .availability import (
    AvailabilitySource,
    MarkovSource,
    RunLengthMarkovSource,
    TraceSource,
)

__all__ = ["Processor", "Platform", "PlatformCalendar"]


@dataclass
class Processor:
    """One volatile worker processor.

    Attributes:
        index: position in the platform (0-based; the paper's :math:`P_q`
            is ``platform.processors[q-1]``).
        speed_w: :math:`w_q`, UP slots required to compute one task.
        availability: the ground-truth state source driving the simulation.
        belief: the Markov chain the scheduler *believes* describes this
            processor.  For the paper's experiments this is exactly the
            chain that generated the trace; model-mismatch studies pass a
            different one.  ``None`` for purely offline instances.
    """

    index: int
    speed_w: int
    availability: AvailabilitySource
    belief: Optional[MarkovAvailabilityModel] = None

    def __post_init__(self) -> None:
        require_positive_int(self.speed_w, "speed_w")
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")

    def state_at(self, slot: int) -> ProcState:
        """Ground-truth state at ``slot`` (generates lazily if needed)."""
        return ProcState(self.availability.state_at(slot))

    @classmethod
    def from_markov(
        cls,
        index: int,
        speed_w: int,
        model: MarkovAvailabilityModel,
        rng: np.random.Generator,
        *,
        initial: Optional[int] = None,
    ) -> "Processor":
        """A processor whose truth *and* belief are the same Markov chain."""
        return cls(
            index=index,
            speed_w=speed_w,
            availability=MarkovSource(model, rng, initial=initial),
            belief=model,
        )

    @classmethod
    def from_semi_markov(
        cls,
        index: int,
        speed_w: int,
        model: MarkovAvailabilityModel,
        rng: np.random.Generator,
        *,
        initial: Optional[int] = None,
    ) -> "Processor":
        """A processor whose truth is the run-length form of ``model``.

        A Markov chain's sojourn in state ``i`` is geometric with
        parameter :math:`1 - P_{ii}`, and on leaving it jumps to ``j``
        with probability :math:`P_{ij} / (1 - P_{ii})`.  Sampling those
        two directly (:class:`~repro.sim.availability.RunLengthMarkovSource`)
        yields the *same process* as the slot-by-slot walk of
        :meth:`from_markov` — but generated in O(runs) instead of
        O(slots), which is what the large-p benchmarks need (DESIGN.md
        §12: a 10k-worker platform must not pay Θ(p · horizon) just to
        *materialise* its ground truth).  The belief handed to the
        heuristics is still ``model`` itself.

        The draw protocol differs from :meth:`from_markov` (run lengths
        vs per-slot uniforms), so the two are distributionally equal,
        not bit-identical, for the same ``rng`` stream.

        The one-element call of :meth:`from_semi_markov_batch`.
        """
        return cls.from_semi_markov_batch(
            [index], [speed_w], [model], [rng], initials=[initial]
        )[0]

    @classmethod
    def from_semi_markov_batch(
        cls,
        indices: Sequence[int],
        speeds: Sequence[int],
        models: Sequence[MarkovAvailabilityModel],
        rngs: Sequence[np.random.Generator],
        *,
        initials: Optional[Sequence[Optional[int]]] = None,
    ) -> List["Processor"]:
        """:meth:`from_semi_markov` for ``p`` processors in one pass.

        Every processor's embedded jump matrix and leave probabilities
        are derived for all ``p`` at once, and the sources are validated
        as one stack (:meth:`~repro.sim.availability.SemiMarkovSource.
        batch`): the per-processor work left is the sources' own first
        draws, with no per-processor sampler objects.  Processor ``q`` draws from ``rngs[q]`` only, in the order
        a lone :meth:`from_semi_markov` call would, so the platform is
        bit-identical to ``p`` such calls.
        """
        if initials is None:
            initials = [None] * len(models)
        if not len(indices) == len(speeds) == len(models) == len(rngs) == len(initials):
            raise ValueError(
                "indices, speeds, models, rngs and initials must have equal lengths"
            )
        matrices = np.stack([model.matrix for model in models])
        diagonal = np.arange(3)
        leave = 1.0 - matrices[:, diagonal, diagonal]
        absorbing = np.argwhere(leave <= 0.0)
        if len(absorbing):
            q, s = (int(v) for v in absorbing[0])
            raise ValueError(
                f"state {s} of processor {indices[q]} is absorbing (self-loop "
                "1); the run-length form needs a positive leave probability"
            )
        embedded = matrices / leave[:, :, None]
        embedded[:, diagonal, diagonal] = 0.0
        up = int(ProcState.UP)
        sources = RunLengthMarkovSource.batch(
            embedded,
            leave,
            rngs,
            initials=[up if initial is None else initial for initial in initials],
        )
        return [
            cls(index=index, speed_w=speed_w, availability=source, belief=model)
            for index, speed_w, source, model in zip(indices, speeds, sources, models)
        ]

    @classmethod
    def from_trace(
        cls,
        index: int,
        speed_w: int,
        trace: Sequence[int],
        *,
        belief: Optional[MarkovAvailabilityModel] = None,
        pad_state: ProcState = ProcState.DOWN,
    ) -> "Processor":
        """A processor replaying a fixed trace (offline instances, tests)."""
        return cls(
            index=index,
            speed_w=speed_w,
            availability=TraceSource(trace, pad_state=pad_state),
            belief=belief,
        )


@dataclass
class Platform:
    """A collection of processors plus the master's bandwidth constraint.

    Attributes:
        processors: the worker processors.
        ncom: maximum number of simultaneous master communications
            (:math:`n_{com} = BW / bw`, Section 3.2).  ``None`` means
            unbounded (the polynomial offline case of Proposition 2).
    """

    processors: list[Processor]
    ncom: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.processors:
            raise ValueError("platform needs at least one processor")
        seen = set()
        for proc in self.processors:
            if proc.index in seen:
                raise ValueError(f"duplicate processor index {proc.index}")
            seen.add(proc.index)
        if sorted(seen) != list(range(len(self.processors))):
            raise ValueError("processor indices must be 0..p-1 without gaps")
        if self.ncom is not None:
            require_positive_int(self.ncom, "ncom")

    def __len__(self) -> int:
        return len(self.processors)

    def __iter__(self) -> Iterator[Processor]:
        return iter(self.processors)

    def __getitem__(self, index: int) -> Processor:
        return self.processors[index]

    @property
    def is_homogeneous(self) -> bool:
        """True when all :math:`w_q` are equal (paper Section 3.2)."""
        speeds = {proc.speed_w for proc in self.processors}
        return len(speeds) == 1

    def states_at(self, slot: int) -> np.ndarray:
        """Vector of ground-truth states at ``slot`` (uint8).

        Hot path: reads the raw availability sources directly rather than
        going through the :class:`~repro.types.ProcState` wrapper.
        """
        return np.fromiter(
            (proc.availability.state_at(slot) for proc in self.processors),
            dtype=np.uint8,
            count=len(self.processors),
        )


class PlatformCalendar:
    """Platform-wide event calendar over the availability sources.

    The large-p engine (DESIGN.md §12).  A lazy min-heap holds exactly one
    entry per processor: ``(next_transition_slot, q)``, fed by the RLE run
    cursors of :mod:`repro.sim.availability`.  Advancing from one span
    boundary to the next pops only the processors whose current run ended
    in between — O(churned · log p) — instead of re-reading all ``p``
    states and re-deriving all ``p`` next-transition minima.  It is the
    simulator's only platform index: every boundary of every run, with
    or without a timeline recorder, reads the platform through it.

    Maintained invariants, relied on by the simulator:

    * ``states`` (plain list) and ``states_np`` (zero-copy ``uint8`` view
      of the same buffer) always hold the state vector of the last
      ``advance``-d slot;
    * each processor has exactly one heap entry, whose slot is the first
      transition strictly after the last slot it was popped at (or the
      sentinel ``last + 1`` when it holds its state through the budget),
      so ``peek()`` is the platform-wide next-transition slot and the
      heap never empties;
    * ``next_change[q]`` is processor ``q``'s heap-entry slot — after an
      ``advance(slot)``, the first transition strictly after ``slot``
      (``last + 1`` when none is due through the budget).  The calendar
      is the one owner of each processor's next transition; the span
      search reads this list instead of re-querying the sources;
    * ``up_count`` equals ``states.count(UP)``;
    * ``advance`` returns the *net* per-processor changes since the
      previous boundary — exactly what a snapshot diff of the two
      boundary state vectors yields — in ascending processor order.

    ``pops`` counts heap pops: the touched-worker metric behind the
    O(churn) claim.  :meth:`audit` cross-checks the heap and
    ``next_change`` against the sources (simulator audit mode).
    """

    def __init__(self, sources: Sequence[AvailabilitySource]) -> None:
        self.sources = list(sources)
        self.states: List[int] = []
        self._buf = bytearray(len(self.sources))
        #: Zero-copy writable uint8 view of the state buffer (bytearray
        #: buffers are writable through ``np.frombuffer``).
        self.states_np = np.frombuffer(self._buf, dtype=np.uint8)
        self._heap: List[Tuple[int, int]] = []
        self.next_change: List[int] = []
        self._last = 0
        self.up_count = 0
        self.pops = 0
        self.started = False

    def start(self, slot: int, last: int) -> None:
        """Full O(p) build at the start of a run.

        ``last`` is the final in-budget slot; a processor holding its
        state through it gets the sentinel ``last + 1`` (strictly beyond
        every boundary, so its entry is never popped).
        """
        self._last = last
        up = int(ProcState.UP)
        buf = self._buf
        states: List[int] = []
        next_change: List[int] = []
        up_count = 0
        for q, source in enumerate(self.sources):
            state = source.state_at(slot)
            states.append(state)
            buf[q] = state
            if state == up:
                up_count += 1
            change = source.next_change_after(slot, limit=last)
            next_change.append(change if change is not None else last + 1)
        heap = list(zip(next_change, range(len(next_change))))
        heapq.heapify(heap)
        self.states = states
        self.next_change = next_change
        self._heap = heap
        self.up_count = up_count
        self.started = True

    def peek(self) -> int:
        """The earliest next-transition slot platform-wide (O(1)).

        Strictly greater than the last ``advance``-d slot; ``last + 1``
        when every processor holds its state through the budget.
        """
        return self._heap[0][0]

    def advance(self, slot: int) -> List[Tuple[int, int, int]]:
        """Catch the calendar up to ``slot``; return the net changes.

        Pops every processor whose next transition is ``<= slot``,
        re-reads its state once (one RLE cursor hop regardless of how
        many runs the span glided over) and re-arms its heap entry with
        the first transition after ``slot``.  Returns ``(q, old, new)``
        triples — net changes only, ascending ``q`` — matching a snapshot
        diff of the two boundary state vectors.  Advancing to the slot
        ``start`` read returns ``[]``: nothing is due there.
        """
        heap = self._heap
        states = self.states
        buf = self._buf
        sources = self.sources
        next_change = self.next_change
        last = self._last
        up = int(ProcState.UP)
        records: List[Tuple[int, int, int]] = []
        pops = 0
        while heap[0][0] <= slot:
            _, q = heapq.heappop(heap)
            pops += 1
            source = sources[q]
            new = source.state_at(slot)
            change = source.next_change_after(slot, limit=last)
            if change is None:
                change = last + 1
            next_change[q] = change
            heapq.heappush(heap, (change, q))
            old = states[q]
            if new != old:
                states[q] = new
                buf[q] = new
                if old == up:
                    self.up_count -= 1
                if new == up:
                    self.up_count += 1
                records.append((q, old, new))
        self.pops += pops
        if len(records) > 1:
            records.sort()
        return records

    def audit(self, slot: int) -> None:
        """Assert the invariants above against the sources, after the
        ``advance(slot)`` of a boundary (simulator audit mode)."""
        last = self._last
        for q, source in enumerate(self.sources):
            change = source.next_change_after(slot, limit=last)
            expected = change if change is not None else last + 1
            assert self.next_change[q] == expected, (
                f"processor {q}: calendar next transition "
                f"{self.next_change[q]} != {expected} after slot {slot}"
            )
            assert self.states[q] == source.state_at(slot), (
                f"processor {q}: calendar state drifted at slot {slot}"
            )
        assert sorted(self._heap) == sorted(
            zip(self.next_change, range(len(self.sources)))
        ), "calendar heap drifted from next_change"
        assert self.up_count == self.states.count(int(ProcState.UP)), (
            "calendar up_count drifted"
        )
        assert list(self.states_np) == self.states, (
            "calendar state buffer drifted from its list"
        )

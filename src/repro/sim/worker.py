"""Worker-side pipeline state (paper Sections 3.2–3.3).

Each enrolled worker runs a three-stage pipeline:

1. **program stage** — receive the application program (``t_prog`` slots of
   channel service); required once per DOWN-free lifetime of the worker;
2. **data stage** — receive the input data of the next task instance
   (``t_data`` slots); at most *one* instance beyond the currently
   computing one may hold (possibly partial) data — the paper's prefetch
   bound (Section 3.3);
3. **compute stage** — accumulate ``w_q`` UP slots on the instance whose
   data is complete; tasks execute sequentially, never in parallel.

Computation and communication overlap freely (they use different
resources), but a given task's computation only starts on the slot *after*
its data transfer completed, and any computation requires the program to
have completed on an earlier slot.

State-transition effects:

* RECLAIMED — everything freezes; progress resumes untouched on return to UP.
* DOWN — program, task data and partial results are all lost
  (:meth:`WorkerRuntime.crash`).

Ownership: a :class:`TaskInstance` is the one record of its identity
(``task_id``, ``replica_id``, ``uid``), progress and placement
(``worker``); the master's :class:`~repro.sim.instance_table.
InstanceTable` row points at it and keeps only event-rate aggregates
(DESIGN.md §9).  A :class:`WorkerRuntime` owns its program progress and
queue; the span-stepped master reads milestones (remaining program,
data and compute slots) straight off these records (DESIGN.md §6).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["TaskInstance", "WorkerRuntime", "reset_instance"]


def reset_instance(inst: "TaskInstance") -> None:
    """Erase all progress on ``inst`` (after a crash or cancellation)."""
    inst.data_received = 0
    inst.compute_done = 0
    inst.compute_needed = 0
    inst.computing = False
    inst.worker = None

_instance_counter = itertools.count()


@dataclass(eq=False)
class TaskInstance:
    """One attempt at executing one task of the current iteration.

    A *task* (identified by ``(iteration, task_id)``) may have up to three
    live instances — the original and at most two replicas (Section 6.1).
    Instances are identity-compared; ``uid`` makes logs unambiguous.

    Attributes:
        iteration: iteration index the task belongs to.
        task_id: task index within the iteration, ``0 <= task_id < m``.
        replica_id: 0 for the original, 1 or 2 for replicas.
        data_needed: slots of data transfer required (``t_data``).
        data_received: slots of data transfer completed so far.
        compute_needed: UP slots of computation required (worker's ``w_q``);
            set when the instance is placed on a worker.
        compute_done: UP compute slots accumulated so far.
        worker: index of the worker currently hosting the instance, or
            ``None`` while unplaced.
        computing: True once computation has begun.
        row: the master's store slot — the instance's row in the
            :class:`~repro.sim.instance_table.InstanceTable`; -1 while
            unregistered.
            Maintained by the owning store, never by the instance.
    """

    iteration: int
    task_id: int
    replica_id: int
    data_needed: int
    data_received: int = 0
    compute_needed: int = 0
    compute_done: int = 0
    worker: Optional[int] = None
    computing: bool = False
    row: int = -1
    uid: int = field(default_factory=lambda: next(_instance_counter))

    @property
    def is_replica(self) -> bool:
        """True for replicas (``replica_id > 0``)."""
        return self.replica_id > 0

    @property
    def data_complete(self) -> bool:
        """True when all input data has been received."""
        return self.data_received >= self.data_needed

    @property
    def data_started(self) -> bool:
        """True once at least one slot of data has been received."""
        return self.data_received > 0

    @property
    def pinned(self) -> bool:
        """True once work for this instance has begun on its worker.

        A pinned instance is never reassigned by the dynamic heuristics
        (Section 6.1: started communications/computations are finished).
        With ``t_data == 0`` there is no communication, so pinning only
        happens when computation starts.
        """
        return self.data_started or self.computing

    @property
    def compute_complete(self) -> bool:
        """True when the instance has accumulated all required compute."""
        return self.computing and self.compute_done >= self.compute_needed

    @property
    def data_remaining(self) -> int:
        """Slots of data transfer still needed."""
        return max(self.data_needed - self.data_received, 0)

    @property
    def compute_remaining(self) -> int:
        """UP compute slots still needed (full ``w`` before placement)."""
        return max(self.compute_needed - self.compute_done, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f"t{self.task_id}" + (f"r{self.replica_id}" if self.is_replica else "")
        return (
            f"TaskInstance({tag}@it{self.iteration}, worker={self.worker}, "
            f"data={self.data_received}/{self.data_needed}, "
            f"comp={self.compute_done}/{self.compute_needed})"
        )


@dataclass
class WorkerRuntime:
    """Mutable per-worker pipeline state maintained by the master.

    Attributes:
        index: processor index.
        speed_w: the worker's ``w_q``.
        t_prog: program transfer length in slots.
        prog_received: slots of program received since last crash.
        queue: task instances placed on this worker, in service order.
            The head instances are typically pinned; the tail is the
            re-plannable backlog the scheduler rewrites each round.
    """

    index: int
    speed_w: int
    t_prog: int
    prog_received: int = 0
    queue: List[TaskInstance] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Program state.                                                       #
    # ------------------------------------------------------------------ #
    @property
    def has_program(self) -> bool:
        """True when the full program is resident."""
        return self.prog_received >= self.t_prog

    @property
    def prog_remaining(self) -> int:
        """Program transfer slots still needed."""
        return max(self.t_prog - self.prog_received, 0)

    # ------------------------------------------------------------------ #
    # Queue inspection.                                                    #
    # ------------------------------------------------------------------ #
    @property
    def computing_instance(self) -> Optional[TaskInstance]:
        """The instance currently computing, if any."""
        for inst in self.queue:
            if inst.computing and not inst.compute_complete:
                return inst
        return None

    @property
    def data_stage_instance(self) -> Optional[TaskInstance]:
        """The instance currently holding/receiving prefetched data.

        This is the unique non-computing instance with data progress — the
        paper allows at most one (asserted by the master's invariant check).
        """
        for inst in self.queue:
            if not inst.computing and inst.data_started:
                return inst
        return None

    def pinned_instances(self) -> List[TaskInstance]:
        """Instances whose work has begun (not re-plannable)."""
        return [inst for inst in self.queue if inst.pinned]

    # ------------------------------------------------------------------ #
    # Pipeline queries used by the slot loop.                              #
    # ------------------------------------------------------------------ #
    def next_data_target(self) -> Optional[TaskInstance]:
        """The instance that should receive data next, or ``None``.

        Honours the prefetch bound: if some non-computing instance already
        has data in flight or buffered, no *other* instance may start
        receiving; if that in-flight instance is incomplete it is the
        target.  Instances with ``data_needed == 0`` never need a channel.
        One pass over the queue: the first non-computing instance with
        data (the :attr:`data_stage_instance`) decides; otherwise the
        first non-computing one that needs data.
        """
        first = None
        for inst in self.queue:
            if inst.computing:
                continue
            if inst.data_received > 0:
                return inst if inst.data_received < inst.data_needed else None
            if first is None and inst.data_needed != 0:
                first = inst
        return first

    def next_compute_target(self) -> Optional[TaskInstance]:
        """The instance that should start computing, or ``None``.

        Requires the program to be resident and no instance already
        computing; picks the first queued instance with complete data.
        One pass over the queue.
        """
        if self.prog_received < self.t_prog:
            return None
        target = None
        for inst in self.queue:
            if inst.computing:
                if inst.compute_done < inst.compute_needed:
                    return None  # one is still computing
            elif target is None and inst.data_received >= inst.data_needed:
                target = inst
        return target

    def wants_program(self) -> bool:
        """True when a program transfer (or resume) is useful this slot."""
        return self.prog_received < self.t_prog and bool(self.queue)

    # ------------------------------------------------------------------ #
    # Delay(q) — Section 6.3.1.                                            #
    # ------------------------------------------------------------------ #
    def delay_estimate(self, pinned: Optional[List[TaskInstance]] = None) -> int:
        """The paper's ``Delay(q)``: slots before current activities finish.

        Estimated under the paper's simplifying assumptions: the worker
        stays UP and no network contention occurs.  Models the two worker
        timelines (channel and CPU) over the *pinned* instances only —
        planned instances are re-plannable and therefore not "current
        activities":

        * the channel serves remaining program bytes, then each pinned
          instance's remaining data in queue order;
        * the CPU serves each pinned instance for its remaining compute,
          starting no earlier than its data completion.

        Args:
            pinned: the result of :meth:`pinned_instances`, when the
                caller already holds it — this runs once per processor
                per scheduling round, so the repeated queue scan shows
                up in profiles.
        """
        comm_free = self.prog_remaining
        cpu_free = 0
        for inst in pinned if pinned is not None else self.pinned_instances():
            if inst.computing:
                # Data already complete; occupies CPU from now.
                cpu_free = max(cpu_free, 0) + inst.compute_remaining
                continue
            comm_free += inst.data_remaining
            start = max(comm_free, cpu_free)
            cpu_free = start + inst.compute_remaining
        return max(comm_free, cpu_free)

    def delay_and_pinned(self) -> tuple:
        """Fused ``(delay_estimate, pinned_count)`` in one queue walk.

        Hot path of the array scheduler API: the incremental
        :class:`~repro.core.heuristics.base.RoundState` refresh recomputes
        both columns for every touched worker each scheduling round, so this
        fuses the pinned scan into :meth:`delay_estimate`'s timeline walk
        (same integer arithmetic, same result — cross-checked against the
        unfused pair in the master's audit mode) and inlines the
        per-instance properties.
        """
        comm_free = self.t_prog - self.prog_received
        if comm_free < 0:
            comm_free = 0
        cpu_free = 0
        pinned_count = 0
        for inst in self.queue:
            if inst.data_received == 0 and not inst.computing:
                continue  # planned, re-plannable: not a current activity
            pinned_count += 1
            compute_remaining = inst.compute_needed - inst.compute_done
            if compute_remaining < 0:
                compute_remaining = 0
            if inst.computing:
                cpu_free += compute_remaining
                continue
            data_remaining = inst.data_needed - inst.data_received
            if data_remaining > 0:
                comm_free += data_remaining
            start = comm_free if comm_free > cpu_free else cpu_free
            cpu_free = start + compute_remaining
        delay = comm_free if comm_free > cpu_free else cpu_free
        return delay, pinned_count

    # ------------------------------------------------------------------ #
    # State-change effects.                                                #
    # ------------------------------------------------------------------ #
    def crash(self) -> List[TaskInstance]:
        """Apply a DOWN transition: lose program, data and partial results.

        Progress fields of the lost instances are left intact so the master
        can account for the wasted work before resetting them with
        :func:`reset_instance`.

        Returns:
            The instances that were queued (now orphaned).
        """
        lost = list(self.queue)
        self.queue.clear()
        self.prog_received = 0
        for inst in lost:
            inst.worker = None
        return lost

    def remove_instance(self, inst: TaskInstance) -> None:
        """Drop ``inst`` from the queue (commit elsewhere / re-plan)."""
        self.queue = [other for other in self.queue if other is not inst]
        inst.worker = None

    def check_invariants(self) -> None:
        """Assert pipeline invariants (used by the master in audit mode)."""
        computing = [i for i in self.queue if i.computing and not i.compute_complete]
        assert len(computing) <= 1, f"worker {self.index}: two instances computing"
        staged = [i for i in self.queue if not i.computing and i.data_started]
        assert len(staged) <= 1, (
            f"worker {self.index}: prefetch bound violated ({len(staged)} staged)"
        )
        if computing and not self.has_program:
            raise AssertionError(f"worker {self.index}: computing without program")
        for inst in self.queue:
            assert inst.worker == self.index, (
                f"instance {inst} queued on worker {self.index} "
                f"but records worker {inst.worker}"
            )

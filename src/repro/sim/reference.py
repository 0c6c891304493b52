"""The slot-stepped reference simulator (DESIGN.md §3).

:class:`ReferenceSimulator` is the model of Section 3 written as plainly
as possible, and the one oracle the fast
:class:`~repro.sim.master.MasterSimulator` is checked against
(``tests/test_reference_equivalence.py`` asserts identical reports,
event logs and ``network.usage`` audit trails).  It exists to be
obviously right, not fast:

* one slot at a time, reading ``platform.states_at(slot)`` every slot;
* the live task instances in a plain Python list;
* an eager per-round :class:`~repro.core.heuristics.base.ProcessorView`
  snapshot and the scalar :meth:`Scheduler.place` entry point.

It shares only the model components with the fast simulator —
:class:`~repro.sim.worker.WorkerRuntime`, :class:`~repro.sim.network.
BoundedMultiportNetwork`, :class:`~repro.sim.events.EventLog`,
:class:`~repro.sim.metrics.SimulationReport`, :class:`~repro.sim.worker.
TaskInstance`, the replan-policy parser and the optional timeline
recorder — and none of its machinery (no span search, no instance
table, no incremental scheduler state, no event calendar).

Each slot runs the normative order: states & crash handling →
scheduling round → compute step → transfer step → commit and iteration
bookkeeping.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .._validation import require_positive_int
from ..core.heuristics.base import ProcessorView, Scheduler, SchedulingContext
from ..rng import default_scheduler_rng
from ..types import ProcState
from ..workload.application import IterativeApplication
from .events import EventKind, EventLog, SimEvent
from .metrics import SimulationReport
from .network import BoundedMultiportNetwork, TransferRequest
from .options import SimulatorOptions
from .platform import Platform
from .relevance import parse_replan_policy
from .worker import TaskInstance, WorkerRuntime, reset_instance

__all__ = ["ReferenceSimulator", "eager_context"]

_UP = int(ProcState.UP)
_RECLAIMED = int(ProcState.RECLAIMED)
_DOWN = int(ProcState.DOWN)
_STATE_TABLE = (ProcState.UP, ProcState.RECLAIMED, ProcState.DOWN)


def eager_context(
    platform: Platform,
    workers: List[WorkerRuntime],
    app: IterativeApplication,
    slot: int,
    states: np.ndarray,
    remaining_tasks: int,
    rng: np.random.Generator,
) -> SchedulingContext:
    """One scheduling round's context, built from scratch.

    Every processor gets a fresh :class:`ProcessorView` derived directly
    from its worker's queue: Delay (Section 6.2), pinned count, program
    state and pinned pipeline.
    """
    views = []
    for proc, worker in zip(platform, workers):
        pinned = worker.pinned_instances()
        views.append(
            ProcessorView(
                index=proc.index,
                speed_w=proc.speed_w,
                state=_STATE_TABLE[states[proc.index]],
                belief=proc.belief,
                has_program=worker.has_program,
                delay=worker.delay_estimate(pinned),
                pinned_count=len(pinned),
                prog_remaining=worker.prog_remaining,
                pinned_pipeline=tuple(
                    (inst.data_remaining, inst.compute_remaining, inst.computing)
                    for inst in pinned
                ),
            )
        )
    return SchedulingContext(
        slot=slot,
        t_prog=app.t_prog,
        t_data=app.t_data,
        ncom=platform.ncom,
        processors=views,
        remaining_tasks=remaining_tasks,
        rng=rng,
    )


class ReferenceSimulator:
    """One application execution, simulated slot by slot.

    Same constructor and run API as
    :class:`~repro.sim.master.MasterSimulator` (minus the resumable-run
    seam), and the same results.  Like it, a simulator runs once.

    Args:
        platform: the volatile processors and the channel budget.
        app: the iterative application.
        scheduler: the heuristic deciding task placement.
        options: simulator tunables.
        rng: RNG stream for scheduler randomness (defaults to the
            generator seeded from ``DEFAULT_SCHEDULER_SEED``).
        log: optional event log (a disabled one is created by default).
        timeline: optional per-slot activity recorder.
    """

    def __init__(
        self,
        platform: Platform,
        app: IterativeApplication,
        scheduler: Scheduler,
        *,
        options: Optional[SimulatorOptions] = None,
        rng: Optional[np.random.Generator] = None,
        log: Optional[EventLog] = None,
        timeline=None,
    ):
        self.platform = platform
        self.app = app
        self.scheduler = scheduler
        self.options = options or SimulatorOptions()
        self.rng = rng if rng is not None else default_scheduler_rng()
        self.log = log if log is not None else EventLog(enabled=False)
        self.timeline = timeline
        self.network = BoundedMultiportNetwork(
            platform.ncom, audit=self.options.audit
        )
        self.workers: List[WorkerRuntime] = [
            WorkerRuntime(index=proc.index, speed_w=proc.speed_w, t_prog=app.t_prog)
            for proc in platform
        ]
        self.report = SimulationReport(
            target_iterations=app.iterations, heuristic_name=scheduler.name
        )
        self._policy = parse_replan_policy(self.options.replan_policy)
        self._every_slot = self._policy.name == "every-slot"
        #: Slot of the last executed scheduling round (debounce anchor).
        self._last_round_slot = -(1 << 60)
        self._prev_states: Optional[np.ndarray] = None
        self._ran = False
        self._instances: List[TaskInstance] = []
        self._committed: set = set()
        self._start_iteration(0)

    # ------------------------------------------------------------------ #
    # Runs.                                                                #
    # ------------------------------------------------------------------ #
    def run(self, max_slots: Optional[int] = None) -> SimulationReport:
        """Run until the target iterations complete (or ``max_slots``);
        ``report.makespan`` is ``None`` if the slot budget ran out."""
        budget = max_slots if max_slots is not None else self.options.max_slots
        return self._run(require_positive_int(budget, "max_slots"))

    def run_slots(self, n_slots: int) -> SimulationReport:
        """Simulate exactly ``n_slots`` slots (the Section 3.4 objective)."""
        return self._run(require_positive_int(n_slots, "n_slots"))

    def _run(self, budget: int) -> SimulationReport:
        if self._ran:
            # The run consumes its workers, instances and report.
            raise RuntimeError("a simulator runs once; build a new one")
        self._ran = True
        for slot in range(budget):
            finished = self._step(slot)
            self.report.slots_simulated = slot + 1
            if finished:
                break
        # Leftover instances at end-of-run are waste.
        for inst in self._instances:
            self.report.comm_slots_wasted += inst.data_received
            self.report.compute_slots_wasted += inst.compute_done
        if self.options.audit:
            self.network.verify_invariants()
        return self.report

    def _step(self, slot: int) -> bool:
        """Simulate one slot; returns True when the whole run finished."""
        states = self.platform.states_at(slot)
        if self.timeline is not None:
            self.timeline.begin_slot(states)
        self._handle_states(slot, states)
        if self._need_replan or self._every_slot:
            self._need_replan = False
            self._scheduling_round(slot, states)
        self._compute_step(slot, states)
        self._transfer_step(slot, states)
        if self.options.audit:
            for worker in self.workers:
                worker.check_invariants()
        self._prev_states = states
        if len(self._committed) < self.app.tasks_per_iteration:
            return False
        self.report.iteration_end_slots.append(slot)
        self.report.completed_iterations += 1
        self.log.emit(
            SimEvent(slot, EventKind.ITERATION_DONE, iteration=self.iteration)
        )
        if self.report.completed_iterations >= self.app.iterations:
            self.report.makespan = slot + 1
            self.log.emit(SimEvent(slot, EventKind.RUN_DONE))
            return True
        self._start_iteration(self.iteration + 1)
        return False

    def _start_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        self._committed = set()
        self._instances = [
            TaskInstance(
                iteration=iteration,
                task_id=task_id,
                replica_id=0,
                data_needed=self.app.t_data,
            )
            for task_id in range(self.app.tasks_per_iteration)
        ]
        self._need_replan = True

    def _emit(self, slot: int, kind: EventKind, inst: TaskInstance, worker, **kw):
        self.log.emit(
            SimEvent(
                slot,
                kind,
                worker=worker,
                iteration=inst.iteration,
                task_id=inst.task_id,
                replica_id=inst.replica_id,
                **kw,
            )
        )

    def _destroy(self, inst: TaskInstance) -> None:
        if inst.worker is not None:
            self.workers[inst.worker].remove_instance(inst)
        reset_instance(inst)
        self._instances.remove(inst)  # identity: TaskInstance has eq=False

    # ------------------------------------------------------------------ #
    # States and crashes.                                                  #
    # ------------------------------------------------------------------ #
    def _handle_states(self, slot: int, states: np.ndarray) -> None:
        prev = self._prev_states
        if prev is not None:
            changed = np.nonzero(states != prev)[0].tolist()
            # Re-plan only when the UP set changed: transitions among
            # RECLAIMED/DOWN leave the candidate set and every Delay alone.
            churned = [q for q in changed if (states[q] == _UP) != (prev[q] == _UP)]
            if churned:
                self._churn(slot, churned, states)
            for q in changed:
                self.log.emit(
                    SimEvent(
                        slot,
                        EventKind.PROC_STATE_CHANGE,
                        worker=q,
                        detail=(
                            f"{ProcState(int(prev[q])).code}"
                            f"->{ProcState(int(states[q])).code}"
                        ),
                    )
                )
        for worker in self.workers:
            if states[worker.index] != _DOWN:
                continue
            if not (worker.prog_received or worker.queue):
                continue
            # Crash: account wasted effort, then wipe program and queue.
            self.report.comm_slots_wasted += worker.prog_received
            for inst in worker.crash():
                self.report.comm_slots_wasted += inst.data_received
                self.report.compute_slots_wasted += inst.compute_done
                self.report.instances_lost_to_crash += 1
                if inst.is_replica:
                    self._destroy(inst)
                else:
                    reset_instance(inst)  # the original returns to the pool
                self._emit(
                    slot, EventKind.INSTANCE_LOST, inst, worker.index,
                    detail="crash",
                )
            self._need_replan = True

    def _churn(self, slot: int, churned: List[int], states: np.ndarray) -> None:
        """Apply the replan policy to an UP-set change (DESIGN.md §10)."""
        policy = self._policy
        if policy.churn_always:
            self._need_replan = True
        elif policy.ignores_churn:
            return  # sticky: pure churn never replans
        elif policy.ignores_empty_exits:
            # relevant-up: entries replan; exits only of loaded processors.
            for q in churned:
                worker = self.workers[q]
                if states[q] == _UP or worker.queue or worker.prog_received > 0:
                    self._need_replan = True
                    return
        elif slot >= self._last_round_slot + policy.debounce:
            self._need_replan = True  # debounce:k, leading edge

    # ------------------------------------------------------------------ #
    # Scheduling round (Section 6).                                        #
    # ------------------------------------------------------------------ #
    def _replication_on(self) -> bool:
        return self.options.replication and self.options.max_replicas > 0

    def _round_is_trivial(self, states: np.ndarray) -> bool:
        """True when a scheduling round could not change anything: nothing
        unpinned, no proactive candidate, and no replication to launch."""
        if any(not inst.pinned for inst in self._instances):
            return False
        if self.options.proactive and self._proactive_candidates(states):
            return False
        if not self._replication_on():
            return True
        uncommitted = self.app.tasks_per_iteration - len(self._committed)
        if int(np.count_nonzero(states == _UP)) <= uncommitted:
            return True
        if not any(
            states[w.index] == _UP and not w.queue for w in self.workers
        ):
            return True
        max_instances = 1 + self.options.max_replicas
        counts = self._instance_counts()
        return all(
            counts.get(task_id, 0) >= max_instances
            for task_id in self._uncommitted()
        )

    def _uncommitted(self) -> List[int]:
        return [
            task_id
            for task_id in range(self.app.tasks_per_iteration)
            if task_id not in self._committed
        ]

    def _instance_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for inst in self._instances:
            counts[inst.task_id] = counts.get(inst.task_id, 0) + 1
        return counts

    def _proactive_candidates(self, states: np.ndarray) -> List[TaskInstance]:
        """Pinned originals stalled on RECLAIMED workers, in task order,
        when UP processors are at least the uncommitted tasks and the
        instance has not done most of its computation yet."""
        uncommitted = self.app.tasks_per_iteration - len(self._committed)
        up = int(np.count_nonzero(states == _UP))
        if up < uncommitted or up == 0:
            return []
        candidates = [
            inst
            for inst in self._instances
            if not inst.is_replica
            and inst.pinned
            and inst.worker is not None
            and states[inst.worker] == _RECLAIMED
            and not (
                inst.compute_needed and inst.compute_done * 2 > inst.compute_needed
            )
        ]
        return sorted(candidates, key=lambda inst: inst.task_id)

    def _scheduling_round(self, slot: int, states: np.ndarray) -> None:
        if self._round_is_trivial(states):
            return
        if self.options.proactive:
            for inst in self._proactive_candidates(states):
                self.report.comm_slots_wasted += inst.data_received
                self.report.compute_slots_wasted += inst.compute_done
                self.workers[inst.worker].remove_instance(inst)
                reset_instance(inst)  # back to the pool, progress discarded
                self._emit(
                    slot, EventKind.INSTANCE_LOST, inst, None,
                    detail="proactive-termination",
                )
        self.report.scheduler_rounds += 1
        self._last_round_slot = slot

        # The unpinned originals are (re)placed in task order; the
        # unpinned replicas are dropped (they carry no progress) and the
        # replication step recreates whatever is still useful.
        originals = sorted(
            (i for i in self._instances if not i.pinned and not i.is_replica),
            key=lambda inst: inst.task_id,
        )
        replicas = [i for i in self._instances if not i.pinned and i.is_replica]
        ctx = eager_context(
            self.platform, self.workers, self.app, slot, states,
            len(originals), self.rng,
        )
        placements = self.scheduler.place(ctx, len(originals))
        for inst in replicas:
            self._destroy(inst)
        for inst in originals:
            if inst.worker is not None:
                self.workers[inst.worker].remove_instance(inst)
                inst.worker = None
        for inst, choice in zip(originals, placements):
            self._place(inst, choice, states)
        if self._replication_on():
            self._replication_round(ctx, states)

    def _place(
        self, inst: TaskInstance, choice: Optional[int], states: np.ndarray
    ) -> None:
        if choice is None:
            return
        if not 0 <= choice < len(self.workers):
            raise ValueError(
                f"scheduler {self.scheduler.name!r} placed a task on unknown "
                f"processor {choice}"
            )
        if states[choice] == _DOWN:
            return  # refuse DOWN processors: the instance stays unplaced
        worker = self.workers[choice]
        inst.worker = choice
        inst.compute_needed = worker.speed_w
        worker.queue.append(inst)

    def _replication_round(self, ctx: SchedulingContext, states: np.ndarray) -> None:
        """Section 6.1: while UP processors outnumber the uncommitted
        tasks, give idle UP processors extra copies — least-replicated
        tasks first, ties toward the lowest task id, never two copies of
        a task on one processor."""
        uncommitted = self._uncommitted()
        if int(np.count_nonzero(states == _UP)) <= len(uncommitted):
            return
        idle = [
            w.index for w in self.workers if states[w.index] == _UP and not w.queue
        ]
        max_instances = 1 + self.options.max_replicas
        counts = self._instance_counts()
        for task_id in sorted(uncommitted, key=lambda t: (counts.get(t, 0), t)):
            if not idle:
                break
            if counts.get(task_id, 0) >= max_instances:
                continue
            siblings = [inst for inst in self._instances if inst.task_id == task_id]
            hosts = {inst.worker for inst in siblings}
            allowed = [q for q in idle if q not in hosts]
            if not allowed:
                continue
            choice = self.scheduler.place(ctx, 1, allowed)[0]
            if choice is None:
                continue
            used = {inst.replica_id for inst in siblings}
            replica = TaskInstance(
                iteration=self.iteration,
                task_id=task_id,
                replica_id=min(set(range(1, max_instances + 1)) - used),
                data_needed=self.app.t_data,
            )
            self._place(replica, choice, states)
            if replica.worker is not None:
                self._instances.append(replica)
                self.report.replicas_launched += 1
                idle.remove(choice)

    # ------------------------------------------------------------------ #
    # Compute, commit and transfers.                                       #
    # ------------------------------------------------------------------ #
    def _compute_step(self, slot: int, states: np.ndarray) -> None:
        for worker in self.workers:
            if states[worker.index] != _UP:
                continue
            current = worker.computing_instance
            if current is None:
                current = worker.next_compute_target()
                if current is None:
                    continue
                current.computing = True
                self._emit(slot, EventKind.COMPUTE_START, current, worker.index)
            current.compute_done += 1
            self.report.compute_slots_spent += 1
            if self.timeline is not None:
                self.timeline.mark_compute(worker.index)
            if current.compute_complete:
                self._commit(slot, current)

    def _commit(self, slot: int, inst: TaskInstance) -> None:
        self._committed.add(inst.task_id)
        self.report.tasks_committed += 1
        self._need_replan = True
        self._emit(slot, EventKind.TASK_COMMIT, inst, inst.worker)
        # The committed instance goes, and every sibling is cancelled, in
        # creation order.
        siblings = sorted(
            (other for other in self._instances if other.task_id == inst.task_id),
            key=lambda other: other.uid,
        )
        for sibling in siblings:
            if sibling is not inst:
                self.report.comm_slots_wasted += sibling.data_received
                self.report.compute_slots_wasted += sibling.compute_done
                if sibling.is_replica:
                    self.report.replicas_cancelled += 1
                else:
                    self.report.originals_superseded += 1
                self._emit(slot, EventKind.REPLICA_CANCELLED, sibling, sibling.worker)
            self._destroy(sibling)

    def _transfer_step(self, slot: int, states: np.ndarray) -> None:
        # Requests: each UP worker asks for its program first, then for
        # the data of its next queued instance.
        requests: List[TransferRequest] = []
        targets: Dict[int, TaskInstance] = {}
        for worker in self.workers:
            if states[worker.index] != _UP:
                continue  # transfers suspend while RECLAIMED / DOWN
            if worker.wants_program():
                kind, started, is_replica = "prog", worker.prog_received > 0, False
            else:
                target = worker.next_data_target()
                if target is None:
                    continue
                kind, started = "data", target.data_started
                is_replica = target.is_replica
                targets[worker.index] = target
            requests.append(
                TransferRequest(
                    worker=worker.index,
                    kind=kind,
                    started=started,
                    is_replica=is_replica,
                    key=worker.index,
                )
            )
        for grant in self.network.allocate(slot, requests):
            worker = self.workers[grant.worker]
            self.report.comm_slots_spent += 1
            if self.timeline is not None:
                self.timeline.mark_transfer(worker.index, grant.kind)
            if grant.kind == "prog":
                if worker.prog_received == 0:
                    self.log.emit(SimEvent(
                        slot, EventKind.PROGRAM_TRANSFER_START, worker=worker.index
                    ))
                worker.prog_received += 1
                if worker.has_program:
                    self._need_replan = True
                    self.log.emit(SimEvent(
                        slot, EventKind.PROGRAM_TRANSFER_DONE, worker=worker.index
                    ))
                continue
            inst = targets[grant.worker]
            if not inst.data_started:
                self._emit(slot, EventKind.DATA_TRANSFER_START, inst, worker.index)
            inst.data_received += 1
            if inst.data_complete:
                self._emit(slot, EventKind.DATA_TRANSFER_DONE, inst, worker.index)

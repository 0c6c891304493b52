"""The volatile master–worker simulator (paper Sections 3 and 6).

:class:`MasterSimulator` executes an :class:`~repro.workload.application.
IterativeApplication` on a :class:`~repro.sim.platform.Platform` under a
chosen scheduling heuristic, realising the model of Section 3:

* time advances in slots; processor states are read from each processor's
  ground-truth availability source;
* the master's outgoing bandwidth is a hard per-slot budget of ``ncom``
  channels (:class:`~repro.sim.network.BoundedMultiportNetwork`);
* workers run the program/data/compute pipeline of
  :class:`~repro.sim.worker.WorkerRuntime`, suspending while RECLAIMED and
  losing everything on DOWN;
* the scheduler re-plans the unpinned remainder of the current iteration at
  every *event* (state change, transfer completion, commit, crash,
  iteration boundary) — between events a re-plan would see the same inputs
  shifted by idle slots, so skipping it changes nothing for the paper's
  heuristics while keeping runs fast;
* tasks are replicated (up to :attr:`SimulatorOptions.max_replicas` extra
  copies) whenever UP processors outnumber uncommitted tasks, originals
  taking priority (Section 6.1).

**Normative slot order** (also documented in DESIGN.md §3): states & crash
handling → scheduling round → compute step → transfer step → commit and
iteration bookkeeping.  Compute precedes transfers so that a task whose
data finished in slot *t* starts computing in slot *t+1*, matching the
paper's sequential ``T_prog → T_data → w`` timing (verified against the
Section 4 worked example, whose optimal makespan of 9 slots this simulator
reproduces).

Two run modes mirror the paper's two objective formulations:

* :meth:`MasterSimulator.run` — complete a target number of iterations,
  report the makespan (the evaluation protocol of Section 7);
* :meth:`MasterSimulator.run_slots` — simulate exactly ``N`` slots, report
  completed iterations (the Section 3.4 objective).

**Span stepping** (DESIGN.md §6).  The paper's chains have self-loop
probabilities in ``[0.90, 0.99]`` (Section 7), so for tens of slots at a
stretch nothing observable changes: states hold, transfers and
computations tick linearly, and no scheduling decision can differ.  After
each fully simulated slot the simulator computes the next slot at which
*anything* can change — the earliest relevant availability transition,
granted-transfer completion, compute completion, or pending re-plan — and
advances all counters arithmetically across the quiet gap in O(p) instead
of O(p·span).  The live instances sit in the row store
:class:`~repro.sim.instance_table.InstanceTable` (DESIGN.md §9), the
schedulers read an incrementally maintained
:class:`~repro.core.heuristics.base.RoundState` (§8), and an event
calendar (§12) — the only platform index — touches only the processors
whose availability run ended at a boundary.

**One owner per fact.**  The instance records own identity, progress
and placement; the table owns the event-rate aggregates, and commit
state derives from its row lists; the calendar owns the availability
sources and each processor's state and next transition (the span search
reads ``PlatformCalendar.sources`` and ``next_change``).  The master
keeps two busy-worker mirrors, ``_hosts`` (non-empty queues) and
``_prog_holders`` (program progress), one grant dict per boundary
(``_grants``) and one set of workers touched since the last executed
round (``_touched``), which the next round's refresh recomputes in
full; it derives its boundary counters (``op_counts``) from
``steps_executed`` and the calendar's pop count.

**The reference** (DESIGN.md §3).  None of this machinery may change a
result: :class:`~repro.sim.reference.ReferenceSimulator`, a plain
slot-at-a-time implementation of the same model, must produce identical
reports, event logs and audit trails (enforced by
``tests/test_reference_equivalence.py``).

**Replan policies** (DESIGN.md §10).  ``replan_policy`` relaxes when
those re-plans run (``sticky``, ``debounce:k``, ``relevant-up``) and is
validated against the paper's shape targets by
``experiments/replan_study.py`` instead of by bit-identity.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .._validation import require_positive_int
from ..core.heuristics.base import RoundState, Scheduler
from ..rng import DEFAULT_SCHEDULER_SEED, default_scheduler_rng
from ..types import ProcState
from ..workload.application import IterativeApplication
from .events import EventKind, EventLog, SimEvent
from .instance_table import InstanceTable
from .metrics import SimulationReport
from .network import BoundedMultiportNetwork, TransferRequest
from .options import SimulatorOptions
from .platform import Platform, PlatformCalendar
from .relevance import ReplanPolicy, parse_replan_policy
from .worker import TaskInstance, WorkerRuntime, reset_instance

__all__ = [
    "DEFAULT_SCHEDULER_SEED",
    "ReplanPolicy",
    "SimulatorOptions",
    "MasterSimulator",
    "simulate",
]

_DOWN = int(ProcState.DOWN)


class MasterSimulator:
    """One application execution on one platform under one heuristic.

    Args:
        platform: the volatile processors and the channel budget.
        app: the iterative application.
        scheduler: the heuristic deciding task placement.
        options: simulator tunables.
        rng: RNG stream for scheduler randomness (the random heuristic
            family); availability randomness lives in the platform's
            sources and is *not* drawn from this stream, so heuristic
            choice does not perturb availability (paired comparisons).
            When omitted, a generator seeded from
            :data:`DEFAULT_SCHEDULER_SEED` is used so that runs without
            an explicit stream are still reproducible — pass your own
            stream whenever two simulations must not share randomness.
        log: optional event log (a disabled one is created by default).
        timeline: optional per-slot activity recorder (see
            :class:`~repro.sim.timeline.TimelineRecorder`); costs one byte
            row per slot, so enable for debugging/examples only.

    A simulator runs once: a second :meth:`run`, :meth:`run_slots` or
    :meth:`begin_run` raises ``RuntimeError``.
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
        if rng is None:
            # Deterministic fallback: an unseeded default_rng() would make
            # randomised heuristics unreproducible run-to-run.
            rng = default_scheduler_rng()
        self.rng = rng
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

        # Iteration state: the live instances and the commit state sit
        # in the InstanceTable (DESIGN.md §9).
        self.iteration = 0
        self._tbl = InstanceTable(
            app.tasks_per_iteration,
            len(self.workers),
            1 + self.options.max_replicas,
        )
        #: Per-worker reuse cache for frozen TransferRequest objects,
        #: keyed by (kind, started, is_replica) — see _gather_requests.
        self._request_cache: List[dict] = [{} for _ in self.workers]
        #: Workers whose queue is non-empty: ``_place_all`` adds, and every
        #: site that can empty a queue (the round purge, ``_crash``,
        #: ``_unqueue``) discards.  The busy-worker loops read it instead
        #: of scanning the table (audited against that scan).
        self._hosts: set = set()
        self._start_iteration(0)

        self._need_replan = True

        # The parsed replan policy decides which events set
        # ``_need_replan`` (DESIGN.md §10).
        self._policy = parse_replan_policy(self.options.replan_policy)
        self._policy_churn_always = self._policy.churn_always
        self._every_slot = self._policy.name == "every-slot"
        # No simulator code uses this; it stays only because the
        # end-to-end benchmark tracer reads it by name.
        self.rounds_elided = 0
        #: Slot of the last *executed* (non-trivial) scheduling round;
        #: anchors the ``debounce:k`` cooldown window.  Trivial rounds do
        #: not move it, so the debounce clock is invisible at glided
        #: slots.
        self._last_round_slot = -(1 << 60)

        #: Fully simulated slots (diagnostic, not part of the report): the
        #: span boundaries, so ``slots_simulated / steps_executed`` is the
        #: run's mean span length.
        self.steps_executed = 0

        # Span-stepping state (DESIGN.md §6): the grants of the last fully
        # simulated slot (worker index -> ``(kind, instance)``, in grant
        # order; reused verbatim across the quiet span), whether that
        # slot changed the pipeline shape (a data transfer finishing
        # re-opens the allocation problem), and a per-processor cache of
        # the next DOWN entry (the next transition of any kind is the
        # calendar's, DESIGN.md §12).
        self._pipeline_changed = False
        self._span_refined = False
        self._grants: Dict[int, tuple] = {}
        self._grant_counts = (0, 0, 0)
        self._next_down_cache: List[int] = [-1] * len(self.workers)

        # The platform index (DESIGN.md §12): the event calendar holds the
        # state vector of the last boundary — as a plain Python list
        # (``_states_list``; int loops beat per-element numpy reads ~2× at
        # the paper's p = 20 — DESIGN.md §9) and as a zero-copy uint8
        # view — and is started in ``_start_run`` once the budget is known
        # (its heap sentinels are budget-relative).  Its ``sources`` list
        # is the simulator's one handle on the availability sources.
        self._cal = PlatformCalendar([proc.availability for proc in platform])
        self._states_list: List[int] = []  # the calendar's, once started
        #: Workers with a partial or resident program (mirrors
        #: ``prog_received > 0``): the crash-candidate filter, and together
        #: with the queue hosts the only workers the span search must
        #: visit.
        self._prog_holders: set = set()

        #: Workers whose RoundState columns may have moved since the last
        #: executed round: every mutation that can move a worker's delay,
        #: pinned count or program progress adds it, and the next
        #: `_refresh_round_state` recomputes them all and clears the set.
        #: Starts with every worker: no column is current until refreshed.
        self._touched: set = set(range(len(self.workers)))

        #: Operation-count instrumentation (diagnostics; ``op_counts``
        #: bundles them with the counts it derives from ``steps_executed``
        #: and the calendar).  Span scans: workers visited by the
        #: quiet-span search.  Refreshes: RoundState columns recomputed at
        #: executed rounds.
        self.op_span_scan_workers = 0
        self.op_round_refreshed = 0

        # Array-backed scheduler state (DESIGN.md §8): the structure-of-
        # arrays RoundState the schedulers consume, maintained
        # *incrementally* — every mutation that can move a per-processor
        # column (pin/unpin, transfer progress, program completion, crash,
        # commit, quiet-span fast-forward) adds the worker to `_touched`,
        # and `_refresh_round_state` recomputes only those columns at the
        # next scheduling round.
        self._rs = RoundState(
            speed_w=[proc.speed_w for proc in platform],
            beliefs=[proc.belief for proc in platform],
            t_prog=app.t_prog,
            t_data=app.t_data,
            ncom=platform.ncom,
            rng=self.rng,
            pipeline_provider=self._pinned_pipeline_of,
        )

        # Run-loop state (begin_run/advance_until/finish_run; run and
        # run_slots drive the same three calls).
        self._resume_budget: Optional[int] = None
        self._resume_slot = 0
        self._run_over = False

    @property
    def round_state(self) -> RoundState:
        """The incrementally maintained scheduler :class:`RoundState`.

        Exposed for inspection; treat it as read-only — the master owns
        every column and renews its ``version`` at each refresh.
        """
        return self._rs

    # ------------------------------------------------------------------ #
    # Iteration lifecycle.                                                 #
    # ------------------------------------------------------------------ #
    def _start_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        originals = [
            TaskInstance(
                iteration=iteration,
                task_id=task_id,
                replica_id=0,
                data_needed=self.app.t_data,
            )
            for task_id in range(self.app.tasks_per_iteration)
        ]
        self._tbl.reset()
        for inst in originals:
            self._tbl.add(inst)
        self._need_replan = True

    @property
    def instance_ops(self) -> int:
        """Structural instance-store mutations so far (benchmark metric)."""
        return self._tbl.ops

    @property
    def op_counts(self) -> Dict[str, int]:
        """Operation-count instrumentation (DESIGN.md §12).

        ``boundaries``: fully simulated slots (``steps_executed``);
        ``boundary_workers_touched``: state reads summed over the run (p
        at the calendar's start, then its heap pops at each boundary);
        ``calendar_pops``: total heap pops;
        ``span_scan_workers``: workers visited by the quiet-span search;
        ``round_refreshed``: RoundState columns recomputed at executed
        rounds (the touched workers); ``rows_scored``: score-row
        elements the scheduler built, one row per round and contention
        factor (0 for schedulers on the compatibility shim);
        ``rows_reused``: always 0 — nothing carries score rows across
        rounds, and the key stays only because the end-to-end benchmark
        reads it.  The O(churn) claims of the large-p engine are
        asserted on these in ``tests/test_reference_equivalence.py``,
        not just benchmarked.
        """
        cal = self._cal
        return {
            "boundaries": self.steps_executed,
            "boundary_workers_touched": (
                len(self.workers) + cal.pops if cal.started else 0
            ),
            "calendar_pops": cal.pops,
            "span_scan_workers": self.op_span_scan_workers,
            "round_refreshed": self.op_round_refreshed,
            "rows_scored": getattr(self.scheduler, "rows_scored", 0),
            "rows_reused": 0,
        }

    # ------------------------------------------------------------------ #
    # Crash / state handling.                                              #
    # ------------------------------------------------------------------ #
    def _handle_states(self, slot: int, records: List[tuple]) -> None:
        """React to this boundary's net state changes.

        ``records`` are the calendar's ``(q, old, new)`` triples — the
        boundary snapshot diff, ascending ``q`` — so the re-plan trigger,
        the events and the crash candidates come without an O(p) pass.
        """
        if records:
            slist = self._states_list
            up = int(ProcState.UP)
            # Re-plan only when the UP set changed: transitions among
            # RECLAIMED/DOWN of unused processors alter neither the
            # candidate set nor any Delay estimate.
            churned = [
                q for q, old, new in records if (new == up) != (old == up)
            ]
            if churned:
                if self._policy_churn_always:
                    self._need_replan = True
                else:
                    self._churn_replan(slot, churned, slist)
            if self.log.enabled:
                for q, old, new in records:
                    self.log.emit(
                        SimEvent(
                            slot,
                            EventKind.PROC_STATE_CHANGE,
                            worker=q,
                            detail=(
                                f"{ProcState(old).code}"
                                f"->{ProcState(new).code}"
                            ),
                        )
                    )
        # Only a net transition *into* DOWN can crash: DOWN workers cannot
        # gain work (placements refuse DOWN, transfers need UP), and a busy
        # worker's DOWN entry always breaks the span (see _quiet_span), so
        # its record is fresh.  Only workers carrying progress crash; the
        # filters mirror ``prog_received > 0`` / non-empty queues exactly.
        down = int(ProcState.DOWN)
        prog_holders = self._prog_holders
        workers = self.workers
        candidates = [
            q
            for q, _old, new in records
            if new == down and (q in prog_holders or workers[q].queue)
        ]
        self._crash(slot, candidates)

    def _crash(self, slot: int, candidates: List[int]) -> None:
        """Crash each candidate worker (DOWN while carrying progress)."""
        tbl = self._tbl
        for q in candidates:
            worker = self.workers[q]
            # Account wasted effort before wiping progress.
            self.report.comm_slots_wasted += worker.prog_received
            self._touched.add(q)  # program + pipeline wiped
            lost = worker.crash()
            tbl.on_crash(q)
            self._prog_holders.discard(q)
            self._hosts.discard(q)
            for inst in lost:
                self.report.comm_slots_wasted += inst.data_received
                self.report.compute_slots_wasted += inst.compute_done
                self.report.instances_lost_to_crash += 1
                if inst.is_replica:
                    self._destroy_instance(inst)
                else:
                    reset_instance(inst)  # original returns to the pool
                    tbl.release(inst)
                if self.log.enabled:
                    self.log.emit(
                        SimEvent(
                            slot,
                            EventKind.INSTANCE_LOST,
                            worker=worker.index,
                            iteration=inst.iteration,
                            task_id=inst.task_id,
                            replica_id=inst.replica_id,
                            detail="crash",
                        )
                    )
            self._need_replan = True

    def _destroy_instance(self, inst: TaskInstance) -> None:
        # Before the queue detach below: destroy reads ``inst.worker`` for
        # the computing-row rollback.
        self._tbl.destroy(inst)
        if inst.worker is not None:
            self._unqueue(inst)
        reset_instance(inst)

    def _unqueue(self, inst: TaskInstance) -> None:
        """Detach ``inst`` from its worker's queue; the worker leaves the
        queue hosts once its queue is empty."""
        q = inst.worker
        # Removing a pinned instance moves the worker's delay and pinned
        # count; marking unconditionally is cheap and idempotent.
        self._touched.add(q)
        worker = self.workers[q]
        worker.remove_instance(inst)
        if not worker.queue:
            self._hosts.discard(q)

    def _churn_replan(self, slot: int, churned, states) -> None:
        """Apply the relaxed replan policy to an UP-set change.

        Called only for non-default policies (the ``event``/``every-slot``
        fast path sets ``_need_replan`` inline).  ``churned`` lists the
        processors whose UP-membership flipped this slot; ``states`` is
        the current state vector as a plain list.
        """
        policy = self._policy
        if policy.ignores_churn:
            return  # sticky: pure churn never replans
        if policy.ignores_empty_exits:
            # relevant-up: entries always replan; exits only when the
            # departing processor carries work (queue or partial program).
            up = int(ProcState.UP)
            workers = self.workers
            for q in churned:
                if states[q] == up:  # an entry: new candidate, replan
                    self._need_replan = True
                    return
                worker = workers[q]
                if worker.queue or worker.prog_received > 0:
                    self._need_replan = True
                    return
            return  # only empty processors left the UP set: ignore
        # debounce:k (leading edge): at most one churn-triggered round per
        # k slots, anchored at the last executed round; suppressed churn
        # is dropped, not deferred.
        if slot >= self._last_round_slot + policy.debounce:
            self._need_replan = True

    # ------------------------------------------------------------------ #
    # Scheduling round.                                                    #
    # ------------------------------------------------------------------ #
    def _pinned_pipeline_of(self, q: int) -> tuple:
        """The worker's pinned pipeline, for lazy ``ProcessorView`` shims."""
        return tuple(
            (inst.data_remaining, inst.compute_remaining, inst.computing)
            for inst in self.workers[q].pinned_instances()
        )

    def _refresh_round_state(
        self, slot: int, states: np.ndarray, remaining: int
    ) -> RoundState:
        """Bring the incrementally maintained RoundState up to this round.

        O(touched processors): the state column is the (already computed)
        state vector, and the worker-derived columns — ``delay``,
        ``pinned_count``, ``has_program``, ``prog_remaining`` — are
        recomputed for every worker in ``_touched``, whatever its state,
        after which the set is cleared.  The per-worker recompute is the
        same ``delay_estimate`` the reference simulator's eager snapshot
        calls, so refreshed columns are bit-identical to a from-scratch
        rebuild (cross-checked over all p columns in audit mode).
        """
        rs = self._rs
        rs.slot = slot
        rs.state = states
        touched = self._touched
        if touched:
            workers = self.workers
            delay_col = rs.delay
            pinned_col = rs.pinned_count
            prog_col = rs.prog_remaining
            has_prog_col = rs.has_program
            # Element-wise writes: a round touches ~5 workers at p = 20,
            # where they beat building index arrays for fancy scatters.
            for q in touched:
                worker = workers[q]
                delay_col[q], pinned_col[q] = worker.delay_and_pinned()
                prog = worker.prog_remaining
                prog_col[q] = prog
                has_prog_col[q] = prog == 0
            self.op_round_refreshed += len(touched)
            touched.clear()
        rs.remaining_tasks = remaining
        rs.invalidate()
        if self.options.audit:
            self._audit_round_state()
        return rs

    def _audit_round_state(self) -> None:
        """Audit-mode cross-check: incremental columns == full rebuild."""
        rs = self._rs
        for q, worker in enumerate(self.workers):
            pinned = worker.pinned_instances()
            assert rs.delay[q] == worker.delay_estimate(pinned), (
                f"worker {q}: incremental delay {int(rs.delay[q])} != "
                f"rebuilt {worker.delay_estimate(pinned)}"
            )
            assert rs.pinned_count[q] == len(pinned), (
                f"worker {q}: incremental pinned_count drifted"
            )
            assert bool(rs.has_program[q]) == worker.has_program, (
                f"worker {q}: incremental has_program drifted"
            )
            assert rs.prog_remaining[q] == worker.prog_remaining, (
                f"worker {q}: incremental prog_remaining drifted"
            )

    def _round_is_trivial(self) -> bool:
        """True when a scheduling round could not change anything.

        A round matters only if there is an unpinned original to (re)place,
        an unpinned replica to reconsider, or the replication trigger can
        fire.  Checking this first keeps event-dense runs cheap.  The
        unpinned and saturation checks read incrementally maintained
        counters (O(1)) instead of scanning the instances.
        """
        tbl = self._tbl
        if tbl.n_unpinned:
            return False  # something to place or reconsider
        if self.options.proactive and self._proactive_candidates():
            return False
        if not self.options.replication or self.options.max_replicas == 0:
            return True
        # The UP count is maintained incrementally and an idle UP worker
        # exists iff the UP set is larger than the UP slice of the
        # kept queue-host set — O(busy), never O(p).
        up_count = self._cal.up_count
        if up_count <= tbl.n_uncommitted:
            return True  # replication trigger cannot fire
        up_state = int(ProcState.UP)
        slist = self._states_list
        busy_up = sum(1 for q in self._hosts if slist[q] == up_state)
        if up_count <= busy_up:
            return True  # no idle UP worker to replicate onto
        return self._replication_saturated()

    def _replication_saturated(self) -> bool:
        """True when every uncommitted task already carries the maximum
        ``1 + max_replicas`` live instances, so the replication trigger
        has no capacity left regardless of the UP set.  Shared by the
        per-round triviality check and the span glide condition
        (:meth:`_round_glidable`), which must agree on it.  O(1): the
        incrementally maintained replication deficit."""
        return self._tbl.replication_saturated

    def _proactive_candidates(self) -> List[TaskInstance]:
        """Pinned originals worth terminating under the proactive policy.

        Conditions (conservative, to avoid thrashing): the end-of-iteration
        regime holds (at least as many UP processors as uncommitted tasks),
        the instance's worker is RECLAIMED, and the instance has not
        accumulated the majority of its computation (killing a nearly-done
        task is rarely worth the resent data).  Candidates are returned in
        ascending task order (originals are unique per task).
        """
        tbl = self._tbl
        uncommitted = tbl.n_uncommitted
        slist = self._states_list
        up = self._cal.up_count
        if up < uncommitted or up == 0:
            return []
        candidates = []
        reclaimed = int(ProcState.RECLAIMED)
        for task_id in tbl.uncommitted_tasks():
            row = tbl.rows_of[task_id][0]  # the original (DESIGN.md §9)
            if row in tbl.unpinned:
                continue
            inst = tbl.objects[row]
            host = inst.worker
            if host is None or slist[host] != reclaimed:
                continue
            if inst.compute_needed and inst.compute_done * 2 > inst.compute_needed:
                continue
            candidates.append(inst)
        return candidates

    def _proactive_round(self, slot: int) -> None:
        for inst in self._proactive_candidates():
            self.report.comm_slots_wasted += inst.data_received
            self.report.compute_slots_wasted += inst.compute_done
            self._tbl.release(inst)  # reads inst.worker: before detach
            self._unqueue(inst)  # pinned work discarded
            reset_instance(inst)  # back to the pool, progress discarded
            if self.log.enabled:
                self.log.emit(
                    SimEvent(
                        slot,
                        EventKind.INSTANCE_LOST,
                        worker=None,
                        iteration=inst.iteration,
                        task_id=inst.task_id,
                        replica_id=inst.replica_id,
                        detail="proactive-termination",
                    )
                )

    def _scheduling_round(self, slot: int, states: np.ndarray) -> None:
        if self._round_is_trivial():
            return
        if self.options.proactive:
            self._proactive_round(slot)
        self.report.scheduler_rounds += 1
        self._last_round_slot = slot

        # Collect the unpinned instances: the originals to (re)place, in
        # ascending task order, and the replicas the round drops and
        # possibly recreates.  Placement runs before any queue is touched.
        tbl = self._tbl
        originals: List[TaskInstance] = []
        replicas: List[TaskInstance] = []
        objects = tbl.objects
        for row in tbl.unpinned_rows():
            inst = objects[row]
            (replicas if inst.replica_id else originals).append(inst)
        originals.sort(key=lambda inst: inst.task_id)

        # With replicas dropped, the unpinned originals are exactly the
        # context's ``m - m'`` remaining tasks.
        rs = self._refresh_round_state(slot, states, len(originals))
        place_array = self.scheduler.place_array
        placements = place_array(rs, len(originals))

        # Mutation phase.  Drop the unpinned replicas (the replication
        # step below recreates what is still useful — they carry no
        # progress by definition), purge each touched queue once, and
        # apply the placements.  None of this moves a RoundState column:
        # unpinned instances have zero progress, so they appear in
        # neither Delay nor pinned_count.  The dropped rows go back to the
        # table's free list.
        touched_hosts: set = set()
        for inst in replicas:
            if inst.worker is not None:
                touched_hosts.add(inst.worker)
                inst.worker = None
            reset_instance(inst)
            tbl.destroy(inst)
        for inst in originals:
            if inst.worker is not None:
                touched_hosts.add(inst.worker)
                inst.worker = None
        workers = self.workers
        hosts = self._hosts
        for host in touched_hosts:
            worker = workers[host]
            # Keep the pinned instances: data started or computing.
            queue = [
                other
                for other in worker.queue
                if other.data_received or other.computing
            ]
            worker.queue = queue
            if not queue:
                hosts.discard(host)

        self._place_all(originals, placements)

        if self.options.replication and self.options.max_replicas > 0:
            self._replication_round(rs)

    def _place_all(
        self, insts: List[TaskInstance], choices: List[Optional[int]]
    ) -> None:
        """Queue each instance on its choice: the one placement path of
        the round's originals and the replication round's replicas.

        ``None`` leaves an instance unplaced; so does a DOWN processor
        (passive schedulers may remember stale choices).  An unknown
        processor raises.
        """
        workers = self.workers
        p = len(workers)
        slist = self._states_list
        hosts = self._hosts
        for inst, choice in zip(insts, choices):
            if choice is None:
                continue
            if not 0 <= choice < p:
                raise ValueError(
                    f"scheduler {self.scheduler.name!r} placed a task on "
                    f"unknown processor {choice}"
                )
            if slist[choice] == _DOWN:
                continue
            worker = workers[choice]
            inst.worker = choice
            inst.compute_needed = worker.speed_w
            worker.queue.append(inst)
            hosts.add(choice)

    def _replication_round(self, rs: RoundState) -> None:
        # Cheap count-based exits before any list is built: mid-iteration
        # rounds leave here on the paper's trigger nearly every time.
        tbl = self._tbl
        n_uncommitted = tbl.n_uncommitted
        if n_uncommitted <= 0:
            return
        cal = self._cal
        if cal.up_count <= n_uncommitted:
            return  # paper's trigger: more UP than remaining tasks
        # Only queue hosts can be non-idle: mask the (few) busy workers out
        # of the UP vector, and keep the *mask* — it is the allowed form
        # the replica placement below takes, with no per-task index lists.
        idle_mask = cal.states_np == int(ProcState.UP)
        for q in self._hosts:
            idle_mask[q] = False
        if not idle_mask.any():
            return
        max_instances = 1 + self.options.max_replicas
        # A task's live count is the length of its row list; each eligible
        # task gains at most one replica below, so eligibility is fixed
        # before any placement.  Least-replicated tasks first; the sort is
        # stable over ascending ids, so ties go to the lowest id.
        rows_of = tbl.rows_of
        eligible = sorted(
            (
                task_id
                for task_id in tbl.uncommitted_tasks()
                if len(rows_of[task_id]) < max_instances
            ),
            key=lambda task_id: len(rows_of[task_id]),
        )
        # One call places every replica on distinct idle workers; the i-th
        # choice belongs to the i-th eligible task.
        choices = self.scheduler.place_distinct(rs, len(eligible), idle_mask)
        iteration = self.iteration
        t_data = self.app.t_data
        replicas: List[TaskInstance] = []
        targets: List[int] = []
        for task_id, choice in zip(eligible, choices):
            if choice is None:
                continue
            replica = TaskInstance(
                iteration=iteration,
                task_id=task_id,
                replica_id=tbl.free_replica_id(task_id),
                data_needed=t_data,
            )
            tbl.add(replica)
            replicas.append(replica)
            targets.append(choice)
        self._place_all(replicas, targets)
        for replica in replicas:
            if replica.worker is not None:
                self.report.replicas_launched += 1
            else:
                tbl.destroy(replica)  # refused: never queued

    # ------------------------------------------------------------------ #
    # Compute step.                                                        #
    # ------------------------------------------------------------------ #
    def _compute_step(self, slot: int) -> None:
        tbl = self._tbl
        up = int(ProcState.UP)
        touched = self._touched
        slist = self._states_list
        # Only UP workers with a queue can compute, in ascending order; the
        # kept queue-host set holds exactly the queue holders.
        candidates = [q for q in sorted(self._hosts) if slist[q] == up]
        for q in candidates:
            worker = self.workers[q]
            row = tbl.computing_row[q]
            current = tbl.objects[row] if row >= 0 else None
            if current is None:
                current = worker.next_compute_target()
                if current is None:
                    continue
                current.computing = True
                tbl.start_computing(current)
                if self.log.enabled:
                    self.log.emit(
                        SimEvent(
                            slot,
                            EventKind.COMPUTE_START,
                            worker=worker.index,
                            iteration=current.iteration,
                            task_id=current.task_id,
                            replica_id=current.replica_id,
                        )
                    )
            current.compute_done += 1
            touched.add(q)  # delay shrank (or pin began)
            self.report.compute_slots_spent += 1
            if self.timeline is not None:
                self.timeline.mark_compute(q)
            if current.compute_complete:
                self._commit(slot, current)

    def _commit(self, slot: int, inst: TaskInstance) -> None:
        self.report.tasks_committed += 1
        self._need_replan = True
        if self.log.enabled:
            self.log.emit(
                SimEvent(
                    slot,
                    EventKind.TASK_COMMIT,
                    worker=inst.worker,
                    iteration=inst.iteration,
                    task_id=inst.task_id,
                    replica_id=inst.replica_id,
                )
            )
        # Remove the committed instance and cancel all siblings, in
        # creation (uid) order: the table's per-task row list appends in
        # creation order.  The task is committed once its rows are gone.
        tbl = self._tbl
        siblings = [tbl.objects[row] for row in list(tbl.rows_of[inst.task_id])]
        for sibling in siblings:
            if sibling is inst:
                self._destroy_instance(sibling)
                continue
            self.report.comm_slots_wasted += sibling.data_received
            self.report.compute_slots_wasted += sibling.compute_done
            if sibling.is_replica:
                self.report.replicas_cancelled += 1
            else:
                self.report.originals_superseded += 1
            if self.log.enabled:
                self.log.emit(
                    SimEvent(
                        slot,
                        EventKind.REPLICA_CANCELLED,
                        worker=sibling.worker,
                        iteration=sibling.iteration,
                        task_id=sibling.task_id,
                        replica_id=sibling.replica_id,
                    )
                )
            self._destroy_instance(sibling)
        tbl.commit_task(inst.task_id)

    # ------------------------------------------------------------------ #
    # Transfer step.                                                       #
    # ------------------------------------------------------------------ #
    def _gather_requests(
        self,
    ) -> tuple[List[TransferRequest], Dict[int, TaskInstance]]:
        """This slot's transfer requests (and data targets) per UP worker.

        Both request kinds need a non-empty queue (``wants_program``
        checks it; a data target comes from it), so only UP queue holders
        are visited, in ascending order.  Requests are frozen dataclasses
        keyed entirely by (worker, kind, started, is_replica), so the
        per-worker cache reuses them across slots instead of validating a
        fresh object per boundary.
        """
        requests: List[TransferRequest] = []
        targets: Dict[int, TaskInstance] = {}
        up = int(ProcState.UP)
        slist = self._states_list
        all_workers = self.workers
        workers = [
            all_workers[q] for q in sorted(self._hosts) if slist[q] == up
        ]
        caches = self._request_cache
        for worker in workers:
            if worker.wants_program():
                kind = "prog"
                started = worker.prog_received > 0
                is_replica = False
            else:
                target = worker.next_data_target()
                if target is None:
                    continue
                kind = "data"
                started = target.data_started
                is_replica = target.is_replica
                targets[worker.index] = target
            cache = caches[worker.index]
            request = cache.get((kind, started, is_replica))
            if request is None:
                request = TransferRequest(
                    worker=worker.index,
                    kind=kind,
                    started=started,
                    is_replica=is_replica,
                    key=worker.index,
                )
                cache[(kind, started, is_replica)] = request
            requests.append(request)
        return requests, targets

    def _transfer_step(self, slot: int) -> None:
        requests, targets = self._gather_requests()
        grants: Dict[int, tuple] = {}
        nprog = 0
        touched = self._touched
        for grant in self.network.allocate(slot, requests):
            worker = self.workers[grant.worker]
            touched.add(grant.worker)  # prog/data progress moves delay
            self.report.comm_slots_spent += 1
            if self.timeline is not None:
                self.timeline.mark_transfer(worker.index, grant.kind)
            if grant.kind == "prog":
                nprog += 1
                grants[worker.index] = ("prog", None)
                if worker.prog_received == 0:
                    self._prog_holders.add(worker.index)
                    if self.log.enabled:
                        self.log.emit(
                            SimEvent(
                                slot,
                                EventKind.PROGRAM_TRANSFER_START,
                                worker=worker.index,
                            )
                        )
                worker.prog_received += 1
                if worker.has_program:
                    self._need_replan = True
                    if self.log.enabled:
                        self.log.emit(
                            SimEvent(
                                slot,
                                EventKind.PROGRAM_TRANSFER_DONE,
                                worker=worker.index,
                            )
                        )
            else:
                inst = targets[grant.worker]
                grants[worker.index] = ("data", inst)
                if not inst.data_started:
                    self._tbl.pin(inst)  # first data slot pins
                    if self.log.enabled:
                        self.log.emit(
                            SimEvent(
                                slot,
                                EventKind.DATA_TRANSFER_START,
                                worker=worker.index,
                                iteration=inst.iteration,
                                task_id=inst.task_id,
                                replica_id=inst.replica_id,
                            )
                        )
                inst.data_received += 1
                if inst.data_complete:
                    # No re-plan: a finished data transfer changes no
                    # scheduling input (the freed channel/buffer is used by
                    # the transfer step directly on the next slot).  It
                    # *does* reshape the next slot's requests and compute
                    # targets, so the span logic must treat the next slot
                    # as a boundary.
                    self._pipeline_changed = True
                    if self.log.enabled:
                        self.log.emit(
                            SimEvent(
                                slot,
                                EventKind.DATA_TRANSFER_DONE,
                                worker=worker.index,
                                iteration=inst.iteration,
                                task_id=inst.task_id,
                                replica_id=inst.replica_id,
                            )
                        )
        self._grants = grants
        self._grant_counts = (nprog, len(grants) - nprog, len(requests))

    # ------------------------------------------------------------------ #
    # Main loop.                                                           #
    # ------------------------------------------------------------------ #
    def _step(self, slot: int) -> bool:
        """Simulate one slot; returns True when the whole run finished."""
        # Pop the processors whose run ended since the last boundary —
        # O(churn · log p) — into the calendar's persistent state list and
        # buffer (DESIGN.md §12); the net-change records are the boundary
        # snapshot diff.  The run's first boundary pops nothing.
        cal = self._cal
        records = cal.advance(slot)
        states = cal.states_np
        self.steps_executed += 1
        self._pipeline_changed = False
        if self.timeline is not None:
            self.timeline.begin_slot(states)
        self._handle_states(slot, records)

        if self._need_replan or self._every_slot:
            self._need_replan = False
            self._scheduling_round(slot, states)

        self._compute_step(slot)
        self._transfer_step(slot)

        if self.options.audit:
            for worker in self.workers:
                worker.check_invariants()
            self._audit_instance_table(slot)

        if self._tbl.n_uncommitted == 0:
            self.report.iteration_end_slots.append(slot)
            self.report.completed_iterations += 1
            if self.log.enabled:
                self.log.emit(
                    SimEvent(slot, EventKind.ITERATION_DONE, iteration=self.iteration)
                )
            if self.report.completed_iterations >= self.app.iterations:
                self.report.makespan = slot + 1
                if self.log.enabled:
                    self.log.emit(SimEvent(slot, EventKind.RUN_DONE))
                return True
            self._start_iteration(self.iteration + 1)
        return False

    # ------------------------------------------------------------------ #
    # Span-stepped execution (DESIGN.md §6).                               #
    # ------------------------------------------------------------------ #
    def _next_down_entry(self, q: int, slot: int, last: int) -> int:
        """Next slot in ``(slot, last]`` where processor ``q`` enters DOWN,
        walking the source's change points; ``last + 1`` when it does not.

        Consulted for workers whose only observable transition is the
        DOWN entry that crashes them: program-holding workers with empty
        queues, and — in refined spans — UP workers whose pending
        requests stay outranked and whose compute advances by UP count
        (see :meth:`_quiet_span`).  Cached per processor: the cached slot
        is the *first* DOWN entry after the boundary that computed it, so
        the processor is never DOWN in between and the value stays
        correct for any query slot before it.
        """
        source = self._cal.sources[q]
        down = int(ProcState.DOWN)
        change = source.next_change_after(slot, limit=last)
        while change is not None and source.state_at(change) != down:
            change = source.next_change_after(change, limit=last)
        entry = change if change is not None else last + 1
        self._next_down_cache[q] = entry
        return entry

    def _round_glidable(self) -> bool:
        """True when no mid-span scheduling round could change anything,
        *no matter how the UP set evolves*.

        A round only acts through unpinned instances, the proactive
        policy, or the replication trigger.  When none of those can fire
        — every live instance is pinned, proactive is off, and every
        uncommitted task already carries ``1 + max_replicas`` live
        instances (or replication is off) — a round is trivial for every
        possible state vector.  UP-set changes on processors that host no
        active pipeline are then unobservable: the reference would run a
        trivial round (no report field, no RNG draw, no placement), so
        the span may glide across them.  All of these conditions only
        change at boundaries (pinning via first granted slot, instance
        counts via commits/crashes), so a check at the span start covers
        the whole span.
        """
        if self.options.proactive:
            return False
        # O(1): both conditions are incrementally maintained counters.
        if self._tbl.n_unpinned:
            return False
        if not self.options.replication or self.options.max_replicas == 0:
            return True
        if self._tbl.n_uncommitted >= len(self.workers):
            # The replication trigger needs strictly more UP processors
            # than uncommitted tasks; with p <= uncommitted it cannot fire
            # for any UP set, and the uncommitted count only moves at
            # commits — which are span boundaries (DESIGN.md §10).
            return True
        return self._replication_saturated()

    def _quiet_span(self, slot: int, budget: int) -> int:
        """Slots after ``slot`` that provably replay it with shifted counters.

        Returns ``n >= 0`` such that slots ``slot+1 .. slot+n`` change
        nothing discrete: no relevant availability transition, no transfer
        or compute completion, no pending re-plan.  Those slots can then
        be applied arithmetically by :meth:`_advance_quiet`; slot
        ``slot+n+1`` is the next boundary and is simulated in full.  Under
        the ``every-slot`` policy every slot re-plans, so there are no
        quiet slots at all.

        O(busy), never O(p): only the *busy* workers — queue hosts plus
        program holders (the kept ``_hosts`` and ``_prog_holders``
        mirrors) — are visited.  The availability bound
        splits by regime:

        * **observe_all** (an event log or a timeline recorder attached):
          every transition must be logged or lands in a recorded row, so
          the calendar's heap top — the platform-wide next transition —
          bounds the span;
        * **non-glide** (a round could act on an UP-set change): the heap
          top bounds the span too.  This is conservative for an idle
          worker's non-UP→non-UP transition, but such an extra boundary is
          provably a no-op: no UP-set change, no event (the log is off in
          this regime), no crash candidate (idle workers carry nothing),
          and identical grants (same request set; grant priorities are
          stable — see BoundedMultiportNetwork.plan);
        * **glide** (rounds provably trivial, or ``sticky``): idle workers
          are invisible and the heap top must NOT bound the span.  A
          granted transfer or a frozen (non-UP) queue breaks on any
          change — its calendar entry, the first transition after this
          boundary; an UP worker with a queue but no grant (``refined``)
          only on the DOWN entry that crashes it — its pending request was
          already outranked at the boundary and stays outranked, and its
          compute progress is its UP-slot count, applied arithmetically
          (audit mode disables this: the per-slot ``requested`` count in
          the usage trail observes the wandering); a resident program
          with an empty queue only on the DOWN entry that wipes it.

        Milestone bounds (transfer/compute completions) come from the
        queue holders — the only workers that can carry grants or
        computing instances.  DOWN-entry lookups use the budget-wide
        ``last`` (not the running horizon): cached misses are stored as
        the sentinel ``last + 1``, which is only sound when ``last`` is
        constant across boundaries (the calendar's sentinel is the same).
        """
        if self._every_slot:
            return 0
        last = budget - 1
        if slot >= last:
            return 0
        if self._need_replan or self._pipeline_changed:
            return 0  # next slot re-plans or re-allocates: full step
        states = self._states_list
        up = int(ProcState.UP)
        horizon = last + 1  # exclusive sentinel: quiet through the budget
        observe_all = self.log.enabled or self.timeline is not None
        # Under the sticky policy pure churn never triggers a round, so
        # the glide conditions hold by construction (DESIGN.md §10).  All
        # other round triggers — crashes, commits, program completions —
        # are span boundaries in their own right.
        sticky = self._policy.ignores_churn and not observe_all
        glide = sticky or (not observe_all and self._round_glidable())
        refined = glide and not self.options.audit
        self._span_refined = refined
        cal = self._cal
        if not glide:
            nxt = cal.peek()  # platform-wide next transition, O(1)
            if nxt < horizon:
                horizon = nxt
                if horizon == slot + 1:
                    return 0
        grants = self._grants
        next_change = cal.next_change
        next_down_cache = self._next_down_cache
        tbl = self._tbl
        computing_rows = tbl.computing_row
        objects = tbl.objects
        sources = cal.sources
        workers = self.workers
        busy = self._hosts | self._prog_holders  # a new set: both are kept
        self.op_span_scan_workers += len(busy)
        for q in sorted(busy):
            worker = workers[q]
            queue = worker.queue
            state_up = states[q] == up
            grant = grants.get(q) if queue else None
            if glide:
                # A resident program without a queue, or a refined worker,
                # breaks only on its next DOWN entry; anything else on any
                # change.
                down_only = not queue or (
                    refined and state_up and grant is None
                )
                if down_only:
                    change = next_down_cache[q]  # inline cache hit: common
                    if change <= slot:
                        change = self._next_down_entry(q, slot, last)
                else:
                    change = next_change[q]  # the calendar's, > slot
                if change < horizon:
                    horizon = change
                    if horizon == slot + 1:
                        return 0
            if not queue or not state_up:
                continue  # idle, frozen (RECLAIMED) or wiped: no ticks
            row = computing_rows[q]
            computing = objects[row] if row >= 0 else None
            if grant is None:
                if refined:
                    if computing is None:
                        continue
                    milestone_slot = sources[q].nth_up_after(
                        slot,
                        computing.compute_needed - computing.compute_done,
                        limit=last,
                    )
                    if milestone_slot is not None and milestone_slot < horizon:
                        horizon = milestone_slot
                        if horizon == slot + 1:
                            return 0
                    continue
                milestone = None
            else:
                grant_kind, grant_inst = grant
                if grant_kind == "prog":
                    milestone = worker.t_prog - worker.prog_received
                else:
                    milestone = grant_inst.data_needed - grant_inst.data_received
            if computing is not None:
                remaining = computing.compute_needed - computing.compute_done
                if milestone is None or remaining < milestone:
                    milestone = remaining
            if milestone is not None and slot + milestone < horizon:
                horizon = slot + milestone
                if horizon == slot + 1:
                    return 0
        return horizon - slot - 1

    def _advance_quiet(self, start: int, count: int) -> None:
        """Apply ``count`` quiet slots (``start .. start+count-1``) in O(busy).

        Every UP worker's computing instance accrues ``count`` compute
        slots and every granted transfer ``count`` channel slots — by
        construction of :meth:`_quiet_span` none of them crosses a
        completion threshold, no state transition is observable, and the
        grant set would be re-derived identically at each skipped slot.
        """
        up = int(ProcState.UP)
        report = self.report
        refined = self._span_refined
        touched = self._touched
        grants = self._grants
        sources = self._cal.sources
        timeline_compute: Optional[List[int]] = (
            [] if self.timeline is not None else None
        )
        tbl = self._tbl
        slist = self._states_list
        computing_row = tbl.computing_row
        # A computing row implies a queued instance, so the queue-host set
        # covers every computing worker.
        computing = [
            (q, tbl.objects[computing_row[q]])
            for q in sorted(self._hosts)
            if slist[q] == up and computing_row[q] >= 0
        ]
        for q, inst in computing:
            if refined and q not in grants:
                # May freeze and resume inside the span: progress is
                # the worker's UP-slot count over the window.
                ticks = sources[q].up_count_in(start, start + count)
            else:
                ticks = count  # UP throughout (any transition breaks)
            if ticks:
                inst.compute_done += ticks
                report.compute_slots_spent += ticks
                touched.add(q)
            if timeline_compute is not None:
                # With a recorder attached every transition is a span
                # boundary, so the worker computes on every quiet slot.
                timeline_compute.append(q)
        workers = self.workers
        for q, (kind, inst) in grants.items():
            if kind == "prog":
                workers[q].prog_received += count
            else:
                inst.data_received += count
            report.comm_slots_spent += count
            touched.add(q)
        nprog, ndata, requested = self._grant_counts
        self.network.record_span(
            start, count, nprog=nprog, ndata=ndata, requested=requested
        )
        if self.timeline is not None:
            # Batched fill (ROADMAP item): every quiet slot repeats the
            # boundary activity pattern — states are constant (the recorder
            # makes every transition observable), the grant set is stable,
            # and no pipeline crosses a completion threshold — so one row
            # serves the whole span.
            self.timeline.record_quiet_span(
                self._cal.states_np,
                timeline_compute,
                [(q, kind) for q, (kind, _) in grants.items()],
                count,
            )
        if self.options.audit:
            self._audit_quiet_advance()

    def _audit_quiet_advance(self) -> None:
        """Audit-mode cross-checks after a quiet-span fast-forward."""
        states = self._states_list
        up = int(ProcState.UP)
        requests, _targets = self._gather_requests()
        planned = {(g.worker, g.kind) for g in self.network.plan(requests)}
        granted = {(q, kind) for q, (kind, _) in self._grants.items()}
        assert planned == granted, (
            f"grant set drifted mid-span: boundary {sorted(granted)} vs "
            f"replanned {sorted(planned)}"
        )
        for q, (kind, inst) in self._grants.items():
            remaining = (
                self.workers[q].prog_remaining
                if kind == "prog"
                else inst.data_remaining
            )
            assert remaining >= 1, "granted transfer overshot its completion"
        for worker in self.workers:
            worker.check_invariants()
            if states[worker.index] == up:
                inst = worker.computing_instance
                if inst is not None:
                    assert inst.compute_remaining >= 1, (
                        "computing instance overshot its completion"
                    )

    def run(self, max_slots: Optional[int] = None) -> SimulationReport:
        """Run until the target iterations complete (or ``max_slots``).

        Returns:
            The populated :class:`~repro.sim.metrics.SimulationReport`;
            ``report.makespan`` is ``None`` if the slot budget ran out.
        """
        self.begin_run(max_slots)
        self.advance_until(self._resume_budget)
        return self.finish_run()

    def run_slots(self, n_slots: int) -> SimulationReport:
        """Simulate exactly ``n_slots`` slots (the Section 3.4 objective).

        Returns:
            The report; ``completed_iterations`` is the objective value.
        """
        self._start_run(require_positive_int(n_slots, "n_slots"))
        self.advance_until(n_slots)
        return self.finish_run()

    # ------------------------------------------------------------------ #
    # Resumable runs.                                                      #
    # ------------------------------------------------------------------ #
    def begin_run(self, max_slots: Optional[int] = None) -> None:
        """Start an incremental run.

        ``begin_run`` / :meth:`advance_until` / :meth:`finish_run` are
        the one step loop behind :meth:`run` and :meth:`run_slots`,
        pausable between loop iterations (``examples/large_grid.py``
        pauses a run to print progress).  The pause points touch
        no simulation state; reports, event logs and audit trails are
        bit-identical to a plain :meth:`run` regardless of where (or
        whether) the run is paused.
        """
        budget = max_slots if max_slots is not None else self.options.max_slots
        self._start_run(require_positive_int(budget, "max_slots"))

    def _start_run(self, budget: int) -> None:
        cal = self._cal
        if cal.started:
            # The run consumes its workers, instances and report.
            raise RuntimeError("a simulator runs once; build a new one")
        self._resume_budget = budget
        self._resume_slot = 0
        self._run_over = False
        # The calendar's heap sentinels are budget-relative, so it starts
        # here, where the budget is first known: the run's one O(p) pass
        # over the platform.
        cal.start(0, budget - 1)
        self._states_list = cal.states

    def advance_until(self, slot_limit: int) -> bool:
        """Advance until the run ends or the clock reaches ``slot_limit``.

        A step may overshoot the limit by its quiet span (the next
        boundary simply lies beyond it).

        Returns:
            True when the run is over (finished its iterations or
            exhausted the budget) — :meth:`finish_run` may then be
            called; False when paused at ``slot_limit``.
        """
        budget = self._resume_budget
        if budget is None:
            raise RuntimeError("advance_until() before begin_run()")
        if self._run_over:
            return True
        slot = self._resume_slot
        while slot < budget:
            finished = self._step(slot)
            self.report.slots_simulated = slot + 1
            if finished:
                self._run_over = True
                break
            quiet = self._quiet_span(slot, budget)
            if quiet > 0:
                self._advance_quiet(slot + 1, quiet)
                self.report.slots_simulated = slot + 1 + quiet
            slot += quiet + 1
            if slot >= slot_limit:
                break
        self._resume_slot = slot
        if slot >= budget:
            self._run_over = True
        return self._run_over

    def finish_run(self) -> SimulationReport:
        """Finalise an incremental run and return the report."""
        if self._resume_budget is None:
            raise RuntimeError("finish_run() before begin_run()")
        if not self._run_over:
            raise RuntimeError("finish_run() before the run is over")
        self._resume_budget = None
        self._finalize()
        return self.report

    def _finalize(self) -> None:
        # Leftover instances at end-of-run are waste.
        for inst in self._tbl.live_instances():
            self.report.comm_slots_wasted += inst.data_received
            self.report.compute_slots_wasted += inst.compute_done
        if self.options.audit:
            self.network.verify_invariants()

    def _audit_instance_table(self, slot: int) -> None:
        """Audit-mode cross-check: incremental InstanceTable aggregates,
        busy-worker mirrors and calendar == a brute-force rebuild from the
        live objects, worker queues and availability sources (DESIGN.md
        §9 and §12; mirrors :meth:`_audit_round_state`)."""
        tbl = self._tbl
        live = tbl.live_instances()
        # Originals are destroyed only at their task's commit, so the
        # committed tasks are exactly those without a live original.
        committed = set(range(tbl.n_tasks)) - {
            inst.task_id for inst in live if not inst.is_replica
        }
        tbl.audit(live, committed)
        for q, worker in enumerate(self.workers):
            row = tbl.computing_row[q]
            current = worker.computing_instance
            if current is None:
                assert row == -1, f"worker {q}: stale computing_row {row}"
            else:
                assert row == current.row, (
                    f"worker {q}: computing_row {row} != instance row "
                    f"{current.row}"
                )
        # The busy-worker mirrors behind the O(busy) span search must
        # match the queues exactly, and the kept queue-host set must equal
        # its derivation from the table's live instances.
        hosts = {inst.worker for inst in tbl.objects if inst is not None}
        hosts.discard(None)
        assert self._hosts == hosts, (
            f"kept queue hosts {sorted(self._hosts)} != derived {sorted(hosts)}"
        )
        for q, worker in enumerate(self.workers):
            assert (q in hosts) == bool(worker.queue), (
                f"worker {q}: queue-host derivation drifted"
            )
            assert (q in self._prog_holders) == (worker.prog_received > 0), (
                f"worker {q}: prog_holders mirror drifted"
            )
        self._cal.audit(slot)

def simulate(
    platform: Platform,
    app: IterativeApplication,
    scheduler: Scheduler,
    *,
    options: Optional[SimulatorOptions] = None,
    rng: Optional[np.random.Generator] = None,
    log: Optional[EventLog] = None,
    max_slots: Optional[int] = None,
) -> SimulationReport:
    """Convenience one-shot wrapper around :class:`MasterSimulator`."""
    sim = MasterSimulator(
        platform, app, scheduler, options=options, rng=rng, log=log
    )
    return sim.run(max_slots=max_slots)

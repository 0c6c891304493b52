"""Tests for the worker pipeline state machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.worker import TaskInstance, WorkerRuntime, reset_instance


def make_instance(task_id=0, replica_id=0, data_needed=2, **kwargs):
    return TaskInstance(
        iteration=0, task_id=task_id, replica_id=replica_id,
        data_needed=data_needed, **kwargs,
    )


def make_worker(t_prog=3, speed=2):
    return WorkerRuntime(index=0, speed_w=speed, t_prog=t_prog)


class TestTaskInstance:
    def test_fresh_instance_is_unpinned(self):
        inst = make_instance()
        assert not inst.pinned
        assert not inst.data_complete
        assert not inst.computing

    def test_data_progress_pins(self):
        inst = make_instance()
        inst.data_received = 1
        assert inst.pinned
        assert inst.data_started
        assert not inst.data_complete

    def test_zero_data_instance_pins_only_on_compute(self):
        inst = make_instance(data_needed=0)
        assert inst.data_complete
        assert not inst.pinned
        inst.computing = True
        assert inst.pinned

    def test_replica_flag(self):
        assert not make_instance(replica_id=0).is_replica
        assert make_instance(replica_id=1).is_replica

    def test_remaining_counters(self):
        inst = make_instance(data_needed=3)
        inst.data_received = 1
        inst.compute_needed = 4
        inst.compute_done = 1
        assert inst.data_remaining == 2
        assert inst.compute_remaining == 3

    def test_compute_complete(self):
        inst = make_instance()
        inst.compute_needed = 2
        inst.computing = True
        inst.compute_done = 2
        assert inst.compute_complete

    def test_uids_unique(self):
        assert make_instance().uid != make_instance().uid


class TestProgramState:
    def test_fresh_worker_lacks_program(self):
        worker = make_worker(t_prog=3)
        assert not worker.has_program
        assert worker.prog_remaining == 3

    def test_program_complete(self):
        worker = make_worker(t_prog=3)
        worker.prog_received = 3
        assert worker.has_program
        assert worker.prog_remaining == 0

    def test_zero_t_prog_means_program_always_resident(self):
        worker = make_worker(t_prog=0)
        assert worker.has_program

    def test_wants_program_only_with_work(self):
        worker = make_worker(t_prog=2)
        assert not worker.wants_program()
        worker.queue.append(make_instance())
        assert worker.wants_program()


class TestQueueInspection:
    def test_computing_instance_found(self):
        worker = make_worker()
        inst = make_instance()
        inst.computing = True
        inst.compute_needed = 5
        inst.compute_done = 1
        worker.queue.append(inst)
        assert worker.computing_instance is inst

    def test_completed_instance_not_computing(self):
        worker = make_worker()
        inst = make_instance()
        inst.computing = True
        inst.compute_needed = 2
        inst.compute_done = 2
        worker.queue.append(inst)
        assert worker.computing_instance is None

    def test_data_stage_instance(self):
        worker = make_worker()
        computing = make_instance(task_id=0)
        computing.data_received = 2
        computing.computing = True
        computing.compute_needed = 9
        staged = make_instance(task_id=1)
        staged.data_received = 1
        worker.queue.extend([computing, staged])
        assert worker.data_stage_instance is staged

    def test_pinned_vs_planned(self):
        worker = make_worker()
        pinned = make_instance(task_id=0)
        pinned.data_received = 1
        planned = make_instance(task_id=1)
        worker.queue.extend([pinned, planned])
        assert worker.pinned_instances() == [pinned]


class TestNextDataTarget:
    def test_head_of_queue_when_idle(self):
        worker = make_worker()
        inst = make_instance()
        worker.queue.append(inst)
        assert worker.next_data_target() is inst

    def test_prefetch_bound_blocks_second_stage(self):
        worker = make_worker()
        computing = make_instance(task_id=0)
        computing.data_received = 2
        computing.computing = True
        computing.compute_needed = 9
        prefetched = make_instance(task_id=1)
        prefetched.data_received = 2  # complete
        waiting = make_instance(task_id=2)
        worker.queue.extend([computing, prefetched, waiting])
        # Buffer full: no new transfer may start.
        assert worker.next_data_target() is None

    def test_partial_prefetch_is_the_target(self):
        worker = make_worker()
        computing = make_instance(task_id=0)
        computing.data_received = 2
        computing.computing = True
        computing.compute_needed = 9
        partial = make_instance(task_id=1)
        partial.data_received = 1
        worker.queue.extend([computing, partial])
        assert worker.next_data_target() is partial

    def test_zero_data_instances_skipped(self):
        worker = make_worker()
        worker.queue.append(make_instance(data_needed=0))
        assert worker.next_data_target() is None


class TestNextComputeTarget:
    def test_requires_program(self):
        worker = make_worker(t_prog=2)
        inst = make_instance(data_needed=0)
        worker.queue.append(inst)
        assert worker.next_compute_target() is None
        worker.prog_received = 2
        assert worker.next_compute_target() is inst

    def test_requires_complete_data(self):
        worker = make_worker(t_prog=0)
        inst = make_instance(data_needed=2)
        inst.data_received = 1
        worker.queue.append(inst)
        assert worker.next_compute_target() is None
        inst.data_received = 2
        assert worker.next_compute_target() is inst

    def test_busy_worker_has_no_target(self):
        worker = make_worker(t_prog=0)
        computing = make_instance(task_id=0, data_needed=0)
        computing.computing = True
        computing.compute_needed = 5
        ready = make_instance(task_id=1, data_needed=0)
        worker.queue.extend([computing, ready])
        assert worker.next_compute_target() is None


# The property-chained definitions the single-pass queries replaced: the
# oracle for TestSinglePassQueries.
def oracle_next_data_target(worker):
    staged = worker.data_stage_instance
    if staged is not None:
        return staged if not staged.data_complete else None
    computing = worker.computing_instance
    for inst in worker.queue:
        if inst is computing or inst.computing:
            continue
        if inst.data_needed == 0:
            continue
        return inst
    return None


def oracle_next_compute_target(worker):
    if not worker.has_program:
        return None
    if worker.computing_instance is not None:
        return None
    for inst in worker.queue:
        if not inst.computing and inst.data_complete:
            return inst
    return None


def oracle_wants_program(worker):
    return not worker.has_program and bool(worker.queue)


@st.composite
def queued_instance(draw, task_id):
    """An instance in any pipeline stage: unstarted, partial or complete
    data (``data_needed`` may be 0), computing or finished computing."""
    data_needed = draw(st.integers(0, 3))
    inst = make_instance(task_id=task_id, data_needed=data_needed)
    inst.data_received = draw(st.integers(0, data_needed))
    inst.compute_needed = draw(st.integers(0, 4))
    inst.computing = draw(st.booleans())
    inst.compute_done = draw(st.integers(0, inst.compute_needed))
    return inst


@st.composite
def worker_with_queue(draw):
    """A worker with no, a partial or a complete program and a queue of
    up to five instances in any order (prefetch bound not enforced)."""
    t_prog = draw(st.integers(0, 3))
    worker = make_worker(t_prog=t_prog)
    worker.prog_received = draw(st.integers(0, t_prog))
    size = draw(st.integers(0, 5))
    worker.queue = [draw(queued_instance(task_id)) for task_id in range(size)]
    return worker


class TestSinglePassQueries:
    """The one-pass queue queries == the old property-chained ones."""

    @settings(max_examples=400, deadline=None)
    @given(worker=worker_with_queue())
    def test_equal_to_property_chains(self, worker):
        assert worker.next_data_target() is oracle_next_data_target(worker)
        assert worker.next_compute_target() is oracle_next_compute_target(worker)
        assert worker.wants_program() == oracle_wants_program(worker)


class TestDelayEstimate:
    def test_idle_worker_with_program(self):
        worker = make_worker(t_prog=2)
        worker.prog_received = 2
        assert worker.delay_estimate() == 0

    def test_missing_program_counts(self):
        worker = make_worker(t_prog=5)
        worker.prog_received = 2
        assert worker.delay_estimate() == 3

    def test_computing_instance_counts_remaining(self):
        worker = make_worker(t_prog=0, speed=4)
        inst = make_instance(data_needed=2)
        inst.data_received = 2
        inst.computing = True
        inst.compute_needed = 4
        inst.compute_done = 1
        worker.queue.append(inst)
        assert worker.delay_estimate() == 3

    def test_pipeline_with_prefetch(self):
        # Computing: 5 compute slots left. Prefetch: 1 data slot left, then
        # 4 compute. Comm timeline: 1; CPU: 5 then 4 -> 9.
        worker = make_worker(t_prog=0, speed=4)
        computing = make_instance(task_id=0, data_needed=2)
        computing.data_received = 2
        computing.computing = True
        computing.compute_needed = 5
        prefetch = make_instance(task_id=1, data_needed=2)
        prefetch.data_received = 1
        prefetch.compute_needed = 4
        worker.queue.extend([computing, prefetch])
        assert worker.delay_estimate() == 9

    def test_planned_instances_ignored(self):
        worker = make_worker(t_prog=0)
        worker.queue.append(make_instance())  # unpinned
        assert worker.delay_estimate() == 0


class TestCrash:
    def test_crash_clears_everything(self):
        worker = make_worker(t_prog=4)
        worker.prog_received = 4
        inst = make_instance()
        inst.data_received = 1
        inst.worker = 0
        worker.queue.append(inst)
        lost = worker.crash()
        assert lost == [inst]
        assert worker.prog_received == 0
        assert worker.queue == []
        assert inst.worker is None
        # Progress preserved for accounting; reset_instance wipes it.
        assert inst.data_received == 1
        reset_instance(inst)
        assert inst.data_received == 0
        assert not inst.computing

    def test_remove_instance(self):
        worker = make_worker()
        a, b = make_instance(task_id=0), make_instance(task_id=1)
        a.worker = b.worker = 0
        worker.queue.extend([a, b])
        worker.remove_instance(a)
        assert worker.queue == [b]
        assert a.worker is None


class TestInvariants:
    def test_clean_worker_passes(self):
        worker = make_worker()
        inst = make_instance()
        inst.worker = 0
        worker.queue.append(inst)
        worker.check_invariants()

    def test_two_staged_instances_fail(self):
        worker = make_worker()
        for task_id in (0, 1):
            inst = make_instance(task_id=task_id)
            inst.worker = 0
            inst.data_received = 1
            worker.queue.append(inst)
        with pytest.raises(AssertionError, match="prefetch bound"):
            worker.check_invariants()

    def test_computing_without_program_fails(self):
        worker = make_worker(t_prog=3)
        inst = make_instance(data_needed=0)
        inst.worker = 0
        inst.computing = True
        inst.compute_needed = 2
        worker.queue.append(inst)
        with pytest.raises(AssertionError, match="without program"):
            worker.check_invariants()

    def test_wrong_worker_field_fails(self):
        worker = make_worker()
        inst = make_instance()
        inst.worker = 7
        worker.queue.append(inst)
        with pytest.raises(AssertionError, match="records worker"):
            worker.check_invariants()

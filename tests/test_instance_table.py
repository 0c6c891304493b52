"""The instance row store (DESIGN.md §9).

Unit tests for :class:`~repro.sim.instance_table.InstanceTable` itself:
free-list reuse, aggregate invariants against a brute-force
rebuild (the same :meth:`InstanceTable.audit` the master's audit mode
runs), and the O(1) saturation/unpinned counters.  End-to-end, the
simulator built on the table is checked against the reference in
``tests/test_reference_equivalence.py``.
"""

import numpy as np
import pytest

from repro.core.heuristics.registry import make_scheduler
from repro.sim.instance_table import InstanceTable
from repro.sim.master import MasterSimulator
from repro.sim.worker import TaskInstance, reset_instance
from repro.workload.scenarios import ScenarioGenerator


class TestInstanceTableUnit:
    """Direct table-contract tests (no simulator)."""

    @staticmethod
    def _inst(task_id, replica_id=0, iteration=0, data_needed=3):
        return TaskInstance(
            iteration=iteration,
            task_id=task_id,
            replica_id=replica_id,
            data_needed=data_needed,
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            InstanceTable(0, 4, 3)
        with pytest.raises(ValueError):
            InstanceTable(4, 0, 3)
        with pytest.raises(ValueError):
            InstanceTable(4, 4, 0)

    def test_add_assigns_rows_and_aggregates(self):
        tbl = InstanceTable(3, 2, 3)
        insts = [self._inst(t) for t in range(3)]
        rows = [tbl.add(inst) for inst in insts]
        assert rows == sorted(rows)  # free list pops ascending after reset
        assert tbl.live_instances() == insts
        assert tbl.n_unpinned == 3
        assert tbl.repl_deficit == 3  # nobody saturated yet
        assert not tbl.replication_saturated
        tbl.audit(insts, committed=set())

    def test_free_list_reuse(self):
        tbl = InstanceTable(2, 2, 2)
        a, b = self._inst(0), self._inst(1)
        tbl.add(a)
        tbl.add(b)
        c = self._inst(0, replica_id=1)
        row_c = tbl.add(c)
        tbl.destroy(c)  # a round drops the unpinned replica
        assert c.row == -1
        d = self._inst(0, replica_id=1)
        assert tbl.add(d) == row_c  # the freed row is recycled
        tbl.audit([a, b, d], committed=set())

    def test_grow_preserves_rows(self):
        tbl = InstanceTable(12, 2, 2, capacity=4)  # forces doubling
        insts = []
        for task in range(12):
            for rid in (0, 1):
                inst = self._inst(task, replica_id=rid)
                tbl.add(inst)
                insts.append(inst)
        assert len(tbl.objects) >= 24  # grew past the initial 4 rows
        tbl.audit(insts, committed=set())
        # Rows allocated before the growth are untouched.
        for inst in insts:
            assert tbl.objects[inst.row] is inst

    def test_pin_and_release_track_unpinned_set(self):
        tbl = InstanceTable(2, 2, 2)
        insts = [self._inst(t) for t in range(2)]
        for other in insts:
            tbl.add(other)
        inst = insts[0]
        row = inst.row
        inst.worker = 1
        inst.data_received = 1  # pinned per the instance's own rule
        tbl.pin(inst)
        assert tbl.n_unpinned == 1
        assert row not in tbl.unpinned
        tbl.pin(inst)  # idempotent
        assert tbl.n_unpinned == 1
        reset_instance(inst)
        tbl.release(inst)
        assert tbl.n_unpinned == 2
        assert row in tbl.unpinned
        tbl.audit(insts, committed=set())

    def test_computing_row_lifecycle(self):
        tbl = InstanceTable(2, 3, 2)
        inst = self._inst(1)
        tbl.add(inst)
        inst.worker = 2
        inst.computing = True
        tbl.start_computing(inst)
        assert tbl.computing_row[2] == inst.row
        assert inst.pinned and tbl.n_unpinned == 0
        tbl.destroy(inst)  # destroy reads inst.worker for the rollback
        assert tbl.computing_row[2] == -1

    def test_saturation_counter(self):
        tbl = InstanceTable(2, 2, 2)  # 1 original + 1 replica saturates
        originals = [self._inst(t) for t in range(2)]
        for inst in originals:
            tbl.add(inst)
        replicas = [self._inst(t, replica_id=1) for t in range(2)]
        tbl.add(replicas[0])
        assert not tbl.replication_saturated
        tbl.add(replicas[1])
        assert tbl.replication_saturated
        tbl.destroy(replicas[0])
        assert not tbl.replication_saturated
        # A committed task stops counting toward the deficit: the commit
        # destroys the task's rows, then counts it committed.
        tbl.destroy(originals[0])
        assert not tbl.replication_saturated
        tbl.commit_task(0)
        assert tbl.replication_saturated
        tbl.audit([originals[1], replicas[1]], committed={0})

    def test_free_replica_id_lowest_gap(self):
        tbl = InstanceTable(1, 1, 3)
        orig = self._inst(0)
        r1 = self._inst(0, replica_id=1)
        r2 = self._inst(0, replica_id=2)
        for inst in (orig, r1, r2):
            tbl.add(inst)
        tbl.destroy(r1)
        assert tbl.free_replica_id(0) == 1
        tbl.destroy(r2)
        assert tbl.free_replica_id(0) == 1

    def test_rows_of_preserves_creation_order(self):
        tbl = InstanceTable(1, 1, 3)
        orig = self._inst(0)
        r2 = self._inst(0, replica_id=2)
        r1 = self._inst(0, replica_id=1)
        for inst in (orig, r2, r1):
            tbl.add(inst)
        uids = [tbl.objects[row].uid for row in tbl.rows_of[0]]
        assert uids == sorted(uids)  # creation order == uid order

    def test_audit_rejects_replica_before_original(self):
        tbl = InstanceTable(1, 1, 2)
        replica, original = self._inst(0, replica_id=1), self._inst(0)
        tbl.add(replica)
        tbl.add(original)
        with pytest.raises(AssertionError, match="original must be its first"):
            tbl.audit([replica, original], committed=set())

    def test_audit_rejects_replica_without_original(self):
        # The master rebuilds the committed set from the live originals,
        # so a replica outliving its original reads as a committed task
        # with a live row.
        tbl = InstanceTable(1, 1, 2)
        original, replica = self._inst(0), self._inst(0, replica_id=1)
        tbl.add(original)
        tbl.add(replica)
        tbl.destroy(original)
        with pytest.raises(AssertionError, match="committed must mean"):
            tbl.audit([replica], committed={0})

    def test_commit_requires_destroyed_rows(self):
        tbl = InstanceTable(1, 1, 2)
        tbl.add(self._inst(0))
        with pytest.raises(AssertionError, match="committed with live rows"):
            tbl.commit_task(0)

    def test_randomized_ops_against_bruteforce(self):
        """Random add/pin/compute/release/destroy/commit sequences keep
        every incremental aggregate equal to the brute-force rebuild.

        The sequences follow the simulator's lifecycle: an iteration adds
        every original first, replicas join uncommitted tasks only,
        originals are destroyed only inside a commit (after which the
        task is counted committed), and a fully committed iteration
        resets the table for the next one."""
        rng = np.random.default_rng(4242)
        n_tasks, n_workers, max_instances = 5, 4, 3
        tbl = InstanceTable(n_tasks, n_workers, max_instances)
        live = []
        committed = set()

        def start_iteration():
            tbl.reset()
            live.clear()
            committed.clear()
            for task in range(n_tasks):
                inst = self._inst(task)
                tbl.add(inst)
                live.append(inst)

        start_iteration()
        iterations = 1
        for _ in range(600):
            op = rng.integers(0, 6)
            if op == 0:
                task = int(rng.integers(0, n_tasks))
                used = {
                    inst.replica_id for inst in live if inst.task_id == task
                }
                free_ids = [
                    r for r in range(1, max_instances) if r not in used
                ]
                if task not in committed and free_ids:
                    assert tbl.free_replica_id(task) == free_ids[0]
                    inst = self._inst(task, replica_id=free_ids[0])
                    tbl.add(inst)
                    live.append(inst)
            elif op == 1 and live:
                inst = live[int(rng.integers(0, len(live)))]
                if not inst.pinned:
                    inst.worker = int(rng.integers(0, n_workers))
                    inst.data_received = 1
                    tbl.pin(inst)
            elif op == 2 and live:
                inst = live[int(rng.integers(0, len(live)))]
                free_worker = inst.worker if inst.worker is not None else 0
                if (
                    not inst.computing
                    and tbl.computing_row[free_worker] == -1
                ):
                    inst.worker = free_worker
                    inst.computing = True
                    tbl.start_computing(inst)
            elif op == 3 and live:
                inst = live[int(rng.integers(0, len(live)))]
                if inst.replica_id == 0:
                    host = inst.worker
                    if host is not None:
                        tbl.release(inst)
                        reset_instance(inst)
            elif op == 4 and live:
                inst = live[int(rng.integers(0, len(live)))]
                if inst.is_replica:
                    live.remove(inst)
                    tbl.destroy(inst)
            elif op == 5:
                task = int(rng.integers(0, n_tasks))
                if task not in committed:
                    for inst in [
                        i for i in live if i.task_id == task
                    ]:
                        live.remove(inst)
                        tbl.destroy(inst)
                    committed.add(task)
                    tbl.commit_task(task)
            tbl.audit(live, committed)
            if len(committed) == n_tasks:
                start_iteration()
                iterations += 1
                tbl.audit(live, committed)
        assert iterations > 1  # the run crossed iteration boundaries

    def test_reset_clears_everything(self):
        tbl = InstanceTable(2, 2, 2)
        insts = [self._inst(t) for t in range(2)]
        for inst in insts:
            tbl.add(inst)
        tbl.add(self._inst(1, replica_id=1))
        tbl.destroy(insts[0])  # task 0 commits: rows first, then the count
        tbl.commit_task(0)
        tbl.reset()
        assert tbl.live_instances() == []
        assert tbl.n_unpinned == 0
        assert tbl.n_uncommitted == 2
        assert tbl.repl_deficit == 2
        assert len(tbl.free) == len(tbl.objects)
        assert tbl.rows_of == [[], []]
        # The next iteration adds its originals into the cleared table.
        fresh = [self._inst(t, iteration=1) for t in range(2)]
        for inst in fresh:
            tbl.add(inst)
        tbl.audit(fresh, committed=set())


class TestInstanceOps:
    def test_instance_ops_counted(self):
        scenario = ScenarioGenerator(24061).scenario(5, 5, 1, 0)
        platform = scenario.build_platform(0)
        sim = MasterSimulator(
            platform,
            scenario.app,
            make_scheduler("mct", platform=platform),
            rng=scenario.scheduler_rng(0, "mct"),
        )
        sim.run(max_slots=30_000)
        assert sim.instance_ops > 0

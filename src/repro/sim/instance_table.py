"""Row store for the master's live task instances (DESIGN.md §9).

The master keeps its live instances in :class:`InstanceTable`: *rows*
(slots reused through a free list) holding the
:class:`~repro.sim.worker.TaskInstance` records in ``objects[row]``, plus
aggregates maintained incrementally at every mutation, so the body's
questions — triviality checks and glide analysis at every span boundary,
unpinned collection every round, replication counts, sibling lookups at
commit — are O(1) reads instead of scans.

Each fact has one owner.  The instance record owns its identity
(``task_id``, ``replica_id``, ``uid``), its progress counters
(``data_received``, ``compute_done``; they tick every simulated slot)
and its placement (``inst.worker``; every round re-plans every unpinned
instance).  A row is live iff ``objects[row] is not None``, and pinned
iff it is *not* in the ``unpinned`` set.  The table owns only what
changes at *event* rate (creation, pinning, compute start, crash,
commit), mirroring the RoundState maintenance discipline (§8):

* per task: ``rows_of[t]`` — live rows in creation order (the commit
  path's sibling lookup).  Every other per-task fact derives from it:
  the live count is ``len(rows_of[t])``; the original is created first
  and destroyed only at its task's commit, so it is ``rows_of[t][0]``;
  and a task is committed exactly when it has no live row (the commit
  path destroys the rows, then calls :meth:`commit_task`);
* per worker: ``computing_row`` (row of the computing instance, -1 when
  idle) — the O(1) lookup the compute/span loops use instead of a queue
  scan;
* scalars: the ``unpinned`` row set (O(1) round-triviality /
  glide checks via its size), ``n_uncommitted``, and ``repl_deficit``
  (uncommitted tasks with fewer than ``max_instances`` live instances —
  replication is saturated exactly when it is zero).

``ops`` counts structural mutations (adds, destroys, pins, compute
starts, releases) and feeds the benchmark's ``instance_ops`` column.

The master's audit mode cross-checks every aggregate against a
brute-force rebuild (:meth:`audit`), the same belt-and-braces pattern
the incremental RoundState uses.
"""

from __future__ import annotations

from typing import List, Optional

from .worker import TaskInstance

__all__ = ["InstanceTable"]


class InstanceTable:
    """Row store for one iteration's live instances (see module docstring).

    Args:
        n_tasks: tasks per iteration (``m``).
        n_workers: processors (``p``).
        max_instances: cap on live instances per task (1 + max replicas);
            drives the replication-saturation counter.
        capacity: initial row capacity (defaults to the live-instance
            bound ``n_tasks * max_instances``; rows double on demand, so
            a smaller value only means early growth — used by tests).
    """

    def __init__(
        self,
        n_tasks: int,
        n_workers: int,
        max_instances: int,
        *,
        capacity: Optional[int] = None,
    ):
        if n_tasks <= 0 or n_workers <= 0 or max_instances <= 0:
            raise ValueError(
                "n_tasks, n_workers and max_instances must be positive, got "
                f"({n_tasks}, {n_workers}, {max_instances})"
            )
        self.n_tasks = n_tasks
        self.n_workers = n_workers
        self.max_instances = max_instances
        if capacity is None:
            capacity = max(8, n_tasks * max_instances)
        elif capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        #: The live instance of each row; ``None`` marks a free row.
        self.objects: List[Optional[TaskInstance]] = [None] * capacity
        #: Dead rows available for reuse; popped LIFO so row churn stays
        #: compact (lowest rows are recycled first after a reset).
        self.free: List[int] = list(range(capacity - 1, -1, -1))
        # Per-task aggregate.
        self.rows_of: List[List[int]] = [[] for _ in range(n_tasks)]
        # Per-worker aggregates.
        self.computing_row: List[int] = [-1] * n_workers
        # Scalars.
        self.unpinned: set = set()
        self.n_uncommitted = n_tasks
        self.repl_deficit = n_tasks
        #: Structural mutation counter (benchmark diagnostic).
        self.ops = 0

    @property
    def n_unpinned(self) -> int:
        """Live unpinned instances (O(1) triviality / glide check)."""
        return len(self.unpinned)

    # ------------------------------------------------------------------ #
    # Iteration lifecycle.                                                 #
    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Clear every row and aggregate for a fresh iteration."""
        capacity = len(self.objects)
        self.objects = [None] * capacity
        self.free = list(range(capacity - 1, -1, -1))
        for rows in self.rows_of:
            rows.clear()
        self.computing_row = [-1] * self.n_workers
        self.unpinned = set()
        self.n_uncommitted = self.n_tasks
        self.repl_deficit = self.n_tasks

    def _grow(self) -> None:
        old = len(self.objects)
        new = 2 * old
        self.objects.extend([None] * old)
        self.free.extend(range(new - 1, old - 1, -1))

    # ------------------------------------------------------------------ #
    # Structural mutations.                                                #
    # ------------------------------------------------------------------ #
    def add(self, inst: TaskInstance) -> int:
        """Register a freshly created (unplaced, unpinned) instance of an
        uncommitted task; a task's original is added before its replicas."""
        if not self.free:
            self._grow()
        row = self.free.pop()
        inst.row = row
        self.objects[row] = inst
        rows = self.rows_of[inst.task_id]
        rows.append(row)
        if len(rows) == self.max_instances:
            self.repl_deficit -= 1
        self.unpinned.add(row)
        self.ops += 1
        return row

    def destroy(self, inst: TaskInstance) -> None:
        """Drop a live instance: free its row, roll back every aggregate.

        Reads ``inst.worker`` for the computing-row rollback, so callers
        destroy *before* detaching the instance from its worker queue (or
        after :meth:`on_crash`, which clears the per-worker state)."""
        row = inst.row
        host = inst.worker
        if host is not None and self.computing_row[host] == row:
            self.computing_row[host] = -1
        self.unpinned.discard(row)
        rows = self.rows_of[inst.task_id]
        if len(rows) == self.max_instances:
            self.repl_deficit += 1
        rows.remove(row)
        self.objects[row] = None
        self.free.append(row)
        inst.row = -1
        self.ops += 1

    def pin(self, inst: TaskInstance) -> None:
        """Mark work begun (first data slot or computation start)."""
        row = inst.row
        if row in self.unpinned:
            self.unpinned.discard(row)
            self.ops += 1

    def start_computing(self, inst: TaskInstance) -> None:
        """Record the worker's computing instance (pins it if needed)."""
        self.computing_row[inst.worker] = inst.row
        self.pin(inst)

    def release(self, inst: TaskInstance) -> None:
        """Roll back progress flags for an instance being reset in place
        (a crashed or proactively terminated original returning to the
        pool).  Reads ``inst.worker`` like :meth:`destroy`, so call it
        before the instance is detached (or after :meth:`on_crash`)."""
        row = inst.row
        host = inst.worker
        if host is not None and self.computing_row[host] == row:
            self.computing_row[host] = -1
        self.unpinned.add(row)
        self.ops += 1

    def on_crash(self, host: int) -> None:
        """Zero the per-worker state after ``WorkerRuntime.crash``; the
        caller then destroys/releases each lost instance."""
        self.computing_row[host] = -1
        self.ops += 1

    def commit_task(self, task: int) -> None:
        """Count a task committed once its rows are destroyed: with no
        live row it is committed, and it leaves the deficit."""
        assert not self.rows_of[task], f"task {task} committed with live rows"
        self.n_uncommitted -= 1
        self.repl_deficit -= 1
        self.ops += 1

    # ------------------------------------------------------------------ #
    # Queries.                                                             #
    # ------------------------------------------------------------------ #
    @property
    def replication_saturated(self) -> bool:
        """True when every uncommitted task carries ``max_instances``
        live instances (O(1): the incrementally maintained deficit)."""
        return self.repl_deficit == 0

    def unpinned_rows(self) -> List[int]:
        """Rows of live unpinned instances, ascending."""
        return sorted(self.unpinned)

    def live_instances(self) -> List[TaskInstance]:
        """Every live instance, in row order."""
        return [inst for inst in self.objects if inst is not None]

    def uncommitted_tasks(self) -> List[int]:
        """Task ids not yet committed (with a live row), ascending."""
        return [task for task, rows in enumerate(self.rows_of) if rows]

    def free_replica_id(self, task: int) -> int:
        """Lowest replica id in ``1..max_instances`` not currently live."""
        objects = self.objects
        live = {objects[row].replica_id for row in self.rows_of[task]}
        rid = 1
        while rid in live:
            rid += 1
        return rid

    # ------------------------------------------------------------------ #
    # Audit.                                                               #
    # ------------------------------------------------------------------ #
    def audit(self, instances: List[TaskInstance], committed: set) -> None:
        """Assert every aggregate against a brute-force rebuild from the
        reference instance list and committed-task set (master audit
        mode)."""
        by_row = {}
        for inst in instances:
            row = inst.row
            assert 0 <= row < len(self.objects), f"bad row {row} on {inst}"
            assert row not in by_row, f"row {row} assigned twice"
            by_row[row] = inst
            assert (row in self.unpinned) == (not inst.pinned)
            assert self.objects[row] is inst
        assert sum(inst is not None for inst in self.objects) == len(instances)
        assert len(self.unpinned) == sum(1 for i in instances if not i.pinned)
        for task in range(self.n_tasks):
            rows = [inst.row for inst in instances if inst.task_id == task]
            assert sorted(self.rows_of[task]) == sorted(rows)
            # rows_of preserves creation order (the commit path relies on it).
            seqs = [self.objects[row].uid for row in self.rows_of[task]]
            assert seqs == sorted(seqs), f"task {task}: rows_of out of order"
            # Committed means no live row; otherwise the original comes
            # first and every replica id is distinct.
            assert (task in committed) == (not rows), (
                f"task {task}: committed must mean no live row"
            )
            rids = [self.objects[row].replica_id for row in self.rows_of[task]]
            assert len(set(rids)) == len(rids), f"task {task}: duplicate ids"
            assert not rids or rids[0] == 0, (
                f"task {task}: the original must be its first row"
            )
        assert self.n_uncommitted == self.n_tasks - len(committed)
        deficit = sum(
            1
            for task in range(self.n_tasks)
            if task not in committed
            and len(self.rows_of[task]) < self.max_instances
        )
        assert self.repl_deficit == deficit, (
            f"repl_deficit {self.repl_deficit} != rebuilt {deficit}"
        )
        assert sorted(self.free) == sorted(
            set(range(len(self.objects))) - set(by_row)
        )

"""Clairvoyant baseline: greedy MCT with the *true* future availability.

An extension beyond the paper, used as a reference in dfb studies: this
scheduler is identical in structure to MCT, but instead of estimating a
processor's completion time under the stay-UP assumption, it *walks the
processor's actual availability trace* (the simulator's ground truth) and
computes the real slot at which the candidate task would finish — pinned
pipeline, RECLAIMED pauses and all.

Two caveats keep it a baseline rather than an optimum:

* like MCT it ignores network contention (the walk assumes the worker gets
  a channel whenever it wants one), so the Section 4 counterexample still
  defeats it;
* it cannot foresee DOWN-induced losses of *other* workers' tasks, nor
  re-plan around its own future crashes beyond what the walk reveals.

It is nevertheless a strictly better-informed MCT, which makes it a useful
"how much is Markov information worth?" yardstick next to EMCT.
"""

from __future__ import annotations

from typing import Optional

from ...types import ProcState
from .base import GreedyScheduler, ProcessorView, SchedulingContext

__all__ = ["ClairvoyantScheduler"]


class ClairvoyantScheduler(GreedyScheduler):
    """Greedy minimum *true* completion time (oracle baseline).

    Args:
        platform: the simulation platform whose availability sources are
            the ground truth to peek at.  Must be the same object the
            simulator runs on.
        horizon: walk limit per evaluation; candidates that cannot finish
            within it score ``slot + horizon`` (effectively last).
    """

    maximize = False
    #: The trace walk is inherently per-candidate and needs each
    #: candidate's pinned pipeline, so the array path runs it through the
    #: compatibility shim's lazily materialised views (as ``ud-exact``).
    batch_scoring = False

    def __init__(self, platform, *, horizon: int = 100_000):
        self.name = "clairvoyant"
        self._platform = platform
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        self._horizon = horizon

    def score(
        self,
        ctx: SchedulingContext,
        view: ProcessorView,
        nq_plus_one: int,
        contention_factor: int,
    ) -> float:
        return float(self._walk(ctx.slot, ctx.t_data, view, nq_plus_one))

    def _walk(self, slot: int, t_data: int, view: ProcessorView, n_new: int) -> int:
        """Walk the true trace: finish pinned work, then ``n_new`` tasks.

        Mirrors the simulator's slot semantics (compute step before the
        transfer step; both only on UP slots; prefetch overlap).  The walk
        is slightly optimistic in one respect: it lets the channel run
        ahead of the one-task prefetch bound, so its completion estimate
        is a lower bound on the simulator's realised time — fine for a
        ranking criterion, and consistent with MCT's own optimism about
        contention.
        """
        source = self._platform[view.index].availability
        # Communication queue: program, pinned data, then new tasks' data.
        comm_queue = []
        if view.prog_remaining > 0:
            comm_queue.append(("prog", view.prog_remaining))
        compute_queue = []  # (compute_remaining, data_ready: bool)
        for data_rem, comp_rem, computing in view.pinned_pipeline:
            if data_rem > 0:
                comm_queue.append(("data", data_rem))
            compute_queue.append([comp_rem, data_rem == 0 or computing])
        for _ in range(n_new):
            if t_data > 0:
                comm_queue.append(("data", t_data))
                compute_queue.append([view.speed_w, False])
            else:
                compute_queue.append([view.speed_w, True])

        comm_idx = 0
        # Map each data transfer in the comm queue to its compute entry.
        data_targets = [
            i for i, (_rem, ready) in enumerate(compute_queue) if not ready
        ]
        data_seen = 0

        start = slot
        limit = start + self._horizon
        while slot < limit:
            pending_compute = any(rem > 0 for rem, _ready in compute_queue)
            if comm_idx >= len(comm_queue) and not pending_compute:
                return slot - 1  # finished at the previous slot
            if int(source.state_at(slot)) == int(ProcState.UP):
                # Compute step: first ready task with work left.
                for entry in compute_queue:
                    if entry[1] and entry[0] > 0:
                        entry[0] -= 1
                        break
                # Transfer step: one slot of service to the comm queue.
                if comm_idx < len(comm_queue):
                    kind, rem = comm_queue[comm_idx]
                    rem -= 1
                    if rem == 0:
                        if kind == "data":
                            compute_queue[data_targets[data_seen]][1] = True
                            data_seen += 1
                        comm_idx += 1
                    else:
                        comm_queue[comm_idx] = (kind, rem)
            slot += 1
        return limit

    def describe(self) -> str:
        """Provenance string for reports."""
        return f"clairvoyant MCT over platform of {len(self._platform)} processors"


def make_clairvoyant(platform) -> Optional[ClairvoyantScheduler]:
    """Factory matching the registry's calling convention."""
    return ClairvoyantScheduler(platform)

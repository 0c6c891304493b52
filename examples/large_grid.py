#!/usr/bin/env python
"""Large grid: one heuristic end-to-end on 10,000 volatile workers.

The paper's evaluation stays at tens of processors; this example runs
the same master–worker protocol on a desktop-grid-scale platform using
the large-platform engine (DESIGN.md §12): the event-calendar
availability index (the simulator's only platform index), the
run-length-encoded semi-Markov ground truth (O(runs) memory, not
O(slots)), and the sticky replan policy that desktop-grid deployments
favour at this scale.

The run is driven through the resumable ``begin_run``/``advance_until``
API so a progress line can be printed every few thousand slots without
disturbing the simulation — pausing is bit-identical to a plain
``run()``.

Run:  python examples/large_grid.py [p] [seed]
"""

import sys
import time

from repro.core.heuristics.registry import make_scheduler
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.workload.scenarios import ScenarioGenerator

HEURISTIC = "mct"
BUDGET = 50_000
PROGRESS_EVERY = 2_000


def main() -> None:
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 12061
    generator = ScenarioGenerator(seed, p=p, iterations=3)
    scenario = generator.large_grid_scenario(40, 10, 30, 0, mean_sojourn=1000)

    print(f"== {HEURISTIC} on a {p}-worker volatile grid (seed {seed}) ==")
    start = time.perf_counter()
    platform = scenario.build_platform(0)
    print(f"platform built in {time.perf_counter() - start:.1f}s")

    sim = MasterSimulator(
        platform,
        scenario.app,
        make_scheduler(HEURISTIC, platform=platform),
        options=SimulatorOptions(replan_policy="sticky"),
        rng=scenario.scheduler_rng(0, HEURISTIC),
    )
    start = time.perf_counter()
    sim.begin_run(max_slots=BUDGET)
    limit = PROGRESS_EVERY
    while not sim.advance_until(limit):
        counts = sim.op_counts
        print(
            f"  slot {sim.report.slots_simulated:>6}: "
            f"{sim.report.scheduler_rounds} rounds, "
            f"{counts['boundaries']} span boundaries, "
            f"{counts['calendar_pops']} calendar pops",
            flush=True,
        )
        limit += PROGRESS_EVERY
    report = sim.finish_run()
    elapsed = time.perf_counter() - start

    counts = sim.op_counts
    trace_bytes = sum(proc.availability.storage_bytes() for proc in platform)
    print(f"makespan: {report.makespan} slots "
          f"({report.completed_iterations}/{report.target_iterations} "
          "iterations)")
    print(f"wall-clock: {elapsed:.1f}s "
          f"({report.slots_simulated / elapsed:,.0f} slots/sec)")
    boundaries = max(counts["boundaries"], 1)
    print(f"boundary work: {counts['boundary_workers_touched'] / boundaries:.1f} "
          f"workers touched per boundary (a full sweep would touch {p})")
    print(f"availability storage: {trace_bytes / p:.0f} B/worker (RLE)")


if __name__ == "__main__":
    main()

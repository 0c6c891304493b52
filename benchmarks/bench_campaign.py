"""Campaign backend throughput benchmark (exp. id ``bench-campaign``).

Measures serial vs. parallel execution-backend throughput (simulation
runs per second) on a reduced Table 2 sweep — including loopback
``distributed`` cells that record coordinator overhead per unit,
parallel efficiency and the fault counters (re-issues, duplicates
dropped) — and emits a JSON document so successive PRs accumulate a
perf trajectory::

    PYTHONPATH=src python benchmarks/bench_campaign.py --jobs 4 --out bench.json

The campaign statistics are asserted bit-identical across the measured
backends (the backend acceptance bar) before any number is reported —
a speedup that changed the science would be worthless.

Wall-clock speedups require physical cores: on a single-CPU container
the parallel rows measure pure backend overhead (expect ≤ 1×), which is
itself worth tracking.  ``cpu_count`` is recorded in the document so a
reader can tell the two regimes apart.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.experiments.table2 import run_table2

# The reduced Table 2 sweep (mirrors bench_table2's grid slice): all
# communication regimes of the x-axis at two task counts.
REDUCED = dict(n_values=(5, 20), ncom_values=(5,), wmin_values=(1, 5, 10))


def _measure(
    *,
    backend,
    jobs: Optional[int],
    scenarios_per_cell: int,
    trials: int,
    heuristics: Sequence[str],
    seed: int,
) -> Dict:
    # ``backend`` may be a registry name or a pre-built instance (the
    # distributed cells need instances to read coordinator stats back).
    is_instance = not isinstance(backend, str)
    start = time.perf_counter()
    result = run_table2(
        scenarios_per_cell=scenarios_per_cell,
        trials=trials,
        heuristics=tuple(heuristics),
        seed=seed,
        backend=backend,
        jobs=None if is_instance else jobs,
        **REDUCED,
    )
    elapsed = time.perf_counter() - start
    runs = result.campaign.instances * len(heuristics)
    return {
        "backend": getattr(backend, "name", backend),
        "jobs": jobs or 1,
        "seconds": round(elapsed, 4),
        "instances": result.campaign.instances,
        "runs": runs,
        "runs_per_sec": round(runs / elapsed, 3),
        "_campaign": result.campaign,
    }


def run_benchmark(
    *,
    jobs: int = 4,
    scenarios_per_cell: int = 1,
    trials: int = 2,
    heuristics: Sequence[str] = ("mct", "mct*", "emct", "emct*"),
    seed: int = 12061,
) -> Dict:
    """Time the reduced sweep under serial and process backends.

    Returns the JSON-ready document (measurements + provenance); the
    parallel rows cover ``jobs`` workers and, for scaling shape, half of
    ``jobs`` when that is a distinct count.
    """
    from repro.experiments.distributed import (
        DistributedBackend,
        FaultPlan,
        FaultyWorker,
    )

    configurations = [("serial", None)]
    if jobs >= 2 and jobs // 2 not in (1, jobs):
        configurations.append(("process", jobs // 2))
    configurations.append(("process", jobs))
    # Distributed cells (loopback coordinator/worker service, DESIGN.md
    # §13): a single-worker cell isolates coordinator overhead per unit,
    # the ``jobs``-worker cell feeds the scaling/parallel-efficiency
    # table, and a duplicate-delivery cell measures the dedupe path's
    # cost while recording the fault counters.
    fleet_jobs = max(2, jobs)  # the fleet cell always exercises concurrency
    dist_single = DistributedBackend(1)
    dist_fleet = DistributedBackend(fleet_jobs)
    dist_faulty = DistributedBackend(
        max(2, min(jobs, 4)),
        worker_factory=lambda address, slot: FaultyWorker(
            address,
            plan=FaultPlan(duplicate_results=True),
            worker_id=f"bench-dup-{slot}",
        ),
    )
    configurations += [
        (dist_single, 1),
        (dist_fleet, fleet_jobs),
        (dist_faulty, dist_faulty.jobs),
    ]

    rows: List[Dict] = []
    for backend, worker_count in configurations:
        rows.append(
            _measure(
                backend=backend,
                jobs=worker_count,
                scenarios_per_cell=scenarios_per_cell,
                trials=trials,
                heuristics=heuristics,
                seed=seed,
            )
        )
    rows[-1]["backend"] = "distributed-faulty"

    reference = rows[0].pop("_campaign")
    for row in rows[1:]:
        campaign = row.pop("_campaign")
        if not (
            campaign.records == reference.records
            and campaign.accumulator == reference.accumulator
        ):  # pragma: no cover - would be a backend bug
            raise AssertionError(
                f"{row['backend']}(jobs={row['jobs']}) diverged from serial"
            )

    serial_rate = rows[0]["runs_per_sec"]
    cpu_count = os.cpu_count() or 1
    # cpu_count-aware per-job scaling: a parallel row can at best run
    # min(jobs, physical cores) units concurrently, so its *parallel
    # efficiency* is speedup / that bound.  On a single-CPU container the
    # bound is 1 and the rows measure pure backend overhead (efficiency ~=
    # speedup); on a multi-core runner the same document shows the real
    # scaling shape with no code changes (ROADMAP open item).
    scaling = {}
    for row in rows[1:]:
        speedup = round(row["runs_per_sec"] / serial_rate, 3)
        bound = min(row["jobs"], cpu_count)
        scaling[f"{row['backend']}-{row['jobs']}"] = {
            "speedup_vs_serial": speedup,
            "ideal_speedup": bound,
            "parallel_efficiency": round(speedup / bound, 3),
        }
    # Coordinator overhead per unit: the single-worker distributed cell
    # does exactly the serial cell's work plus the whole service stack
    # (sockets, leases, heartbeats, journal-less bookkeeping), so the
    # per-unit wall-clock difference *is* the service overhead.
    serial_row = rows[0]
    single_row = next(
        r for r in rows if r["backend"] == "distributed" and r["jobs"] == 1
    )
    fleet_row = next(
        r
        for r in rows
        if r["backend"] == "distributed" and r["jobs"] == fleet_jobs
    )
    faulty_row = next(r for r in rows if r["backend"] == "distributed-faulty")

    def _counters(backend: DistributedBackend) -> Dict:
        stats = backend.last_stats
        return {
            "units_executed": stats.units_executed,
            "chunks_assigned": stats.chunks_assigned,
            "reissues": stats.reissues,
            "duplicates_dropped": stats.duplicates_dropped,
            "lease_expiries": stats.lease_expiries,
            "heartbeats": stats.heartbeats,
        }

    distributed = {
        "coordinator_overhead_ms_per_unit": round(
            1000.0
            * (single_row["seconds"] - serial_row["seconds"])
            / single_row["instances"],
            3,
        ),
        "single": _counters(dist_single),
        "fleet": {
            "jobs": fleet_jobs,
            "parallel_efficiency": scaling[f"distributed-{fleet_jobs}"][
                "parallel_efficiency"
            ],
            **_counters(dist_fleet),
        },
        "faulty_duplicates": {
            "jobs": dist_faulty.jobs,
            "slowdown_vs_clean_fleet": round(
                faulty_row["seconds"] / fleet_row["seconds"], 3
            ),
            **_counters(dist_faulty),
        },
    }
    return {
        "benchmark": "campaign-backends",
        "unix_time": int(time.time()),
        "cpu_count": cpu_count,
        "config": {
            "scenarios_per_cell": scenarios_per_cell,
            "trials": trials,
            "heuristics": list(heuristics),
            "seed": seed,
            **{k: list(v) for k, v in REDUCED.items()},
        },
        "results": rows,
        "speedup_vs_serial": {
            key: value["speedup_vs_serial"] for key, value in scaling.items()
        },
        "scaling": scaling,
        "distributed": distributed,
        "statistics_identical": True,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4, help="parallel workers")
    parser.add_argument(
        "--scenarios", type=int, default=1, help="scenarios per cell"
    )
    parser.add_argument("--trials", type=int, default=2, help="trials/scenario")
    parser.add_argument("--seed", type=int, default=12061)
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write JSON here (else stdout)"
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="PATH",
        help=(
            "append a one-line trajectory record here "
            "(default: BENCH_history.jsonl at the repo root; "
            "'-' disables)"
        ),
    )
    args = parser.parse_args(argv)

    document = run_benchmark(
        jobs=args.jobs,
        scenarios_per_cell=args.scenarios,
        trials=args.trials,
        seed=args.seed,
    )
    if args.history != "-":
        from bench_history import append_history

        distributed = document["distributed"]
        append_history(
            document["benchmark"],
            {
                "speedup_vs_serial": document["speedup_vs_serial"],
                "serial_runs_per_sec": document["results"][0]["runs_per_sec"],
                "coordinator_overhead_ms_per_unit": distributed[
                    "coordinator_overhead_ms_per_unit"
                ],
                "distributed_parallel_efficiency": distributed["fleet"][
                    "parallel_efficiency"
                ],
                "distributed_reissues": distributed["fleet"]["reissues"],
                "distributed_duplicates_dropped": distributed[
                    "faulty_duplicates"
                ]["duplicates_dropped"],
            },
            path=args.history,
        )
    text = json.dumps(document, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        summary = ", ".join(
            f"{row['backend']}-{row['jobs']}: {row['runs_per_sec']}/s"
            for row in document["results"]
        )
        print(f"wrote {args.out} ({summary})", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

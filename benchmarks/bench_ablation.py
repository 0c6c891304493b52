"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

Each ablation runs paired simulations on identical availability samples
and reports the measured effect:

* replication cap (0 / 1 / 2 extra replicas — the paper settled on 2);
* event-driven re-planning vs the paper's conceptual every-slot re-plan
  (must produce similar makespans at a fraction of the scheduler rounds);
* the UD heuristic with the paper's rank-1 P_UD approximation vs the
  exact matrix-power form (quality of the approximation as a scheduler);
* Equation 2's contention-correcting factor on a contention-prone
  workload.
"""

import numpy as np

from repro.core.heuristics.registry import make_scheduler
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.workload.scenarios import ScenarioGenerator


def _run(scenario, trial, heuristic, options):
    sim = MasterSimulator(
        scenario.build_platform(trial),
        scenario.app,
        make_scheduler(heuristic),
        options=options,
        rng=scenario.scheduler_rng(trial, heuristic),
    )
    report = sim.run(max_slots=400_000)
    assert report.makespan is not None
    return report


def _mean_makespan(scenarios, trials, heuristic, options):
    total = 0.0
    count = 0
    reports = []
    for scenario in scenarios:
        for trial in range(trials):
            report = _run(scenario, trial, heuristic, options)
            total += report.makespan
            count += 1
            reports.append(report)
    return total / count, reports


def test_replication_cap(benchmark, scale):
    scenarios = [
        ScenarioGenerator(31).scenario(5, 5, 5, i) for i in range(2 * scale)
    ]

    def run():
        means = {}
        for cap in (0, 1, 2):
            options = SimulatorOptions(
                replication=cap > 0, max_replicas=max(cap, 0)
            )
            means[cap], _ = _mean_makespan(scenarios, 2, "emct", options)
        return means

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nreplication cap -> mean makespan: {means}")
    # Replication should help small-m workloads; cap 2 must not be much
    # worse than cap 1 (the paper found it slightly better).
    assert means[2] <= means[0] * 1.05


def test_replan_policy(benchmark, scale):
    scenarios = [
        ScenarioGenerator(32).scenario(10, 5, 3, i) for i in range(2 * scale)
    ]

    def run():
        results = {}
        for label, policy in (("events", "event"), ("every-slot", "every-slot")):
            options = SimulatorOptions(replan_policy=policy)
            mean, reports = _mean_makespan(scenarios, 1, "emct*", options)
            rounds = sum(r.scheduler_rounds for r in reports)
            results[label] = (mean, rounds)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nreplan policy -> (mean makespan, scheduler rounds): {results}")
    events_mean, events_rounds = results["events"]
    slot_mean, slot_rounds = results["every-slot"]
    # Event-driven re-planning must save rounds without costing much time.
    assert events_rounds < slot_rounds
    assert events_mean <= slot_mean * 1.10


def test_ud_exact_vs_approx(benchmark, scale):
    scenarios = [
        ScenarioGenerator(33).scenario(10, 5, 8, i) for i in range(2 * scale)
    ]

    def run():
        means = {}
        for name in ("ud", "ud-exact"):
            means[name], _ = _mean_makespan(
                scenarios, 2, name, SimulatorOptions()
            )
        return means

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nUD P_UD form -> mean makespan: {means}")
    # The paper's approximation should cost little against the exact form.
    assert means["ud"] <= means["ud-exact"] * 1.15


def test_contention_factor_on_heavy_comm(benchmark, scale):
    generator = ScenarioGenerator(34)
    scenarios = generator.contention_prone(10, 2 * scale)

    def run():
        means = {}
        for name in ("mct", "mct*"):
            means[name], _ = _mean_makespan(
                scenarios, 2, name, SimulatorOptions()
            )
        return means

    means = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ncontention factor (comm ×10) -> mean makespan: {means}")
    assert means["mct*"] <= means["mct"]


def test_heap_placement_speed(benchmark):
    # Micro-benchmark of the lazy-heap placement loop itself.
    from repro.core.heuristics.base import ProcessorView, SchedulingContext
    from repro.core.markov import paper_random_model
    from repro.types import ProcState

    rng = np.random.default_rng(0)
    views = [
        ProcessorView(
            index=q,
            speed_w=int(rng.integers(1, 10)),
            state=ProcState.UP,
            belief=paper_random_model(rng),
            has_program=False,
            delay=int(rng.integers(0, 20)),
            pinned_count=int(rng.integers(0, 2)),
        )
        for q in range(20)
    ]
    ctx = SchedulingContext(
        slot=0, t_prog=5, t_data=1, ncom=5, processors=views,
        remaining_tasks=40, rng=np.random.default_rng(0),
    )
    scheduler = make_scheduler("emct*")

    placements = benchmark(lambda: scheduler.place(ctx, 40))
    assert len(placements) == 40
    assert all(p is not None for p in placements)

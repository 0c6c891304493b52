"""Benchmarks for the simulator core: runs/second across workload shapes.

These are throughput measurements for the substrate every experiment rests
on; regressions here multiply directly into campaign wall-clock.
"""

import pytest

from repro.experiments.harness import run_instance
from repro.workload.scenarios import ScenarioGenerator


@pytest.mark.parametrize(
    "n,ncom,wmin",
    [(5, 5, 1), (20, 5, 5), (40, 20, 10)],
    ids=["small", "medium", "large"],
)
def test_single_run(benchmark, n, ncom, wmin):
    scenario = ScenarioGenerator(1).scenario(n, ncom, wmin, 0)

    def run():
        return run_instance(scenario, 0, "emct*")

    makespan = benchmark.pedantic(run, rounds=3, iterations=1)
    assert makespan > 0


def test_trace_sampling_throughput(benchmark):
    import numpy as np

    from repro.core.markov import paper_random_model

    model = paper_random_model(np.random.default_rng(0))

    def run():
        return model.sample_trace(50_000, np.random.default_rng(1), initial=0)

    trace = benchmark(run)
    assert len(trace) == 50_000

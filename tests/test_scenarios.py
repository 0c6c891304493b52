"""Tests for the Section 7 scenario generator."""

import dataclasses

import numpy as np
import pytest

from repro.core.heuristics.base import _VECTOR_MIN_P
from repro.core.markov import MarkovAvailabilityModel
from repro.experiments.harness import run_instance
from repro.rng import RngFactory
from repro.sim.availability import SemiMarkovSource
from repro.sim.platform import Processor
from repro.types import ProcState
from repro.workload.scenarios import (
    PAPER_N_VALUES,
    PAPER_NCOM_VALUES,
    PAPER_WMIN_VALUES,
    ScenarioGenerator,
)


class TestScenarioGeneration:
    def test_paper_parameter_constants(self):
        assert PAPER_N_VALUES == (5, 10, 20, 40)
        assert PAPER_NCOM_VALUES == (5, 10, 20)
        assert PAPER_WMIN_VALUES == tuple(range(1, 11))

    def test_scenario_shape(self):
        scenario = ScenarioGenerator(0).scenario(10, 5, 3, 0)
        assert scenario.p == 20
        assert len(scenario.speeds) == 20
        assert scenario.ncom == 5
        assert scenario.app.tasks_per_iteration == 10
        assert scenario.app.iterations == 10

    def test_timings_follow_wmin(self):
        scenario = ScenarioGenerator(0).scenario(10, 5, 3, 0)
        assert scenario.app.t_data == 3
        assert scenario.app.t_prog == 15

    def test_speeds_in_paper_range(self):
        for wmin in (1, 4, 10):
            scenario = ScenarioGenerator(0).scenario(5, 5, wmin, 0)
            assert all(wmin <= w <= 10 * wmin for w in scenario.speeds)

    def test_chains_in_paper_range(self):
        scenario = ScenarioGenerator(0).scenario(5, 5, 1, 0)
        for model in scenario.models:
            for loop in (model.p_uu, model.p_rr, model.p_dd):
                assert 0.90 <= loop <= 0.99

    def test_deterministic(self):
        a = ScenarioGenerator(7).scenario(10, 5, 2, 3)
        b = ScenarioGenerator(7).scenario(10, 5, 2, 3)
        assert a.speeds == b.speeds
        assert all(
            np.allclose(ma.matrix, mb.matrix)
            for ma, mb in zip(a.models, b.models)
        )

    def test_different_indices_differ(self):
        gen = ScenarioGenerator(7)
        a, b = gen.scenario(10, 5, 2, 0), gen.scenario(10, 5, 2, 1)
        assert a.speeds != b.speeds or not np.allclose(
            a.models[0].matrix, b.models[0].matrix
        )

    def test_contention_prone_parameters(self):
        scenarios = ScenarioGenerator(0).contention_prone(5, 3)
        assert len(scenarios) == 3
        for s in scenarios:
            assert s.app.tasks_per_iteration == 20
            assert s.ncom == 5
            assert s.app.t_data == 5
            assert s.app.t_prog == 25

    def test_grid_size(self):
        scenarios = list(
            ScenarioGenerator(0).grid(
                2, n_values=(5,), ncom_values=(5, 10), wmin_values=(1, 2)
            )
        )
        assert len(scenarios) == 2 * 2 * 2

    def test_invalid_parameters_rejected(self):
        gen = ScenarioGenerator(0)
        with pytest.raises(ValueError):
            gen.scenario(0, 5, 1, 0)
        with pytest.raises(ValueError):
            gen.scenario(5, 0, 1, 0)
        with pytest.raises(ValueError):
            gen.scenario(5, 5, 0, 0)


class TestTrialPairing:
    def test_same_trial_same_availability(self):
        # The cornerstone of the dfb metric: every heuristic must see the
        # same availability sample for a given (scenario, trial).
        scenario = ScenarioGenerator(11).scenario(5, 5, 2, 0)
        p1 = scenario.build_platform(trial=3)
        p2 = scenario.build_platform(trial=3)
        for q in range(scenario.p):
            t1 = [p1[q].availability.state_at(t) for t in range(500)]
            t2 = [p2[q].availability.state_at(t) for t in range(500)]
            assert t1 == t2

    def test_different_trials_differ(self):
        scenario = ScenarioGenerator(11).scenario(5, 5, 2, 0)
        p1 = scenario.build_platform(trial=0)
        p2 = scenario.build_platform(trial=1)
        t1 = [p1[0].availability.state_at(t) for t in range(500)]
        t2 = [p2[0].availability.state_at(t) for t in range(500)]
        assert t1 != t2

    def test_scheduler_rng_isolated_per_heuristic(self):
        scenario = ScenarioGenerator(11).scenario(5, 5, 2, 0)
        a = scenario.scheduler_rng(0, "random")
        b = scenario.scheduler_rng(0, "random1")
        assert not np.allclose(a.random(8), b.random(8))

    def test_scheduler_rng_reproducible(self):
        scenario = ScenarioGenerator(11).scenario(5, 5, 2, 0)
        a = scenario.scheduler_rng(0, "random")
        b = scenario.scheduler_rng(0, "random")
        assert np.allclose(a.random(8), b.random(8))

    @pytest.mark.parametrize(
        "trial, error",
        [(-1, ValueError), (1.0, TypeError), ("0", TypeError), (True, TypeError)],
    )
    @pytest.mark.parametrize("truth", ["markov", "semi-markov"])
    def test_bad_trial_rejected(self, trial, error, truth):
        # A negative trial used to wrap silently into a valid-looking
        # stream key and simulate a trace nobody asked for.
        scenario = dataclasses.replace(
            ScenarioGenerator(3).scenario(5, 5, 1, 0), truth=truth
        )
        with pytest.raises(error, match="trial"):
            scenario.build_platform(trial)
        with pytest.raises(error, match="trial"):
            scenario.scheduler_rng(trial, "mct")
        with pytest.raises(error, match="trial"):
            run_instance(scenario, trial, "mct")

    def test_numpy_trial_accepted(self):
        scenario = ScenarioGenerator(3).scenario(5, 5, 1, 0)
        a = scenario.build_platform(np.int64(2))
        b = scenario.build_platform(2)
        assert a[0].availability.block(0, 200).tolist() == (
            b[0].availability.block(0, 200).tolist()
        )

    def test_beliefs_match_generating_chains(self):
        scenario = ScenarioGenerator(11).scenario(5, 5, 2, 0)
        platform = scenario.build_platform(0)
        for q in range(scenario.p):
            assert platform[q].belief is scenario.models[q]


def _reference_large_grid_models(root_seed, p, key, mean_sojourn):
    """Chains built one row at a time, as the per-model generator did."""
    rng = RngFactory(root_seed).generator("scenario", *key)
    low, high = np.log(mean_sojourn / 2.0), np.log(mean_sojourn * 2.0)
    sojourns = np.exp(rng.uniform(low, high, size=(p, 3)))

    def row(self_loop, position):
        off = 0.5 * (1.0 - self_loop)
        r = [off, off, off]
        r[position] = self_loop
        return r

    return [
        MarkovAvailabilityModel(
            np.array([row(1.0 - 1.0 / loops[s], s) for s in range(3)])
        )
        for loops in sojourns
    ]


def _reference_semi_markov_source(model, rng):
    """One worker's run-length truth, derived and validated on its own."""
    matrix = model.matrix
    embedded = np.zeros((3, 3))
    samplers = {}
    for s in range(3):
        leave = 1.0 - float(matrix[s, s])
        embedded[s] = matrix[s] / leave
        embedded[s, s] = 0.0
        samplers[s] = lambda r, leave=leave: int(r.geometric(leave))
    return SemiMarkovSource(embedded, samplers, rng, initial=int(ProcState.UP))


class TestBatchedConstructionIsBitIdentical:
    """The vectorised chain and platform builders reproduce the
    per-processor construction byte for byte (DESIGN.md §12)."""

    P = 2000

    def test_large_grid_matches_per_processor_loop(self):
        root, mean_sojourn = 4242, 1000
        scenario = ScenarioGenerator(root, p=self.P).large_grid_scenario(
            20, 10, 3, 1, mean_sojourn=mean_sojourn
        )
        models = _reference_large_grid_models(
            root, self.P, scenario.key, mean_sojourn
        )
        assert [m.matrix.tobytes() for m in scenario.models] == [
            m.matrix.tobytes() for m in models
        ]
        factory = RngFactory(root)
        for trial in (0, 1):
            platform = scenario.build_platform(trial)
            for q, proc in enumerate(platform):
                reference = _reference_semi_markov_source(
                    models[q], factory.generator("avail", *scenario.key, trial, q)
                )
                assert proc.belief is scenario.models[q]
                assert (
                    proc.availability.block(0, 8000).tobytes()
                    == reference.block(0, 8000).tobytes()
                )
                assert proc.availability.run_count == reference.run_count

    def test_paper_family_platform_unchanged(self):
        scenario = ScenarioGenerator(11).scenario(10, 5, 2, 0)
        factory = RngFactory(scenario.root_seed)
        for trial in (0, 1):
            platform = scenario.build_platform(trial)
            for q, proc in enumerate(platform):
                reference = Processor.from_markov(
                    q,
                    scenario.speeds[q],
                    scenario.models[q],
                    factory.generator("avail", *scenario.key, trial, q),
                )
                assert proc.speed_w == reference.speed_w
                assert (
                    proc.availability.block(0, 3000).tobytes()
                    == reference.availability.block(0, 3000).tobytes()
                )

    def test_unknown_truth_family_rejected(self):
        scenario = dataclasses.replace(
            ScenarioGenerator(11).scenario(5, 5, 2, 0), truth="weibull"
        )
        with pytest.raises(ValueError, match="unknown ground-truth family"):
            scenario.build_platform(0)


def _change_runs(source, horizon):
    """``(first slot, state)`` of every run starting before ``horizon``,
    walked through ``next_change_after``."""
    runs, slot = [], 0
    while slot is not None:
        runs.append((slot, source.state_at(slot)))
        slot = source.next_change_after(slot, limit=horizon - 1)
    return runs


class TestPlatformStreamContract:
    """``build_platform`` draws processor ``q``'s availability from the
    stream ``RngFactory.generator("avail", *key, trial, q)`` (DESIGN.md
    §2), however ``RngFactory.generators`` derives the family."""

    def test_semi_markov_large_platform(self):
        p = _VECTOR_MIN_P + 72
        scenario = ScenarioGenerator(777, p=p).large_grid_scenario(
            30, 10, 2, 0, mean_sojourn=500
        )
        factory = RngFactory(scenario.root_seed)
        for trial in (0, 3):
            built = scenario.build_platform(trial)
            per_key = Processor.from_semi_markov_batch(
                range(p),
                scenario.speeds,
                scenario.models,
                [factory.generator("avail", *scenario.key, trial, q) for q in range(p)],
            )
            for proc, reference in zip(built, per_key):
                assert _change_runs(proc.availability, 12_000) == _change_runs(
                    reference.availability, 12_000
                )

    def test_markov_paper_platform(self):
        scenario = ScenarioGenerator(31).scenario(20, 10, 4, 1)
        factory = RngFactory(scenario.root_seed)
        for trial in (0, 2):
            built = scenario.build_platform(trial)
            for q, proc in enumerate(built):
                reference = Processor.from_markov(
                    q,
                    scenario.speeds[q],
                    scenario.models[q],
                    factory.generator("avail", *scenario.key, trial, q),
                )
                assert _change_runs(proc.availability, 3000) == _change_runs(
                    reference.availability, 3000
                )

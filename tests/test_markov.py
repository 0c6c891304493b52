"""Tests for the 3-state Markov availability model."""

import numpy as np
import pytest

from repro.core.markov import (
    MarkovAvailabilityModel,
    empirical_state_frequencies,
    paper_random_model,
    stationary_distribution,
)
from repro.types import ProcState


def chain(p_uu=0.95, p_rr=0.92, p_dd=0.90):
    return MarkovAvailabilityModel.from_self_loops(p_uu, p_rr, p_dd)


class TestStationaryDistribution:
    def test_symmetric_chain_is_uniform(self):
        matrix = np.full((3, 3), 1 / 3)
        pi = stationary_distribution(matrix)
        assert np.allclose(pi, [1 / 3, 1 / 3, 1 / 3])

    def test_identity_like_two_state(self):
        matrix = np.array([[0.9, 0.1], [0.3, 0.7]])
        pi = stationary_distribution(matrix)
        # Detailed balance: pi_0 * 0.1 = pi_1 * 0.3.
        assert pi[0] == pytest.approx(0.75)
        assert pi[1] == pytest.approx(0.25)

    def test_fixed_point_property(self):
        model = chain()
        pi = model.stationary
        assert np.allclose(pi @ model.matrix, pi, atol=1e-12)
        assert pi.sum() == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            stationary_distribution(np.ones((2, 3)))

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError, match="sum to 1"):
            stationary_distribution(np.array([[0.5, 0.2], [0.5, 0.5]]))

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError):
            stationary_distribution(np.array([[1.5, -0.5], [0.5, 0.5]]))


class TestModelConstruction:
    def test_named_accessors(self):
        model = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.9, p_ur=0.06, p_ud=0.04,
            p_ru=0.2, p_rr=0.7, p_rd=0.1,
            p_du=0.5, p_dr=0.1, p_dd=0.4,
        )
        assert model.p_uu == pytest.approx(0.9)
        assert model.p_ur == pytest.approx(0.06)
        assert model.p_ud == pytest.approx(0.04)
        assert model.p_ru == pytest.approx(0.2)
        assert model.p_rr == pytest.approx(0.7)
        assert model.p_rd == pytest.approx(0.1)
        assert model.p_du == pytest.approx(0.5)
        assert model.p_dr == pytest.approx(0.1)
        assert model.p_dd == pytest.approx(0.4)

    def test_p_accessor_by_state(self):
        model = chain()
        assert model.p(ProcState.UP, ProcState.UP) == model.p_uu
        assert model.p(ProcState.RECLAIMED, ProcState.DOWN) == model.p_rd

    def test_from_self_loops_off_diagonals(self):
        model = chain(0.9, 0.92, 0.94)
        assert model.p_ur == pytest.approx(0.05)
        assert model.p_ud == pytest.approx(0.05)
        assert model.p_ru == pytest.approx(0.04)
        assert model.p_du == pytest.approx(0.03)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3x3"):
            MarkovAvailabilityModel(np.eye(2))

    def test_rejects_non_stochastic_rows(self):
        bad = np.array([[0.5, 0.2, 0.2], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
        with pytest.raises(ValueError, match="sum to 1"):
            MarkovAvailabilityModel(bad)

    def test_rejects_negative_probability(self):
        bad = np.array([[1.2, -0.1, -0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
        with pytest.raises(ValueError):
            MarkovAvailabilityModel(bad)

    def test_self_loop_stack_matches_scalar_construction(self):
        loops = np.random.default_rng(3).uniform(0.5, 0.999, size=(50, 3))
        stack = MarkovAvailabilityModel.from_self_loop_stack(loops)
        assert len(stack) == 50
        for model, (p_uu, p_rr, p_dd) in zip(stack, loops):
            matrix = np.array(
                [
                    [p_uu, 0.5 * (1.0 - p_uu), 0.5 * (1.0 - p_uu)],
                    [0.5 * (1.0 - p_rr), p_rr, 0.5 * (1.0 - p_rr)],
                    [0.5 * (1.0 - p_dd), 0.5 * (1.0 - p_dd), p_dd],
                ]
            )
            assert model.matrix.tobytes() == MarkovAvailabilityModel(
                matrix
            ).matrix.tobytes()
            assert not model.matrix.flags.writeable

    def test_stack_error_names_offending_chain(self):
        with pytest.raises(ValueError, match=r"sum to 1.*\(chain 1\)"):
            MarkovAvailabilityModel.from_self_loop_stack(
                [[0.9, 0.9, 0.9], [0.9, np.nan, 0.9], [0.9, 0.9, 0.9]]
            )
        with pytest.raises(ValueError, match=r"\[0, 1\] \(chain 2\)"):
            MarkovAvailabilityModel.from_self_loop_stack(
                [[0.9, 0.9, 0.9], [0.9, 0.9, 0.9], [1.5, 0.9, 0.9]]
            )
        with pytest.raises(ValueError, match="shape"):
            MarkovAvailabilityModel.from_self_loop_stack([0.9, 0.9, 0.9])

    def test_matrix_is_readonly(self):
        model = chain()
        with pytest.raises(ValueError):
            model.matrix[0, 0] = 0.0

    def test_stationary_sums_to_one(self):
        model = chain()
        assert model.pi_u + model.pi_r + model.pi_d == pytest.approx(1.0)


class TestSampling:
    def test_trace_length_and_dtype(self):
        rng = np.random.default_rng(0)
        trace = chain().sample_trace(500, rng, initial=0)
        assert trace.shape == (500,)
        assert trace.dtype == np.uint8
        assert set(np.unique(trace)) <= {0, 1, 2}

    def test_trace_starts_at_initial(self):
        rng = np.random.default_rng(0)
        trace = chain().sample_trace(10, rng, initial=2)
        assert trace[0] == 2

    def test_initial_none_uses_stationary(self):
        model = chain()
        rng = np.random.default_rng(1)
        firsts = [model.sample_trace(1, rng)[0] for _ in range(4000)]
        freq = np.bincount(firsts, minlength=3) / len(firsts)
        assert np.allclose(freq, model.stationary, atol=0.03)

    def test_empirical_frequencies_approach_stationary(self):
        model = chain()
        rng = np.random.default_rng(7)
        trace = model.sample_trace(200_000, rng)
        freq = empirical_state_frequencies(trace)
        assert np.allclose(freq, model.stationary, atol=0.02)

    def test_deterministic_given_seed(self):
        model = chain()
        t1 = model.sample_trace(100, np.random.default_rng(3), initial=0)
        t2 = model.sample_trace(100, np.random.default_rng(3), initial=0)
        assert np.array_equal(t1, t2)

    def test_extend_trace_preserves_prefix(self):
        model = chain()
        rng = np.random.default_rng(5)
        trace = model.sample_trace(50, rng, initial=0)
        extended = model.extend_trace(trace, 50, rng)
        assert len(extended) == 100
        assert np.array_equal(extended[:50], trace)

    def test_step_transitions_follow_matrix(self):
        model = chain(0.8, 0.9, 0.95)
        rng = np.random.default_rng(11)
        nxt = np.array([model.step(0, rng) for _ in range(20_000)])
        freq = np.bincount(nxt, minlength=3) / len(nxt)
        assert np.allclose(freq, model.matrix[0], atol=0.01)

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError, match="initial state"):
            chain().sample_trace(5, np.random.default_rng(0), initial=4)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            chain().sample_trace(0, np.random.default_rng(0))

    def test_single_slot_trace(self):
        trace = chain().sample_trace(1, np.random.default_rng(0), initial=1)
        assert list(trace) == [1]


class TestPaperRandomModel:
    def test_self_loops_in_paper_range(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            model = paper_random_model(rng)
            for loop in (model.p_uu, model.p_rr, model.p_dd):
                assert 0.90 <= loop <= 0.99

    def test_off_diagonals_split_evenly(self):
        model = paper_random_model(np.random.default_rng(0))
        assert model.p_ur == pytest.approx(model.p_ud)
        assert model.p_ru == pytest.approx(model.p_rd)
        assert model.p_du == pytest.approx(model.p_dr)
        assert model.p_ur == pytest.approx(0.5 * (1 - model.p_uu))

    def test_deterministic_given_rng(self):
        a = paper_random_model(np.random.default_rng(9))
        b = paper_random_model(np.random.default_rng(9))
        assert np.allclose(a.matrix, b.matrix)


class TestEmpiricalFrequencies:
    def test_counts(self):
        freq = empirical_state_frequencies([0, 0, 1, 2])
        assert np.allclose(freq, [0.5, 0.25, 0.25])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            empirical_state_frequencies([])

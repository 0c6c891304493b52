"""Tests for Lemma 1, Theorem 2 and the P_UD forms — closed form vs Monte Carlo."""

import numpy as np
import pytest

from repro.core.expectation import (
    expected_completion_slots,
    expected_next_up,
    p_no_down_approx,
    p_no_down_exact,
    p_plus,
    simulate_completion_slots,
    simulate_p_no_down,
    simulate_p_plus,
    success_probability,
)
from repro.core.markov import MarkovAvailabilityModel, paper_random_model


def chain(p_uu=0.9, p_rr=0.85, p_dd=0.9):
    return MarkovAvailabilityModel.from_self_loops(p_uu, p_rr, p_dd)


class TestLemma1:
    def test_formula_value(self):
        model = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.8, p_ur=0.15, p_ud=0.05,
            p_ru=0.3, p_rr=0.6, p_rd=0.1,
            p_du=0.5, p_dr=0.25, p_dd=0.25,
        )
        expected = 0.8 + 0.15 * 0.3 / (1 - 0.6)
        assert p_plus(model) == pytest.approx(expected)

    def test_no_reclaimed_excursion_when_never_returns(self):
        # RECLAIMED absorbing (p_rr = 1): only the direct u->u path counts.
        model = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.7, p_ur=0.2, p_ud=0.1,
            p_ru=0.0, p_rr=1.0, p_rd=0.0,
            p_du=0.5, p_dr=0.0, p_dd=0.5,
        )
        assert p_plus(model) == pytest.approx(0.7)

    def test_is_probability(self):
        rng = np.random.default_rng(0)
        values = [p_plus(paper_random_model(rng)) for _ in range(50)]
        assert all(0.0 <= value <= 1.0 for value in values)
        assert 0 < sum(values) < len(values)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_monte_carlo(self, seed):
        rng = np.random.default_rng(seed)
        model = paper_random_model(rng)
        estimate = simulate_p_plus(model, np.random.default_rng(seed + 100), samples=20_000)
        assert estimate == pytest.approx(p_plus(model), abs=0.01)


class TestTheorem2:
    def test_w_equals_one_is_immediate(self):
        assert expected_completion_slots(chain(), 1) == pytest.approx(1.0)

    def test_reduces_to_w_when_never_reclaimed(self):
        # p_ur = 0: every successful walk is pure UP, E(W) = W.
        model = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.9, p_ur=0.0, p_ud=0.1,
            p_ru=0.3, p_rr=0.6, p_rd=0.1,
            p_du=0.5, p_dr=0.25, p_dd=0.25,
        )
        for w in (1, 2, 5, 20):
            assert expected_completion_slots(model, w) == pytest.approx(float(w))

    def test_linear_in_w(self):
        model = chain()
        e_up = expected_next_up(model)
        for w in (2, 3, 10):
            assert expected_completion_slots(model, w) == pytest.approx(
                1 + (w - 1) * e_up
            )

    def test_closed_form_structure(self):
        model = chain(0.8, 0.7, 0.9)
        w = 6
        # Theorem 2 exactly as printed in the paper.
        num = model.p_ur * model.p_ru / (1 - model.p_rr)
        den = model.p_uu * (1 - model.p_rr) + model.p_ur * model.p_ru
        paper_value = w + (w - 1) * num / den
        assert expected_completion_slots(model, w) == pytest.approx(paper_value)

    def test_exceeds_w_when_reclaimed_possible(self):
        assert expected_completion_slots(chain(), 10) > 10

    def test_at_least_w_for_paper_chains(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            model = paper_random_model(rng)
            assert expected_completion_slots(model, 50) >= 50

    @pytest.mark.parametrize("w", [2, 5, 12])
    def test_matches_monte_carlo(self, w):
        model = chain(0.85, 0.75, 0.9)
        p_success, mean_slots = simulate_completion_slots(
            model, w, np.random.default_rng(31), samples=30_000
        )
        assert p_success == pytest.approx(success_probability(model, w), abs=0.01)
        assert mean_slots == pytest.approx(
            expected_completion_slots(model, w), rel=0.02
        )

    def test_monotone_in_w(self):
        model = chain()
        values = [expected_completion_slots(model, w) for w in range(1, 30)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_zero_workload(self):
        with pytest.raises(ValueError):
            expected_completion_slots(chain(), 0)

    def test_absorbing_reclaimed_expected_up_is_one(self):
        model = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.7, p_ur=0.2, p_ud=0.1,
            p_ru=0.0, p_rr=1.0, p_rd=0.0,
            p_du=0.5, p_dr=0.0, p_dd=0.5,
        )
        assert expected_next_up(model) == pytest.approx(1.0)

    def test_p_uu_zero_limit(self):
        # Successful continuations must pass through RECLAIMED.
        model = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.0, p_ur=0.9, p_ud=0.1,
            p_ru=0.5, p_rr=0.4, p_rd=0.1,
            p_du=0.5, p_dr=0.25, p_dd=0.25,
        )
        assert expected_next_up(model) == pytest.approx(1 + 1 / (1 - 0.4))


class TestSuccessProbability:
    def test_w_one_certain(self):
        assert success_probability(chain(), 1) == pytest.approx(1.0)

    def test_is_p_plus_power(self):
        model = chain()
        assert success_probability(model, 5) == pytest.approx(p_plus(model) ** 4)

    def test_decreasing_in_w(self):
        model = chain()
        values = [success_probability(model, w) for w in range(1, 20)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestPUD:
    def test_exact_k1_is_certain(self):
        assert p_no_down_exact(chain(), 1) == pytest.approx(1.0)

    def test_exact_k2_is_one_minus_pud(self):
        model = chain()
        assert p_no_down_exact(model, 2) == pytest.approx(1.0 - model.p_ud)

    def test_exact_decreasing_in_k(self):
        model = chain()
        values = [p_no_down_exact(model, k) for k in range(1, 30)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("k", [2, 5, 15])
    def test_exact_matches_monte_carlo(self, k):
        model = chain(0.85, 0.8, 0.9)
        estimate = simulate_p_no_down(
            model, k, np.random.default_rng(17), samples=30_000
        )
        assert estimate == pytest.approx(p_no_down_exact(model, k), abs=0.01)

    def test_approx_exact_at_k2(self):
        # At k = 2 the paper's approximation has an empty tail product, so
        # both forms equal 1 - P_ud.
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = paper_random_model(rng)
            assert p_no_down_approx(model, 2.0) == pytest.approx(
                p_no_down_exact(model, 2)
            )

    def test_approx_tracks_exact_for_paper_chains(self):
        # The rank-1 approximation degrades with k (it forgets the state
        # after one transition); on the paper's chain population it stays
        # within a few points at small k and remains a sane probability
        # with the same monotone trend at large k.
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = paper_random_model(rng)
            assert p_no_down_approx(model, 5.0) == pytest.approx(
                p_no_down_exact(model, 5), abs=0.06
            )
            for k in (10, 25):
                approx = p_no_down_approx(model, float(k))
                exact = p_no_down_exact(model, k)
                assert 0.0 <= approx <= 1.0
                assert abs(approx - exact) < 0.2
            seq = [p_no_down_approx(model, float(k)) for k in range(2, 30)]
            assert all(b <= a for a, b in zip(seq, seq[1:]))

    def test_approx_accepts_fractional_k(self):
        model = chain()
        value = p_no_down_approx(model, 3.7)
        assert 0.0 < value < 1.0

    def test_approx_clamps_small_k(self):
        model = chain()
        assert p_no_down_approx(model, 1.0) == pytest.approx(1.0 - model.p_ud)
        assert p_no_down_approx(model, 2.0) == pytest.approx(1.0 - model.p_ud)

    def test_approx_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            p_no_down_approx(chain(), 0.5)

    def test_exact_rejects_k_zero(self):
        with pytest.raises(ValueError):
            p_no_down_exact(chain(), 0)


class TestMonteCarloEstimators:
    def test_simulate_completion_reports_nan_without_successes(self):
        # A chain that crashes immediately after the first slot.
        model = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.0, p_ur=0.0, p_ud=1.0,
            p_ru=0.0, p_rr=0.0, p_rd=1.0,
            p_du=0.0, p_dr=0.0, p_dd=1.0,
        )
        p_success, mean_slots = simulate_completion_slots(
            model, 5, np.random.default_rng(0), samples=100
        )
        assert p_success == 0.0
        assert np.isnan(mean_slots)

    def test_simulate_completion_w1(self):
        p_success, mean_slots = simulate_completion_slots(
            chain(), 1, np.random.default_rng(0), samples=50
        )
        assert p_success == 1.0
        assert mean_slots == pytest.approx(1.0)

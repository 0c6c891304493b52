"""Tests for the offline toolkit: instances, MCT, exact solver, counterexample."""

import numpy as np
import pytest

from repro.core.offline.counterexample import (
    analyze,
    extended_counterexample,
    paper_counterexample,
)
from repro.core.offline.exact import exact_offline_makespan
from repro.core.offline.instance import OfflineInstance, eliminate_down_states
from repro.core.offline.mct import offline_mct, pipeline_completion_slot
from repro.types import ProcState


def make_instance(rows, *, t_prog=1, t_data=1, speeds=1, ncom=1, m=1):
    return OfflineInstance.from_codes(
        rows, t_prog=t_prog, t_data=t_data, speeds=speeds, ncom=ncom, m=m
    )


class TestOfflineInstance:
    def test_from_codes(self):
        inst = make_instance(["uur", "rdu"])
        assert inst.p == 2
        assert inst.horizon == 3
        assert inst.state(1, 1) == ProcState.DOWN

    def test_pads_reclaimed_beyond_horizon(self):
        inst = make_instance(["uu"])
        assert inst.state(0, 99) == ProcState.RECLAIMED

    def test_heterogeneous_speeds(self):
        inst = make_instance(["uu", "uu"], speeds=[1, 3])
        assert inst.speeds == (1, 3)
        assert not inst.is_homogeneous

    def test_speed_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="speeds"):
            OfflineInstance(
                traces=np.zeros((2, 3), dtype=np.uint8),
                t_prog=1, t_data=1, speeds=(1,), ncom=1, m=1,
            )

    def test_uneven_rows_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            make_instance(["uu", "u"])

    def test_bad_state_values_rejected(self):
        with pytest.raises(ValueError, match="ProcState"):
            OfflineInstance(
                traces=np.array([[0, 7]], dtype=np.uint8),
                t_prog=1, t_data=1, speeds=(1,), ncom=1, m=1,
            )


class TestDownElimination:
    def test_removes_all_down_states(self):
        inst = make_instance(["udu", "ddr"])
        out = eliminate_down_states(inst)
        assert not np.any(out.traces == int(ProcState.DOWN))

    def test_no_down_is_identity_sized(self):
        inst = make_instance(["uru", "rru"])
        out = eliminate_down_states(inst)
        assert out.p == inst.p
        assert np.array_equal(out.traces, inst.traces)

    def test_split_structure(self):
        inst = make_instance(["udu"])
        out = eliminate_down_states(inst)
        assert out.p == 2
        # Before-processor: matches prefix, reclaimed from crash on.
        assert list(out.traces[0]) == [0, 1, 1]
        # After-processor: reclaimed through the crash, then the suffix.
        assert list(out.traces[1]) == [1, 1, 0]

    def test_speeds_duplicated(self):
        inst = make_instance(["udu", "uuu"], speeds=[3, 5])
        out = eliminate_down_states(inst)
        assert out.speeds == (3, 5, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_preserves_optimal_makespan(self, seed):
        # The paper's equivalence claim, checked by brute force on small
        # random instances.
        rng = np.random.default_rng(seed)
        rows = [
            "".join(rng.choice(list("uurd"), size=8)) for _ in range(2)
        ]
        inst = make_instance(rows, t_prog=1, t_data=0, speeds=1, ncom=1, m=2)
        original = exact_offline_makespan(inst).makespan
        transformed = exact_offline_makespan(eliminate_down_states(inst)).makespan
        assert original == transformed


class TestPipelineWalker:
    def test_always_up(self):
        inst = make_instance(["u" * 20], t_prog=3, t_data=2, speeds=2, m=2)
        # prog 0-2, data 3-4, comp 5-6 -> slot 6 for one task.
        assert pipeline_completion_slot(inst, 0, 1) == 6
        # second task: data 5-6 overlapped, comp 7-8 -> slot 8.
        assert pipeline_completion_slot(inst, 0, 2) == 8

    def test_zero_tasks(self):
        inst = make_instance(["u" * 5])
        assert pipeline_completion_slot(inst, 0, 0) == -1

    def test_reclaimed_slots_skipped(self):
        inst = make_instance(["ururu" + "u" * 10], t_prog=1, t_data=1, speeds=1)
        # prog slot 0, data slot 2 (slot 1 reclaimed), comp slot 4.
        assert pipeline_completion_slot(inst, 0, 1) == 4

    def test_zero_t_data(self):
        inst = make_instance(["u" * 10], t_prog=2, t_data=0, speeds=1, m=3)
        # prog 0-1, then one task per slot starting slot 2.
        assert pipeline_completion_slot(inst, 0, 3) == 4

    def test_infeasible_returns_none(self):
        inst = make_instance(["ur"], t_prog=1, t_data=1, speeds=5)
        assert pipeline_completion_slot(inst, 0, 1) is None

    def test_rejects_negative(self):
        inst = make_instance(["u"])
        with pytest.raises(ValueError):
            pipeline_completion_slot(inst, 0, -1)


class TestOfflineMct:
    def test_balances_identical_processors(self):
        inst = make_instance(
            ["u" * 30, "u" * 30], t_prog=1, t_data=1, speeds=1, ncom=None, m=4
        )
        result = offline_mct(inst)
        assert result.assignment == (2, 2)

    def test_prefers_fast_processor_for_single_task(self):
        inst = make_instance(
            ["u" * 30, "u" * 30], t_prog=1, t_data=1, speeds=[5, 1],
            ncom=None, m=1,
        )
        result = offline_mct(inst)
        assert result.assignment == (0, 1)

    def test_infeasible_reports_none(self):
        inst = make_instance(["rr"], t_prog=1, t_data=0, speeds=1, m=1)
        assert offline_mct(inst).makespan is None

    def test_feasible_on_wide_random_instance(self):
        rng = np.random.default_rng(0)
        rows = ["".join(rng.choice(list("uuur"), size=60)) for _ in range(8)]
        inst = OfflineInstance.from_codes(
            rows, t_prog=3, t_data=1,
            speeds=[int(rng.integers(1, 4)) for _ in range(8)], ncom=None, m=12,
        )
        assert offline_mct(inst).makespan is not None

    @pytest.mark.parametrize("seed", range(8))
    def test_proposition2_mct_optimal_without_contention(self, seed):
        # Random small instances with ncom = infinity: MCT's makespan must
        # equal the exhaustive optimum (Proposition 2).
        rng = np.random.default_rng(100 + seed)
        rows = [
            "".join(rng.choice(list("uuur"), size=14)) for _ in range(2)
        ]
        speeds = [int(rng.integers(1, 3)) for _ in range(2)]
        inst = OfflineInstance.from_codes(
            rows, t_prog=int(rng.integers(0, 3)), t_data=int(rng.integers(0, 2)),
            speeds=speeds, ncom=None, m=int(rng.integers(1, 4)),
        )
        mct = offline_mct(inst).makespan
        exact = exact_offline_makespan(inst).makespan
        assert mct == exact

    @pytest.mark.parametrize("seed", range(6))
    def test_mct_relaxation_lower_bounds_contended_optimum(self, seed):
        # offline_mct ignores ncom by design: it optimally solves the
        # relaxed ncom = ∞ problem (Proposition 2), so its makespan can
        # never exceed the exact optimum of the contended instance.
        rng = np.random.default_rng(200 + seed)
        rows = ["".join(rng.choice(list("uur"), size=12)) for _ in range(2)]
        inst = OfflineInstance.from_codes(
            rows, t_prog=1, t_data=1, speeds=1, ncom=1, m=2,
        )
        exact = exact_offline_makespan(inst).makespan
        mct = offline_mct(inst).makespan
        if mct is not None and exact is not None:
            assert mct <= exact


class TestExactSolver:
    def test_single_processor_single_task(self):
        inst = make_instance(["u" * 10], t_prog=1, t_data=1, speeds=2)
        # prog 0, data 1, comp 2-3 -> makespan 4.
        assert exact_offline_makespan(inst).makespan == 4

    def test_channel_sharing_forces_serialisation(self):
        # Two identical processors, ncom=1, Tprog=1, Tdata=0, w=1, m=2:
        # prog P0 slot 0, prog P1 slot 1, P0 computes slot 1, P1 slot 2.
        inst = make_instance(
            ["u" * 10, "u" * 10], t_prog=1, t_data=0, speeds=1, ncom=1, m=2
        )
        assert exact_offline_makespan(inst).makespan == 3

    def test_unbounded_channel_parallelises(self):
        inst = make_instance(
            ["u" * 10, "u" * 10], t_prog=1, t_data=0, speeds=1, ncom=None, m=2
        )
        assert exact_offline_makespan(inst).makespan == 2

    def test_infeasible(self):
        inst = make_instance(["rrr"], t_prog=1, t_data=0, speeds=1)
        assert exact_offline_makespan(inst).makespan is None

    def test_waiting_can_beat_greedy(self):
        # The paper's counterexample needs the solver to idle the channel.
        result = exact_offline_makespan(paper_counterexample())
        assert result.makespan == 9

    def test_allow_abandon_never_hurts(self):
        inst = paper_counterexample()
        plain = exact_offline_makespan(inst).makespan
        with_abandon = exact_offline_makespan(inst, allow_abandon=True).makespan
        assert with_abandon <= plain

    def test_state_limit_guard(self):
        inst = make_instance(
            ["u" * 12] * 4, t_prog=3, t_data=2, speeds=3, ncom=2, m=4
        )
        with pytest.raises(MemoryError):
            exact_offline_makespan(inst, state_limit=10)

    def test_down_wipes_pipeline(self):
        # Program received slots 0-1, crash at 2 wipes it; resend 3-4,
        # data 5, compute 6 -> makespan 7.
        inst = make_instance(
            ["uud" + "u" * 10], t_prog=2, t_data=1, speeds=1
        )
        assert exact_offline_makespan(inst).makespan == 7


class TestCounterexample:
    def test_paper_instance_parameters(self):
        inst = paper_counterexample()
        assert inst.p == 2
        assert inst.t_prog == 2 and inst.t_data == 2
        assert inst.speeds == (2, 2)
        assert inst.ncom == 1 and inst.m == 2
        assert inst.horizon == 9

    def test_analysis_reproduces_paper(self):
        result = analyze()
        assert result.optimal_makespan == 9
        assert result.mct_online_makespan > 9
        assert result.mct_first_choice_processor == 0  # P1 in paper indexing

    def test_extended_instance_longer(self):
        assert extended_counterexample(4).horizon == 13

    def test_extended_rejects_negative(self):
        with pytest.raises(ValueError):
            extended_counterexample(-1)

    def test_optimal_unchanged_by_extension(self):
        # Extra trailing UP slots cannot improve on 9.
        result = exact_offline_makespan(extended_counterexample(6))
        assert result.makespan == 9

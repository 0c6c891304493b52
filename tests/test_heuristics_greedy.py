"""Tests for the greedy heuristics (MCT/EMCT/LW/UD) and the placement loop."""

import numpy as np
import pytest

from repro.core.expectation import (
    expected_next_up,
    p_no_down_approx,
    p_plus,
)
from repro.core.heuristics.base import (
    ProcessorView,
    SchedulingContext,
    completion_time_estimate,
)
from repro.core.heuristics.lw import LwScheduler
from repro.core.heuristics.mct import EmctScheduler, MctScheduler
from repro.core.heuristics.passive import PassiveScheduler
from repro.core.heuristics.registry import (
    GREEDY_HEURISTICS,
    PAPER_HEURISTICS,
    TABLE2_ORDER,
    available_heuristics,
    make_scheduler,
)
from repro.core.heuristics.ud import UdScheduler
from repro.core.markov import MarkovAvailabilityModel
from repro.sim.platform import Platform, Processor
from repro.types import ProcState


def chain(p_uu=0.95, p_rr=0.9, p_dd=0.9):
    return MarkovAvailabilityModel.from_self_loops(p_uu, p_rr, p_dd)


def view(index, *, speed=2, state=ProcState.UP, belief=None, delay=0,
         pinned=0, has_program=False):
    return ProcessorView(
        index=index, speed_w=speed, state=state,
        belief=belief if belief is not None else chain(),
        has_program=has_program, delay=delay, pinned_count=pinned,
    )


def context(views, *, t_data=1, ncom=5, seed=0):
    return SchedulingContext(
        slot=0, t_prog=5, t_data=t_data, ncom=ncom, processors=views,
        remaining_tasks=1, rng=np.random.default_rng(seed),
    )


class TestCompletionTimeEstimate:
    def test_equation_one_first_task(self):
        v = view(0, speed=3, delay=4)
        # CT = Delay + Tdata + 0 + w.
        assert completion_time_estimate(v, 1, t_data=2) == 4 + 2 + 3

    def test_equation_one_queued_tasks(self):
        v = view(0, speed=3, delay=0)
        # nq = 3: Delay + Tdata + 2·max(Tdata, w) + w = 0 + 2 + 6 + 3.
        assert completion_time_estimate(v, 3, t_data=2) == 11

    def test_comm_dominated_pipeline(self):
        v = view(0, speed=1, delay=0)
        # max(Tdata, w) = Tdata = 4: CT = 4 + 2·4 + 1 = 13.
        assert completion_time_estimate(v, 3, t_data=4) == 13

    def test_equation_two_contention_factor(self):
        v = view(0, speed=3, delay=0)
        # factor 2 doubles Tdata everywhere it appears.
        assert completion_time_estimate(v, 2, t_data=2, contention_factor=2) == (
            0 + 4 + max(4, 3) + 3
        )

    def test_rejects_nq_zero(self):
        with pytest.raises(ValueError):
            completion_time_estimate(view(0), 0, t_data=1)


class TestMct:
    def test_prefers_fast_idle_processor(self):
        fast = view(0, speed=1)
        slow = view(1, speed=9)
        assert MctScheduler().place(context([fast, slow]), 1) == [0]

    def test_delay_can_outweigh_speed(self):
        busy_fast = view(0, speed=1, delay=20, pinned=1)
        free_slow = view(1, speed=5)
        assert MctScheduler().place(context([busy_fast, free_slow]), 1) == [1]

    def test_spreads_load_across_equal_processors(self):
        views = [view(q, speed=2) for q in range(3)]
        placements = MctScheduler().place(context(views), 3)
        assert sorted(placements) == [0, 1, 2]

    def test_tie_breaks_to_lower_index(self):
        views = [view(q, speed=2) for q in range(3)]
        assert MctScheduler().place(context(views), 1) == [0]

    def test_contention_variant_inflates_t_data(self):
        # Two processors, ncom=1: enrolling the second processor doubles
        # the correcting factor, making queueing on the first win when
        # communication dominates.
        a = view(0, speed=1)
        b = view(1, speed=1)
        ctx = context([a, b], t_data=10, ncom=1)
        placements = MctScheduler(contention=True).place(ctx, 2)
        plain = MctScheduler().place(context([a, b], t_data=10, ncom=1), 2)
        # Plain MCT spreads; MCT* piles onto P0 because a second active
        # processor would double every transfer.
        assert plain == [0, 1]
        assert placements == [0, 0]

    def test_names(self):
        assert MctScheduler().name == "mct"
        assert MctScheduler(contention=True).name == "mct*"


class TestEmct:
    def test_matches_mct_for_reliable_chains(self):
        # Nearly-always-UP chains: expectation ≈ CT, same decision as MCT.
        reliable = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.9999, p_ur=0.00005, p_ud=0.00005,
            p_ru=0.5, p_rr=0.4, p_rd=0.1,
            p_du=0.5, p_dr=0.25, p_dd=0.25,
        )
        views = [view(q, speed=s, belief=reliable) for q, s in enumerate([3, 7, 5])]
        assert EmctScheduler().place(context(views), 1) == MctScheduler().place(
            context(views), 1
        )

    def test_penalises_flaky_fast_processor(self):
        # Fast but frequently reclaimed vs slightly slower but solid.
        flaky = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.5, p_ur=0.45, p_ud=0.05,
            p_ru=0.05, p_rr=0.90, p_rd=0.05,
            p_du=0.5, p_dr=0.25, p_dd=0.25,
        )
        solid = chain(p_uu=0.99)
        views = [view(0, speed=4, belief=flaky), view(1, speed=6, belief=solid)]
        assert MctScheduler().place(context(views), 1) == [0]
        assert EmctScheduler().place(context(views), 1) == [1]

    def test_score_is_theorem2_expectation(self):
        v = view(0, speed=3, delay=2)
        sched = EmctScheduler()
        ct = completion_time_estimate(v, 1, t_data=1)
        expected = 1 + (ct - 1) * expected_next_up(v.belief)
        assert sched.score(context([v]), v, 1, 1) == pytest.approx(expected)

    def test_requires_belief(self):
        v = ProcessorView(index=0, speed_w=1, state=ProcState.UP, belief=None,
                          has_program=False, delay=0, pinned_count=0)
        with pytest.raises(ValueError, match="no Markov belief"):
            EmctScheduler().place(context([v]), 1)

    def test_names(self):
        assert EmctScheduler().name == "emct"
        assert EmctScheduler(contention=True).name == "emct*"


class TestLw:
    def test_score_is_p_plus_power(self):
        v = view(0, speed=3, delay=1)
        sched = LwScheduler()
        ct = completion_time_estimate(v, 1, t_data=1)
        assert sched.score(context([v]), v, 1, 1) == pytest.approx(
            p_plus(v.belief) ** ct
        )

    def test_prefers_crash_resistant_processor(self):
        crashy = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.85, p_ur=0.05, p_ud=0.10,
            p_ru=0.3, p_rr=0.6, p_rd=0.1,
            p_du=0.5, p_dr=0.25, p_dd=0.25,
        )
        safe = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.85, p_ur=0.149, p_ud=0.001,
            p_ru=0.3, p_rr=0.6, p_rd=0.1,
            p_du=0.5, p_dr=0.25, p_dd=0.25,
        )
        views = [view(0, belief=crashy), view(1, belief=safe)]
        assert LwScheduler().place(context(views), 1) == [1]

    def test_names(self):
        assert LwScheduler().name == "lw"
        assert LwScheduler(contention=True).name == "lw*"


class TestUd:
    def test_score_is_pud_of_expected_slots(self):
        v = view(0, speed=3, delay=1)
        sched = UdScheduler()
        ct = completion_time_estimate(v, 1, t_data=1)
        k = 1 + (ct - 1) * expected_next_up(v.belief)
        assert sched.score(context([v]), v, 1, 1) == pytest.approx(
            p_no_down_approx(v.belief, k)
        )

    def test_exact_variant_uses_matrix_power(self):
        v = view(0, speed=3, delay=1)
        approx = UdScheduler().score(context([v]), v, 1, 1)
        exact = UdScheduler(exact=True).score(context([v]), v, 1, 1)
        assert approx != pytest.approx(exact, abs=1e-12) or approx == exact

    def test_prefers_crash_resistant_processor(self):
        crashy = MarkovAvailabilityModel.from_self_loops(0.90, 0.9, 0.9)
        safe = MarkovAvailabilityModel.from_probabilities(
            p_uu=0.90, p_ur=0.099, p_ud=0.001,
            p_ru=0.05, p_rr=0.9, p_rd=0.05,
            p_du=0.05, p_dr=0.05, p_dd=0.9,
        )
        views = [view(0, belief=crashy), view(1, belief=safe)]
        assert UdScheduler().place(context(views), 1) == [1]

    def test_names(self):
        assert UdScheduler().name == "ud"
        assert UdScheduler(contention=True).name == "ud*"
        assert UdScheduler(exact=True).name == "ud-exact"


class TestHeapPlacementEquivalence:
    """The lazy-heap place() must match the naive one-by-one reference."""

    @staticmethod
    def reference_place(scheduler, ctx, n_tasks):
        candidates = [v for v in ctx.processors if v.is_up]
        placements = []
        nq = {v.index: 0 for v in candidates}
        n_active = sum(1 for v in candidates if v.pinned_count > 0)
        for _ in range(n_tasks):
            if not candidates:
                placements.append(None)
                continue
            best, best_score = None, None
            for v in candidates:
                spec = n_active + (1 if nq[v.index] == 0 and v.pinned_count == 0 else 0)
                factor = scheduler.contention_factor(ctx, spec)
                s = scheduler.score(ctx, v, nq[v.index] + 1, factor)
                better = (
                    best is None
                    or (scheduler.maximize and s > best_score)
                    or (not scheduler.maximize and s < best_score)
                )
                if better:
                    best, best_score = v.index, s
            if nq[best] == 0:
                v = next(x for x in candidates if x.index == best)
                if v.pinned_count == 0:
                    n_active += 1
            nq[best] += 1
            placements.append(best)
        return placements

    @pytest.mark.parametrize("name", GREEDY_HEURISTICS)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference(self, name, seed):
        rng = np.random.default_rng(seed)
        views = []
        for q in range(8):
            belief = MarkovAvailabilityModel.from_self_loops(
                *rng.uniform(0.85, 0.99, size=3)
            )
            views.append(
                view(
                    q,
                    speed=int(rng.integers(1, 10)),
                    belief=belief,
                    delay=int(rng.integers(0, 12)),
                    pinned=int(rng.integers(0, 2)),
                )
            )
        ctx = context(views, t_data=int(rng.integers(1, 6)), ncom=2)
        sched_a = make_scheduler(name)
        sched_b = make_scheduler(name)
        n_tasks = int(rng.integers(1, 15))
        assert sched_a.place(ctx, n_tasks) == self.reference_place(
            sched_b, ctx, n_tasks
        )


class TestZeroTaskPlacement:
    """A placement of no tasks scores no candidate: for ``clairvoyant``
    every score is a ground-truth trace walk."""

    @pytest.mark.parametrize("name", ["clairvoyant", "ud-exact"])
    def test_place_zero_tasks_scores_nothing(self, name, monkeypatch):
        views = [view(q, speed=q + 1) for q in range(6)]
        platform = Platform(
            [Processor.from_trace(q, q + 1, [0] * 50) for q in range(6)],
            ncom=2,
        )
        scheduler = make_scheduler(name, platform=platform)
        calls = []
        score = scheduler.score

        def counting_score(*args):
            calls.append(args)
            return score(*args)

        monkeypatch.setattr(scheduler, "score", counting_score)
        ctx = context(views)
        assert scheduler.place(ctx, 0) == []
        assert calls == []
        assert len(scheduler.place(ctx, 1)) == 1
        assert calls  # the counter does see a real placement's scores


class TestPassive:
    def test_sticks_to_choice_until_down(self):
        views = [view(0, speed=1), view(1, speed=9)]
        sched = PassiveScheduler()
        first = sched.place(context(views), 2)
        # Later a better processor appears but nothing went DOWN: sticky.
        better = [view(0, speed=1, delay=50, pinned=1), view(1, speed=9)]
        second = sched.place(context(better), 2)
        assert second == first

    def test_replaces_down_processor(self):
        views = [view(0, speed=1), view(1, speed=9)]
        sched = PassiveScheduler()
        first = sched.place(context(views), 1)
        assert first == [0]
        down = [view(0, speed=1, state=ProcState.DOWN), view(1, speed=9)]
        second = sched.place(context(down), 1)
        assert second == [1]

    def test_replica_batches_use_inner(self):
        views = [view(0), view(1)]
        sched = PassiveScheduler()
        placements = sched.place(context(views), 1, allowed=[1])
        assert placements == [1]

    def test_reset(self):
        sched = PassiveScheduler()
        sched.place(context([view(0)]), 1)
        sched.reset()
        assert sched._memory == []


class TestRegistry:
    def test_all_paper_heuristics_present(self):
        assert len(PAPER_HEURISTICS) == 17
        for name in PAPER_HEURISTICS:
            assert make_scheduler(name).name == name

    def test_table2_order_is_a_permutation(self):
        assert sorted(TABLE2_ORDER) == sorted(PAPER_HEURISTICS)

    def test_greedy_subset(self):
        assert set(GREEDY_HEURISTICS) <= set(PAPER_HEURISTICS)
        assert len(GREEDY_HEURISTICS) == 8

    def test_unknown_name_raises_with_candidates(self):
        with pytest.raises(KeyError, match="known heuristics"):
            make_scheduler("quantum")

    def test_factories_return_fresh_instances(self):
        assert make_scheduler("emct") is not make_scheduler("emct")

    def test_available_sorted(self):
        names = available_heuristics()
        assert names == sorted(names)
        assert "passive" in names

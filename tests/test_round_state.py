"""Unit tests for the array-backed RoundState and the batch contract.

Covers the structure-of-arrays context itself (columns, belief caches,
candidate selection, lazy shim), the bit-identity of the row and
re-score kernels (``_score_ct_row`` / ``_score_ct_one``) against the
legacy scalar ``score``, per-round cache staleness across refreshes, and
the determinism fix for ``SchedulingContext.rng``.  End-to-end simulator
equivalence lives in ``tests/test_reference_equivalence.py``.
"""

import math

import numpy as np
import pytest

from repro.core.expectation import expected_next_up, p_plus
from repro.core.heuristics.base import (
    _VECTOR_MIN_P,
    ProcessorView,
    RoundState,
    Scheduler,
    SchedulingContext,
)
from repro.core.heuristics.lw import LwScheduler
from repro.core.heuristics.mct import EmctScheduler, MctScheduler
from repro.core.heuristics.passive import PassiveScheduler
from repro.core.heuristics.registry import HEURISTIC_FACTORIES, make_scheduler
from repro.core.heuristics.ud import UdScheduler
from repro.core.markov import MarkovAvailabilityModel, paper_random_model
from repro.types import ProcState


def random_views(rng, p=8, with_belief=True, t_data=3):
    """Index-ordered random ProcessorViews resembling mid-run snapshots."""
    views = []
    for q in range(p):
        state = ProcState(int(rng.integers(0, 3)))
        pinned = int(rng.integers(0, 3))
        prog_remaining = int(rng.integers(0, 4))
        pipeline = tuple(
            (int(rng.integers(0, t_data + 1)), int(rng.integers(1, 6)), bool(rng.integers(0, 2)))
            for _ in range(pinned)
        )
        views.append(
            ProcessorView(
                index=q,
                speed_w=int(rng.integers(1, 9)),
                state=state,
                belief=paper_random_model(rng) if with_belief else None,
                has_program=prog_remaining == 0,
                delay=int(rng.integers(0, 40)),
                pinned_count=pinned,
                prog_remaining=prog_remaining,
                pinned_pipeline=pipeline,
            )
        )
    return views


def round_state_from(views, *, seed=5, t_data=3, ncom=4, remaining=6):
    """A RoundState whose columns hold the given index-ordered views."""
    pipelines = [tuple(view.pinned_pipeline) for view in views]
    rs = RoundState(
        speed_w=[view.speed_w for view in views],
        beliefs=[view.belief for view in views],
        t_prog=5,
        t_data=t_data,
        ncom=ncom,
        rng=np.random.default_rng(seed),
        pipeline_provider=lambda q: pipelines[q],
        slot=17,
        remaining_tasks=remaining,
    )
    for q, view in enumerate(views):
        assert view.index == q, "views must be index-ordered and complete"
        rs.state[q] = int(view.state)
        rs.delay[q] = view.delay
        rs.pinned_count[q] = view.pinned_count
        rs.has_program[q] = view.has_program
        rs.prog_remaining[q] = view.prog_remaining
    return rs


def mask_of(p, indices):
    """The length-``p`` boolean ``allowed`` mask ``place_array`` takes."""
    mask = np.zeros(p, dtype=bool)
    mask[list(indices)] = True
    return mask


#: The paper's nine random heuristics (Section 6.2).
RANDOM_NAMES = ["random"] + [
    f"random{variant}{suffix}" for variant in (1, 2, 3, 4) for suffix in ("", "w")
]

#: The eight CT-based greedy heuristics (MCT/EMCT/LW/UD and their ``*``).
CT_NAMES = ["mct", "mct*", "emct", "emct*", "lw", "lw*", "ud", "ud*"]


class TestRoundStateContainer:
    def test_columns_mirror_views(self):
        views = random_views(np.random.default_rng(0))
        rs = round_state_from(views)
        for q, view in enumerate(views):
            assert rs.speed_w[q] == view.speed_w
            assert rs.state[q] == int(view.state)
            assert rs.delay[q] == view.delay
            assert rs.pinned_count[q] == view.pinned_count
            assert bool(rs.has_program[q]) == view.has_program
            assert rs.prog_remaining[q] == view.prog_remaining

    def test_up_candidates_match_legacy_filter(self):
        views = random_views(np.random.default_rng(2), p=12)
        rs = round_state_from(views)
        expected = [v.index for v in views if v.state == ProcState.UP]
        assert rs.up_candidates().tolist() == expected
        allowed = [1, 3, 5, 7, 9, 11]
        assert rs.up_candidates(mask_of(12, allowed)).tolist() == [
            q for q in expected if q in allowed
        ]

    def test_belief_columns_match_scalar_functions(self):
        views = random_views(np.random.default_rng(3))
        rs = round_state_from(views)
        for q, view in enumerate(views):
            model = view.belief
            assert rs.belief_column("p_uu")[q] == model.p_uu
            assert rs.belief_column("p_plus")[q] == p_plus(model)
            assert rs.belief_column("pi_u")[q] == model.pi_u
            assert rs.belief_column("pi_d")[q] == model.pi_d
            assert rs.belief_column("e_up")[q] == expected_next_up(model)
            assert rs.belief_column("ud_base")[q] == 1.0 - model.p_ud

    def test_unknown_belief_column_rejected(self):
        rs = round_state_from(random_views(np.random.default_rng(4)))
        with pytest.raises(KeyError, match="unknown belief column"):
            rs.belief_column("nope")

    def test_missing_belief_raises_legacy_error(self):
        views = random_views(np.random.default_rng(5), with_belief=False)
        rs = round_state_from(views)
        assert np.isnan(rs.belief_column("e_up")).all()
        with pytest.raises(ValueError, match="processor 0 has no Markov belief"):
            rs.require_beliefs(np.arange(len(views)), "EMCT needs one")


class TestLazyShim:
    def test_lazy_views_equal_eager_views(self):
        views = random_views(np.random.default_rng(6))
        rs = round_state_from(views)
        ctx = rs.as_context()
        assert len(ctx.processors) == len(views)
        for q, view in enumerate(views):
            assert ctx.processors[q] == view
        assert list(ctx.processors) == views
        assert ctx.processors[-1] == views[-1]
        assert ctx.processors[2:4] == views[2:4]

    def test_context_scalars(self):
        rs = round_state_from(random_views(np.random.default_rng(7)))
        ctx = rs.as_context()
        assert (ctx.slot, ctx.t_prog, ctx.t_data, ctx.ncom) == (17, 5, 3, 4)
        assert ctx.remaining_tasks == 6
        assert ctx.rng is rs.rng
        assert rs.as_context() is ctx  # cached until invalidate
        rs.invalidate()
        assert rs.as_context() is not ctx

    def test_view_cache_invalidated(self):
        rs = round_state_from(random_views(np.random.default_rng(8)))
        before = rs.view(0)
        rs.delay[0] += 11
        rs.invalidate()
        after = rs.view(0)
        assert after.delay == before.delay + 11


class TestBatchScalarBitIdentity:
    """_score_ct_row == _score_ct_one == legacy score, bit for bit."""

    # Factories, not instances: these schedulers cache per-processor belief
    # quantities keyed by index, so instances must not be shared between
    # (randomly generated) platforms — the registry contract.
    HEURISTICS = [
        lambda: MctScheduler(contention=False),
        lambda: MctScheduler(contention=True),
        lambda: EmctScheduler(contention=False),
        lambda: EmctScheduler(contention=True),
        lambda: LwScheduler(contention=False),
        lambda: LwScheduler(contention=True),
        lambda: UdScheduler(contention=False),
        lambda: UdScheduler(contention=True),
    ]

    @pytest.mark.parametrize("factory", HEURISTICS, ids=lambda f: f().name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_way_identity(self, factory, seed, p=10):
        sched = factory()
        rng = np.random.default_rng(100 + seed)
        views = random_views(rng, p=p)
        for view in views:
            view.state = ProcState.UP  # the kernels cover the UP set
        beliefless = 3
        views[beliefless].belief = None
        rs = round_state_from(views)
        ctx = rs.as_context()
        cache = sched._round_setup(rs)
        assert cache["up_list"] == list(range(len(views)))
        needs_belief = sched._belief_needs is not None
        large = p >= _VECTOR_MIN_P
        for nq_plus_one in (1, 2, 5):
            for factor in (1, 2, 3):
                base, step = sched._ct_bases(rs, cache, factor)
                # The form each side of the split hands the row kernel.
                assert isinstance(base, np.ndarray) == large
                if large:
                    ct_row = base + (nq_plus_one - 1) * step
                else:
                    ct_row = [b + (nq_plus_one - 1) * s for b, s in zip(base, step)]
                row = sched._score_ct_row(rs, cache, ct_row)
                for i, q in enumerate(cache["up_list"]):
                    one = sched._score_ct_one(rs, cache, int(ct_row[i]), i)
                    where = f"{sched.name}: q={q} nq+1={nq_plus_one} f={factor}"
                    if q == beliefless and needs_belief:
                        assert math.isnan(row[i]) and math.isnan(one), where
                        with pytest.raises(ValueError, match="no Markov belief"):
                            sched.score(ctx, views[q], nq_plus_one, factor)
                        continue
                    legacy = sched.score(ctx, views[q], nq_plus_one, factor)
                    assert row[i] == one == legacy, where

    @pytest.mark.parametrize("factory", HEURISTICS, ids=lambda f: f().name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_way_identity_numpy_assembly(self, factory, seed):
        """The same from ``_VECTOR_MIN_P`` processors up, where the
        per-round cache gathers CT bases and beliefs with numpy and the
        rows stay int64 / float64 arrays."""
        self.test_three_way_identity(factory, seed, p=_VECTOR_MIN_P + 2)

    @pytest.mark.parametrize("factory", HEURISTICS, ids=lambda f: f().name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_way_identity_numpy_assembly_p2000(self, factory, seed):
        self.test_three_way_identity(factory, seed, p=2000)

    @pytest.mark.parametrize("factory", HEURISTICS, ids=lambda f: f().name)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p", [_VECTOR_MIN_P + 2, 2000])
    def test_row_keys_equal_scalar_rescores(self, factory, seed, p):
        """The large-p argmin keys (``_row0_keys``, built from the array
        row) equal the signed scalar re-scores byte for byte, the
        belief-less candidate's NaN included — so a row kernel scored with
        numpy picks exactly what the per-element kernel would."""
        sched = factory()
        views = random_views(np.random.default_rng(200 + seed), p=p)
        for view in views:
            view.state = ProcState.UP
        beliefless = 3
        views[beliefless].belief = None
        rs = round_state_from(views)
        ctx = rs.as_context()
        cache = sched._round_setup(rs)
        sign = -1.0 if sched.maximize else 1.0
        needs_belief = sched._belief_needs is not None
        for factor in (1, 2, 3):
            keys, has_nan = sched._row0_keys(rs, cache, factor)
            base, _step = sched._ct_bases(rs, cache, factor)
            ones = [
                sched._score_ct_one(rs, cache, ct, i)
                for i, ct in enumerate(base.tolist())
            ]
            assert keys.tobytes() == (sign * np.asarray(ones)).tobytes()
            assert has_nan == needs_belief
            assert math.isnan(keys[beliefless]) == needs_belief
        if needs_belief:
            with pytest.raises(ValueError, match="no Markov belief"):
                sched.score(ctx, views[beliefless], 1, 1)
            with pytest.raises(
                ValueError, match=f"processor {beliefless} has no Markov belief"
            ):
                sched.place_array(rs, 2)


#: A platform size on each side of the list/numpy split: below
#: ``_VECTOR_MIN_P`` single placements run the fused scan and batches the
#: heap; from it up, uniform-factor calls run the masked argmin loop.
LARGE_P = _VECTOR_MIN_P + 5


def p_sizes(small):
    return pytest.mark.parametrize("p", [small, LARGE_P], ids=["small", "large"])


class TestPlaceArrayAgainstLegacyPlace:
    """place_array == place over randomized standalone round states.

    The array side takes ``allowed`` as a boolean mask, the scalar side as
    an index list — the forms the master and the reference pass."""

    NAMES = [
        "mct", "mct*", "emct", "emct*", "lw", "lw*", "ud", "ud*",
        "ud-exact", "ud*-exact", *RANDOM_NAMES, "passive",
    ]

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("seed", [0, 1])
    @p_sizes(9)
    def test_same_placements(self, name, seed, p):
        rng = np.random.default_rng(300 + seed)
        views = random_views(rng, p=p)
        n_tasks = int(rng.integers(1, 12))
        # Two independent but identically seeded draw streams so the
        # random heuristics consume identical randomness on both paths.
        rs = round_state_from(views, seed=42)
        legacy_ctx = round_state_from(views, seed=42).as_context()
        array_path = make_scheduler(name).place_array(rs, n_tasks)
        legacy_path = make_scheduler(name).place(legacy_ctx, n_tasks)
        assert array_path == legacy_path

    @pytest.mark.parametrize(
        "name", ["mct", "mct*", "emct*", "lw*", "ud*", "random2w", "passive"]
    )
    @pytest.mark.parametrize("n_tasks", [1, 4])
    @p_sizes(9)
    def test_same_placements_restricted(self, name, n_tasks, p):
        rng = np.random.default_rng(77)
        views = random_views(rng, p=p)
        allowed = list(range(0, p, 2))
        rs = round_state_from(views, seed=13)
        legacy_ctx = round_state_from(views, seed=13).as_context()
        assert make_scheduler(name).place_array(
            rs, n_tasks, mask_of(p, allowed)
        ) == make_scheduler(name).place(legacy_ctx, n_tasks, allowed)

    def test_no_up_candidates(self):
        views = random_views(np.random.default_rng(11))
        for view in views:
            view.state = ProcState.DOWN
        rs = round_state_from(views)
        assert make_scheduler("emct").place_array(rs, 3) == [None, None, None]

    @pytest.mark.parametrize("name", ["emct", "emct*", "lw", "ud", "random2w"])
    @p_sizes(6)
    def test_beliefless_processor_outside_candidates_is_tolerated(self, name, p):
        """Belief checks are candidate-scoped, exactly like the scalar
        loop: a belief-less UP processor outside ``allowed`` must not
        raise, and placements must still match the legacy path."""
        views = random_views(np.random.default_rng(12), p=p)
        views[2].belief = None  # UP but excluded from every call below
        for view in views:
            view.state = ProcState.UP
        allowed = [q for q in range(p) if q != 2]
        rs = round_state_from(views, seed=9)
        legacy_ctx = round_state_from(views, seed=9).as_context()
        for n_tasks in (1, 4):
            assert make_scheduler(name).place_array(
                rs, n_tasks, mask_of(p, allowed)
            ) == make_scheduler(name).place(legacy_ctx, n_tasks, allowed)

    @pytest.mark.parametrize("name", ["emct", "lw", "ud", "random2w"])
    @p_sizes(4)
    def test_beliefless_candidate_raises_like_legacy(self, name, p):
        views = random_views(np.random.default_rng(13), p=p)
        views[1].belief = None
        for view in views:
            view.state = ProcState.UP
        rs = round_state_from(views, seed=9)
        legacy_ctx = round_state_from(views, seed=9).as_context()
        with pytest.raises(ValueError, match="processor 1 has no Markov belief"):
            make_scheduler(name).place(legacy_ctx, 2)
        with pytest.raises(ValueError, match="processor 1 has no Markov belief"):
            make_scheduler(name).place_array(rs, 2)
        # A single placement must raise identically.
        with pytest.raises(ValueError, match="processor 1 has no Markov belief"):
            make_scheduler(name).place_array(rs, 1, allowed=mask_of(p, [1, 2]))


class TestRandomArrayPath:
    """The random family's array path (per-run weight vector, per-round UP
    list, one batched draw per call) against the scalar ``place`` loop."""

    @pytest.mark.parametrize("name", RANDOM_NAMES)
    def test_boolean_mask_allowed(self, name):
        """Calendar-path replication passes a boolean eligibility mask."""
        views = random_views(np.random.default_rng(31), p=12)
        mask = np.zeros(12, dtype=bool)
        mask[[0, 1, 3, 5, 6, 8, 9, 11]] = True
        rs = round_state_from(views, seed=17)
        legacy_ctx = round_state_from(views, seed=17).as_context()
        array_sched, legacy_sched = make_scheduler(name), make_scheduler(name)
        for n_tasks in (1, 1, 5):
            assert array_sched.place_array(rs, n_tasks, mask) == legacy_sched.place(
                legacy_ctx, n_tasks, np.flatnonzero(mask).tolist()
            )

    @pytest.mark.parametrize("name", RANDOM_NAMES + CT_NAMES + ["ud-exact"])
    def test_state_change_between_calls(self, name):
        """A round boundary (column rewrite + invalidate) must rebuild every
        per-round cache — UP list, CT bases, score rows — and a new
        RoundState must rebuild the random family's weight vector."""
        rng = np.random.default_rng(32)
        views = random_views(rng, p=10)
        rs = round_state_from(views, seed=3)
        legacy_rs = round_state_from(views, seed=3)
        array_sched, legacy_sched = make_scheduler(name), make_scheduler(name)

        def same(state_rs, legacy_state_rs, n_tasks):
            placed = array_sched.place_array(state_rs, n_tasks)
            assert placed == legacy_sched.place(legacy_state_rs.as_context(), n_tasks)
            return placed

        picked = same(rs, legacy_rs, 6)
        same(rs, legacy_rs, 1)
        # Every processor picked so far goes DOWN and the rest come UP, so
        # a cache that outlived the refresh would pick a DOWN processor.
        new_state = np.full(10, int(ProcState.UP), dtype=np.uint8)
        new_state[[q for q in picked if q is not None]] = int(ProcState.DOWN)
        new_delay = rng.integers(0, 40, size=10)
        new_pinned = rng.integers(0, 3, size=10)
        for target in (rs, legacy_rs):
            target.state[:] = new_state
            target.delay[:] = new_delay
            target.pinned_count[:] = new_pinned
            target.invalidate()
        up = int(ProcState.UP)
        assert rs.up_candidates().tolist() == np.nonzero(new_state == up)[0].tolist()
        same(rs, legacy_rs, 6)
        same(rs, legacy_rs, 1)
        # A different run (other beliefs and speeds).  The CT heuristics'
        # scalar ``score`` caches belief quantities by processor index, so
        # by the registry contract they get fresh instances on both sides.
        if name not in RANDOM_NAMES:
            array_sched, legacy_sched = make_scheduler(name), make_scheduler(name)
        other = random_views(np.random.default_rng(33), p=10)
        same(round_state_from(other, seed=4), round_state_from(other, seed=4), 6)

    @pytest.mark.parametrize("name", ["random1", "random1w"])
    def test_all_zero_weights_fall_back_to_uniform(self, name):
        views = random_views(np.random.default_rng(34), p=7)
        for view in views:
            view.state = ProcState.UP
            view.belief = MarkovAvailabilityModel.from_self_loops(0.0, 0.5, 0.5)
        rs = round_state_from(views, seed=8)
        legacy_ctx = round_state_from(views, seed=8).as_context()
        array_path = make_scheduler(name).place_array(rs, 9)
        assert array_path == make_scheduler(name).place(legacy_ctx, 9)
        assert all(pick is not None for pick in array_path)

    @pytest.mark.parametrize("name", RANDOM_NAMES)
    def test_zero_tasks_consume_no_draw(self, name):
        views = random_views(np.random.default_rng(35), p=8)
        for view in views:
            view.state = ProcState.UP
        rs = round_state_from(views, seed=6)
        before = rs.rng.bit_generator.state
        assert make_scheduler(name).place_array(rs, 0) == []
        assert rs.rng.bit_generator.state == before

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_batched_draws_equal_scalar_draws(self, n):
        """The array path relies on ``rng.random(n)`` being the same stream
        as ``n`` scalar ``rng.random()`` calls."""
        batched, scalar = np.random.default_rng(99), np.random.default_rng(99)
        assert batched.random(n).tolist() == [scalar.random() for _ in range(n)]
        assert batched.bit_generator.state == scalar.bit_generator.state


class TestSchedulingContextRngDefault:
    """The determinism fix: the default rng is the seeded scheduler stream."""

    def _context(self):
        return SchedulingContext(
            slot=0,
            t_prog=2,
            t_data=1,
            ncom=2,
            processors=random_views(np.random.default_rng(21), p=4),
            remaining_tasks=2,
        )

    def test_default_rng_is_reproducible(self):
        a, b = self._context(), self._context()
        assert a.rng is not b.rng  # independent objects...
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]  # ...same seeded stream

    def test_default_rng_matches_simulator_fallback(self):
        from repro.rng import default_scheduler_rng

        assert self._context().rng.random() == default_scheduler_rng().random()


def replica_loop(sched, rs, n_tasks, allowed):
    """The replication loop ``place_distinct`` replaces: one single
    placement per task, each choice that is not refused (``None`` or
    DOWN) taken off the mask, until the mask is empty."""
    mask = allowed.copy()
    n_free = int(np.count_nonzero(mask))
    choices = []
    for _ in range(n_tasks):
        if n_free == 0:
            break
        choice = sched.place_array(rs, 1, mask)[0]
        choices.append(choice)
        if choice is not None and rs.state[choice] != int(ProcState.DOWN):
            mask[choice] = False
            n_free -= 1
    return choices


def place_distinct_call(sched, rs, n_tasks, allowed):
    return sched.place_distinct(rs, n_tasks, allowed)


class _PlaceArrayOnly(Scheduler):
    """An external scheduler that overrides only ``place_array`` (the
    shape of the equivalence suite's shim probe): its replicas run the
    base ``place_distinct`` loop through the wrapped heuristic."""

    def __init__(self, inner):
        self._inner = inner
        self.name = f"place-array-only({inner.name})"

    def place_array(self, rs, n_tasks, allowed=None):
        return self._inner.place_array(rs, n_tasks, allowed)

    def select(self, ctx, candidates, nq, n_active):  # pragma: no cover
        raise NotImplementedError("overrides place_array")


def _distinct_factory(name):
    if name == "place-array-only":
        return lambda: _PlaceArrayOnly(make_scheduler("emct*"))
    if name == "passive(mct)":
        return lambda: PassiveScheduler(MctScheduler())
    return lambda: make_scheduler(name)


DISTINCT_NAMES = sorted(HEURISTIC_FACTORIES) + ["passive(mct)", "place-array-only"]


class TestPlaceDistinct:
    """place_distinct == the loop of single placements it replaces: same
    choices, same RNG state afterwards."""

    @staticmethod
    def _platform(p, seed, tied):
        rng = np.random.default_rng(900 + seed)
        views = random_views(rng, p=p)
        # Mostly idle UP processors, as at the end of an iteration.
        for view in views:
            if rng.random() < 0.5:
                view.state = ProcState.UP
            if rng.random() < 0.5:
                view.pinned_count, view.pinned_pipeline = 0, ()
        if tied:
            # Every idle processor shares one score: the picks are decided
            # by the ascending-index tie-break alone.
            model = views[0].belief
            for view in views:
                view.delay, view.speed_w, view.belief = 7, 3, model
                view.prog_remaining, view.has_program = 0, True
        return views

    @staticmethod
    def _masks(views):
        """(label, allowed, n_tasks) cases over one platform."""
        p = len(views)
        up = [v.index for v in views if v.state == ProcState.UP]
        idle = [q for q in up if views[q].pinned_count == 0]
        pinned = [q for q in up if views[q].pinned_count > 0]
        not_up = [v.index for v in views if v.state != ProcState.UP]
        k = len(idle)
        return [
            ("idle", mask_of(p, idle), min(k, 6)),
            ("idle-all", mask_of(p, idle), k),
            ("zero", mask_of(p, idle), 0),
            ("more-tasks-than-idle", mask_of(p, idle[:4]), 9),
            ("not-up-left-over", mask_of(p, idle[:4] + not_up[:2]), 9),
            ("pinned-candidate", mask_of(p, idle[:5] + pinned[:2]), 5),
        ]

    def _check(self, name, views, ncom):
        factory = _distinct_factory(name)
        for label, allowed, n_tasks in self._masks(views):
            where = f"{name} {label} p={len(views)} ncom={ncom}"
            if len(views) > 1000 and label == "idle-all":
                continue  # a full sweep of single placements is O(k·p)
            rs = round_state_from(views, seed=21, ncom=ncom)
            loop_rs = round_state_from(views, seed=21, ncom=ncom)
            before = allowed.copy()
            placed = factory().place_distinct(rs, n_tasks, allowed)
            expected = replica_loop(factory(), loop_rs, n_tasks, allowed)
            assert placed == expected, where
            assert (allowed == before).all(), where  # the mask is not consumed
            assert (
                rs.rng.bit_generator.state == loop_rs.rng.bit_generator.state
            ), where

    @pytest.mark.parametrize("name", DISTINCT_NAMES)
    @pytest.mark.parametrize("ncom", [1, 5, None])
    @pytest.mark.parametrize("p", [20, _VECTOR_MIN_P + 2, 2000])
    def test_equals_single_placement_loop(self, name, ncom, p):
        self._check(name, self._platform(p, 0, tied=False), ncom)

    @pytest.mark.parametrize("name", DISTINCT_NAMES)
    @pytest.mark.parametrize("ncom", [1, 5])
    @pytest.mark.parametrize("p", [20, _VECTOR_MIN_P + 2])
    def test_tied_keys(self, name, ncom, p):
        self._check(name, self._platform(p, 1, tied=True), ncom)

    @pytest.mark.parametrize("name", DISTINCT_NAMES)
    @pytest.mark.parametrize("p", [20, _VECTOR_MIN_P + 2])
    def test_beliefless_candidate_raises_like_the_loop(self, name, p):
        views = self._platform(p, 2, tied=False)
        idle = [
            v.index for v in views
            if v.state == ProcState.UP and v.pinned_count == 0
        ]
        views[idle[2]].belief = None
        allowed = mask_of(p, idle)
        outcomes = []
        for run in (place_distinct_call, replica_loop):
            rs = round_state_from(views, seed=5, ncom=5)
            try:
                outcomes.append(run(_distinct_factory(name)(), rs, 3, allowed))
            except ValueError as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]
        if name in ("emct", "emct*", "lw", "lw*", "ud", "ud*", "place-array-only"):
            assert f"processor {idle[2]} has no Markov belief" in outcomes[0]

"""Tests for the availability sources (Markov, trace replay, semi-Markov)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.markov import MarkovAvailabilityModel
from repro.sim.availability import (
    MarkovSource,
    RunLengthMarkovSource,
    SemiMarkovSource,
    TraceSource,
    WeibullSource,
)
from repro.types import ProcState


def chain(p_uu=0.9, p_rr=0.85, p_dd=0.9):
    return MarkovAvailabilityModel.from_self_loops(p_uu, p_rr, p_dd)


class TestMarkovSource:
    def test_deterministic_given_seed(self):
        model = chain()
        a = MarkovSource(model, np.random.default_rng(5))
        b = MarkovSource(model, np.random.default_rng(5))
        assert [a.state_at(t) for t in range(3000)] == [
            b.state_at(t) for t in range(3000)
        ]

    def test_lazy_growth_beyond_chunk(self):
        source = MarkovSource(chain(), np.random.default_rng(0))
        value = source.state_at(10_000)  # far past the initial chunk
        assert value in (0, 1, 2)

    def test_growth_preserves_history(self):
        source = MarkovSource(chain(), np.random.default_rng(1))
        early = [source.state_at(t) for t in range(100)]
        source.state_at(50_000)
        assert [source.state_at(t) for t in range(100)] == early

    def test_initial_state_honoured(self):
        source = MarkovSource(chain(), np.random.default_rng(2), initial=2)
        assert source.state_at(0) == 2

    def test_materialized(self):
        source = MarkovSource(chain(), np.random.default_rng(3))
        arr = source.materialized(64)
        assert arr.shape == (64,)
        assert all(source.state_at(t) == arr[t] for t in range(64))

    def test_model_exposed(self):
        model = chain()
        assert MarkovSource(model, np.random.default_rng(0)).model is model


class TestTraceSource:
    def test_replay(self):
        source = TraceSource([0, 1, 2, 0])
        assert [source.state_at(t) for t in range(4)] == [0, 1, 2, 0]

    def test_pads_down_by_default(self):
        source = TraceSource([0, 0])
        assert source.state_at(2) == int(ProcState.DOWN)
        assert source.state_at(999) == int(ProcState.DOWN)

    def test_custom_pad(self):
        source = TraceSource([0], pad_state=ProcState.RECLAIMED)
        assert source.state_at(5) == int(ProcState.RECLAIMED)

    def test_len(self):
        assert len(TraceSource([0, 1, 2])) == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TraceSource([])

    def test_rejects_bad_states(self):
        with pytest.raises(ValueError):
            TraceSource([0, 5])

    def test_rejects_negative_slot(self):
        with pytest.raises(ValueError):
            TraceSource([0]).state_at(-1)


class TestSemiMarkovSource:
    @staticmethod
    def _geometric(p):
        def sample(rng):
            return int(rng.geometric(p))

        return sample

    def _embedded(self):
        return np.array(
            [
                [0.0, 0.6, 0.4],
                [0.8, 0.0, 0.2],
                [1.0, 0.0, 0.0],
            ]
        )

    def test_states_valid(self):
        source = SemiMarkovSource(
            self._embedded(),
            {s: self._geometric(0.2) for s in (0, 1, 2)},
            np.random.default_rng(0),
        )
        assert all(source.state_at(t) in (0, 1, 2) for t in range(5000))

    def test_deterministic(self):
        def build(seed):
            return SemiMarkovSource(
                self._embedded(),
                {s: self._geometric(0.3) for s in (0, 1, 2)},
                np.random.default_rng(seed),
            )

        a, b = build(9), build(9)
        assert [a.state_at(t) for t in range(2000)] == [
            b.state_at(t) for t in range(2000)
        ]

    def test_geometric_sojourns_reduce_to_markov_statistics(self):
        # With geometric sojourns the process is a Markov chain; its
        # long-run UP fraction must match the equivalent chain's pi_u.
        model = chain(0.9, 0.8, 0.7)
        # Equivalent semi-Markov: jump matrix = conditional transitions,
        # sojourn at state x geometric with success 1 - p_xx.
        embedded = model.matrix.copy()
        np.fill_diagonal(embedded, 0.0)
        embedded = embedded / embedded.sum(axis=1, keepdims=True)
        samplers = {
            0: self._geometric(1 - model.p_uu),
            1: self._geometric(1 - model.p_rr),
            2: self._geometric(1 - model.p_dd),
        }
        source = SemiMarkovSource(embedded, samplers, np.random.default_rng(4))
        states = np.array([source.state_at(t) for t in range(150_000)])
        freq = np.bincount(states, minlength=3) / len(states)
        assert np.allclose(freq, model.stationary, atol=0.02)

    def test_rejects_nonzero_diagonal(self):
        bad = np.array([[0.5, 0.25, 0.25], [0.8, 0.0, 0.2], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            SemiMarkovSource(
                bad, {s: self._geometric(0.5) for s in (0, 1, 2)},
                np.random.default_rng(0),
            )

    def test_rejects_missing_sampler(self):
        with pytest.raises(ValueError, match="missing sojourn sampler"):
            SemiMarkovSource(
                self._embedded(), {0: self._geometric(0.5)},
                np.random.default_rng(0),
            )

    def test_rejects_zero_sojourn(self):
        source_samplers = {s: (lambda rng: 0) for s in (0, 1, 2)}
        with pytest.raises(ValueError, match="sojourns must be >= 1"):
            SemiMarkovSource(
                self._embedded(), source_samplers, np.random.default_rng(0)
            )

    def test_rejects_initial_outside_states(self):
        # Used to surface as a bare KeyError at the first growth.
        with pytest.raises(ValueError, match="initial state must be 0, 1 or 2"):
            SemiMarkovSource(
                self._embedded(),
                {s: self._geometric(0.5) for s in (0, 1, 2)},
                np.random.default_rng(0),
                initial=7,
            )

    def test_rejects_jump_probabilities_outside_unit_interval(self):
        # Rows sum to 1 and the diagonal is zero, but 1.5 / -0.5 are not
        # probabilities.
        bad = np.array([[0.0, 1.5, -0.5], [0.8, 0.0, 0.2], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            SemiMarkovSource(
                bad, {s: self._geometric(0.5) for s in (0, 1, 2)},
                np.random.default_rng(0),
            )

    def test_batch_error_names_offending_processor(self):
        good = self._embedded()
        bad = np.array([[0.0, 1.5, -0.5], [0.8, 0.0, 0.2], [1.0, 0.0, 0.0]])
        samplers = [{s: self._geometric(0.5) for s in (0, 1, 2)}] * 3
        rngs = [np.random.default_rng(q) for q in range(3)]
        with pytest.raises(ValueError, match=r"\(processor 2\)"):
            SemiMarkovSource.batch(
                np.stack([good, good, bad]), samplers, rngs, initials=[0, 0, 0]
            )
        with pytest.raises(ValueError, match=r"got 4 \(processor 1\)"):
            SemiMarkovSource.batch(
                np.stack([good, good, good]), samplers, rngs, initials=[0, 4, 0]
            )

    def test_batch_matches_one_source_at_a_time(self):
        embedded = np.stack([self._embedded()] * 4)
        samplers = [
            {s: self._geometric(0.1 + 0.1 * q) for s in (0, 1, 2)}
            for q in range(4)
        ]
        initials = [0, 1, 2, 0]
        batch = SemiMarkovSource.batch(
            embedded,
            samplers,
            [np.random.default_rng(q) for q in range(4)],
            initials=initials,
        )
        for q, source in enumerate(batch):
            single = SemiMarkovSource(
                embedded[q], samplers[q], np.random.default_rng(q),
                initial=initials[q],
            )
            assert np.array_equal(source.block(0, 5000), single.block(0, 5000))
            assert source.run_count == single.run_count


def _change_runs(source, horizon):
    """``(first slot, state)`` of every run starting before ``horizon``,
    walked through ``next_change_after``."""
    runs, slot = [], 0
    while slot is not None:
        runs.append((slot, source.state_at(slot)))
        slot = source.next_change_after(slot, limit=horizon - 1)
    return runs


#: A leave probability from each of ``Generator.geometric``'s branches
#: (search from 1/3 up, inversion below), plus near-absorbing self-loops.
LEAVE = st.one_of(
    st.floats(1 / 3, 1.0),
    st.floats(1e-3, 1 / 3, exclude_max=True),
    st.just(1.0 - 0.999),
)


class TestRunLengthMarkovSource:
    """The closure-free run-length Markov source draws what the generic
    :class:`SemiMarkovSource` does with geometric samplers: the same
    ``rng.geometric(leave[s])`` then ``rng.random()`` per visit."""

    HORIZON = 4000

    @given(
        leave=st.lists(LEAVE, min_size=3, max_size=3),
        jumps=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
        initial=st.sampled_from([0, 1, 2]),
        seed=st.integers(0, 2**32 - 1),
        order_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_generic_source_with_geometric_samplers(
        self, leave, jumps, initial, seed, order_seed
    ):
        embedded = np.zeros((3, 3))
        for s, a in enumerate(jumps):
            first, second = [t for t in (0, 1, 2) if t != s]
            embedded[s, first], embedded[s, second] = a, 1.0 - a
        samplers = {
            s: (lambda rng, p=p: int(rng.geometric(p))) for s, p in enumerate(leave)
        }
        generic = SemiMarkovSource(
            embedded, samplers, np.random.default_rng(seed), initial=initial
        )
        source = RunLengthMarkovSource(
            embedded, leave, np.random.default_rng(seed), initial=initial
        )
        assert isinstance(source, SemiMarkovSource)
        # Read the new source in a shuffled order first: growth is one
        # sojourn at a time, so what is drawn never depends on it.
        reads = np.random.default_rng(order_seed).permutation(self.HORIZON)[:50]
        for slot in reads.tolist():
            source.state_at(slot)
            source.next_change_after(slot, limit=self.HORIZON - 1)
        assert _change_runs(source, self.HORIZON) == _change_runs(
            generic, self.HORIZON
        )
        assert source.run_count == generic.run_count
        assert source._rng.bit_generator.state == generic._rng.bit_generator.state

    def test_rejects_leave_outside_unit_interval(self):
        embedded = np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
        rngs = [np.random.default_rng(q) for q in range(2)]
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            RunLengthMarkovSource(embedded, [0.5, 0.0, 0.5], rngs[0])
        with pytest.raises(ValueError, match=r"\(0, 1\] \(processor 1\)"):
            RunLengthMarkovSource.batch(
                np.stack([embedded, embedded]),
                [[0.5, 0.5, 0.5], [0.5, 1.5, 0.5]],
                rngs,
                initials=[0, 0],
            )


class TestWeibullSource:
    def test_states_valid_and_all_three_reachable(self):
        source = WeibullSource(
            shape=0.7,
            scale=30.0,
            mean_reclaimed=10.0,
            mean_down=20.0,
            p_up_to_reclaimed=0.7,
            rng=np.random.default_rng(0),
        )
        states = {source.state_at(t) for t in range(30_000)}
        assert states == {0, 1, 2}

    def test_heavy_tail_shape_gives_longer_up_runs_on_average(self):
        def mean_up_run(shape, seed):
            source = WeibullSource(
                shape=shape,
                scale=20.0,
                mean_reclaimed=5.0,
                mean_down=5.0,
                p_up_to_reclaimed=0.5,
                rng=np.random.default_rng(seed),
            )
            states = [source.state_at(t) for t in range(40_000)]
            runs, current = [], 0
            for s in states:
                if s == 0:
                    current += 1
                elif current:
                    runs.append(current)
                    current = 0
            return np.mean(runs)

        # Same scale: smaller shape -> larger mean (Gamma(1 + 1/k) grows).
        assert mean_up_run(0.5, 1) > mean_up_run(2.0, 1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeibullSource(
                shape=-1, scale=1, mean_reclaimed=1, mean_down=1,
                p_up_to_reclaimed=0.5, rng=np.random.default_rng(0),
            )
        with pytest.raises(ValueError):
            WeibullSource(
                shape=1, scale=1, mean_reclaimed=1, mean_down=1,
                p_up_to_reclaimed=1.5, rng=np.random.default_rng(0),
            )


class TestUnifiedSourceContract:
    """The run-length interface every source shares (DESIGN.md §6)."""

    def _sources(self):
        return [
            MarkovSource(chain(), np.random.default_rng(3)),
            TraceSource(
                np.random.default_rng(4).integers(0, 3, 400),
                pad_state=ProcState.DOWN,
            ),
            TraceSource(
                np.random.default_rng(5).integers(0, 3, 400),
                pad_state=ProcState.UP,
            ),
            WeibullSource(
                shape=0.7, scale=25, mean_reclaimed=6, mean_down=9,
                p_up_to_reclaimed=0.6, rng=np.random.default_rng(6),
            ),
        ]

    def test_next_change_after_matches_state_at(self):
        rng = np.random.default_rng(0)
        for source in self._sources():
            reference = [source.state_at(t) for t in range(1200)]
            for _ in range(60):
                slot = int(rng.integers(0, 600))
                limit = int(rng.integers(slot + 1, 1100))
                expected = next(
                    (s for s in range(slot + 1, limit + 1)
                     if reference[s] != reference[slot]),
                    None,
                )
                assert source.next_change_after(slot, limit=limit) == expected

    def test_next_change_no_limit_finds_real_change(self):
        source = MarkovSource(chain(), np.random.default_rng(9))
        slot = 0
        for _ in range(50):
            change = source.next_change_after(slot)
            assert change is not None and change > slot
            assert source.state_at(change) != source.state_at(slot)
            if change > 1:
                assert source.state_at(change - 1) == source.state_at(slot)
            slot = change

    def test_exhausted_trace_never_changes_again(self):
        source = TraceSource([0, 0, 2], pad_state=ProcState.DOWN)
        assert source.next_change_after(1) == 2  # into the final DOWN run
        assert source.next_change_after(2, limit=10_000) is None
        assert source.next_change_after(500, limit=10_000) is None

    def test_block_and_materialized_match_state_at(self):
        for source in self._sources():
            expected = [source.state_at(t) for t in range(50, 130)]
            assert source.block(50, 130).tolist() == expected
            assert source.materialized(130).tolist() == [
                source.state_at(t) for t in range(130)
            ]

    def test_up_count_in_matches_state_at(self):
        rng = np.random.default_rng(1)
        up = int(ProcState.UP)
        for source in self._sources():
            reference = [source.state_at(t) for t in range(1000)]
            for _ in range(40):
                a, b = sorted(rng.integers(0, 1000, size=2))
                expected = sum(1 for s in range(a, b) if reference[s] == up)
                assert source.up_count_in(int(a), int(b)) == expected

    def test_nth_up_after_matches_state_at(self):
        rng = np.random.default_rng(2)
        up = int(ProcState.UP)
        for source in self._sources():
            reference = [source.state_at(t) for t in range(2000)]
            for _ in range(40):
                slot = int(rng.integers(0, 800))
                k = int(rng.integers(1, 25))
                count = 0
                expected = None
                for s in range(slot + 1, 1500):
                    if reference[s] == up:
                        count += 1
                        if count == k:
                            expected = s
                            break
                assert source.nth_up_after(slot, k, limit=1499) == expected

    def test_nth_up_after_rejects_bad_k(self):
        for source in self._sources():
            with pytest.raises(ValueError):
                source.nth_up_after(0, 0)

    def test_semi_markov_state_at_skips_hot_path_validation(self):
        # The unified contract keeps validation off state_at (satellite):
        # batched accessors validate instead.
        source = self._sources()[3]
        with pytest.raises(ValueError):
            source.block(-1, 10)


class TestRleStorage:
    """The run-length-encoded backing of the lazy sources (DESIGN.md §9):
    every query agrees with the dense materialisation, and memory is
    O(transitions) rather than O(slots)."""

    def _rle_sources(self):
        return [
            MarkovSource(chain(), np.random.default_rng(11)),
            MarkovSource(chain(0.99, 0.95, 0.9), np.random.default_rng(12)),
            SemiMarkovSource(
                np.array(
                    [[0.0, 0.6, 0.4], [0.8, 0.0, 0.2], [1.0, 0.0, 0.0]]
                ),
                {
                    s: (lambda rng: int(rng.geometric(0.15)))
                    for s in (0, 1, 2)
                },
                np.random.default_rng(13),
            ),
            WeibullSource(
                shape=0.7, scale=25, mean_reclaimed=6, mean_down=9,
                p_up_to_reclaimed=0.6, rng=np.random.default_rng(14),
            ),
        ]

    @pytest.mark.parametrize("index", range(4))
    def test_queries_agree_with_dense_reference(self, index):
        """up_count_in / nth_up_after / block / next_change_after against
        a dense TraceSource built from the same materialisation, on
        randomized windows."""
        source = self._rle_sources()[index]
        horizon = 6000
        dense = TraceSource(
            source.materialized(horizon), pad_state=ProcState.DOWN
        )
        rng = np.random.default_rng(100 + index)
        for _ in range(120):
            a, b = sorted(int(x) for x in rng.integers(0, horizon, size=2))
            assert source.up_count_in(a, b) == dense.up_count_in(a, b)
            assert np.array_equal(source.block(a, b), dense.block(a, b))
            slot = int(rng.integers(0, horizon // 2))
            limit = int(rng.integers(slot + 1, horizon - 1))
            assert source.next_change_after(
                slot, limit=limit
            ) == dense.next_change_after(slot, limit=limit)
            k = int(rng.integers(1, 40))
            assert source.nth_up_after(slot, k, limit=limit) == (
                dense.nth_up_after(slot, k, limit=limit)
            )

    def test_markov_rle_matches_direct_dense_sampling(self):
        """The RLE store never changes what is drawn: the materialised
        trace equals the model's own dense sampling with the same rng and
        chunk schedule (1024, then doubling)."""
        model = chain()
        source = MarkovSource(model, np.random.default_rng(77))
        reference_rng = np.random.default_rng(77)
        reference = model.sample_trace(1024, reference_rng)
        while len(reference) < 5000:
            reference = model.extend_trace(
                reference, max(1024, len(reference)), reference_rng
            )
        assert np.array_equal(source.materialized(5000), reference[:5000])

    def test_memory_is_o_transitions(self):
        source = MarkovSource(chain(0.98, 0.95, 0.95), np.random.default_rng(3))
        source.state_at(200_000)  # materialise a long horizon
        slots = source.slots_materialized
        assert slots >= 200_000
        # Runs are mean-sojourn slots long, so storage is far below the
        # dense trace + int64 UP-prefix representation it replaced.
        assert source.run_count < slots // 8
        assert source.storage_bytes() == source.run_count * 17
        assert source.dense_bytes() == slots * 9
        assert source.dense_bytes() > 4 * source.storage_bytes()

    def test_runs_partition_the_trace(self):
        source = MarkovSource(chain(), np.random.default_rng(21))
        source.state_at(3000)
        n = source.run_count
        starts = np.asarray(source._run_starts)[:n]
        states = np.asarray(source._run_states)[:n]
        assert starts[0] == 0
        assert (np.diff(starts) > 0).all()
        assert (states[1:] != states[:-1]).all()  # maximal runs
        # The per-run UP prefix matches a dense recount.
        dense = source.materialized(int(starts[-1]))
        for i in (1, n // 2, n - 1):
            expected = int(np.count_nonzero(dense[: starts[i]] == 0))
            assert np.asarray(source._run_up)[i] == expected

    def test_cursor_handles_random_access(self):
        source = MarkovSource(chain(), np.random.default_rng(31))
        dense = source.materialized(4000)
        rng = np.random.default_rng(32)
        for slot in rng.integers(0, 4000, size=500):
            assert source.state_at(int(slot)) == dense[int(slot)]

    def test_trace_source_diagnostics(self):
        dense = TraceSource([0, 0, 1, 2, 0])
        assert dense.dense_bytes() == 5 * 9
        before = dense.storage_bytes()
        dense.up_count_in(0, 5)  # builds the prefix
        assert dense.storage_bytes() > before


class TestRleCursorBoundaries:
    """Deterministic boundary cases for the RLE run cursors (§12).

    A scripted semi-Markov source — jump chain cycling 0 → 1 → 2 → 0,
    sojourns read from a fixed schedule — pins the exact run layout, so
    every query can be asserted at the slots where off-by-one bugs live:
    the first and last slot of a run, the transition slot itself, and
    limits landing exactly on (or one before) an answer.
    """

    #: Scripted run lengths; states cycle UP, RECLAIMED, DOWN, UP, ...
    LENGTHS = [5, 3, 4, 6, 2, 8]

    @classmethod
    def _scripted(cls):
        cycle = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        )
        schedule = iter(cls.LENGTHS * 50)

        def sample(rng):
            return next(schedule)

        return SemiMarkovSource(
            cycle, {s: sample for s in (0, 1, 2)}, np.random.default_rng(0)
        )

    @classmethod
    def _runs(cls):
        """(start, stop, state) triples of the scripted layout."""
        runs, position = [], 0
        for i, length in enumerate(cls.LENGTHS * 50):
            runs.append((position, position + length, i % 3))
            position += length
        return runs

    def test_state_at_run_edges(self):
        source = self._scripted()
        for start, stop, state in self._runs()[:12]:
            assert source.state_at(start) == state
            assert source.state_at(stop - 1) == state

    def test_next_change_after_at_run_edges(self):
        source = self._scripted()
        runs = self._runs()
        for (start, stop, _), (nxt, _, _) in zip(runs[:10], runs[1:11]):
            assert nxt == stop
            # Anywhere inside a run the next change is the next start.
            assert source.next_change_after(start) == nxt
            assert source.next_change_after(stop - 1) == nxt

    def test_next_change_after_limit_edges(self):
        source = self._scripted()
        start, stop, _ = self._runs()[3]
        # limit == the answer: found; limit one before: not found.
        assert source.next_change_after(start, limit=stop) == stop
        assert source.next_change_after(start, limit=stop - 1) is None

    def test_up_count_in_run_aligned_windows(self):
        source = self._scripted()
        for start, stop, state in self._runs()[:9]:
            expected = (stop - start) if state == int(ProcState.UP) else 0
            assert source.up_count_in(start, stop) == expected
            # Shifting one edge by one slot moves the count iff UP.
            inside = source.up_count_in(start + 1, stop)
            assert inside == max(0, expected - 1)

    def test_up_count_in_degenerate_windows(self):
        source = self._scripted()
        assert source.up_count_in(7, 7) == 0
        assert source.up_count_in(9, 4) == 0

    def test_nth_up_after_crosses_runs(self):
        source = self._scripted()
        runs = self._runs()
        first_up = runs[0]  # [0, 5) UP
        second_up = runs[3]  # UP again after RECLAIMED + DOWN
        # From the last UP slot of run 0, the next UP is the run-3 start.
        assert source.nth_up_after(first_up[1] - 1, 1) == second_up[0]
        # k walking through run 3: k-th UP is start + k - 1.
        for k in range(1, second_up[1] - second_up[0] + 1):
            assert (
                source.nth_up_after(first_up[1] - 1, k)
                == second_up[0] + k - 1
            )

    def test_nth_up_after_limit_edges(self):
        source = self._scripted()
        second_up = self._runs()[3]
        slot = self._runs()[0][1] - 1
        found = second_up[0]
        assert source.nth_up_after(slot, 1, limit=found) == found
        assert source.nth_up_after(slot, 1, limit=found - 1) is None

    def test_single_run_source_bounded_growth(self):
        cycle = np.array(
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        )
        source = SemiMarkovSource(
            cycle,
            {s: (lambda rng: 50_000) for s in (0, 1, 2)},
            np.random.default_rng(0),
        )
        assert source.state_at(0) == 0
        assert source.state_at(49_999) == 0
        # A limit inside the single run must answer None without growing
        # past the limit by more than one geometric step.
        assert source.next_change_after(0, limit=10_000) is None
        assert source.up_count_in(0, 20_000) == 20_000
        assert source.nth_up_after(0, 123) == 123

    def test_single_run_trace_source_horizon_edge(self):
        dense = TraceSource([0, 0, 0, 0], pad_state=ProcState.DOWN)
        assert dense.up_count_in(0, 4) == 4
        # The pad region starts exactly at the horizon.
        assert dense.next_change_after(0) == 4
        assert dense.state_at(4) == int(ProcState.DOWN)
        # Beyond the pad transition nothing ever changes again.
        assert dense.next_change_after(4, limit=10_000) is None


class TestOnDemandGrowth:
    """Semi-Markov traces grow only as far as a query reads (§9, §12).

    ``_grow_to(length)`` covers at least ``length``, and the queries ask
    for one slot past the end when their answer lies there, so a source
    drawing one sojourn at a time never holds more than one run beyond
    the last slot a run read.
    """

    @staticmethod
    def _source(seed=0):
        embedded = np.array([[0.0, 0.6, 0.4], [0.7, 0.0, 0.3], [1.0, 0.0, 0.0]])
        samplers = {
            s: (lambda rng, p=p: int(rng.geometric(p)))
            for s, p in enumerate((0.05, 0.2, 0.1))
        }
        return SemiMarkovSource(embedded, samplers, np.random.default_rng(seed))

    def test_next_change_after_stores_the_answers_run_last(self):
        source = self._source()
        slot = 0
        for _ in range(200):
            change = source.next_change_after(slot)
            assert source._run_starts[-1] == change
            slot = change

    def test_state_at_stores_the_read_slots_run_last(self):
        source = self._source(1)
        for slot in range(0, 60_000, 997):
            source.state_at(slot)
            assert source._run_starts[-1] <= slot < source.slots_materialized

    def test_large_grid_run_stores_at_most_one_run_past_its_reads(
        self, monkeypatch
    ):
        from bisect import bisect_right

        from repro.core.heuristics.registry import make_scheduler
        from repro.sim.master import MasterSimulator, SimulatorOptions
        from repro.workload.scenarios import ScenarioGenerator

        last_read = {}

        def read(source, *slots):
            key = id(source)
            last_read[key] = max(
                last_read.get(key, 0), *(s for s in slots if s is not None)
            )

        def tracked(name, slots_read):
            method = getattr(SemiMarkovSource, name)

            def wrapper(self, *args, **kwargs):
                answer = method(self, *args, **kwargs)
                read(self, *slots_read(args, answer))
                return answer

            monkeypatch.setattr(SemiMarkovSource, name, wrapper)

        tracked("state_at", lambda args, answer: (args[0],))
        tracked("next_change_after", lambda args, answer: (args[0], answer))
        tracked("nth_up_after", lambda args, answer: (args[0], answer))
        tracked("up_count_in", lambda args, answer: (args[1] - 1,))
        tracked("block", lambda args, answer: (args[1] - 1,))

        generator = ScenarioGenerator(12061, p=2000, iterations=2)
        scenario = generator.large_grid_scenario(40, 10, 30, 0, mean_sojourn=1000)
        platform = scenario.build_platform(0)
        MasterSimulator(
            platform,
            scenario.app,
            make_scheduler("mct", platform=platform),
            options=SimulatorOptions(replan_policy="sticky"),
            rng=scenario.scheduler_rng(0, "mct"),
        ).run(max_slots=6_000)
        for proc in platform:
            source = proc.availability
            starts = source._run_starts
            beyond = len(starts) - bisect_right(starts, last_read[id(source)])
            assert beyond <= 1, (proc.index, beyond)


class TestProcessorFromSemiMarkov:
    """The O(runs) ground-truth constructor (DESIGN.md §12)."""

    def _model(self):
        return MarkovAvailabilityModel.from_self_loops(0.9, 0.8, 0.7)

    def test_builds_semi_markov_truth_with_markov_belief(self):
        from repro.sim.platform import Processor

        model = self._model()
        proc = Processor.from_semi_markov(
            0, 10, model, np.random.default_rng(3)
        )
        assert isinstance(proc.availability, SemiMarkovSource)
        assert proc.belief is model
        assert proc.availability.state_at(0) == int(ProcState.UP)

    def test_initial_state_honoured(self):
        from repro.sim.platform import Processor

        proc = Processor.from_semi_markov(
            0, 10, self._model(), np.random.default_rng(3),
            initial=int(ProcState.DOWN),
        )
        assert proc.availability.state_at(0) == int(ProcState.DOWN)

    def test_matches_markov_statistics(self):
        # Same chain, run-length draw protocol: distributionally equal
        # to the dense Markov sampling (long-run state frequencies).
        from repro.sim.platform import Processor

        model = self._model()
        proc = Processor.from_semi_markov(
            0, 10, model, np.random.default_rng(11)
        )
        states = proc.availability.materialized(120_000)
        freq = np.bincount(states, minlength=3) / len(states)
        assert np.allclose(freq, model.stationary, atol=0.02)

    def test_rejects_absorbing_state(self):
        from repro.sim.platform import Processor

        absorbing = MarkovAvailabilityModel(
            np.array([[1.0, 0.0, 0.0], [0.3, 0.6, 0.1], [0.3, 0.1, 0.6]])
        )
        with pytest.raises(ValueError, match="absorbing"):
            Processor.from_semi_markov(
                0, 10, absorbing, np.random.default_rng(0)
            )

    def test_rejects_initial_outside_states(self):
        from repro.sim.platform import Processor

        with pytest.raises(ValueError, match="initial state"):
            Processor.from_semi_markov(
                0, 10, self._model(), np.random.default_rng(0), initial=5
            )

    def test_batch_equals_one_processor_at_a_time(self):
        from repro.sim.platform import Processor

        models = [
            MarkovAvailabilityModel.from_self_loops(0.9, 0.8, 0.7),
            MarkovAvailabilityModel.from_self_loops(0.95, 0.5, 0.99),
            MarkovAvailabilityModel.from_self_loops(0.6, 0.7, 0.8),
        ]
        batch = Processor.from_semi_markov_batch(
            [0, 1, 2],
            [3, 4, 5],
            models,
            [np.random.default_rng(q) for q in range(3)],
            initials=[None, int(ProcState.DOWN), None],
        )
        for q, proc in enumerate(batch):
            single = Processor.from_semi_markov(
                q, 3 + q, models[q], np.random.default_rng(q),
                initial=int(ProcState.DOWN) if q == 1 else None,
            )
            assert (proc.index, proc.speed_w) == (single.index, single.speed_w)
            assert proc.belief is models[q]
            assert np.array_equal(
                proc.availability.block(0, 4000), single.availability.block(0, 4000)
            )

    def test_batch_absorbing_error_names_processor(self):
        from repro.sim.platform import Processor

        absorbing = MarkovAvailabilityModel(
            np.array([[0.6, 0.2, 0.2], [0.3, 0.6, 0.1], [0.0, 0.0, 1.0]])
        )
        with pytest.raises(ValueError, match="state 2 of processor 7 is absorbing"):
            Processor.from_semi_markov_batch(
                [6, 7],
                [1, 1],
                [self._model(), absorbing],
                [np.random.default_rng(0), np.random.default_rng(1)],
            )

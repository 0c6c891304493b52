"""Tests for deterministic RNG stream management."""

import copy
import pickle

import numpy as np
import pytest

from repro.rng import (
    RngFactory,
    _entropy_words,
    _seed_state,
    derive_seed,
    generator_from,
)


class TestRngFactory:
    def test_same_key_same_stream(self):
        a = RngFactory(99).generator("avail", 3)
        b = RngFactory(99).generator("avail", 3)
        assert np.allclose(a.random(16), b.random(16))

    def test_different_keys_differ(self):
        fac = RngFactory(99)
        a = fac.generator("avail", 3)
        b = fac.generator("avail", 4)
        assert not np.allclose(a.random(16), b.random(16))

    def test_different_labels_differ(self):
        fac = RngFactory(99)
        a = fac.generator("avail", 3)
        b = fac.generator("sched", 3)
        assert not np.allclose(a.random(16), b.random(16))

    def test_different_roots_differ(self):
        a = RngFactory(1).generator("x")
        b = RngFactory(2).generator("x")
        assert not np.allclose(a.random(16), b.random(16))

    def test_string_and_int_key_parts(self):
        fac = RngFactory(0)
        gen = fac.generator("scenario", 5, "trial", 2)
        assert 0.0 <= gen.random() < 1.0

    def test_rejects_unhashable_key_type(self):
        with pytest.raises(TypeError, match="must be str or int"):
            RngFactory(0).generator("x", 1.5)

    def test_none_seed_allowed(self):
        fac = RngFactory(None)
        assert fac.generator("a") is not None

    def test_root_entropy_exposed(self):
        assert RngFactory(1234).root_entropy == 1234

    def test_generators_match_per_key_generator(self):
        fac = RngFactory(2024)
        family = fac.generators("avail", "large", 7, 3, count=5)
        assert len(family) == 5
        for q, gen in enumerate(family):
            expected = fac.generator("avail", "large", 7, 3, q)
            assert gen.random(8).tobytes() == expected.random(8).tobytes()

    def test_generators_empty_family(self):
        assert RngFactory(1).generators("avail", count=0) == []


#: Roots covering every entropy shape: a small int, OS entropy (128 bits),
#: a list-entropy SeedSequence and entropy of more than four words.
_ROOTS = [
    pytest.param(lambda: 2024, id="int"),
    pytest.param(lambda: None, id="os-entropy"),
    pytest.param(lambda: np.random.SeedSequence([7, 2**40 + 3, 0]), id="list"),
    pytest.param(lambda: 2**128 + 12345, id="five-words"),
    pytest.param(lambda: 3 * 2**200 + 1, id="seven-words"),
]

#: Prefixes covering every key-part shape: strings (64-bit FNV hashes,
#: two words), zero-valued parts (one word), 64-bit ints (two words).
_PREFIXES = [
    pytest.param((), id="empty"),
    pytest.param(("avail",), id="str"),
    pytest.param(("avail", 0, 0), id="zeros"),
    pytest.param(("avail", 2**64 - 1, 2**32, 5, "trial"), id="wide-ints"),
]


class TestGeneratorsDerivation:
    """``generators`` derives its seeds without ``SeedSequence`` objects,
    so it must stay stream-equal to the per-key :meth:`generator`."""

    @staticmethod
    def assert_stream_equal(fac, prefix, count):
        family = fac.generators(*prefix, count=count)
        assert len(family) == count
        for q, gen in enumerate(family):
            expected = fac.generator(*prefix, q)
            assert gen.bit_generator.state == expected.bit_generator.state
            assert gen.random(4).tobytes() == expected.random(4).tobytes()
            assert gen.integers(0, 2**63, 3).tolist() == (
                expected.integers(0, 2**63, 3).tolist()
            )

    @pytest.mark.parametrize("root", _ROOTS)
    @pytest.mark.parametrize("prefix", _PREFIXES)
    @pytest.mark.parametrize("count", [0, 1, 2, 5])
    def test_small_counts(self, root, prefix, count):
        self.assert_stream_equal(RngFactory(root()), prefix, count)

    @pytest.mark.parametrize("root", _ROOTS)
    def test_thousands(self, root):
        self.assert_stream_equal(RngFactory(root()), ("avail", "large", 3, 0), 3000)

    def test_root_spawn_key_is_ignored_like_generator(self):
        # A spawned root's own spawn key plays no part, in either path.
        child = np.random.SeedSequence(99).spawn(2)[1]
        self.assert_stream_equal(RngFactory(child), ("avail",), 5)

    def test_rejects_counts_past_one_key_word(self):
        fac = RngFactory(1)
        assert len(fac.generators(count=1)) == 1
        with pytest.raises(ValueError, match="2\\*\\*32"):
            fac.generators("avail", count=2**32 + 1)

    def test_rejects_bad_key_parts(self):
        with pytest.raises(TypeError, match="must be str or int"):
            RngFactory(0).generators("x", 1.5, count=3)

    def test_pickle_and_deepcopy_round_trip(self):
        gen = RngFactory(5).generators("avail", 1, count=3)[2]
        gen.random(3)
        pickled = pickle.loads(pickle.dumps(gen))
        copied = copy.deepcopy(gen)
        expected = gen.random(5).tobytes()
        for clone in (pickled, copied):
            assert clone.random(5).tobytes() == expected
            assert clone.bit_generator.state == gen.bit_generator.state


class TestSeedState:
    """The column mixing helper against ``SeedSequence`` itself."""

    @staticmethod
    def head(entropy, *parts):
        words = _entropy_words(entropy)
        words += [0] * (4 - len(words))
        for part in parts:
            words += _entropy_words(part)
        return words

    @pytest.mark.parametrize("entropy", [0, 7, 2**128 - 1, [1, 2**70, 3], 2**300])
    @pytest.mark.parametrize("prefix", [(), (99,), (0, 2**64 - 1, 2**32)])
    def test_one_word_tail(self, entropy, prefix):
        qs = [0, 1, 2, 1000, 2**31, 2**32 - 1]
        state = _seed_state(
            self.head(entropy, *prefix), np.array(qs, dtype=np.uint64)[:, None]
        )
        assert state.dtype == np.uint64 and state.shape == (len(qs), 4)
        for row, q in zip(state, qs):
            expected = np.random.SeedSequence(
                entropy, spawn_key=(*prefix, q)
            ).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist()

    @pytest.mark.parametrize("prefix", [(), (3, "x")])
    def test_last_key_part_past_one_word(self, prefix):
        # A last part >= 2**32 is two tail words, low word first, so no
        # generator is built for it.
        ints = [int(p) if isinstance(p, int) else 0 for p in prefix]
        qs = [2**32, 2**32 + 5, 2**63 + 11, 2**64 - 1]
        tail = np.array([[q & 0xFFFFFFFF, q >> 32] for q in qs], dtype=np.uint64)
        state = _seed_state(self.head(11, *ints), tail)
        for row, q in zip(state, qs):
            expected = np.random.SeedSequence(
                11, spawn_key=(*ints, q)
            ).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist()

    def test_empty_tail(self):
        state = _seed_state(self.head(5, 1), np.empty((0, 1), dtype=np.uint64))
        assert state.shape == (0, 4)

    def test_entropy_words(self):
        assert _entropy_words(0) == [0]
        assert _entropy_words(2**32) == [0, 1]
        assert _entropy_words(np.uint64(2**64 - 1)) == [0xFFFFFFFF, 0xFFFFFFFF]
        assert _entropy_words([1, [2, 2**33]]) == [1, 2, 0, 2]


class TestHelpers:
    def test_generator_from_int(self):
        a = generator_from(7)
        b = generator_from(7)
        assert a.random() == b.random()

    def test_generator_from_seed_sequence(self):
        seq = np.random.SeedSequence(5)
        assert generator_from(seq).random() == generator_from(
            np.random.SeedSequence(5)
        ).random()

    def test_derive_seed_deterministic(self):
        assert derive_seed(42, "a", 1) == derive_seed(42, "a", 1)

    def test_derive_seed_nonnegative(self):
        for key in range(20):
            assert derive_seed(11, key) >= 0

    def test_derive_seed_varies(self):
        seeds = {derive_seed(42, "a", i) for i in range(50)}
        assert len(seeds) == 50

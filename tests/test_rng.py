"""Tests for deterministic RNG stream management."""

import numpy as np
import pytest

from repro.rng import RngFactory, derive_seed, generator_from


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

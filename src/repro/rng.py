"""Deterministic random-number-stream management.

Every stochastic component in this package (availability trace generation,
scenario sampling, the random heuristics) draws from an explicit
:class:`numpy.random.Generator`.  Nothing reads global RNG state, so a run
is fully determined by the seeds fed in at the top.

The paper's evaluation protocol varies the seed of the state-transition RNG
across trials while holding the scenario fixed (Section 7).  To support that
cleanly we derive *named* child streams from a root seed with
:class:`numpy.random.SeedSequence` — the child for ``("trial", 3)`` is
statistically independent from the child for ``("scenario", 3)`` yet both
are reproducible from the root.
"""

from __future__ import annotations

from typing import Iterable, List, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "DEFAULT_SCHEDULER_SEED",
    "RngFactory",
    "default_scheduler_rng",
    "generator_from",
    "derive_seed",
]

SeedLike = Union[int, np.random.SeedSequence, None]

#: Root seed for scheduler randomness when the caller supplies none.  A
#: fixed default keeps ad-hoc runs reproducible (re-running the same script
#: gives the same result); campaign code always passes an explicit
#: per-(scenario, trial, heuristic) stream instead (DESIGN.md §2).  Defined
#: here — rather than in :mod:`repro.sim.master`, which re-exports it — so
#: that the scheduler-facing context types can use the same stream without
#: importing the simulator.
DEFAULT_SCHEDULER_SEED = 0x5EED_1D06


def default_scheduler_rng() -> "np.random.Generator":
    """The seeded fallback stream for scheduler randomness.

    Used by :class:`~repro.sim.master.MasterSimulator` and by
    :class:`~repro.core.heuristics.base.SchedulingContext` when no explicit
    generator is passed: an unseeded ``default_rng()`` would silently fall
    back to OS entropy and make randomised heuristics unreproducible
    run-to-run.
    """
    return RngFactory(DEFAULT_SCHEDULER_SEED).generator("scheduler")


def _as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _key_to_ints(key: Iterable) -> list[int]:
    """Map a mixed tuple of strings/ints to the integer spawn key numpy wants."""
    out: list[int] = []
    for part in key:
        if isinstance(part, str):
            # Stable, platform-independent string hash (FNV-1a, 64-bit).
            h = 0xCBF29CE484222325
            for byte in part.encode("utf-8"):
                h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            out.append(h)
        elif isinstance(part, (int, np.integer)):
            out.append(int(part) & 0xFFFFFFFFFFFFFFFF)
        else:
            raise TypeError(
                f"stream key parts must be str or int, got {type(part).__name__}"
            )
    return out


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), fixed
# since numpy 1.17; tests/test_rng.py checks _seed_state against
# SeedSequence itself, so a change upstream fails there first.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


def _entropy_words(value) -> list[int]:
    """``value`` as the little-endian uint32 words ``SeedSequence`` reads.

    An int gives its base-2**32 digits (``0`` gives one word); a sequence
    gives the concatenated words of its items.
    """
    if isinstance(value, (int, np.integer)):
        n = int(value)
        words = [n & _MASK32]
        n >>= 32
        while n:
            words.append(n & _MASK32)
            n >>= 32
        return words
    return [w for item in value for w in _entropy_words(item)]


# The two helpers below serve Python ints and uint64 columns alike: every
# operand is below 2**32, so products fit in 64 bits, and a wrapped uint64
# difference is still right modulo 2**32.
def _hashmix(value, const: int, mult: int = _MULT_A):
    """``SeedSequence``'s hashmix: (mixed value, next hash constant).

    ``generate_state`` hashes its output words the same way, with
    ``mult = _MULT_B``.
    """
    value = value ^ const
    const = (const * mult) & _MASK32
    value = (value * const) & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    """``SeedSequence``'s pool mix of ``x`` with ``y``."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _seed_state(head: list[int], tail: np.ndarray) -> np.ndarray:
    """Per-row ``SeedSequence(...).generate_state(4, np.uint64)``.

    Row ``i``'s assembled entropy is ``head + list(tail[i])``: ``head``
    holds the shared uint32 words (the root entropy padded to at least
    the pool size, then the shared spawn-key words) and ``tail`` the
    ``(n, k)`` per-row words, as ``uint64``.  The shared words are mixed
    once as Python ints; only the tail runs as column operations.

    Returns:
        An ``(n, 4)`` C-contiguous ``uint64`` array.
    """
    const = _INIT_A
    pool = []
    for word in head[:_POOL_SIZE]:
        mixed, const = _hashmix(word, const)
        pool.append(mixed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                mixed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], mixed)
    words = [*head[_POOL_SIZE:], *tail.T]
    for word in words:
        for dst in range(_POOL_SIZE):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    # generate_state: eight uint32 words cycling over the pool, paired
    # little-endian into four uint64 words.
    state = np.empty((tail.shape[0], 4), dtype=np.uint64)
    const = _INIT_B
    for k in range(8):
        value, const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
        if k % 2 == 0:
            state[:, k // 2] = value
        else:
            state[:, k // 2] |= value << 32
    return state


class _PresetState(ISeedSequence):
    """An ``ISeedSequence`` whose ``PCG64`` seed words were computed ahead.

    ``PCG64(_PresetState(row))`` asks for ``generate_state(4, uint64)``
    once and seeds itself in C, exactly as from the ``SeedSequence``
    that :func:`_seed_state` computed ``row`` for.
    """

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a preset state holds exactly four uint64 words")
        return self.state


class RngFactory:
    """Derives independent, reproducible generators from one root seed.

    >>> fac = RngFactory(1234)
    >>> g1 = fac.generator("scenario", 0)
    >>> g2 = fac.generator("trial", 0)
    >>> fac2 = RngFactory(1234)
    >>> float(g1.random()) == float(fac2.generator("scenario", 0).random())
    True
    """

    def __init__(self, root_seed: SeedLike = None):
        self._root = _as_seed_sequence(root_seed)

    @property
    def root_entropy(self):
        """The root entropy, for logging / provenance records."""
        return self._root.entropy

    def seed_sequence(self, *key) -> np.random.SeedSequence:
        """A child :class:`~numpy.random.SeedSequence` for the given key."""
        ints = _key_to_ints(key)
        return np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=tuple(ints)
        )

    def generator(self, *key) -> np.random.Generator:
        """A fresh :class:`~numpy.random.Generator` for the given key.

        Calling twice with the same key returns generators producing the
        same stream (useful for replaying a single trial in isolation).
        """
        return np.random.default_rng(self.seed_sequence(*key))

    def generators(self, *prefix, count: int) -> List[np.random.Generator]:
        """The generators for keys ``(*prefix, 0)`` … ``(*prefix, count - 1)``.

        Stream-for-stream equal to ``[self.generator(*prefix, q) for q in
        range(count)]`` (DESIGN.md §2), at a fraction of its cost: a
        platform's per-processor availability streams share everything
        but the last key part, so numpy's ``SeedSequence`` entropy mixing
        runs once over the shared words and then as column operations
        over all ``count`` processor indices (:func:`_seed_state`).  Each
        row of four ``uint64`` state words seeds one ``PCG64`` in C
        through :class:`_PresetState`; no ``SeedSequence`` object is
        built per key.

        Raises:
            ValueError: if ``count > 2**32``: a larger index would need
                two spawn-key words.
        """
        if count > _MASK32 + 1:
            raise ValueError(
                f"count must be at most 2**32 (one spawn-key word), got {count}"
            )
        head = _entropy_words(self._root.entropy)
        head += [0] * (_POOL_SIZE - len(head))
        for part in _key_to_ints(prefix):
            head += _entropy_words(part)
        q = np.arange(count, dtype=np.uint64)
        state = _seed_state(head, q[:, None])
        return [
            np.random.Generator(np.random.PCG64(_PresetState(row))) for row in state
        ]


def generator_from(seed: SeedLike) -> np.random.Generator:
    """Convenience: build a generator directly from a seed-like value."""
    return np.random.default_rng(_as_seed_sequence(seed))


def derive_seed(root_seed: SeedLike, *key) -> int:
    """A stable 63-bit integer seed derived from ``root_seed`` and ``key``.

    Useful when an API wants a plain integer seed (e.g. recorded in a
    provenance dict) rather than a generator object.
    """
    seq = RngFactory(root_seed).seed_sequence(*key)
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)

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
        range(count)]``, but the prefix is hashed once rather than once
        per key — the per-processor availability streams of a platform
        share everything but the processor index.
        """
        head = tuple(_key_to_ints(prefix))
        entropy = self._root.entropy
        return [
            np.random.default_rng(
                np.random.SeedSequence(entropy=entropy, spawn_key=head + (q,))
            )
            for q in range(count)
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

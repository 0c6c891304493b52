"""Name → factory registry for all scheduling heuristics.

The experiment harness refers to heuristics by the names used in the
paper's tables (lower-cased): ``random``, ``random1`` … ``random4w``,
``mct``, ``mct*``, ``emct``, ``emct*``, ``lw``, ``lw*``, ``ud``, ``ud*`` —
seventeen in total — plus this package's extensions (``passive``,
``ud-exact``, ``ud*-exact``).

Factories return a *fresh* scheduler instance per call: several heuristics
cache per-processor quantities keyed by processor index (and, on the array
path, per-round score rows keyed by the round state's refresh token), so
instances must not be shared between platforms.

Every registry heuristic runs on both scheduler APIs (DESIGN.md §8): the
batch :meth:`~repro.core.heuristics.base.Scheduler.place_array` path over
an array-backed ``RoundState`` that the fast simulator drives — natively
for the greedy/random/passive families and the clairvoyant baseline, via
the lazy compatibility shim for the exact-UD ablations — and the scalar
``place`` path that the reference simulator drives, with bit-identical
placements (``tests/test_reference_equivalence.py``).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .base import Scheduler
from .lw import LwScheduler
from .mct import EmctScheduler, MctScheduler
from .passive import PassiveScheduler
from .random_based import RandomScheduler, make_random_variant
from .ud import UdScheduler

__all__ = [
    "HEURISTIC_FACTORIES",
    "PAPER_HEURISTICS",
    "TABLE2_ORDER",
    "GREEDY_HEURISTICS",
    "make_scheduler",
    "heuristic_key",
    "available_heuristics",
]

HEURISTIC_FACTORIES: Dict[str, Callable[[], Scheduler]] = {
    "random": RandomScheduler,
    "random1": lambda: make_random_variant(1, weighted_by_speed=False),
    "random2": lambda: make_random_variant(2, weighted_by_speed=False),
    "random3": lambda: make_random_variant(3, weighted_by_speed=False),
    "random4": lambda: make_random_variant(4, weighted_by_speed=False),
    "random1w": lambda: make_random_variant(1, weighted_by_speed=True),
    "random2w": lambda: make_random_variant(2, weighted_by_speed=True),
    "random3w": lambda: make_random_variant(3, weighted_by_speed=True),
    "random4w": lambda: make_random_variant(4, weighted_by_speed=True),
    "mct": lambda: MctScheduler(contention=False),
    "mct*": lambda: MctScheduler(contention=True),
    "emct": lambda: EmctScheduler(contention=False),
    "emct*": lambda: EmctScheduler(contention=True),
    "lw": lambda: LwScheduler(contention=False),
    "lw*": lambda: LwScheduler(contention=True),
    "ud": lambda: UdScheduler(contention=False),
    "ud*": lambda: UdScheduler(contention=True),
    # Extensions beyond the paper:
    "ud-exact": lambda: UdScheduler(contention=False, exact=True),
    "ud*-exact": lambda: UdScheduler(contention=True, exact=True),
    "passive": PassiveScheduler,
}

#: The seventeen heuristics evaluated in the paper (Table 2 population).
PAPER_HEURISTICS: List[str] = [
    "random",
    "random1",
    "random2",
    "random3",
    "random4",
    "random1w",
    "random2w",
    "random3w",
    "random4w",
    "mct",
    "mct*",
    "emct",
    "emct*",
    "lw",
    "lw*",
    "ud",
    "ud*",
]

#: Row order of the paper's Table 2 (best to worst, as published).
TABLE2_ORDER: List[str] = [
    "emct",
    "emct*",
    "mct",
    "mct*",
    "ud*",
    "ud",
    "lw*",
    "lw",
    "random1w",
    "random2w",
    "random4w",
    "random3w",
    "random3",
    "random4",
    "random1",
    "random2",
    "random",
]

#: The eight greedy heuristics of Table 3 / Figure 2.
GREEDY_HEURISTICS: List[str] = [
    "mct",
    "mct*",
    "emct",
    "emct*",
    "lw",
    "lw*",
    "ud",
    "ud*",
]


def make_scheduler(name: str, *, platform=None) -> Scheduler:
    """Instantiate a heuristic by its registry name.

    Args:
        name: registry name (case-insensitive).
        platform: required only by platform-aware extensions (currently
            ``"clairvoyant"``, which peeks at the ground-truth availability
            sources); ignored by every paper heuristic.

    Raises:
        KeyError: with the list of known names, for unknown ``name``.
        ValueError: if a platform-aware heuristic is requested without a
            platform.
    """
    key = heuristic_key(name)
    if key == "clairvoyant":
        if platform is None:
            raise ValueError(
                "the clairvoyant baseline needs the simulation platform: "
                "make_scheduler('clairvoyant', platform=...)"
            )
        from .oracle import ClairvoyantScheduler

        return ClairvoyantScheduler(platform)
    return HEURISTIC_FACTORIES[key]()


def heuristic_key(name: str) -> str:
    """The registry key of ``name`` (case-insensitive).

    Raises:
        KeyError: with the list of known names, for unknown ``name``.
    """
    key = name.lower()
    if key != "clairvoyant" and key not in HEURISTIC_FACTORIES:
        known = ", ".join(sorted(HEURISTIC_FACTORIES) + ["clairvoyant"])
        raise KeyError(f"unknown heuristic {name!r}; known heuristics: {known}")
    return key


def available_heuristics() -> List[str]:
    """All registered heuristic names, sorted."""
    return sorted(HEURISTIC_FACTORIES)

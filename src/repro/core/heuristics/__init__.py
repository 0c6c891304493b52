"""The paper's scheduling heuristics (Section 6) and extensions."""

from .base import (
    GreedyScheduler,
    ProcessorView,
    RoundState,
    Scheduler,
    SchedulingContext,
    completion_time_estimate,
)
from .lw import LwScheduler
from .mct import EmctScheduler, MctScheduler
from .passive import PassiveScheduler
from .random_based import RandomScheduler, WeightedRandomScheduler, make_random_variant
from .registry import (
    GREEDY_HEURISTICS,
    HEURISTIC_FACTORIES,
    PAPER_HEURISTICS,
    TABLE2_ORDER,
    available_heuristics,
    make_scheduler,
)
from .ud import UdScheduler

__all__ = [
    "Scheduler",
    "GreedyScheduler",
    "SchedulingContext",
    "ProcessorView",
    "RoundState",
    "completion_time_estimate",
    "RandomScheduler",
    "WeightedRandomScheduler",
    "make_random_variant",
    "MctScheduler",
    "EmctScheduler",
    "LwScheduler",
    "UdScheduler",
    "PassiveScheduler",
    "make_scheduler",
    "available_heuristics",
    "HEURISTIC_FACTORIES",
    "PAPER_HEURISTICS",
    "TABLE2_ORDER",
    "GREEDY_HEURISTICS",
]

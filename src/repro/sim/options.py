"""Simulator tunables shared by the fast and the reference simulator."""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import (
    require_bool,
    require_nonnegative_int,
    require_positive_int,
)
from .relevance import parse_replan_policy

__all__ = ["SimulatorOptions"]


@dataclass(frozen=True)
class SimulatorOptions:
    """Tunables for the simulator.

    Both :class:`~repro.sim.master.MasterSimulator` and
    :class:`~repro.sim.reference.ReferenceSimulator` read these; none of
    them selects an implementation — they all change (or audit) the
    simulated model.

    Attributes:
        replication: enable task replication (Section 6.1; the paper's
            experiments always replicate — disable only for ablations).
        max_replicas: extra copies per task beyond the original.  The paper
            uses 2 ("we limit the number of additional replicas of a task
            to two").
        proactive: enable the paper's *proactive* heuristic class (Section
            6.1, described but not evaluated by the authors): during the
            end-of-iteration regime (UP processors ≥ remaining tasks), a
            pinned original stalled on a RECLAIMED worker is aggressively
            terminated — its partial data and computation are discarded,
            per the un-enrolment rule — and returned to the pool so an UP
            processor can take it over.
        audit: run per-slot invariant checks and network auditing.  Cheap
            enough for tests and examples; the harness disables it.  The
            fast simulator checks each boundary slot and re-verifies grant
            stability and milestone bounds after every quiet span.
        max_slots: hard safety bound on simulated slots.
        replan_policy: when the master re-plans (DESIGN.md §10;
            :mod:`repro.sim.relevance`).  ``"event"`` (default) is the
            paper's semantics — replan at every UP-set change, crash,
            commit, program completion and iteration boundary.
            ``"every-slot"`` is the ablation arm: a scheduling round every
            slot (slower; same results for the paper's heuristics up to
            Delay-shift ties).  The *relaxed* policies change the trigger
            semantics and therefore the results — they are validated
            against the paper's shape targets by
            ``experiments/replan_study.py``, not by bit-identity:
            ``"sticky"`` ignores pure UP-set churn entirely,
            ``"debounce:k"`` rate-limits churn-triggered rounds to one
            per ``k`` slots (leading edge), and ``"relevant-up"`` ignores
            exits of empty processors.
    """

    replication: bool = True
    max_replicas: int = 2
    proactive: bool = False
    audit: bool = False
    max_slots: int = 10_000_000
    replan_policy: str = "event"

    def __post_init__(self) -> None:
        for name in ("replication", "proactive", "audit"):
            require_bool(getattr(self, name), name)
        require_nonnegative_int(self.max_replicas, "max_replicas")
        require_positive_int(self.max_slots, "max_slots")
        parse_replan_policy(self.replan_policy)  # validates

"""Model-mismatch study: Markov beliefs on non-Markovian ground truth.

The paper's Section 8 names this the key open question: real desktop-grid
availability is *not* memoryless (Weibull-ish UP intervals, heavy tails),
so do the Markov-informed heuristics keep their edge when the world
violates their assumption?

This study runs the heuristic comparison twice on statistically matched
platforms:

* **markov** ground truth — each host's availability sampled from the
  paper's chain distribution (Section 7);
* **weibull** ground truth — heavy-tailed UP sojourns
  (:class:`~repro.sim.availability.WeibullSource`), with each host's
  *belief* chain fitted from a history window by transition counting —
  exactly what a deployment would have to do.

Reported per ground truth: average dfb of each heuristic (paired samples,
as everywhere else in this package).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..analysis.plotting import format_table
from ..core.heuristics.registry import make_scheduler
from ..core.markov import MarkovAvailabilityModel, paper_random_model
from ..experiments.dfb import DfbAccumulator
from ..rng import RngFactory
from ..sim.availability import MarkovSource, TraceSource, WeibullSource
from ..sim.master import MasterSimulator, SimulatorOptions
from ..sim.platform import Platform, Processor
from ..workload.application import IterativeApplication
from .backends import make_backend

__all__ = [
    "fit_markov_belief",
    "MismatchStudyResult",
    "MismatchUnit",
    "run_mismatch_study",
    "render_mismatch_study",
]


def fit_markov_belief(
    states: Sequence[int], smoothing: float = 1.0
) -> MarkovAvailabilityModel:
    """Fit a 3-state chain to an observed trace by transition counting.

    Args:
        states: observed state sequence.
        smoothing: additive (Laplace) smoothing mass per transition, so
            unobserved transitions keep non-zero probability and the
            fitted chain stays recurrent.
    """
    states = np.asarray(states)
    if states.ndim != 1 or len(states) < 2:
        raise ValueError("need a 1-D trace with at least two slots")
    counts = np.full((3, 3), float(smoothing))
    np.add.at(counts, (states[:-1].astype(int), states[1:].astype(int)), 1.0)
    return MarkovAvailabilityModel(counts / counts.sum(axis=1, keepdims=True))


@dataclass
class MismatchStudyResult:
    """dfb aggregates per ground-truth kind."""

    accumulators: Dict[str, DfbAccumulator]
    heuristics: tuple
    instances_per_kind: int

    def rows(self, kind: str) -> List[tuple]:
        acc = self.accumulators[kind]
        return [(name, acc.average_dfb(name)) for name in acc.heuristics()]


def _build_platform(
    kind: str,
    p: int,
    factory: RngFactory,
    trial: int,
    *,
    history_slots: int = 4000,
    horizon_slots: int = 200_000,
) -> Platform:
    processors = []
    for q in range(p):
        if kind == "markov":
            model = paper_random_model(factory.generator("chain", q))
            source = MarkovSource(
                model, factory.generator("avail", kind, trial, q)
            )
            belief = model
            avail = source
        else:
            param_rng = factory.generator("wparam", q)
            source = WeibullSource(
                shape=0.6,
                scale=float(param_rng.uniform(20, 80)),
                mean_reclaimed=float(param_rng.uniform(5, 20)),
                mean_down=float(param_rng.uniform(10, 40)),
                p_up_to_reclaimed=0.7,
                rng=factory.generator("avail", kind, trial, q),
            )
            history = np.array(
                [source.state_at(t) for t in range(history_slots)], dtype=np.uint8
            )
            belief = fit_markov_belief(history)
            # The run replays the trace *after* the history window, so the
            # belief is fitted on the past, not on the evaluation data.
            future = np.array(
                [
                    source.state_at(t)
                    for t in range(history_slots, history_slots + horizon_slots)
                ],
                dtype=np.uint8,
            )
            avail = TraceSource(future)
        speed = int(factory.generator("speed", q).integers(2, 20, endpoint=True))
        processors.append(
            Processor(index=q, speed_w=speed, availability=avail, belief=belief)
        )
    return Platform(processors, ncom=5)


@dataclass(frozen=True)
class MismatchUnit:
    """One (ground-truth kind, trial, heuristic) run as a work unit.

    The unit rebuilds its platform from ``(seed, kind, trial)`` — the
    derivation never involves the heuristic, so every heuristic of an
    instance sees the identical availability sample regardless of which
    worker simulates it.
    """

    kind: str
    trial: int
    heuristic: str
    seed: int
    p: int
    max_slots: int = 200_000
    replan_policy: str = "event"

    def run(self) -> float:
        app = IterativeApplication(
            tasks_per_iteration=12, iterations=10, t_prog=8, t_data=2
        )
        factory = RngFactory(self.seed)
        platform = _build_platform(self.kind, self.p, factory, self.trial)
        sim = MasterSimulator(
            platform,
            app,
            make_scheduler(self.heuristic),
            options=SimulatorOptions(replan_policy=self.replan_policy),
            rng=factory.generator("sched", self.kind, self.trial, self.heuristic),
        )
        report = sim.run(max_slots=self.max_slots)
        return float(
            report.makespan if report.makespan is not None else self.max_slots
        )


def run_mismatch_study(
    *,
    heuristics: Sequence[str] = ("mct", "emct*", "ud*", "lw", "random"),
    p: int = 12,
    trials: int = 3,
    seed=2011,
    backend=None,
    jobs=None,
    replan_policy: str = "event",
) -> MismatchStudyResult:
    """Run the paired mismatch comparison.

    Each (kind, trial) instance presents the same availability sample to
    every heuristic; dfb is computed within the heuristic population per
    instance, separately for each ground-truth kind.  ``backend``/``jobs``
    select the execution backend (DESIGN.md §4); results are
    backend-independent.
    """
    kinds = ("markov", "weibull")
    units = [
        MismatchUnit(
            kind=kind,
            trial=trial,
            heuristic=name,
            seed=seed,
            p=p,
            replan_policy=replan_policy,
        )
        for kind in kinds
        for trial in range(trials)
        for name in heuristics
    ]
    outcomes = dict(make_backend(backend, jobs=jobs).run(units))
    accumulators = {kind: DfbAccumulator() for kind in kinds}
    index = 0
    instances = 0
    for kind in kinds:
        for trial in range(trials):
            makespans = {}
            for name in heuristics:
                makespans[name] = outcomes[index]
                index += 1
            accumulators[kind].add_instance((kind, trial), makespans)
        instances = accumulators[kind].instance_count
    return MismatchStudyResult(
        accumulators=accumulators,
        heuristics=tuple(heuristics),
        instances_per_kind=instances,
    )


def render_mismatch_study(result: MismatchStudyResult) -> str:
    """Side-by-side dfb table for both ground truths."""
    markov = dict(result.rows("markov"))
    weibull = dict(result.rows("weibull"))
    names = sorted(markov, key=lambda n: markov[n])
    rows = [
        (name, round(markov[name], 2), round(weibull[name], 2)) for name in names
    ]
    return format_table(
        ["Algorithm", "dfb (markov truth)", "dfb (weibull truth)"],
        rows,
        title=(
            "Model-mismatch study — Markov beliefs vs ground truth "
            f"({result.instances_per_kind} instances per kind)"
        ),
    )

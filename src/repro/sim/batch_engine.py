"""Batched multi-run campaign engine (DESIGN.md §11).

The unit of production work is never one simulation but thousands —
scenario × trial × heuristic sweeps feeding Tables 2/3 and Figure 2 of
the paper.  PRs 3–5 moved all *per-run* hot state into numpy columns;
this module applies the same amortisation *across* runs:
:class:`BatchCampaignRunner` advances R independent simulations
cohort-synchronised, fusing the work that is identical or shareable
between them while every run keeps its own slot clock, event stream and
RNG order.

What the cohort fuses
=====================

* **Ground-truth traces.**  Runs of one (scenario, trial) share one base
  platform: the availability randomness is keyed ``(root_seed, key,
  trial, q)`` — independent of the heuristic — so every cohort member of
  a trial reads the *identical* trace.  Each run gets a zero-copy
  :class:`~repro.sim.availability.TraceView` (own monotone-access
  cursor, shared run storage), and the cohort loop pre-extends the base
  sources to the sweep horizon through one
  :func:`~repro.sim.availability.extend_markov_sources` call — R chains
  continued per model via :meth:`~repro.core.markov.
  MarkovAvailabilityModel.sample_trace_batch`, each source drawing from
  its own generator in slot order, so traces stay bit-identical to
  per-run growth (the documented growth-schedule independence).
* **Per-boundary state rows.**  The master's ``states_provider`` seam
  lets the trial group memoise the ``slot -> [state per processor]``
  list once per boundary per *trial* instead of per run.
* **Belief-derived columns.**  ``p_uu``/``p_plus``/``pi_u``/``e_up``/
  ``ud_*`` are pure functions of the immutable belief chains, identical
  across every run of a scenario: the first admitted run's
  :class:`~repro.core.heuristics.round_state.RoundState` donates its
  lazy column cache to all others
  (:meth:`~repro.core.heuristics.round_state.RoundState.
  adopt_belief_cache`), so each column is computed once per scenario
  rather than once per run.
* **Score rows across rounds.**  The master stamps every worker-column
  rewrite (:attr:`RoundState.col_stamp`), so the CT-family schedulers
  keep their ``n_q = 0`` score rows alive across rounds and re-score
  only stamped-out processors — see ``GreedyScheduler._row0_stamped``.

What deliberately stays per-run
===============================

Event logs, network audit trails, scheduler RNG draws, the placement
heap and its tie-breaks, and the slot clock: anything that defines a
run's *identity*.  Reports, event logs and audit trails are
bit-identical to the per-run oracle regardless of cohort composition or
R (asserted in ``tests/test_batch_engine.py`` and by the benchmark
gates).

Cohort membership and demotion
==============================

Runs join the cohort unless they audit or replan every slot
(``replan_policy="every-slot"``, where every slot is a boundary and
there is nothing to fuse across spans): those are *statically demoted*
— executed on the untouched per-run path (``MasterSimulator.run``).  A
cohort member that diverges mid-flight (a shared hook raises
:class:`CohortDivergence`) is
*dynamically demoted*: its shared hooks are stripped and the run
finishes standalone on its own views — the result is identical either
way, demotion only changes who pays for the boundary work.

Completed runs leave the cohort and release their row in the runner's
row table (free-list reuse, like the
:class:`~repro.sim.instance_table.InstanceTable`); with a ``width``
bound the freed rows are immediately re-used to admit pending specs, so
arbitrarily large campaigns run in bounded memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .._validation import require_positive_int
from ..core.heuristics.registry import make_scheduler
from ..workload.scenarios import Scenario
from .availability import (
    MarkovSource,
    TraceView,
    _RleTraceSource,
    extend_markov_sources,
)
from .events import EventLog
from .master import MasterSimulator, SimulatorOptions
from .metrics import SimulationReport
from .platform import Platform, Processor

__all__ = [
    "BatchCampaignRunner",
    "BatchRunSpec",
    "CohortDivergence",
    "run_unit_cohort",
]

#: Boundaries memoised per trial group before the state-row memo is
#: dropped wholesale (it is a cache: a miss just re-reads the views).
_MEMO_LIMIT = 1 << 17


class CohortDivergence(RuntimeError):
    """A cohort-shared hook can no longer honour the fused fast path.

    Raised from inside a shared seam (e.g. the states provider) while a
    cohort member steps; the runner catches it, strips that run's shared
    hooks and finishes the run on the per-run path.  Never raised by the
    production hooks — it is the contract for extensions (and tests) to
    trigger mid-cohort demotion without poisoning the rest of the
    cohort.
    """


@dataclass(frozen=True)
class BatchRunSpec:
    """One run of a cohort: a ``CampaignUnit``-compatible (scenario,
    trial, heuristic) instance plus its simulator configuration.

    ``max_slots`` is the run's slot budget; under the paper's makespan
    objective the run ends when its iterations complete, under the
    Section 3.4 fixed-budget objective the budget *is* the objective
    horizon and ``report.completed_iterations`` carries the result — the
    engine machinery is identical (as it is for
    :meth:`~repro.sim.master.MasterSimulator.run` vs ``run_slots``).
    """

    scenario: Scenario
    trial: int
    heuristic: str
    max_slots: int = 500_000
    options: SimulatorOptions = field(default_factory=SimulatorOptions)

    def __post_init__(self) -> None:
        require_positive_int(self.max_slots, "max_slots")
        if self.trial < 0:
            raise ValueError(f"trial must be >= 0, got {self.trial}")


class _TrialGroup:
    """Shared resources of one (scenario, trial): the base ground-truth
    platform, its batch-extendable Markov sources, and the per-boundary
    state-row memo."""

    def __init__(self, scenario: Scenario, trial: int):
        self.base = scenario.build_platform(trial)
        self.markov: List[MarkovSource] = [
            proc.availability
            for proc in self.base
            if isinstance(proc.availability, MarkovSource)
        ]
        self.memo: Dict[int, list] = {}

    def make_platform(self) -> Platform:
        """A per-run platform reading the shared traces through views."""
        processors = []
        for proc in self.base:
            source = proc.availability
            availability = (
                TraceView(source)
                if isinstance(source, _RleTraceSource)
                else source  # cursor-free sources (TraceSource) share directly
            )
            processors.append(
                Processor(
                    index=proc.index,
                    speed_w=proc.speed_w,
                    availability=availability,
                    belief=proc.belief,
                )
            )
        return Platform(processors, ncom=self.base.ncom)

    def provider_for(self, views: Sequence) -> Callable[[int], list]:
        """A states provider memoising boundary rows across the group.

        The returned lists are exactly ``[view.state_at(slot) for view
        in views]`` — every run of the trial reads the identical trace,
        so the first run to touch a boundary fills the row for all.
        The master treats the lists as immutable (documented at the
        seam), so sharing them is safe.
        """
        memo = self.memo

        def provider(slot: int) -> list:
            row = memo.get(slot)
            if row is None:
                row = [view.state_at(slot) for view in views]
                memo[slot] = row
            return row

        return provider


@dataclass
class _CohortRun:
    """A live cohort member."""

    index: int  # position in the runner's spec list
    spec: BatchRunSpec
    sim: MasterSimulator
    group: _TrialGroup
    row: int  # row in the runner's cohort table


class BatchCampaignRunner:
    """Advance R run specs cohort-synchronised (DESIGN.md §11).

    Args:
        specs: the runs, in result order.  Specs sharing a (scenario,
            trial) share ground-truth traces and state rows; specs
            sharing a scenario share belief columns; everything else is
            per-run.
        width: maximum concurrently live cohort rows (``None`` =
            unbounded).  Completed runs free their row for the next
            pending spec, so memory is O(width), not O(R).
        start_horizon: first sweep horizon in slots; doubles per sweep
            (geometric, like the sources' own growth policy).
        log_factory: optional ``(index, spec) -> EventLog`` giving runs
            event logs (bit-identity tests compare them against the
            per-run oracle's).

    Attributes:
        demotions: runs executed on the per-run path (static
            ineligibility + mid-cohort divergence).
    """

    def __init__(
        self,
        specs: Sequence[BatchRunSpec],
        *,
        width: Optional[int] = None,
        start_horizon: int = 2048,
        log_factory: Optional[Callable[[int, BatchRunSpec], EventLog]] = None,
    ):
        self._specs = list(specs)
        if width is not None:
            require_positive_int(width, "width")
        self._width = width
        self._start_horizon = require_positive_int(start_horizon, "start_horizon")
        self._log_factory = log_factory
        # Cohort row table: per-row slot clock and liveness, rows reused
        # through a free list as runs complete.
        self._row_clock = np.zeros(0, dtype=np.int64)
        self._row_live = np.zeros(0, dtype=bool)
        self._free: List[int] = []
        self.demotions = 0

    # ------------------------------------------------------------------ #
    # Eligibility and admission.                                           #
    # ------------------------------------------------------------------ #
    @staticmethod
    def _eligible(spec: BatchRunSpec) -> bool:
        """Cohort membership: everything but audit mode and the
        ``every-slot`` policy, which run per-run."""
        options = spec.options
        return not options.audit and options.replan_policy != "every-slot"

    def _new_row(self) -> int:
        row = int(self._row_clock.size)
        self._row_clock = np.append(self._row_clock, 0)
        self._row_live = np.append(self._row_live, False)
        return row

    def _admit(
        self,
        index: int,
        spec: BatchRunSpec,
        groups: Dict[tuple, _TrialGroup],
        belief_donors: Dict[int, object],
    ) -> _CohortRun:
        key = (id(spec.scenario), spec.trial)
        group = groups.get(key)
        if group is None:
            group = groups[key] = _TrialGroup(spec.scenario, spec.trial)
        platform = group.make_platform()
        scheduler = make_scheduler(spec.heuristic, platform=platform)
        log = (
            self._log_factory(index, spec)
            if self._log_factory is not None
            else None
        )
        sim = MasterSimulator(
            platform,
            spec.scenario.app,
            scheduler,
            options=spec.options,
            rng=spec.scenario.scheduler_rng(spec.trial, spec.heuristic),
            log=log,
        )
        sim.states_provider = group.provider_for(
            [proc.availability for proc in platform]
        )
        donor = belief_donors.get(id(spec.scenario))
        if donor is None:
            belief_donors[id(spec.scenario)] = sim.round_state
        else:
            sim.round_state.adopt_belief_cache(donor)
        sim.begin_run(spec.max_slots)
        row = self._free.pop() if self._free else self._new_row()
        self._row_clock[row] = 0
        self._row_live[row] = True
        return _CohortRun(index=index, spec=spec, sim=sim, group=group, row=row)

    def _release(self, run: _CohortRun) -> None:
        self._row_live[run.row] = False
        self._free.append(run.row)

    # ------------------------------------------------------------------ #
    # Per-run oracle paths.                                                #
    # ------------------------------------------------------------------ #
    def _run_standalone(self, index: int, spec: BatchRunSpec) -> SimulationReport:
        """Execute one spec on the untouched per-run path."""
        platform = spec.scenario.build_platform(spec.trial)
        scheduler = make_scheduler(spec.heuristic, platform=platform)
        log = (
            self._log_factory(index, spec)
            if self._log_factory is not None
            else None
        )
        sim = MasterSimulator(
            platform,
            spec.scenario.app,
            scheduler,
            options=spec.options,
            rng=spec.scenario.scheduler_rng(spec.trial, spec.heuristic),
            log=log,
        )
        return sim.run(max_slots=spec.max_slots)

    def _demote(self, run: _CohortRun) -> SimulationReport:
        """Finish a diverged cohort member standalone (its views stay
        valid — they delegate growth to the base — only the shared
        boundary hooks are stripped).
        """
        self.demotions += 1
        sim = run.sim
        sim.states_provider = None
        sim.advance_until(run.spec.max_slots)
        return sim.finish_run()

    # ------------------------------------------------------------------ #
    # The cohort loop.                                                     #
    # ------------------------------------------------------------------ #
    def run(self) -> List[SimulationReport]:
        """Execute all specs; reports in spec order."""
        reports: List[Optional[SimulationReport]] = [None] * len(self._specs)
        pending: List[tuple] = []
        for index, spec in enumerate(self._specs):
            if self._eligible(spec):
                pending.append((index, spec))
            else:
                self.demotions += 1
                reports[index] = self._run_standalone(index, spec)
        pending.reverse()  # pop() admits in spec order

        groups: Dict[tuple, _TrialGroup] = {}
        belief_donors: Dict[int, object] = {}
        live: List[_CohortRun] = []
        horizon = self._start_horizon
        while pending or live:
            while pending and (
                self._width is None or len(live) < self._width
            ):
                index, spec = pending.pop()
                live.append(self._admit(index, spec, groups, belief_donors))
            # Fused availability extension: every live group's Markov
            # sources reach the sweep horizon in one batched continuation
            # per distinct chain (per-source draws stay in slot order).
            seen: Dict[int, _TrialGroup] = {}
            for run in live:
                seen.setdefault(id(run.group), run.group)
            lagging: List[MarkovSource] = []
            for group in seen.values():
                lagging.extend(
                    source
                    for source in group.markov
                    if source.slots_materialized < horizon
                )
                if len(group.memo) > _MEMO_LIMIT:
                    group.memo.clear()
            if lagging:
                extend_markov_sources(lagging, horizon)
            # Advance each member to the horizon on its own clock.
            still_live: List[_CohortRun] = []
            for run in live:
                try:
                    over = run.sim.advance_until(horizon)
                except CohortDivergence:
                    reports[run.index] = self._demote(run)
                    self._release(run)
                    continue
                self._row_clock[run.row] = run.sim.report.slots_simulated
                if over:
                    reports[run.index] = run.sim.finish_run()
                    self._release(run)
                else:
                    still_live.append(run)
            live = still_live
            horizon *= 2
        return reports  # type: ignore[return-value]



def run_unit_cohort(scenario: Scenario, unit) -> "CampaignUnitResult":
    """Execute a :class:`~repro.experiments.harness.CampaignUnit` as one
    cohort: the unit's heuristics share the trial's platform, traces and
    belief columns.  Returns the same
    :class:`~repro.experiments.harness.CampaignUnitResult` (bit-identical
    makespans) the per-run engine produces.
    """
    from ..experiments.harness import CampaignUnitResult  # harness imports us

    specs = [
        BatchRunSpec(
            scenario=scenario,
            trial=unit.trial,
            heuristic=heuristic,
            max_slots=unit.max_slots,
            options=unit.options,
        )
        for heuristic in unit.heuristics
    ]
    reports = BatchCampaignRunner(specs).run()
    makespans: Dict[str, float] = {}
    truncated: List[str] = []
    for heuristic, report in zip(unit.heuristics, reports):
        makespan = float(
            report.makespan if report.makespan is not None else unit.max_slots
        )
        if makespan >= unit.max_slots:
            truncated.append(heuristic)
        makespans[heuristic] = makespan
    return CampaignUnitResult(makespans=makespans, truncated=tuple(truncated))

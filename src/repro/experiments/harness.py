"""Experiment harness: run scenario × trial × heuristic campaigns.

The harness realises the paper's evaluation protocol (Section 7): for each
scenario and trial, every heuristic runs against the *same* availability
sample (the trial seed drives the Markov transitions; the heuristic's own
randomness uses a separate stream), the makespan to complete the target
iterations is recorded, and results stream into a
:class:`~repro.experiments.dfb.DfbAccumulator`.

Since the backend refactor (DESIGN.md §4) the harness is split into three
stages so campaigns can run on any
:class:`~repro.experiments.backends.ExecutionBackend`:

1. **work-unit generation** — :func:`iter_work_units` turns the scenario
   population into picklable :class:`CampaignUnit` objects, one per
   (scenario, trial), each carrying a
   :class:`~repro.workload.scenarios.ScenarioSpec` (name+seed, not live
   objects) plus the heuristic names and simulator options;
2. **per-unit execution** — :meth:`CampaignUnit.run` (built on
   :func:`run_instance`) replays identically in any process because every
   RNG stream derives from the spec and trial;
3. **streaming aggregation** — :func:`run_campaign` folds unit results
   into a :class:`CampaignResult` *in unit order* (a reorder buffer
   absorbs out-of-order completion), so dfb statistics are bit-identical
   across backends and job counts.  Partial results also combine
   explicitly via :meth:`CampaignResult.merge`.

Runs that exceed the slot budget (possible only for pathological chains)
are scored with the budget as their makespan and flagged in the campaign
report — silently dropping them would bias dfb toward lucky heuristics.

Interrupted campaigns resume from a checkpoint journal: pass
``checkpoint=path`` to :func:`run_campaign` and completed (scenario,
trial) units are recorded as they finish and skipped on the next run (see
:class:`~repro.experiments.persistence.CampaignCheckpoint`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .._validation import require_positive_int
from ..core.heuristics.registry import heuristic_key, make_scheduler
from ..sim.master import MasterSimulator, SimulatorOptions
from ..sim.platform import Platform
from ..workload.scenarios import Scenario
from .backends import (
    ExecutionBackend,
    ScenarioRef,
    as_scenario_ref,
    make_backend,
    resolve_scenario,
)
from .dfb import DfbAccumulator

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "CampaignUnit",
    "CampaignUnitResult",
    "iter_work_units",
    "run_campaign",
    "run_instance",
]


@dataclass(frozen=True)
class CampaignConfig:
    """Execution parameters for a campaign.

    Attributes:
        heuristics: registry names to compare.
        trials: trials per scenario (paper: 10).
        max_slots: per-run slot budget (safety bound; generous by default).
        options: simulator options (replication on, audit off — the
            paper's configuration — unless overridden).
    """

    heuristics: Sequence[str]
    trials: int = 10
    max_slots: int = 500_000
    options: SimulatorOptions = field(default_factory=SimulatorOptions)

    def __post_init__(self) -> None:
        if isinstance(self.heuristics, str):
            raise TypeError(
                "heuristics must be a sequence of registry names, got the "
                f"string {self.heuristics!r}"
            )
        if not self.heuristics:
            raise ValueError("campaign needs at least one heuristic")
        for name in self.heuristics:
            heuristic_key(name)  # KeyError listing the known names
        require_positive_int(self.trials, "trials")
        require_positive_int(self.max_slots, "max_slots")


@dataclass
class CampaignResult:
    """Aggregated campaign outcome.

    Attributes:
        accumulator: dfb/wins aggregates over all instances.
        per_scenario: per-scenario accumulators keyed by scenario key
            (used by Figure 2's per-``wmin`` averaging).
        truncated_runs: (scenario key, trial, heuristic) triples whose run
            hit the slot budget.
        instances: total problem instances executed.
        records: raw per-instance makespans, ``(instance key, {heuristic:
            makespan})`` in execution order — the ground data everything
            else aggregates, kept so campaigns can be serialised and
            re-analysed (:mod:`repro.experiments.persistence`).
    """

    accumulator: DfbAccumulator = field(default_factory=DfbAccumulator)
    per_scenario: Dict[tuple, DfbAccumulator] = field(default_factory=dict)
    truncated_runs: List[tuple] = field(default_factory=list)
    instances: int = 0
    records: List[tuple] = field(default_factory=list)

    def merge(self, other: "CampaignResult") -> "CampaignResult":
        """Combine two partial campaigns into a new result (non-mutating).

        Associative with :class:`CampaignResult()` as identity, mirroring
        :meth:`DfbAccumulator.merge`: records, truncation flags and
        per-scenario accumulators concatenate in call order, instance
        counts add.  Merging partials in instance order reproduces the
        serial result exactly.
        """
        merged = CampaignResult()
        merged.accumulator = self.accumulator.merge(other.accumulator)
        for source in (self, other):
            for key, acc in source.per_scenario.items():
                existing = merged.per_scenario.get(key)
                merged.per_scenario[key] = (
                    acc if existing is None else existing.merge(acc)
                )
        merged.truncated_runs = self.truncated_runs + other.truncated_runs
        merged.instances = self.instances + other.instances
        merged.records = self.records + other.records
        return merged


@dataclass(frozen=True)
class CampaignUnitResult:
    """Outcome of one work unit: one (scenario, trial), all heuristics.

    Attributes:
        makespans: heuristic → makespan, in the campaign's heuristic
            order.
        truncated: heuristics whose run hit the slot budget (scored at
            the budget), in the same order.
    """

    makespans: Dict[str, float]
    truncated: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CampaignUnit:
    """One picklable work unit: every heuristic on one (scenario, trial).

    All heuristics of an instance stay in one unit because dfb is a
    within-instance metric — the unit result is self-contained, so units
    can execute and complete in any order on any worker.  The unit's
    heuristics run one after another on one shared trial platform
    (DESIGN.md §11).
    """

    scenario_ref: ScenarioRef
    scenario_key: tuple
    trial: int
    heuristics: Tuple[str, ...]
    max_slots: int
    options: SimulatorOptions

    @property
    def instance_key(self) -> tuple:
        """The (scenario key…, trial) identity used by records/checkpoints."""
        return (*self.scenario_key, self.trial)

    def run(self) -> CampaignUnitResult:
        """Execute the unit (identical result in any process)."""
        scenario = resolve_scenario(self.scenario_ref)
        platforms: Dict[int, Platform] = {}
        makespans: Dict[str, float] = {}
        truncated: List[str] = []
        for heuristic in self.heuristics:
            makespan = run_instance(
                scenario,
                self.trial,
                heuristic,
                max_slots=self.max_slots,
                options=self.options,
                platforms=platforms,
            )
            if makespan >= self.max_slots:
                truncated.append(heuristic)
            makespans[heuristic] = makespan
        return CampaignUnitResult(
            makespans=makespans, truncated=tuple(truncated)
        )


def run_instance(
    scenario: Scenario,
    trial: int,
    heuristic: str,
    *,
    max_slots: int = 500_000,
    options: Optional[SimulatorOptions] = None,
    platforms: Optional[Dict[int, Platform]] = None,
) -> float:
    """Run one (scenario, trial, heuristic) instance; return the makespan.

    Returns ``max_slots`` when the run did not finish within the budget.

    ``platforms`` is an optional trial → platform memo for runs of the
    same scenario made one after another: the first call builds the
    trial's platform into it, later calls reuse it.  Sharing is exact
    (DESIGN.md §11) — a run reads the same traces a fresh build gives.
    """
    if platforms is None:
        platform = scenario.build_platform(trial)
    else:
        platform = platforms.get(trial)
        if platform is None:
            platform = platforms[trial] = scenario.build_platform(trial)
    scheduler = make_scheduler(heuristic, platform=platform)
    sim = MasterSimulator(
        platform,
        scenario.app,
        scheduler,
        options=options or SimulatorOptions(),
        rng=scenario.scheduler_rng(trial, heuristic),
    )
    report = sim.run(max_slots=max_slots)
    return float(report.makespan if report.makespan is not None else max_slots)


def iter_work_units(
    scenarios: Iterable[Scenario], config: CampaignConfig
) -> Iterator[CampaignUnit]:
    """Expand a scenario population into campaign work units.

    Units appear in the normative campaign order — scenarios as given,
    trials ascending within each scenario — which is also the order
    aggregation folds them back in.
    """
    heuristics = tuple(config.heuristics)
    for scenario in scenarios:
        ref = as_scenario_ref(scenario)
        for trial in range(config.trials):
            yield CampaignUnit(
                scenario_ref=ref,
                scenario_key=scenario.key,
                trial=trial,
                heuristics=heuristics,
                max_slots=config.max_slots,
                options=config.options,
            )


def _fold_unit(
    result: CampaignResult, unit: CampaignUnit, outcome: CampaignUnitResult
) -> None:
    """Aggregate one unit outcome (must be called in unit order)."""
    scenario_acc = result.per_scenario.setdefault(
        unit.scenario_key, DfbAccumulator()
    )
    for heuristic in outcome.truncated:
        result.truncated_runs.append(
            (unit.scenario_key, unit.trial, heuristic)
        )
    instance_key = unit.instance_key
    result.accumulator.add_instance(instance_key, outcome.makespans)
    scenario_acc.add_instance(instance_key, outcome.makespans)
    result.records.append((instance_key, dict(outcome.makespans)))
    result.instances += 1


def _campaign_fingerprint(
    units: Sequence[CampaignUnit], config: CampaignConfig
) -> dict:
    """Identity of everything that shapes unit *results* (JSON-safe).

    Restored checkpoint entries are only valid for a campaign that would
    simulate them identically: same scenario seed material, slot budget
    and simulator options.  Heuristics and trial count are deliberately
    absent — they change *which* units exist (handled per entry), not
    what an existing unit's numbers mean.
    """
    roots = sorted(
        {repr(getattr(unit.scenario_ref, "root_seed", None)) for unit in units}
    )
    return {
        "root_seeds": roots,
        "max_slots": config.max_slots,
        "options": asdict(config.options),
    }


def run_campaign(
    scenarios: Iterable[Scenario],
    config: CampaignConfig,
    *,
    backend: Union[None, str, ExecutionBackend] = None,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[int, tuple], None]] = None,
    checkpoint=None,
) -> CampaignResult:
    """Run the full campaign on an execution backend.

    Args:
        scenarios: the scenario population (e.g. from
            :class:`~repro.workload.scenarios.ScenarioGenerator`).
        config: execution parameters.
        backend: ``None``/``"serial"``, ``"thread"``, ``"process"``, or an
            :class:`~repro.experiments.backends.ExecutionBackend`
            instance.  Statistics are bit-identical across backends.
        jobs: worker count when ``backend`` is a name.
        progress: optional callback ``(instances_done, instance_key)``
            invoked in campaign order as instances aggregate.
        checkpoint: optional path to a
            :class:`~repro.experiments.persistence.CampaignCheckpoint`
            journal.  Completed units are appended as they finish; units
            already present are restored without re-simulation, so an
            interrupted campaign resumes where it left off.

    Returns:
        The aggregated :class:`CampaignResult`.
    """
    engine = make_backend(backend, jobs=jobs)
    units = list(iter_work_units(scenarios, config))

    journal = None
    outcomes: Dict[int, CampaignUnitResult] = {}
    pending: List[Tuple[int, CampaignUnit]] = []
    if checkpoint is not None:
        from .persistence import CampaignCheckpoint

        if hasattr(checkpoint, "load") and hasattr(checkpoint, "append"):
            journal = checkpoint  # CampaignCheckpoint or ShardedCheckpoint
        else:
            journal = CampaignCheckpoint(
                checkpoint, meta=_campaign_fingerprint(units, config)
            )
        stored = journal.load()
        for index, unit in enumerate(units):
            entry = stored.get(unit.instance_key)
            if entry is not None and set(entry[0]) == set(unit.heuristics):
                outcomes[index] = CampaignUnitResult(
                    makespans=dict(entry[0]), truncated=tuple(entry[1])
                )
            else:
                pending.append((index, unit))
    else:
        pending = list(enumerate(units))

    result = CampaignResult()
    next_to_fold = 0

    def fold_ready() -> None:
        nonlocal next_to_fold
        while next_to_fold in outcomes:
            unit = units[next_to_fold]
            _fold_unit(result, unit, outcomes.pop(next_to_fold))
            if progress is not None:
                progress(result.instances, unit.instance_key)
            next_to_fold += 1

    fold_ready()
    if pending:
        index_map = [index for index, _unit in pending]
        for local_index, outcome in engine.run(
            [unit for _index, unit in pending]
        ):
            index = index_map[local_index]
            if journal is not None:
                journal.append(
                    units[index].instance_key,
                    outcome.makespans,
                    outcome.truncated,
                )
            outcomes[index] = outcome
            fold_ready()
    if next_to_fold != len(units):  # pragma: no cover - backend contract
        raise RuntimeError(
            f"backend {engine!r} yielded {next_to_fold} of {len(units)} units"
        )
    return result

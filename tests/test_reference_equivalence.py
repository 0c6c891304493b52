"""Fast simulator vs the slot-stepped reference (DESIGN.md §3).

:class:`~repro.sim.reference.ReferenceSimulator` is the one oracle: a
plain slot-at-a-time implementation of the model with a Python list of
instances, an eager per-round snapshot and the scalar scheduler API.
:class:`~repro.sim.master.MasterSimulator` — span stepping, the instance
table, the incremental ``RoundState``, the event calendar — must produce
the *identical* :class:`~repro.sim.metrics.SimulationReport`, event log
and ``network.usage`` audit trail, across the whole heuristic registry,
both objectives, every simulator option, non-Markovian truth sources and
large platforms.  Any divergence means the fast path skipped or
reordered something observable.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.core.heuristics.base import Scheduler
from repro.core.heuristics.registry import (
    PAPER_HEURISTICS,
    available_heuristics,
    make_scheduler,
)
from repro.core.markov import paper_random_model
from repro.rng import RngFactory
from repro.sim import reference as reference_module
from repro.sim.availability import SemiMarkovSource, WeibullSource
from repro.sim.events import EventLog
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.sim.platform import Platform, Processor
from repro.sim.reference import ReferenceSimulator, eager_context
from repro.sim.timeline import TimelineRecorder
from repro.types import ProcState
from repro.workload.application import IterativeApplication
from repro.workload.scenarios import ScenarioGenerator

FULL_REGISTRY = available_heuristics() + ["clairvoyant"]

SIMULATORS = {"fast": MasterSimulator, "reference": ReferenceSimulator}


def simulate(kind, platform, app, heuristic, rng, *, objective="run",
             budget=40_000, with_log=True, timeline=False, **options):
    """One run on one simulator; returns ``(report, events, usage), sim``."""
    log = EventLog(enabled=with_log)
    recorder = TimelineRecorder(len(platform)) if timeline else None
    sim = SIMULATORS[kind](
        platform,
        app,
        make_scheduler(heuristic, platform=platform),
        options=SimulatorOptions(**options),
        rng=rng,
        log=log,
        timeline=recorder,
    )
    if objective == "run":
        report = sim.run(max_slots=budget)
    else:
        report = sim.run_slots(budget)
    return (report, log.events, sim.network.usage), sim


def assert_equivalent(make_platform, app, heuristic, make_rng, **kwargs):
    """Run both simulators on identical inputs and compare everything.

    Returns the fast simulator's outcome and instance for extra checks.
    """
    fast, fast_sim = simulate(
        "fast", make_platform(), app, heuristic, make_rng(), **kwargs
    )
    ref, ref_sim = simulate(
        "reference", make_platform(), app, heuristic, make_rng(), **kwargs
    )
    assert fast[0] == ref[0], f"report diverged ({heuristic})"
    assert fast[1] == ref[1], f"event log diverged ({heuristic})"
    assert fast[2] == ref[2], f"network audit diverged ({heuristic})"
    if kwargs.get("timeline"):
        assert np.array_equal(fast_sim.timeline.matrix(),
                              ref_sim.timeline.matrix())
    return fast, fast_sim


def assert_scenario_equivalent(scenario, heuristic, *, trial=0, **kwargs):
    return assert_equivalent(
        lambda: scenario.build_platform(trial),
        scenario.app,
        heuristic,
        lambda: scenario.scheduler_rng(trial, heuristic),
        **kwargs,
    )


# ---------------------------------------------------------------------- #
# The reference must stay independent of the machinery it checks.         #
# ---------------------------------------------------------------------- #
FORBIDDEN_NAMES = {"RoundState", "InstanceTable", "PlatformCalendar",
                   "MasterSimulator"}
FORBIDDEN_MODULES = {"repro.sim.master", "repro.sim.instance_table",
                     "repro.core.heuristics.round_state"}


def forbidden_imports(source: str, package: str = "repro.sim") -> list:
    """Imports of fast-path machinery in ``source`` (a module of
    ``package``), resolving relative imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in FORBIDDEN_MODULES:
                    found.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".")
            if node.level:
                base = parts[: len(parts) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            if module in FORBIDDEN_MODULES:
                found.append(module)
            for alias in node.names:
                if alias.name in FORBIDDEN_NAMES:
                    found.append(alias.name)
                if f"{module}.{alias.name}" in FORBIDDEN_MODULES:
                    found.append(f"{module}.{alias.name}")
    return found


class TestImportGuard:
    """Without this the equivalence could quietly become tautological."""

    def test_reference_imports_no_fast_machinery(self):
        source = Path(reference_module.__file__).read_text()
        assert forbidden_imports(source) == []

    @pytest.mark.parametrize("line", [
        "from ..core.heuristics.base import RoundState",
        "from .instance_table import InstanceTable",
        "from .platform import Platform, PlatformCalendar",
        "from .master import MasterSimulator",
        "from . import master",
        "import repro.sim.master",
        "from repro.core.heuristics import round_state",
    ])
    def test_guard_flags_each_forbidden_import(self, line):
        assert forbidden_imports(line) != []


# ---------------------------------------------------------------------- #
# The heuristic registry.                                                 #
# ---------------------------------------------------------------------- #
def _variant_id(kwargs):
    return "-".join(f"{k}={v}" for k, v in kwargs.items())


LARGE_CELL_BUDGETS = {"clairvoyant": 30, "ud-exact": 100, "ud*-exact": 100}


class TestFullRegistry:
    """Every registry heuristic on four cells — the paper midpoint with
    audit on, both objectives wherever they differ — and under every
    option that changes when or how a round acts."""

    @pytest.mark.parametrize("objective", ["run", "run_slots"])
    @pytest.mark.parametrize("heuristic", FULL_REGISTRY)
    def test_midpoint_cell_with_audit(self, heuristic, objective):
        scenario = ScenarioGenerator(12061).scenario(20, 10, 5, 0)
        budget = 100_000 if objective == "run" else 1500
        (report, _, _), _ = assert_scenario_equivalent(
            scenario, heuristic, objective=objective, budget=budget,
            audit=True,
        )
        if objective == "run":
            assert report.makespan is not None  # sanity: finished

    @pytest.mark.parametrize("objective", ["run", "run_slots"])
    @pytest.mark.parametrize("heuristic", FULL_REGISTRY)
    def test_multi_worker_cell(self, heuristic, objective):
        scenario = ScenarioGenerator(31061).scenario(10, 5, 3, 0)
        budget = 60_000 if objective == "run" else 900
        assert_scenario_equivalent(
            scenario, heuristic, trial=int(objective == "run_slots"),
            objective=objective, budget=budget,
        )

    @pytest.mark.parametrize("objective", ["run", "run_slots"])
    @pytest.mark.parametrize("heuristic", FULL_REGISTRY)
    def test_small_cell(self, heuristic, objective):
        wmin = 1 if objective == "run" else 2
        scenario = ScenarioGenerator(24061).scenario(5, 5, wmin, 0)
        budget = 30_000 if objective == "run" else 800
        assert_scenario_equivalent(
            scenario, heuristic, trial=int(objective == "run_slots"),
            objective=objective, budget=budget,
        )

    @pytest.mark.parametrize("heuristic", FULL_REGISTRY)
    def test_large_platform_cell(self, heuristic):
        """p = 150 (above the schedulers' vectorisation threshold), so
        the fast path runs the event calendar and the large-platform
        scoring paths.  The horizon ends before the iterations do, so
        ``run`` and ``run_slots`` would simulate the same slots."""
        scenario = large_grid()
        # The reference drives the scalar ``place``, which re-scores every
        # candidate: for the ground-truth walker and the exact-UD scores
        # that costs a few ms per candidate at p = 150, so their cells
        # get shorter horizons.
        budget = LARGE_CELL_BUDGETS.get(heuristic, 300)
        assert_scenario_equivalent(scenario, heuristic, budget=budget)

    @pytest.mark.parametrize(
        "options",
        [{"replication": False}, {"max_replicas": 1}, {"proactive": True},
         {"replan_policy": "every-slot"}, {"replan_policy": "sticky"},
         {"replan_policy": "debounce:4"}, {"replan_policy": "relevant-up"}],
        ids=_variant_id,
    )
    @pytest.mark.parametrize("heuristic", FULL_REGISTRY)
    def test_options_small_cell(self, heuristic, options):
        """Every heuristic under each option that changes when or how a
        round acts: stateful schedulers (passive, the random family)
        meet every trigger and replication pattern."""
        scenario = ScenarioGenerator(24061).scenario(5, 5, 2, 0)
        assert_scenario_equivalent(
            scenario, heuristic, budget=30_000, **options
        )


class TestRandomizedSweep:
    """Deterministic random configurations across the registry long tail,
    drawing the options too."""

    @pytest.mark.parametrize(
        "config_seed",
        [*range(1000, 1008), *range(4000, 4006), *range(6000, 6008)],
    )
    def test_random_config(self, config_seed):
        cfg = np.random.default_rng(config_seed)
        n = int(cfg.choice([1, 2, 5, 10, 20, 40]))
        ncom = int(cfg.choice([1, 5, 10, 20]))
        wmin = int(cfg.integers(1, 6))
        heuristic = str(cfg.choice(list(PAPER_HEURISTICS)))
        trial = int(cfg.integers(0, 3))
        objective = str(cfg.choice(["run", "run_slots"]))
        budget = int(cfg.choice([500, 3000, 30_000]))
        options = {
            "audit": bool(cfg.integers(0, 2)),
            "proactive": bool(cfg.integers(0, 2)),
            "max_replicas": int(cfg.integers(0, 3)),
            "replan_policy": str(cfg.choice(
                ["event", "event", "sticky", "debounce:4", "relevant-up"]
            )),
        }
        scenario = ScenarioGenerator(888).scenario(n, ncom, wmin, 0)
        assert_scenario_equivalent(
            scenario, heuristic, trial=trial, objective=objective,
            budget=budget, **options,
        )


# ---------------------------------------------------------------------- #
# Simulator options and observers.                                        #
# ---------------------------------------------------------------------- #
OPTION_VARIANTS = [
    {"replication": False},
    {"max_replicas": 0},
    {"max_replicas": 1},
    {"proactive": True},
    {"proactive": True, "audit": True},
    {"audit": True},
    {"with_log": False},
    {"replan_policy": "every-slot"},
    {"replan_policy": "sticky"},
    {"replan_policy": "debounce:1"},
    {"replan_policy": "debounce:3"},
    {"replan_policy": "relevant-up"},
]


class TestOptionVariants:
    """Every option reroutes some fast-path branch."""

    @pytest.mark.parametrize("options", OPTION_VARIANTS, ids=_variant_id)
    @pytest.mark.parametrize("heuristic", ["emct", "random2w"])
    def test_small_cell(self, heuristic, options):
        scenario = ScenarioGenerator(71).scenario(5, 5, 2, 0)
        assert_scenario_equivalent(
            scenario, heuristic, budget=50_000, **options
        )

    @pytest.mark.parametrize("options", [
        {"audit": True},
        {"proactive": True},
        {"replication": False},
        {"replan_policy": "sticky"},
        {"replan_policy": "debounce:3"},
        {"replan_policy": "relevant-up"},
        {"replan_policy": "every-slot"},
    ], ids=_variant_id)
    @pytest.mark.parametrize("heuristic", ["emct*", "random2w"])
    def test_large_platform_cell(self, heuristic, options):
        assert_scenario_equivalent(
            large_grid(), heuristic, budget=400, **options
        )

    def test_large_platform_without_log(self):
        assert_scenario_equivalent(
            large_grid(), "mct", budget=400, with_log=False
        )

    def test_large_platform_completes(self):
        """Truncated-horizon identity is necessary but not sufficient: a
        completing run exercises makespan finalisation on both sides."""
        (report, _, _), _ = assert_scenario_equivalent(
            large_grid(), "emct*", budget=900
        )
        assert report.makespan is not None

    @pytest.mark.parametrize("policy", ["event", "sticky"])
    def test_p400_calendar_cell(self, policy):
        (_, _, _), sim = assert_scenario_equivalent(
            large_grid(p=400), "mct", budget=600, with_log=False,
            replan_policy=policy,
        )
        assert sim.op_counts["calendar_pops"] > 0  # the calendar engaged


class TestTimeline:
    """A timeline recorder makes every availability transition observable:
    the calendar breaks a span at each one, and quiet spans fill the
    recorder in batch."""

    @pytest.mark.parametrize("cell", [(5, 5, 1), (20, 10, 5)])
    @pytest.mark.parametrize("heuristic", ["emct*", "random2w"])
    def test_timeline_identical(self, cell, heuristic):
        scenario = ScenarioGenerator(12061).scenario(*cell, 0)
        (report, _, _), sim = assert_scenario_equivalent(
            scenario, heuristic, budget=60_000, timeline=True, audit=True
        )
        assert sim.timeline.matrix().shape[0] == report.slots_simulated
        assert sim.op_counts["calendar_pops"] > 0  # the calendar drives it

    @pytest.mark.parametrize("policy", ["event", "sticky"])
    def test_p400_timeline_identical(self, policy):
        """A recorder on a large platform: reports, logs, audit trails and
        timeline matrices match the reference under a policy that glides
        without observers (sticky) and one that does not (event)."""
        (report, _, _), sim = assert_scenario_equivalent(
            large_grid(p=400), "mct", budget=600, timeline=True,
            replan_policy=policy,
        )
        assert sim.timeline.matrix().shape == (report.slots_simulated, 400)
        assert sim.op_counts["calendar_pops"] > 0

    def test_fast_path_still_spans_with_timeline(self):
        scenario = ScenarioGenerator(12061).scenario(20, 10, 5, 0)
        (report, _, _), sim = simulate(
            "fast", scenario.build_platform(0), scenario.app, "emct*",
            scenario.scheduler_rng(0, "emct*"), budget=60_000,
            with_log=False, timeline=True,
        )
        assert sim.steps_executed < report.slots_simulated
        assert sim.timeline.slots_recorded == report.slots_simulated

    def test_record_quiet_span_validates_count(self):
        timeline = TimelineRecorder(2)
        with pytest.raises(ValueError, match="count must be positive"):
            timeline.record_quiet_span(np.zeros(2, dtype=np.uint8), [], [], 0)


class TestUnfinishable:
    def test_same_truncation(self):
        """Budget exhaustion: both stop at exactly the same slot."""
        codes = ["r" * 8, "ur" + "r" * 6]

        def build():
            return Platform(
                [
                    Processor.from_trace(q, 2, [
                        {"u": 0, "r": 1, "d": 2}[c] for c in trace
                    ])
                    for q, trace in enumerate(codes)
                ],
                ncom=1,
            )

        app = IterativeApplication(
            tasks_per_iteration=2, iterations=2, t_prog=2, t_data=1
        )
        (report, _, _), _ = assert_equivalent(
            build, app, "mct", lambda: np.random.default_rng(7), budget=400
        )
        assert report.makespan is None
        assert report.slots_simulated == 400


# ---------------------------------------------------------------------- #
# Non-Markovian ground truth.                                             #
# ---------------------------------------------------------------------- #
def _weibull_platform(seed, p=6):
    factory = RngFactory(seed)
    processors = []
    for q in range(p):
        source = WeibullSource(
            shape=0.7,
            scale=float(factory.generator("scale", q).uniform(15, 60)),
            mean_reclaimed=8.0,
            mean_down=12.0,
            p_up_to_reclaimed=0.6,
            rng=factory.generator("avail", q),
        )
        processors.append(
            Processor(
                index=q,
                speed_w=int(factory.generator("speed", q).integers(2, 9)),
                availability=source,
                belief=paper_random_model(factory.generator("belief", q)),
            )
        )
    return Platform(processors, ncom=3)


def _semi_markov_platform(seed, p=5):
    factory = RngFactory(seed)
    embedded = np.array([[0.0, 0.6, 0.4], [0.8, 0.0, 0.2], [1.0, 0.0, 0.0]])

    def sojourn(mean):
        def sample(rng):
            return int(rng.geometric(1.0 / mean))

        return sample

    processors = []
    for q in range(p):
        source = SemiMarkovSource(
            embedded,
            {
                int(ProcState.UP): sojourn(30.0),
                int(ProcState.RECLAIMED): sojourn(6.0),
                int(ProcState.DOWN): sojourn(10.0),
            },
            factory.generator("avail", q),
        )
        processors.append(
            Processor(
                index=q,
                speed_w=int(factory.generator("speed", q).integers(2, 7)),
                availability=source,
                belief=paper_random_model(factory.generator("belief", q)),
            )
        )
    return Platform(processors, ncom=2)


class TestMismatchSources:
    """Weibull / semi-Markov ground truth through the span interface."""

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("heuristic", ["emct*", "mct"])
    def test_weibull(self, seed, heuristic):
        app = IterativeApplication(
            tasks_per_iteration=8, iterations=4, t_prog=6, t_data=2
        )
        assert_equivalent(
            lambda: _weibull_platform(seed), app, heuristic,
            lambda: np.random.default_rng(7), budget=60_000, audit=True,
        )

    @pytest.mark.parametrize("objective,budget", [("run", 60_000),
                                                  ("run_slots", 2000)])
    def test_semi_markov(self, objective, budget):
        app = IterativeApplication(
            tasks_per_iteration=6, iterations=3, t_prog=4, t_data=2
        )
        assert_equivalent(
            lambda: _semi_markov_platform(23), app, "emct*",
            lambda: np.random.default_rng(7), objective=objective,
            budget=budget,
        )

    def test_weibull_without_observers(self):
        """Mismatch sources through the refined glide (no log)."""
        app = IterativeApplication(
            tasks_per_iteration=8, iterations=4, t_prog=6, t_data=2
        )
        assert_equivalent(
            lambda: _weibull_platform(31), app, "emct*",
            lambda: np.random.default_rng(7), budget=60_000, with_log=False,
        )


# ---------------------------------------------------------------------- #
# Large platforms: resumable runs and the calendar's cost model.          #
# ---------------------------------------------------------------------- #
def large_grid(p=150, n=10, ncom=4, wmin=5, sojourn=60, iterations=2,
               seed=7421):
    """A large-grid scenario small enough for the test matrix.

    ``p`` stays above the vectorisation threshold (128) so these runs
    exercise the large-platform scheduler paths, not just the scalar
    ones.
    """
    gen = ScenarioGenerator(seed, p=p, iterations=iterations)
    return gen.large_grid_scenario(n, ncom, wmin, 0, mean_sojourn=sojourn)


class TestResume:
    """Pausing a fast run with begin_run/advance_until is invisible."""

    BUDGET = 500

    def _paused(self, scenario, stride, timeline):
        platform = scenario.build_platform(0)
        log = EventLog(enabled=True)
        sim = MasterSimulator(
            platform,
            scenario.app,
            make_scheduler("mct", platform=platform),
            rng=scenario.scheduler_rng(0, "mct"),
            log=log,
            timeline=TimelineRecorder(len(platform)) if timeline else None,
        )
        sim.begin_run(max_slots=self.BUDGET)
        limit = stride
        while not sim.advance_until(limit):
            limit += stride
        return sim.finish_run(), log.events, sim.network.usage

    @pytest.mark.parametrize("stride", [1, 25, BUDGET])
    @pytest.mark.parametrize("timeline", [False, True],
                             ids=["no-timeline", "timeline"])
    def test_paused_run_matches_reference(self, timeline, stride):
        scenario = large_grid()
        paused = self._paused(scenario, stride, timeline)
        reference, _ = simulate(
            "reference", scenario.build_platform(0), scenario.app, "mct",
            scenario.scheduler_rng(0, "mct"), budget=self.BUDGET,
        )
        assert paused == reference

    def test_paused_run_matches_run_slots(self):
        scenario = large_grid()
        plain, _ = simulate(
            "fast", scenario.build_platform(0), scenario.app, "mct",
            scenario.scheduler_rng(0, "mct"), objective="run_slots",
            budget=self.BUDGET,
        )
        assert self._paused(scenario, 25, timeline=False) == plain


class TestChurnScaling:
    """The calendar's boundary work scales with churn, not platform size."""

    def _counts(self, p=400):
        scenario = large_grid(p=p)
        _, sim = simulate(
            "fast", scenario.build_platform(0), scenario.app, "mct",
            scenario.scheduler_rng(0, "mct"), budget=600, with_log=False,
            replan_policy="sticky",
        )
        return sim.op_counts, p

    def test_calendar_touches_far_fewer_than_a_sweep(self):
        counts, p = self._counts()
        boundaries = counts["boundaries"]
        assert boundaries > 0
        # One full O(p) build at the run's start, then only pops —
        # a per-boundary sweep would touch p × boundaries.
        assert counts["boundary_workers_touched"] == p + counts["calendar_pops"]
        assert counts["boundary_workers_touched"] < boundaries * p / 10

    def test_calendar_touches_churn(self):
        counts, p = self._counts()
        boundaries = counts["boundaries"]
        assert boundaries > 0
        touched_per_boundary = counts["boundary_workers_touched"] / boundaries
        # With mean sojourns ~60 slots, expected churn per slot is a few
        # percent of p; an order of magnitude under p is a loose bound
        # that still fails instantly if anyone reintroduces a full sweep.
        assert touched_per_boundary < p / 10
        assert counts["calendar_pops"] < boundaries * p / 10


class TestCalendarNextChange:
    """The calendar is the one owner of each processor's next transition
    (DESIGN.md §12): the glide span search reads ``cal.next_change``, and
    audit mode checks that list against the sources at every boundary."""

    @pytest.mark.parametrize("policy", ["event", "sticky"])
    def test_audited_glide_runs_match_reference(self, policy):
        # No log: the span search glides, reading the calendar's list.
        assert_scenario_equivalent(
            large_grid(), "mct", budget=600, with_log=False, audit=True,
            replan_policy=policy,
        )

    def test_audit_catches_a_stale_next_change(self):
        scenario = large_grid()
        platform = scenario.build_platform(0)
        sim = MasterSimulator(
            platform,
            scenario.app,
            make_scheduler("mct", platform=platform),
            options=SimulatorOptions(audit=True, replan_policy="sticky"),
            rng=scenario.scheduler_rng(0, "mct"),
        )
        sim.begin_run(max_slots=600)
        sim.advance_until(100)
        cal = sim._cal
        # The latest entry is not popped at the next boundary, so nothing
        # but the audit can notice that it went stale.
        q = max(range(len(platform)), key=cal.next_change.__getitem__)
        cal.next_change[q] -= 1
        with pytest.raises(AssertionError, match="calendar next transition"):
            sim.advance_until(600)


# ---------------------------------------------------------------------- #
# The RoundState compatibility shim against the eager snapshot.           #
# ---------------------------------------------------------------------- #
class _ShimProbe(Scheduler):
    """Wraps an inner scheduler; at every round asserts the lazy shim views
    equal the reference's eager snapshot of the same simulator state."""

    name = "shim-probe"

    def __init__(self, inner):
        self._inner = inner
        self.sim = None  # attached after construction
        self.rounds_checked = 0

    def place_array(self, rs, n_tasks, allowed=None):
        sim = self.sim
        remaining = sum(
            1
            for inst in sim._tbl.objects
            if inst is not None and not inst.pinned and not inst.is_replica
        )
        eager = eager_context(
            sim.platform, sim.workers, sim.app, rs.slot, rs.state, remaining,
            sim.rng,
        )
        lazy = rs.as_context()
        assert len(lazy.processors) == len(eager.processors)
        for eager_view, lazy_view in zip(eager.processors, lazy.processors):
            assert lazy_view == eager_view  # dataclass: field-for-field
        assert lazy.slot == eager.slot
        assert lazy.t_prog == eager.t_prog
        assert lazy.t_data == eager.t_data
        assert lazy.ncom == eager.ncom
        assert lazy.remaining_tasks == eager.remaining_tasks
        assert [v.index for v in lazy.up_processors()] == [
            v.index for v in eager.up_processors()
        ]
        self.rounds_checked += 1
        return self._inner.place_array(rs, n_tasks, allowed)

    def select(self, ctx, candidates, nq, n_active):  # pragma: no cover
        raise NotImplementedError("probe overrides place_array")


class TestCompatibilityShim:
    """Lazily materialised views == eager reference snapshots, across a
    randomized sweep of mid-simulation states."""

    @pytest.mark.parametrize("config_seed", range(5))
    def test_lazy_views_equal_eager_snapshots(self, config_seed):
        cfg = np.random.default_rng(8800 + config_seed)
        n = int(cfg.choice([2, 5, 10, 20]))
        ncom = int(cfg.choice([1, 5, 10]))
        wmin = int(cfg.integers(1, 6))
        trial = int(cfg.integers(0, 3))
        inner = str(cfg.choice(["mct", "emct*", "random2w"]))
        scenario = ScenarioGenerator(555).scenario(n, ncom, wmin, 0)
        platform = scenario.build_platform(trial)
        probe = _ShimProbe(make_scheduler(inner, platform=platform))
        sim = MasterSimulator(
            platform,
            scenario.app,
            probe,
            rng=scenario.scheduler_rng(trial, inner),
        )
        probe.sim = sim
        sim.run(max_slots=20_000)
        assert probe.rounds_checked > 0

    def test_shim_probe_is_transparent(self):
        """The probe (eager build + comparisons) must not perturb the
        run: same report as the bare inner heuristic."""
        scenario = ScenarioGenerator(555).scenario(5, 5, 2, 0)
        reports = []
        for wrap in (False, True):
            platform = scenario.build_platform(0)
            inner = make_scheduler("emct*", platform=platform)
            sched = _ShimProbe(inner) if wrap else inner
            sim = MasterSimulator(
                platform,
                scenario.app,
                sched,
                rng=scenario.scheduler_rng(0, "emct*"),
            )
            if wrap:
                sched.sim = sim
            reports.append(sim.run(max_slots=20_000))
        bare, probed = reports
        # heuristic_name differs by construction; compare the physics.
        probed_dict = dict(probed.__dict__, heuristic_name=bare.heuristic_name)
        assert probed_dict == bare.__dict__


# ---------------------------------------------------------------------- #
# Refused placements: None and DOWN choices, originals and replicas.      #
# ---------------------------------------------------------------------- #
class _RefusedChoices(Scheduler):
    """Cycles through a DOWN processor (refused: the instance stays
    unplaced), ``None`` and the first candidate, one step per placed
    instance, so both simulators' refusal paths run for originals and
    replicas alike.  Overrides the scalar ``place``, which the master
    reaches through the compatibility shim."""

    name = "refused-choices"

    def __init__(self):
        self.calls = 0

    def place(self, ctx, n_tasks, allowed=None):
        candidates = self._candidates(ctx, allowed)
        down = [v.index for v in ctx.processors if v.state == ProcState.DOWN]
        choices = []
        for _ in range(n_tasks):
            self.calls += 1
            if self.calls % 3 == 1 and down:
                choices.append(down[self.calls % len(down)])
            elif self.calls % 3 == 2 or not candidates:
                choices.append(None)
            else:
                choices.append(candidates[0].index)
        return choices

    def select(self, ctx, candidates, nq, n_active):  # pragma: no cover
        raise NotImplementedError("overrides place")


class TestRefusedPlacements:
    @pytest.mark.parametrize("objective", ["run", "run_slots"])
    @pytest.mark.parametrize("cell", [(5, 5, 1), (10, 10, 2), (20, 10, 5)])
    def test_refusals_equal_reference(self, cell, objective):
        scenario = ScenarioGenerator(888).scenario(*cell, 0)
        outcomes = []
        for kind in ("fast", "reference"):
            log = EventLog(enabled=True)
            sim = SIMULATORS[kind](
                scenario.build_platform(0),
                scenario.app,
                _RefusedChoices(),
                options=SimulatorOptions(audit=True, max_replicas=2),
                rng=scenario.scheduler_rng(0, "refused-choices"),
                log=log,
            )
            if objective == "run":
                report = sim.run(max_slots=20_000)
            else:
                report = sim.run_slots(3_000)
            outcomes.append((report, log.events, sim.network.usage))
        fast, ref = outcomes
        assert fast[0] == ref[0]
        assert fast[1] == ref[1]
        assert fast[2] == ref[2]
        assert fast[0].replicas_launched > 0

"""Trace sharing within a work unit (DESIGN.md §11).

A :class:`~repro.experiments.harness.CampaignUnit` runs its heuristics
one after another on one trial platform.  Sharing is exact because the
RLE cursor is only a cache (a run that starts again at slot 0 re-locates
by binary search) and trace content does not depend on how far, or in
which steps, earlier runs grew it.  Everything here compares a unit's
results against fresh per-heuristic builds.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.core.heuristics.registry import available_heuristics, make_scheduler
from repro.experiments.figure2 import run_figure2
from repro.experiments.harness import (
    CampaignConfig,
    CampaignUnit,
    run_campaign,
    run_instance,
)
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.sim.availability import MarkovSource
from repro.sim.events import EventLog
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.workload.scenarios import Scenario, ScenarioGenerator

NAMES = tuple(available_heuristics()) + ("clairvoyant",)
MAX_SLOTS = 50_000
HORIZON = 2_000
OPTIONS = {
    "default": SimulatorOptions(),
    "no-replication": SimulatorOptions(replication=False),
    "sticky": SimulatorOptions(replan_policy="sticky"),
}


@pytest.fixture
def short_chunks(monkeypatch):
    """Grow Markov traces in small steps so every run extends the shared
    ones.

    With the default 1024-slot first chunk these runs (makespans of a
    few hundred slots) would never grow a Markov trace; semi-Markov
    traces grow one sojourn at a time, inside every run, anyway.  Trace
    content does not depend on the growth schedule, so this changes only
    when draws happen, and fresh and shared runs use the same setting.
    """
    monkeypatch.setattr(MarkovSource, "_CHUNK", 32)


def _scenario(truth):
    return dataclasses.replace(
        ScenarioGenerator(4).scenario(5, 5, 2, 0), truth=truth
    )


def _unit(scenario, trial, heuristics, options):
    return CampaignUnit(
        scenario_ref=scenario,
        scenario_key=scenario.key,
        trial=trial,
        heuristics=tuple(heuristics),
        max_slots=MAX_SLOTS,
        options=options,
    )


def _assert_read_in_random_order_equals(reference, grown, trial):
    order = np.random.default_rng(trial).permutation(HORIZON)
    for want, got in zip(reference, grown):
        states = np.empty(HORIZON, dtype=np.uint8)
        for slot in order:
            states[slot] = got.availability.state_at(int(slot))
        np.testing.assert_array_equal(
            states, want.availability.block(0, HORIZON)
        )


@pytest.mark.parametrize("trial", range(3))
@pytest.mark.parametrize("chunk", [1, 3, 32, 257, 4096])
def test_trace_content_independent_of_growth_schedule(chunk, trial, monkeypatch):
    """Markov traces read in random order, grown in ``chunk``-slot steps,
    equal the default build: one draw per slot, in slot order."""
    scenario = _scenario("markov")
    reference = scenario.build_platform(trial)
    monkeypatch.setattr(MarkovSource, "_CHUNK", chunk)
    _assert_read_in_random_order_equals(
        reference, scenario.build_platform(trial), trial
    )


@pytest.mark.parametrize("trial", range(3))
def test_semi_markov_trace_content_independent_of_read_order(trial):
    """Semi-Markov traces grow one sojourn at a time whatever the chunk
    size: read in random order, they equal a second build of the trial."""
    scenario = _scenario("semi-markov")
    _assert_read_in_random_order_equals(
        scenario.build_platform(trial), scenario.build_platform(trial), trial
    )


@pytest.mark.parametrize("truth", ["markov", "semi-markov"])
def test_rewound_sources_answer_like_fresh_ones(truth):
    """A source whose cursor an earlier run left at its end answers every
    query from slot 0 on as a fresh one does: the cursor is a cache."""
    scenario = _scenario(truth)
    rewound = scenario.build_platform(0)
    fresh = scenario.build_platform(0)
    for processor in rewound:
        processor.availability.state_at(HORIZON - 1)
    slots = list(range(0, HORIZON, 7)) + list(range(HORIZON - 1, 0, -13))
    for old, new in zip(rewound, fresh):
        a, b = old.availability, new.availability
        for slot in slots:
            assert a.state_at(slot) == b.state_at(slot), slot
            assert a.next_change_after(slot, limit=HORIZON) == (
                b.next_change_after(slot, limit=HORIZON)
            ), slot
            assert a.up_count_in(slot // 2, slot) == b.up_count_in(
                slot // 2, slot
            ), slot
            assert a.nth_up_after(slot, 3, limit=HORIZON) == (
                b.nth_up_after(slot, 3, limit=HORIZON)
            ), slot
    for slot in slots:
        np.testing.assert_array_equal(
            rewound.states_at(slot), fresh.states_at(slot)
        )


@pytest.mark.usefixtures("short_chunks")
@pytest.mark.parametrize("option_name", sorted(OPTIONS))
@pytest.mark.parametrize("truth", ["markov", "semi-markov"])
def test_unit_makespans_equal_fresh_runs(truth, option_name, monkeypatch):
    scenario = _scenario(truth)
    options = OPTIONS[option_name]
    builds = []
    build_platform = Scenario.build_platform

    def counted_build(self, trial):
        builds.append(trial)
        return build_platform(self, trial)

    monkeypatch.setattr(Scenario, "build_platform", counted_build)
    for trial in (0, 1):
        fresh = {
            name: run_instance(
                scenario, trial, name, max_slots=MAX_SLOTS, options=options
            )
            for name in NAMES
        }
        # The runs must be long enough to grow the traces past the first
        # chunk, and differ between heuristics, or order would not matter.
        assert max(fresh.values()) > 32
        assert len(set(fresh.values())) > 1
        for order in (NAMES, NAMES[::-1]):
            builds.clear()
            result = _unit(scenario, trial, order, options).run()
            assert builds == [trial]
            assert result.makespans == fresh, (truth, option_name, trial)
            assert list(result.makespans) == list(order)


def _simulate(scenario, platform, name, trial=0, options=None, slots=None):
    """One run on ``platform``; returns its report and event log."""
    log = EventLog()
    sim = MasterSimulator(
        platform,
        scenario.app,
        make_scheduler(name, platform=platform),
        options=options or SimulatorOptions(),
        rng=scenario.scheduler_rng(trial, name),
        log=log,
    )
    if slots is None:
        report = sim.run(max_slots=MAX_SLOTS)
    else:
        report = sim.run_slots(slots)
    return report, log.events


@pytest.mark.usefixtures("short_chunks")
@pytest.mark.parametrize("name", NAMES)
def test_shared_platform_runs_match_fresh_in_every_observable(name):
    """Reports and event logs, not just makespans, match fresh builds.

    The shared platform has already served another heuristic's run, so
    ``name`` starts on grown traces with cursors left at that run's end.
    """
    scenario = _scenario("markov")
    shared = scenario.build_platform(0)
    previous = NAMES[NAMES.index(name) - 1]
    _simulate(scenario, shared, previous)
    assert _simulate(scenario, shared, name) == _simulate(
        scenario, scenario.build_platform(0), name
    )


@pytest.mark.usefixtures("short_chunks")
@pytest.mark.parametrize(
    "policy", ["event", "every-slot", "sticky", "debounce:4", "relevant-up"]
)
def test_replan_policies_on_shared_platform(policy):
    # Relaxed policies change which events trigger a round; a run on a
    # shared platform must still see exactly the rounds of a fresh one.
    scenario = dataclasses.replace(
        ScenarioGenerator(6).scenario(8, 5, 2, 0), truth="semi-markov"
    )
    options = SimulatorOptions(replan_policy=policy)
    for trial in (0, 1):
        shared = scenario.build_platform(trial)
        for name in ("mct", "emct*", "lw*", "ud"):
            got = _simulate(scenario, shared, name, trial, options)
            ref = _simulate(
                scenario, scenario.build_platform(trial), name, trial, options
            )
            assert got == ref, (policy, name, trial)


@pytest.mark.usefixtures("short_chunks")
def test_audited_run_on_shared_platform():
    # The audit's network trail lives in the event log: identical,
    # audit events included, after a non-audited run grew the traces.
    scenario = _scenario("markov")
    options = SimulatorOptions(audit=True)
    shared = scenario.build_platform(1)
    _simulate(scenario, shared, "emct*", 1)
    for name in ("lw", "mct"):
        got = _simulate(scenario, shared, name, 1, options)
        ref = _simulate(
            scenario, scenario.build_platform(1), name, 1, options
        )
        assert got == ref, name


@pytest.mark.usefixtures("short_chunks")
def test_budget_limited_runs_on_shared_platform():
    # The deadline objective is the same machinery under a budget: runs
    # of a fixed slot count compare completed iterations, not makespan.
    scenario = ScenarioGenerator(3).scenario(5, 5, 1, 0)
    for trial in (0, 1):
        shared = scenario.build_platform(trial)
        for name in ("mct", "emct*", "mct"):
            got = _simulate(scenario, shared, name, trial, slots=800)
            ref = _simulate(
                scenario, scenario.build_platform(trial), name, trial,
                slots=800,
            )
            assert got == ref, (name, trial)


@pytest.mark.parametrize("width", [1, 3, 8])
def test_unit_subsets_and_trials_match_fresh_runs(width):
    scenario = ScenarioGenerator(7).scenario(8, 5, 3, 1)
    pool = ("mct", "emct*", "lw", "ud", "mct*", "emct", "random", "passive")
    for trial in (0, 2):
        result = _unit(
            scenario, trial, pool[:width], SimulatorOptions()
        ).run()
        assert result.makespans == {
            name: run_instance(scenario, trial, name, max_slots=MAX_SLOTS)
            for name in pool[:width]
        }


def test_campaign_over_mixed_scenarios_matches_fresh_runs():
    # Units share a platform only within one (scenario, trial): nothing
    # leaks across scenario keys or trials.
    gen = ScenarioGenerator(9)
    scenarios = [gen.scenario(5, 5, 2, 0), gen.scenario(5, 10, 4, 1)]
    heuristics = ("emct*", "mct", "random")
    result = run_campaign(
        scenarios,
        CampaignConfig(heuristics=heuristics, trials=2, max_slots=MAX_SLOTS),
    )
    expected = [
        (
            (*scenario.key, trial),
            {
                name: run_instance(scenario, trial, name, max_slots=MAX_SLOTS)
                for name in heuristics
            },
        )
        for scenario in scenarios
        for trial in range(2)
    ]
    assert sorted(result.records) == sorted(expected)


@pytest.mark.parametrize(
    "entry",
    [CampaignConfig, run_table2, functools.partial(run_table3, 5), run_figure2],
    ids=["CampaignConfig", "table2", "table3", "figure2"],
)
def test_stale_engine_keyword_rejected(entry):
    # There is one per-unit path; a caller still naming an engine must
    # fail loudly, not run the campaign under the old meaning.
    with pytest.raises(TypeError, match="engine"):
        entry(heuristics=("mct",), engine="batch")


def test_platform_memo_reused_per_trial():
    scenario = ScenarioGenerator(4).scenario(5, 5, 2, 0)
    platforms = {}
    first = run_instance(scenario, 1, "mct", platforms=platforms)
    platform = platforms[1]
    again = run_instance(scenario, 1, "mct", platforms=platforms)
    assert platforms == {1: platform}
    assert first == again == run_instance(scenario, 1, "mct")

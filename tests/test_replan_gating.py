"""Replan policies (DESIGN.md §10): the ``replan_policy`` knob.

Every policy must give the fast simulator the reference's results
(spans may only glide over what the policy provably ignores), and
``debounce:1`` must equal the event-driven default exactly.  Under the
default ``event`` policy no counted round is skipped, on either
simulator: each one reaches its replication step.
"""

import pytest

from repro.core.heuristics.registry import available_heuristics, make_scheduler
from repro.sim.events import EventLog
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.sim.reference import ReferenceSimulator
from repro.sim.relevance import ReplanPolicy, parse_replan_policy
from repro.workload.scenarios import ScenarioGenerator

ALL_HEURISTICS = available_heuristics() + ["clairvoyant"]


def run_one(
    scenario,
    heuristic,
    *,
    budget=40_000,
    with_log=True,
    simulator=MasterSimulator,
    **options_kwargs,
):
    platform = scenario.build_platform(0)
    log = EventLog(enabled=with_log)
    sim = simulator(
        platform,
        scenario.app,
        make_scheduler(heuristic, platform=platform),
        options=SimulatorOptions(**options_kwargs),
        rng=scenario.scheduler_rng(0, heuristic),
        log=log,
    )
    report = sim.run(max_slots=budget)
    return sim, (report, log.events, sim.network.usage)


class TestReplanPolicies:
    """The relaxed tier: parsing and equivalence to the reference."""

    def test_parse_specs(self):
        assert parse_replan_policy("event") == ReplanPolicy("event")
        assert parse_replan_policy("sticky").ignores_churn
        assert parse_replan_policy("relevant-up").ignores_empty_exits
        debounce = parse_replan_policy("debounce:12")
        assert debounce == ReplanPolicy("debounce", 12)
        assert debounce.spec() == "debounce:12"
        assert parse_replan_policy("every-slot").churn_always

    @pytest.mark.parametrize(
        "spec",
        ["nope", "debounce", "debounce:", "debounce:x", "debounce:0",
         "event:3", ""],
    )
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_replan_policy(spec)

    def test_options_validate_policy_and_relevance(self):
        with pytest.raises(ValueError):
            SimulatorOptions(replan_policy="bogus")

    def test_debounce_one_equals_event(self):
        """Leading-edge cooldown of one slot never suppresses anything."""
        scenario = ScenarioGenerator(12061).scenario(20, 10, 5, 0)
        results = {}
        for policy in ("event", "debounce:1"):
            _sim, results[policy] = run_one(
                scenario, "emct*", budget=60_000, replan_policy=policy
            )
        assert results["debounce:1"] == results["event"]

    @pytest.mark.parametrize("policy", ["sticky", "debounce:8", "relevant-up"])
    @pytest.mark.parametrize("heuristic", ["emct*", "random2w", "passive"])
    def test_policies_match_reference(self, policy, heuristic):
        """Relaxed policies change the science but the fast simulator
        must still match the slot-stepped reference — spans may only
        glide over what the policy provably ignores."""
        scenario = ScenarioGenerator(12061).scenario(10, 5, 3, 0)
        outcomes = {}
        for simulator in (MasterSimulator, ReferenceSimulator):
            _sim, outcomes[simulator] = run_one(
                scenario,
                heuristic,
                budget=60_000,
                simulator=simulator,
                replan_policy=policy,
            )
        assert outcomes[MasterSimulator] == outcomes[ReferenceSimulator]

    def test_sticky_reduces_rounds_and_lengthens_spans(self):
        scenario = ScenarioGenerator(12061).scenario(20, 10, 5, 0)
        stats = {}
        for policy in ("event", "sticky"):
            sim, (report, _events, _usage) = run_one(
                scenario,
                "emct*",
                budget=60_000,
                with_log=False,
                replan_policy=policy,
            )
            assert report.makespan is not None
            stats[policy] = (report.scheduler_rounds, sim.steps_executed,
                             report.slots_simulated / sim.steps_executed)
        assert stats["sticky"][0] < stats["event"][0]  # fewer rounds
        assert stats["sticky"][2] > stats["event"][2]  # longer mean span

    def test_relevant_up_never_replans_on_empty_exits(self):
        """relevant-up executes no more rounds than event on the same
        availability sample (it drops a subset of the triggers)."""
        scenario = ScenarioGenerator(12061).scenario(10, 5, 3, 0)
        rounds = {}
        for policy in ("event", "relevant-up"):
            _sim, (report, _e, _u) = run_one(
                scenario, "emct*", budget=60_000, with_log=False,
                replan_policy=policy,
            )
            rounds[policy] = report.scheduler_rounds
        assert rounds["relevant-up"] <= rounds["event"]


class TestEveryRoundRuns:
    """Under the paper's event policy every counted scheduling round runs
    to completion — placement, queue mutation, then the replication step —
    and the scheduler is never asked to prove a round away instead."""

    @pytest.mark.parametrize(
        "simulator", [MasterSimulator, ReferenceSimulator],
        ids=["fast", "reference"],
    )
    @pytest.mark.parametrize("objective", ["run", "run_slots"])
    @pytest.mark.parametrize("heuristic", ALL_HEURISTICS)
    def test_every_counted_round_replicates(
        self, heuristic, objective, simulator
    ):
        scenario = ScenarioGenerator(12061).scenario(10, 5, 3, 0)
        platform = scenario.build_platform(0)
        scheduler = make_scheduler(heuristic, platform=platform)

        def no_proofs(*_args, **_kwargs):
            raise AssertionError("the simulator asked for a skip proof")

        scheduler.would_replan = no_proofs
        sim = simulator(
            platform,
            scenario.app,
            scheduler,
            rng=scenario.scheduler_rng(0, heuristic),
        )
        replication_steps = []
        replication_round = sim._replication_round

        def counting(*args):
            replication_steps.append(1)
            return replication_round(*args)

        sim._replication_round = counting
        if objective == "run":
            report = sim.run(max_slots=60_000)
            assert report.makespan is not None  # sanity: finished
        else:
            report = sim.run_slots(900)
        assert report.scheduler_rounds > 0
        assert len(replication_steps) == report.scheduler_rounds
        assert getattr(sim, "rounds_elided", 0) == 0

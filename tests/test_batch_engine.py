"""Batch cohort engine equivalence suite (DESIGN.md §11).

The batch engine's contract is *bit-identity per run*: reports, event
logs and network audit trails must match the per-run oracle exactly,
regardless of cohort composition, cohort size R, demotions, or the
admission width.  Everything here compares the two paths on identical
(scenario, trial, heuristic) instances.

Also covers the engine's substrate from this PR: the batched Markov
trace sampler, shared-trace views, the fused source extension and the
persistent score-row cache.
"""

import numpy as np
import pytest

from repro.core.heuristics.registry import available_heuristics, make_scheduler
from repro.core.markov import MarkovAvailabilityModel
from repro.sim.availability import (
    MarkovSource,
    TraceView,
    extend_markov_sources,
)
from repro.sim.batch_engine import (
    BatchCampaignRunner,
    BatchRunSpec,
    CohortDivergence,
)
from repro.sim.events import EventLog
from repro.sim.master import MasterSimulator, SimulatorOptions
from repro.workload.scenarios import ScenarioGenerator


MODEL = MarkovAvailabilityModel.from_self_loops(0.9, 0.5, 0.8)


def _rng(seed):
    # Accepts mixed str/int keys; crc32 keeps the mapping stable across
    # interpreter runs (unlike hash()).
    import zlib

    return np.random.default_rng(zlib.crc32(repr(seed).encode()))


def _reference_run(scenario, spec, log=None):
    """The untouched per-run oracle for one spec."""
    platform = scenario.build_platform(spec.trial)
    sim = MasterSimulator(
        platform,
        scenario.app,
        make_scheduler(spec.heuristic, platform=platform),
        options=spec.options,
        rng=scenario.scheduler_rng(spec.trial, spec.heuristic),
        log=log,
    )
    return sim.run(max_slots=spec.max_slots)


def _assert_reports_equal(got, ref, context=""):
    assert got.makespan == ref.makespan, context
    assert got.slots_simulated == ref.slots_simulated, context
    assert got.completed_iterations == ref.completed_iterations, context
    assert got.scheduler_rounds == ref.scheduler_rounds, context


class TestSampleTraceBatch:
    """The batched walk is draw-for-draw the scalar sampler."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_scalar_calls(self, seed):
        lengths = [1, 2, 17, 400]
        batch = MODEL.sample_trace_batch(
            lengths, [_rng((seed, i)) for i in range(len(lengths))]
        )
        for i, length in enumerate(lengths):
            scalar = MODEL.sample_trace(length, _rng((seed, i)))
            np.testing.assert_array_equal(batch[i], scalar)

    def test_initial_states_respected(self):
        batch = MODEL.sample_trace_batch(
            [50, 50], [_rng(1), _rng(2)], initials=[0, 2]
        )
        assert batch[0][0] == 0 and batch[1][0] == 2
        np.testing.assert_array_equal(
            batch[0], MODEL.sample_trace(50, _rng(1), initial=0)
        )

    def test_continue_trace_batch_matches_scalar(self):
        for seed in range(10):
            prefix = MODEL.sample_trace(20, _rng(("prefix", seed)))
            scalar = MODEL.continue_trace(int(prefix[-1]), 33, _rng(("tail", seed)))
            (batched,) = MODEL.continue_trace_batch(
                [int(prefix[-1])], [33], [_rng(("tail", seed))]
            )
            np.testing.assert_array_equal(batched, scalar)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MODEL.sample_trace_batch([5, 5], [_rng(0)])


class TestExtendMarkovSources:
    """Fused pre-extension produces the traces on-demand growth would."""

    def _source_pair(self, seed):
        return (
            MarkovSource(MODEL, _rng(seed)),
            MarkovSource(MODEL, _rng(seed)),
        )

    def test_matches_on_demand_growth(self):
        batched, lazy = zip(*[self._source_pair(("s", i)) for i in range(4)])
        extend_markov_sources(list(batched), 500)
        for fused, reference in zip(batched, lazy):
            got = [fused.state_at(slot) for slot in range(500)]
            want = [reference.state_at(slot) for slot in range(500)]
            assert got == want

    def test_extension_after_partial_reads(self):
        batched, lazy = self._source_pair("partial")
        assert [batched.state_at(s) for s in range(40)] == [
            lazy.state_at(s) for s in range(40)
        ]
        extend_markov_sources([batched], 300)
        assert [batched.state_at(s) for s in range(300)] == [
            lazy.state_at(s) for s in range(300)
        ]

    def test_already_long_sources_untouched(self):
        source, _ = self._source_pair("long")
        source.state_at(99)
        before = source.slots_materialized
        extend_markov_sources([source], 50)
        assert source.slots_materialized == before

    def test_non_markov_rejected(self):
        with pytest.raises(TypeError):
            extend_markov_sources([object()], 10)


class TestTraceView:
    def test_reads_delegate_and_grow_base(self):
        base = MarkovSource(MODEL, _rng("view"))
        reference = MarkovSource(MODEL, _rng("view"))
        view_a, view_b = TraceView(base), TraceView(base)
        # Independent cursors, one storage: interleaved reads agree with
        # an untouched scalar source.
        for slot in (0, 10, 5, 200, 199, 1000):
            assert view_a.state_at(slot) == reference.state_at(slot)
            assert view_b.state_at(slot) == reference.state_at(slot)
        assert base.slots_materialized >= 1001
        assert view_a.storage_bytes() == 0  # storage belongs to the base

    def test_next_change_matches_base(self):
        base = MarkovSource(MODEL, _rng("spans"))
        reference = MarkovSource(MODEL, _rng("spans"))
        view = TraceView(base)
        view.state_at(400)
        reference.state_at(400)
        for slot in (0, 3, 50, 399):
            assert view.next_change_after(slot) == (
                reference.next_change_after(slot)
            )

    def test_requires_rle_base(self):
        with pytest.raises(TypeError):
            TraceView(object())


class TestBatchBitIdentity:
    """Cohort execution is invisible in every per-run observable."""

    def test_full_registry(self):
        scenario = ScenarioGenerator(4).scenario(5, 5, 2, 0)
        names = available_heuristics() + ["clairvoyant"]
        specs = [
            BatchRunSpec(scenario=scenario, trial=0, heuristic=name,
                         max_slots=50_000)
            for name in names
        ]
        logs = {}

        def log_factory(index, spec):
            logs[index] = EventLog()
            return logs[index]

        reports = BatchCampaignRunner(specs, log_factory=log_factory).run()
        for index, (spec, got) in enumerate(zip(specs, reports)):
            ref_log = EventLog()
            ref = _reference_run(scenario, spec, log=ref_log)
            _assert_reports_equal(got, ref, spec.heuristic)
            assert logs[index].events == ref_log.events, spec.heuristic

    @pytest.mark.parametrize("cohort", [1, 3, 8])
    def test_cohort_sizes_and_mixed_trials(self, cohort):
        scenario = ScenarioGenerator(7).scenario(8, 5, 3, 1)
        pool = [("mct", 0), ("emct*", 0), ("lw", 1), ("ud", 1),
                ("mct*", 2), ("emct", 2), ("random", 0), ("passive", 1)]
        specs = [
            BatchRunSpec(scenario=scenario, trial=trial, heuristic=heuristic,
                         max_slots=50_000)
            for heuristic, trial in pool[:cohort]
        ]
        reports = BatchCampaignRunner(specs).run()
        for spec, got in zip(specs, reports):
            _assert_reports_equal(
                got, _reference_run(scenario, spec), spec.heuristic
            )

    def test_both_objectives(self):
        # The deadline objective is the same machinery under a budget:
        # budget-limited runs compare completed iterations, not makespan.
        scenario = ScenarioGenerator(3).scenario(5, 5, 1, 0)
        specs = [
            BatchRunSpec(scenario=scenario, trial=t, heuristic=h, max_slots=800)
            for t in (0, 1) for h in ("mct", "emct*")
        ]
        reports = BatchCampaignRunner(specs).run()
        for spec, got in zip(specs, reports):
            ref = _reference_run(scenario, spec)
            _assert_reports_equal(got, ref, spec.heuristic)

    def test_mixed_scenarios_share_nothing_across_keys(self):
        gen = ScenarioGenerator(9)
        first, second = gen.scenario(5, 5, 2, 0), gen.scenario(5, 10, 4, 1)
        specs = [
            BatchRunSpec(scenario=first, trial=0, heuristic="emct*",
                         max_slots=50_000),
            BatchRunSpec(scenario=second, trial=0, heuristic="emct*",
                         max_slots=50_000),
            BatchRunSpec(scenario=first, trial=1, heuristic="mct",
                         max_slots=50_000),
        ]
        reports = BatchCampaignRunner(specs).run()
        for spec, got in zip(specs, reports):
            _assert_reports_equal(
                got, _reference_run(spec.scenario, spec), spec.heuristic
            )

    @pytest.mark.parametrize(
        "policy", ["event", "sticky", "debounce:4", "relevant-up"]
    )
    def test_replan_policies(self, policy):
        # Relaxed policies change which events trigger a round; the
        # cohort members must still trigger exactly the rounds their
        # standalone runs do.
        scenario = ScenarioGenerator(6).scenario(8, 5, 2, 0)
        options = SimulatorOptions(replan_policy=policy)
        specs = [
            BatchRunSpec(scenario=scenario, trial=trial, heuristic=name,
                         max_slots=50_000, options=options)
            for trial in (0, 1)
            for name in ("mct", "emct*", "lw*", "ud")
        ]
        logs = {}

        def log_factory(index, spec):
            logs[index] = EventLog()
            return logs[index]

        reports = BatchCampaignRunner(specs, log_factory=log_factory).run()
        for index, (spec, got) in enumerate(zip(specs, reports)):
            ref_log = EventLog()
            ref = _reference_run(scenario, spec, log=ref_log)
            context = f"{policy}/{spec.heuristic}/trial={spec.trial}"
            _assert_reports_equal(got, ref, context)
            assert logs[index].events == ref_log.events, context


class TestDemotion:
    def test_static_demotion_every_slot_and_audit(self):
        scenario = ScenarioGenerator(4).scenario(5, 5, 2, 0)
        specs = [
            BatchRunSpec(scenario=scenario, trial=0, heuristic="emct*",
                         max_slots=50_000),
            BatchRunSpec(scenario=scenario, trial=0, heuristic="mct",
                         max_slots=50_000,
                         options=SimulatorOptions(replan_policy="every-slot")),
            BatchRunSpec(scenario=scenario, trial=1, heuristic="lw",
                         max_slots=50_000,
                         options=SimulatorOptions(audit=True)),
        ]
        logs = {}

        def log_factory(index, spec):
            logs[index] = EventLog()
            return logs[index]

        runner = BatchCampaignRunner(specs, log_factory=log_factory)
        reports = runner.run()
        assert runner.demotions == 2
        for index, (spec, got) in enumerate(zip(specs, reports)):
            ref_log = EventLog()
            ref = _reference_run(scenario, spec, log=ref_log)
            _assert_reports_equal(got, ref, spec.heuristic)
            # The audit run's network trail lives in its event log —
            # identical including audit events.
            assert logs[index].events == ref_log.events, spec.heuristic

    def test_mid_cohort_divergence_finishes_standalone(self):
        scenario = ScenarioGenerator(4).scenario(5, 5, 2, 0)
        specs = [
            BatchRunSpec(scenario=scenario, trial=0, heuristic="emct*",
                         max_slots=50_000),
            BatchRunSpec(scenario=scenario, trial=0, heuristic="mct",
                         max_slots=50_000),
        ]
        runner = BatchCampaignRunner(specs)

        admit = runner._admit

        def tripping_admit(index, spec, groups, donors):
            run = admit(index, spec, groups, donors)
            if spec.heuristic == "mct":
                # Stacked members run with no provider (their own calendar);
                # installing one drops the run to the sweep body path, which
                # is bit-identical, so the tripwire can gather the rows
                # itself when there is no inner provider to delegate to.
                inner = run.sim.states_provider
                sources = run.sim._avail
                calls = {"n": 0}

                def tripwire(slot):
                    calls["n"] += 1
                    if calls["n"] > 5:
                        raise CohortDivergence("test divergence")
                    if inner is not None:
                        return inner(slot)
                    return [source.state_at(slot) for source in sources]

                run.sim.states_provider = tripwire
            return run

        runner._admit = tripping_admit
        reports = runner.run()
        assert runner.demotions == 1
        for spec, got in zip(specs, reports):
            _assert_reports_equal(
                got, _reference_run(scenario, spec), spec.heuristic
            )

    def test_width_bounds_live_rows(self):
        scenario = ScenarioGenerator(5).scenario(5, 5, 2, 0)
        specs = [
            BatchRunSpec(scenario=scenario, trial=trial, heuristic=heuristic,
                         max_slots=50_000)
            for trial in range(3)
            for heuristic in ("mct", "emct*")
        ]
        runner = BatchCampaignRunner(specs, width=2)
        reports = runner.run()
        # Six runs through two rows: the free list recycled rows.
        assert runner._row_clock.size <= 2
        for spec, got in zip(specs, reports):
            _assert_reports_equal(
                got, _reference_run(scenario, spec), spec.heuristic
            )


class TestHarnessEngine:
    def test_campaign_unit_batch_dispatch(self):
        from repro.experiments.harness import (
            CampaignConfig,
            iter_work_units,
            run_campaign,
        )

        scenarios = [ScenarioGenerator(3).scenario(5, 5, 1, i) for i in range(2)]
        base = CampaignConfig(heuristics=("mct", "emct*"), trials=2)
        batch = CampaignConfig(
            heuristics=("mct", "emct*"), trials=2, engine="batch"
        )
        a = run_campaign(scenarios, base)
        b = run_campaign(scenarios, batch)
        assert a.records == b.records
        assert a.accumulator == b.accumulator
        units = list(iter_work_units(scenarios, batch))
        assert all(unit.engine == "batch" for unit in units)

    def test_engine_validated(self):
        from repro.experiments.harness import CampaignConfig

        with pytest.raises(ValueError):
            CampaignConfig(heuristics=("mct",), engine="warp")


class TestPersistentScoreRows:
    """Satellite 1: cross-round score-row reuse is result-invisible."""

    @pytest.mark.parametrize("heuristic", ["mct", "emct*", "lw", "ud"])
    def test_stamped_path_matches_unstamped(self, heuristic):
        scenario = ScenarioGenerator(6).scenario(8, 5, 3, 0)
        reports = []
        for stamped in (True, False):
            platform = scenario.build_platform(0)
            sim = MasterSimulator(
                platform,
                scenario.app,
                make_scheduler(heuristic, platform=platform),
                rng=scenario.scheduler_rng(0, heuristic),
            )
            sim.round_state.stamped = stamped
            reports.append(sim.run(max_slots=100_000))
        _assert_reports_equal(reports[0], reports[1], heuristic)

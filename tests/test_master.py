"""Golden tests for the simulators on hand-computable scenarios.

Every expected makespan below was derived by hand from the model rules
(DESIGN.md §3): program then data then compute, transfers/compute only on
UP slots, compute starts the slot after its data completes, prefetch
overlaps computation, RECLAIMED freezes, DOWN wipes.  Each golden case
runs on both the fast :class:`MasterSimulator` and the slot-stepped
:class:`ReferenceSimulator`, so the oracle is checked against the hand
derivations too, not only against the fast path.
"""

import numpy as np
import pytest

from repro.core.heuristics.mct import MctScheduler
from repro.sim.events import EventKind, EventLog
from repro.core.heuristics.registry import make_scheduler
from repro.sim.master import MasterSimulator, SimulatorOptions, simulate
from repro.sim.reference import ReferenceSimulator
from repro.sim.platform import Platform, Processor
from repro.types import states_from_codes
from repro.workload.application import IterativeApplication
from repro.workload.scenarios import ScenarioGenerator


def trace_platform(codes_list, speeds, ncom=1):
    processors = [
        Processor.from_trace(q, speeds[q], states_from_codes(codes))
        for q, codes in enumerate(codes_list)
    ]
    return Platform(processors, ncom=ncom)


@pytest.fixture(params=[MasterSimulator, ReferenceSimulator],
                ids=["fast", "reference"])
def simulator(request):
    return request.param


@pytest.fixture
def run(simulator):
    def run(platform, app, *, scheduler=None, options=None, log=None,
            max_slots=500):
        sim = simulator(
            platform,
            app,
            scheduler or MctScheduler(),
            options=options or SimulatorOptions(audit=True),
            rng=np.random.default_rng(0),
            log=log,
        )
        return sim.run(max_slots=max_slots)

    return run


class TestSingleWorkerTimelines:
    def test_one_task_sequential_pipeline(self, run):
        # Tprog + Tdata + w = 3 + 2 + 2 = 7 slots.
        report = run(
            trace_platform(["u" * 50], [2]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=3, t_data=2),
        )
        assert report.makespan == 7
        assert report.tasks_committed == 1

    def test_two_tasks_overlap_data_with_compute(self, run):
        # Second task's data prefetches during the first compute:
        # 3 + 2 + 2 + max(2, 2) = 9 slots.
        report = run(
            trace_platform(["u" * 50], [2]),
            IterativeApplication(tasks_per_iteration=2, iterations=1,
                                 t_prog=3, t_data=2),
        )
        assert report.makespan == 9

    def test_compute_bound_pipeline(self, run):
        # w > Tdata: 2 + 1 + 4 + 4 + 4 = 15 slots for three tasks.
        report = run(
            trace_platform(["u" * 50], [4]),
            IterativeApplication(tasks_per_iteration=3, iterations=1,
                                 t_prog=2, t_data=1),
        )
        assert report.makespan == 15

    def test_comm_bound_pipeline(self, run):
        # Tdata > w: 2 + 3 + 1 + (3 + 1 is pipelined to max=3) -> 2+3+1+3+1=...
        # Timeline: prog 0-1, data1 2-4, comp1 5, data2 5-7, comp2 8,
        # data3 8-10, comp3 11 -> makespan 12.
        report = run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=3, iterations=1,
                                 t_prog=2, t_data=3),
        )
        assert report.makespan == 12

    def test_zero_t_data(self, run):
        # Tdata = 0: tasks need no channel; 2 + 3×1 = 5 slots.
        report = run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=3, iterations=1,
                                 t_prog=2, t_data=0),
        )
        assert report.makespan == 5

    def test_reclaimed_pause_delays_completion(self, run):
        # prog 0-1, slot 2 reclaimed (nothing), compute slot 3 -> makespan 4.
        report = run(
            trace_platform(["uuru" + "u" * 30], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=2, t_data=0),
        )
        assert report.makespan == 4

    def test_down_wipes_program(self, run):
        # prog 0-1 received, DOWN at 2 wipes it; re-sent 3-4; compute 5.
        report = run(
            trace_platform(["uud" + "u" * 30], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=2, t_data=0),
        )
        assert report.makespan == 6
        assert report.instances_lost_to_crash == 1
        assert report.comm_slots_wasted >= 2  # the lost program transfer


class TestIterations:
    def test_program_survives_iteration_boundary(self, run):
        # It1: prog 0-2, data 3, comp 4. It2: data 5, comp 6 -> makespan 7.
        report = run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=2,
                                 t_prog=3, t_data=1),
        )
        assert report.makespan == 7
        assert report.completed_iterations == 2
        assert report.iteration_end_slots == [4, 6]

    def test_iteration_durations(self, run):
        report = run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=2,
                                 t_prog=3, t_data=1),
        )
        assert report.iteration_durations == [5, 2]

    def test_makespan_monotone_in_iterations(self, run):
        def makespan(iterations):
            return run(
                trace_platform(["u" * 200], [2]),
                IterativeApplication(tasks_per_iteration=2,
                                     iterations=iterations,
                                     t_prog=2, t_data=1),
            ).makespan

        values = [makespan(i) for i in (1, 2, 3, 4)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDynamicReassignment:
    def test_task_migrates_to_freed_fast_worker(self, run):
        # Two workers, ncom=1, Tprog=2, Tdata=0, w=1, m=2.  P0 serves
        # first; after its commit the second task migrates back to P0
        # (which holds the program) instead of waiting for P1's program.
        log = EventLog()
        report = run(
            trace_platform(["u" * 30, "u" * 30], [1, 1], ncom=1),
            IterativeApplication(tasks_per_iteration=2, iterations=1,
                                 t_prog=2, t_data=0),
            log=log,
        )
        assert report.makespan == 4
        commits = log.of_kind(EventKind.TASK_COMMIT)
        # Both tasks are committed by P0 (replicas may also have run on P1).
        original_commits = [e for e in commits if not e.replica_id]
        assert {e.worker for e in original_commits} == {0}

    def test_replication_kicks_in_when_up_exceeds_tasks(self, run):
        # One task, two UP workers: the idle one receives a replica.
        report = run(
            trace_platform(["u" * 30, "u" * 30], [5, 1], ncom=2),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=1),
        )
        assert report.replicas_launched >= 1
        assert report.tasks_committed == 1

    def test_replication_disabled(self, run):
        report = run(
            trace_platform(["u" * 30, "u" * 30], [5, 1], ncom=2),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=1),
            options=SimulatorOptions(replication=False, audit=True),
        )
        assert report.replicas_launched == 0

    def test_replica_saves_makespan_when_original_stalls(self, run):
        # P0 is fast but gets reclaimed forever after slot 1 (before it can
        # compute); P1 is slow but UP throughout.  With replication the
        # replica on P1 commits; without it the run stalls.
        app = IterativeApplication(tasks_per_iteration=1, iterations=1,
                                   t_prog=1, t_data=1)
        stalled = trace_platform(["uu" + "r" * 62, "u" * 64], [1, 8], ncom=2)
        with_rep = run(stalled, app,
                       options=SimulatorOptions(replication=True, audit=True),
                       max_slots=64)
        assert with_rep.makespan == 10  # P1: prog 0, data 1, compute 2-9
        stalled2 = trace_platform(["uu" + "r" * 62, "u" * 64], [1, 8], ncom=2)
        without = run(stalled2, app,
                      options=SimulatorOptions(replication=False, audit=True),
                      max_slots=64)
        assert without.makespan is None  # original stuck on reclaimed P0


class TestRunSlots:
    def test_counts_iterations_within_budget(self, simulator):
        report = simulator(
            trace_platform(["u" * 100], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=50,
                                 t_prog=2, t_data=1),
            MctScheduler(),
            options=SimulatorOptions(audit=True),
        ).run_slots(10)
        # prog 0-1 then per iteration data+compute = 2 slots: slots 2..9 -> 4.
        assert report.completed_iterations == 4
        assert report.makespan is None
        assert report.slots_simulated == 10

    def test_stops_early_when_target_reached(self, simulator):
        report = simulator(
            trace_platform(["u" * 100], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=0),
            MctScheduler(),
        ).run_slots(50)
        assert report.makespan == 2
        assert report.slots_simulated == 2


class TestAccounting:
    def test_compute_slots_spent(self, run):
        report = run(
            trace_platform(["u" * 50], [3]),
            IterativeApplication(tasks_per_iteration=2, iterations=1,
                                 t_prog=1, t_data=1),
        )
        assert report.compute_slots_spent == 6  # 2 tasks × w=3

    def test_comm_slots_spent(self, run):
        report = run(
            trace_platform(["u" * 50], [3]),
            IterativeApplication(tasks_per_iteration=2, iterations=1,
                                 t_prog=1, t_data=2),
        )
        assert report.comm_slots_spent == 1 + 2 * 2  # prog + 2 × data

    def test_no_waste_on_clean_run(self, run):
        report = run(
            trace_platform(["u" * 50], [2]),
            IterativeApplication(tasks_per_iteration=2, iterations=1,
                                 t_prog=1, t_data=1),
        )
        assert report.compute_slots_wasted == 0
        assert report.waste_fraction == 0.0

    def test_summary_mentions_heuristic(self, run):
        report = run(
            trace_platform(["u" * 50], [2]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=1),
        )
        assert "mct" in report.summary()


class TestEventLog:
    def test_event_sequence_for_simple_run(self, run):
        log = EventLog()
        run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=2, t_data=1),
            log=log,
        )
        kinds = [e.kind for e in log.events]
        assert kinds == [
            EventKind.PROGRAM_TRANSFER_START,
            EventKind.PROGRAM_TRANSFER_DONE,
            EventKind.DATA_TRANSFER_START,
            EventKind.DATA_TRANSFER_DONE,
            EventKind.COMPUTE_START,
            EventKind.TASK_COMMIT,
            EventKind.ITERATION_DONE,
            EventKind.RUN_DONE,
        ]

    def test_program_transfer_slots(self, run):
        log = EventLog()
        run(
            trace_platform(["u" * 50], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=3, t_data=0),
            log=log,
        )
        start = log.of_kind(EventKind.PROGRAM_TRANSFER_START)[0]
        done = log.of_kind(EventKind.PROGRAM_TRANSFER_DONE)[0]
        assert start.slot == 0
        assert done.slot == 2

    def test_state_change_logged(self, run):
        log = EventLog()
        run(
            trace_platform(["uru" + "u" * 30], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=0),
            log=log,
        )
        changes = log.of_kind(EventKind.PROC_STATE_CHANGE)
        assert changes and changes[0].detail == "u->r"


class TestGuards:
    def test_unfinishable_run_returns_none_makespan(self, run):
        report = run(
            trace_platform(["rrrr"], [1]),  # never UP (pads DOWN after)
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=0),
            max_slots=20,
        )
        assert report.makespan is None
        assert report.completed_iterations == 0

    def test_simulate_wrapper(self):
        report = simulate(
            trace_platform(["u" * 20], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=0),
            MctScheduler(),
            max_slots=20,
        )
        assert report.makespan == 2

    def test_rejects_bad_max_slots(self, run):
        with pytest.raises(ValueError):
            run(
                trace_platform(["u" * 20], [1]),
                IterativeApplication(tasks_per_iteration=1, iterations=1,
                                     t_prog=1, t_data=0),
                max_slots=0,
            )


class TestRunsOnce:
    """A finished simulator refuses a second run instead of returning a
    report corrupted by the first run's state."""

    @staticmethod
    def _finished(simulator):
        scenario = ScenarioGenerator(12061).scenario(20, 10, 5, 0)
        platform = scenario.build_platform(0)
        sim = simulator(
            platform,
            scenario.app,
            make_scheduler("emct*", platform=platform),
            rng=scenario.scheduler_rng(0, "emct*"),
        )
        report = sim.run(max_slots=60_000)
        assert report.completed_iterations == scenario.app.iterations
        return sim

    def test_second_run_raises(self, simulator):
        sim = self._finished(simulator)
        with pytest.raises(RuntimeError, match="runs once"):
            sim.run(max_slots=60_000)

    def test_run_slots_after_run_raises(self, simulator):
        sim = self._finished(simulator)
        with pytest.raises(RuntimeError, match="runs once"):
            sim.run_slots(100)

    def test_begin_run_after_run_raises(self):
        sim = self._finished(MasterSimulator)
        with pytest.raises(RuntimeError, match="runs once"):
            sim.begin_run()

    def test_rejected_budget_does_not_consume_the_run(self, simulator):
        sim = simulator(
            trace_platform(["u" * 20], [1]),
            IterativeApplication(tasks_per_iteration=1, iterations=1,
                                 t_prog=1, t_data=0),
            MctScheduler(),
        )
        with pytest.raises(ValueError):
            sim.run(max_slots=0)
        assert sim.run(max_slots=20).makespan == 2


class TestDeterministicSchedulerDefault:
    """Runs without an explicit scheduler rng are reproducible."""

    def test_random_heuristic_reproducible_without_rng(self, simulator):
        scenario = ScenarioGenerator(5).scenario(5, 5, 2, 0)
        reports = []
        for _ in range(2):
            platform = scenario.build_platform(0)
            sim = simulator(
                platform,
                scenario.app,
                make_scheduler("random2w", platform=platform),
            )
            reports.append(sim.run(max_slots=60_000))
        assert reports[0] == reports[1]

    def test_explicit_rng_still_wins(self, simulator):
        scenario = ScenarioGenerator(5).scenario(5, 5, 2, 0)

        def makespan(seed):
            platform = scenario.build_platform(0)
            sim = simulator(
                platform,
                scenario.app,
                make_scheduler("random", platform=platform),
                rng=np.random.default_rng(seed),
            )
            return sim.run(max_slots=60_000).makespan

        # Different explicit streams may disagree; the same stream must not.
        assert makespan(3) == makespan(3)


class TestPinnedOpCounts:
    """Regression pin: the operation counters of one seeded cell.

    ``op_counts`` derives ``boundaries`` from ``steps_executed`` and the
    touched/pop counts from the event calendar; these values were
    recorded when the simulator still kept a separate counter for each,
    so any drift in the body's boundary, refresh or instance work shows
    up here even when the reports stay equal.  ``round_refreshed`` counts
    every touched worker a round recomputes, non-UP ones included.
    """

    PINNED = {
        ("mct", "event"): (830, 946, 926, 1220, 2790, 3515, 2314),
        ("mct", "sticky"): (758, 1000, 980, 2062, 1606, 2060, 1679),
        ("emct*", "event"): (846, 964, 944, 1195, 2669, 3670, 2307),
        ("emct*", "sticky"): (791, 1020, 1000, 2131, 1625, 2175, 1799),
        ("random2w", "event"): (1043, 1243, 1223, 1774, 3313, 0, 2526),
        ("random2w", "sticky"): (877, 1166, 1146, 2935, 2090, 0, 2006),
    }

    @pytest.mark.parametrize("heuristic,policy", sorted(PINNED))
    def test_counts_match_pin(self, heuristic, policy):
        scenario = ScenarioGenerator(12061).scenario(20, 5, 3, 0)
        platform = scenario.build_platform(0)
        sim = MasterSimulator(
            platform,
            scenario.app,
            make_scheduler(heuristic, platform=platform),
            options=SimulatorOptions(replan_policy=policy),
            rng=scenario.scheduler_rng(0, heuristic),
        )
        sim.run()
        counts = sim.op_counts
        observed = (
            counts["boundaries"],
            counts["boundary_workers_touched"],
            counts["calendar_pops"],
            counts["span_scan_workers"],
            counts["round_refreshed"],
            counts["rows_scored"],
            sim.instance_ops,
        )
        assert observed == self.PINNED[heuristic, policy]
        assert sim.steps_executed == counts["boundaries"]
        assert counts["rows_reused"] == 0
        assert sorted(counts) == [
            "boundaries", "boundary_workers_touched", "calendar_pops",
            "round_refreshed", "rows_reused", "rows_scored",
            "span_scan_workers",
        ]

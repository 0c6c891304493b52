"""Tests for the experiment harness, table/figure runners and the CLI."""

import pytest

from repro.experiments.ablation import run_ablation
from repro.experiments.cli import build_parser, main
from repro.experiments.deadline_study import run_deadline_study
from repro.experiments.dfb import DfbAccumulator
from repro.experiments.figure2 import render_figure2, run_figure2
from repro.experiments.harness import CampaignConfig, run_campaign, run_instance
from repro.experiments.offline_study import (
    counterexample_study,
    figure1_study,
    render_offline_study,
)
from repro.experiments.replan_study import run_replan_study
from repro.experiments.table2 import PAPER_TABLE2, render_table2, run_table2
from repro.experiments.table3 import PAPER_TABLE3, render_table3, run_table3
from repro.sim.master import SimulatorOptions
from repro.workload.scenarios import ScenarioGenerator

QUICK = dict(n_values=(5,), ncom_values=(5,), wmin_values=(1,))


class TestHarness:
    def test_run_instance_deterministic(self):
        scenario = ScenarioGenerator(3).scenario(5, 5, 1, 0)
        a = run_instance(scenario, 0, "mct")
        b = run_instance(scenario, 0, "mct")
        assert a == b

    def test_campaign_aggregates(self):
        scenarios = [ScenarioGenerator(3).scenario(5, 5, 1, i) for i in range(2)]
        config = CampaignConfig(heuristics=("mct", "random"), trials=2)
        result = run_campaign(scenarios, config)
        assert result.instances == 4
        assert result.accumulator.instance_count == 4
        assert set(result.per_scenario) == {s.key for s in scenarios}

    def test_campaign_progress_callback(self):
        scenarios = [ScenarioGenerator(3).scenario(5, 5, 1, 0)]
        seen = []
        run_campaign(
            scenarios,
            CampaignConfig(heuristics=("mct",), trials=2),
            progress=lambda done, key: seen.append(done),
        )
        assert seen == [1, 2]

    def test_truncation_recorded(self):
        scenarios = [ScenarioGenerator(3).scenario(5, 5, 1, 0)]
        config = CampaignConfig(heuristics=("mct",), trials=1, max_slots=3)
        result = run_campaign(scenarios, config)
        assert len(result.truncated_runs) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(heuristics=())
        with pytest.raises(ValueError):
            CampaignConfig(heuristics=("mct",), trials=0)
        with pytest.raises(ValueError):
            CampaignConfig(heuristics=("mct",), max_slots=0)
        # The lookup is make_scheduler's: case-insensitive and aware of
        # the platform-aware baseline, so only "bogus" is rejected.
        with pytest.raises(KeyError, match="unknown heuristic 'bogus'"):
            CampaignConfig(heuristics=("EMCT*", "clairvoyant", "bogus"))
        with pytest.raises(TypeError, match="sequence of registry names"):
            CampaignConfig(heuristics="mct")
        with pytest.raises(TypeError):
            CampaignConfig(heuristics=("mct",), trials=1.5)
        with pytest.raises(TypeError):
            CampaignConfig(heuristics=("mct",), max_slots=10.5)

    def test_options_forwarded(self):
        scenario = ScenarioGenerator(3).scenario(5, 5, 1, 0)
        makespan = run_instance(
            scenario, 0, "mct",
            options=SimulatorOptions(replication=False),
        )
        assert makespan > 0


class TestTable2:
    def test_quick_run_and_render(self):
        result = run_table2(
            scenarios_per_cell=1, trials=1,
            heuristics=("mct", "emct", "random"),
            **QUICK,
        )
        rows = result.rows()
        assert {name for name, _, _ in rows} == {"mct", "emct", "random"}
        text = render_table2(result)
        assert "Table 2" in text
        assert "dfb (paper)" in text
        assert "mct" in text

    def test_paper_reference_complete(self):
        assert len(PAPER_TABLE2) == 17
        assert PAPER_TABLE2["emct"] == (4.77, 80320)

    def test_dfb_nonnegative_with_a_winner(self):
        result = run_table2(
            scenarios_per_cell=1, trials=1,
            heuristics=("mct", "emct"),
            **QUICK,
        )
        for _name, dfb, wins in result.rows():
            assert dfb >= 0.0
            assert wins >= 0
        assert sum(w for _, _, w in result.rows()) >= result.campaign.instances


class TestTable3:
    def test_quick_run_and_render(self):
        result = run_table3(5, scenarios=1, trials=1,
                            heuristics=("mct", "mct*"))
        text = render_table3(result)
        assert "×5" in text
        assert "dfb (paper)" in text

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError, match="must be 5 or 10"):
            run_table3(3)

    def test_paper_reference(self):
        assert PAPER_TABLE3[5]["emct*"] == 3.87
        assert PAPER_TABLE3[10]["ud*"] == 2.76
        assert set(PAPER_TABLE3[5]) == set(PAPER_TABLE3[10])


class TestFigure2:
    def test_series_aligned_to_wmin(self):
        result = run_figure2(
            scenarios_per_cell=1, trials=1,
            heuristics=("mct", "emct"),
            n_values=(5,), ncom_values=(5,), wmin_values=(1, 2),
        )
        series = result.series()
        assert set(series) == {"mct", "emct"}
        assert all(len(values) == 2 for values in series.values())

    def test_render_contains_chart_and_table(self):
        result = run_figure2(
            scenarios_per_cell=1, trials=1,
            heuristics=("mct", "emct"),
            n_values=(5,), ncom_values=(5,), wmin_values=(1, 2),
        )
        text = render_figure2(result)
        assert "Figure 2" in text
        assert "legend:" in text
        assert "wmin" in text


class TestOfflineStudy:
    def test_figure1_study(self):
        study = figure1_study()
        assert study.recovered_satisfies
        assert study.schedule_makespan <= study.horizon
        assert "C1" in study.gadget

    def test_counterexample_study(self):
        analysis = counterexample_study()
        assert analysis.optimal_makespan == 9
        assert analysis.mct_online_makespan > 9

    def test_render(self):
        text = render_offline_study()
        assert "Figure 1" in text
        assert "(paper: 9)" in text


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["table3", "--factor", "5"])
        assert args.command == "table3"
        assert args.factor == 5

    def test_counterexample_command(self, capsys):
        assert main(["counterexample"]) == 0
        out = capsys.readouterr().out
        assert "optimal makespan" in out.lower()

    def test_figure1_command(self, capsys):
        assert main(["figure1"]) == 0
        assert "C1" in capsys.readouterr().out

    def test_demo_command(self, capsys):
        assert main(["demo", "--tasks", "2", "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "task_commit" in out

    def test_table2_command_quick(self, capsys):
        assert main([
            "table2", "--scenarios", "1", "--trials", "1", "--wmin", "1",
        ]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        ["table2", "--replan-policy", "bogus", "--wmin", "1"],
        ["table2", "--scenarios", "0", "--wmin", "1"],
        ["table2", "--trials", "-1", "--wmin", "1"],
        ["table2", "--backend", "process", "--jobs", "0", "--wmin", "1",
         "--trials", "1"],
        ["table3", "--factor", "5", "--scenarios", "0"],
        ["figure2", "--trials", "0"],
        ["deadline", "--scenarios", "0"],
        ["ablation", "replication", "--trials", "-1"],
        ["replan-study", "--policies", "event", "bogus"],
        ["table2", "--step-mode", "slot", "--wmin", "1"],
        ["table2", "--engine", "batch", "--wmin", "1"],
    ], ids=[
        "bad-policy", "zero-scenarios", "negative-trials", "zero-jobs",
        "table3-zero-scenarios", "figure2-zero-trials",
        "deadline-zero-scenarios", "ablation-negative-trials",
        "replan-study-bad-policy", "no-step-mode-flag", "no-engine-flag",
    ])
    def test_bad_flag_values_exit_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestDriversRejectEmptyPopulations:
    @pytest.mark.parametrize("run", [
        lambda: run_table2(scenarios_per_cell=0, trials=1, wmin_values=(1,)),
        lambda: run_table3(5, scenarios=0, trials=1),
        lambda: run_figure2(scenarios_per_cell=0, trials=1, wmin_values=(1,)),
        lambda: run_deadline_study(scenario_count=0, trials=1),
        lambda: run_ablation("replication", scenarios=0, trials=1),
        lambda: run_replan_study(scenarios=0, trials=1),
    ], ids=["table2", "table3", "figure2", "deadline", "ablation",
            "replan-study"])
    def test_zero_scenarios_rejected(self, run):
        with pytest.raises(ValueError, match="scenario"):
            run()


class TestFigure2SeriesMath:
    def test_per_wmin_average_uses_only_matching_scenarios(self):
        # Construct a fake campaign result with two wmin cells and check
        # the marginalisation.
        from repro.experiments.figure2 import Figure2Result
        from repro.experiments.harness import CampaignResult

        campaign = CampaignResult()
        acc1 = DfbAccumulator()
        acc1.add_instance(("k1",), {"mct": 100, "emct": 110})
        campaign.per_scenario[(5, 5, 1, 1, 0)] = acc1
        acc2 = DfbAccumulator()
        acc2.add_instance(("k2",), {"mct": 130, "emct": 100})
        campaign.per_scenario[(5, 5, 2, 1, 0)] = acc2
        result = Figure2Result(
            campaign=campaign, wmin_values=(1, 2),
            heuristics=("mct", "emct"), scenarios_per_cell=1, trials=1,
        )
        series = result.series()
        assert series["mct"][0] == pytest.approx(0.0)
        assert series["emct"][0] == pytest.approx(10.0)
        assert series["mct"][1] == pytest.approx(30.0)
        assert series["emct"][1] == pytest.approx(0.0)


class TestReportDeterminism:
    """Regression: two report builds must produce identical CI bounds."""

    def test_table2_cis_identical_across_builds(self):
        def build():
            result = run_table2(
                scenarios_per_cell=1, trials=1,
                heuristics=("mct", "emct", "random"),
                **QUICK,
            )
            return result.rows_with_ci(), render_table2(result)

        (rows_a, text_a), (rows_b, text_b) = build(), build()
        assert rows_a == rows_b
        assert text_a == text_b
        for _name, dfb, (low, high), _wins in rows_a:
            assert low <= dfb <= high

    def test_ci_stream_independent_of_row_order(self):
        result = run_table2(
            scenarios_per_cell=1, trials=1,
            heuristics=("mct", "emct"),
            **QUICK,
        )
        acc = result.campaign.accumulator
        # Querying one heuristic's CI twice (any order) gives the same
        # bounds: streams derive from the name, not from shared state.
        first = acc.average_dfb_ci("emct")
        acc.average_dfb_ci("mct")
        assert acc.average_dfb_ci("emct") == first

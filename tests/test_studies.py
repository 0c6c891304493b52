"""Tests for the theorem2 validation study and the ablation module."""

import pytest

from repro.experiments.ablation import ABLATIONS, render_ablation, run_ablation
from repro.experiments.theorem2_study import (
    render_theorem2_study,
    run_theorem2_study,
)


class TestTheorem2Study:
    @pytest.fixture(scope="class")
    def result(self):
        return run_theorem2_study(chains=3, samples=4000, workload=5, seed=1)

    def test_all_quantities_validated(self, result):
        names = [v.quantity for v in result.validations]
        assert any("Lemma 1" in n for n in names)
        assert any("Theorem 2" in n for n in names)
        assert any("matrix power" in n for n in names)
        assert any("rank-1" in n for n in names)

    def test_closed_forms_match_monte_carlo(self, result):
        for validation in result.validations:
            if "rank-1" in validation.quantity:
                continue  # genuine approximation, not statistical noise
            assert validation.max_abs_error < 0.05, validation

    def test_errors_ordered(self, result):
        for validation in result.validations:
            assert 0 <= validation.mean_abs_error <= validation.max_abs_error

    def test_render(self, result):
        text = render_theorem2_study(result)
        assert "Monte Carlo" in text
        assert "mean |err|" in text


class TestAblation:
    def test_registry_contents(self):
        assert set(ABLATIONS) == {
            "replication", "replanning", "ud-exact", "contention", "proactive",
        }

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="valid:"):
            run_ablation("nonsense")

    def test_replanning_ablation_quick(self):
        result = run_ablation(
            "replanning", scenarios=1, trials=1, wmin=2, n=5
        )
        # PR 5: the arm runs on the replan_policy knob (DESIGN.md §10) and
        # gained the relaxed sticky policy next to the two exact arms.
        assert set(result.arms) == {"event-driven", "every-slot", "sticky"}
        event_rounds = result.arms["event-driven"][1]
        slot_rounds = result.arms["every-slot"][1]
        sticky_rounds = result.arms["sticky"][1]
        assert sticky_rounds < event_rounds < slot_rounds
        # Event-driven re-planning saves rounds without costing makespan.
        assert result.arms["event-driven"][0] <= result.arms["every-slot"][0] * 1.10
        text = render_ablation(result)
        assert "replanning" in text

    def test_replanning_ablation_survives_every_slot_base(self):
        """run_ablation(replan_policy='every-slot') must not leak the
        legacy alias flag into the per-arm replace() calls (the event arm
        would re-canonicalise to every-slot and the sticky arm would
        raise a conflict)."""
        result = run_ablation(
            "replanning", scenarios=1, trials=1, wmin=2, n=5,
            replan_policy="every-slot",
        )
        event_rounds = result.arms["event-driven"][1]
        slot_rounds = result.arms["every-slot"][1]
        assert event_rounds < slot_rounds

    def test_replication_ablation_quick(self):
        result = run_ablation(
            "replication", scenarios=1, trials=1, wmin=2, n=5
        )
        assert set(result.arms) == {
            "0 extra replicas", "1 extra replicas", "2 extra replicas",
        }
        for mean, _rounds in result.arms.values():
            assert mean > 0

    def test_two_replicas_not_worse_than_none(self):
        # The paper settled on two extra replicas: on small-m workloads
        # they must not cost makespan against no replication.
        arms = run_ablation(
            "replication", scenarios=2, trials=2, seed=31, n=5, ncom=5, wmin=5
        ).arms
        assert arms["2 extra replicas"][0] <= arms["0 extra replicas"][0] * 1.05

    def test_ud_approximation_costs_little_against_exact(self):
        # The paper's rank-1 P_UD approximation as a scheduler, against
        # the matrix-power form (Section 6.3.3's setting, n = 10).
        arms = run_ablation(
            "ud-exact", scenarios=2, trials=1, seed=33, n=10, ncom=5, wmin=8
        ).arms
        assert arms["ud"][0] <= arms["ud-exact"][0] * 1.15

    def test_contention_factor_helps_on_heavy_communication(self):
        arms = run_ablation("contention", trials=1).arms
        assert arms["mct*"][0] <= arms["mct"][0]

    def test_proactive_ablation_quick(self):
        result = run_ablation(
            "proactive", scenarios=1, trials=1, wmin=2, n=5
        )
        assert set(result.arms) == {"dynamic", "proactive"}


class TestCliStudies:
    def test_theorem2_command(self, capsys):
        from repro.experiments.cli import main

        assert main(["theorem2", "--chains", "2", "--samples", "2000"]) == 0
        assert "Theorem 2" in capsys.readouterr().out

    def test_deadline_command(self, capsys):
        from repro.experiments.cli import main

        assert main([
            "deadline", "--slots", "300", "--scenarios", "1", "--trials", "1",
        ]) == 0
        assert "Deadline objective" in capsys.readouterr().out

    def test_ablation_command(self, capsys):
        from repro.experiments.cli import main

        assert main([
            "ablation", "replanning", "--scenarios", "1", "--trials", "1",
        ]) == 0
        assert "ablation: replanning" in capsys.readouterr().out


class TestReplanStudy:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments.replan_study import run_replan_study

        return run_replan_study(
            policies=("event", "relevant-up", "sticky"),
            heuristics=("emct*", "mct", "random1w"),
            scenarios=1,
            trials=1,
            wmin_values=(1, 5),
        )

    def test_baseline_first_and_populated(self, result):
        assert result.baseline.policy == "event"
        assert result.instances == 2  # 2 wmin × 1 scenario × 1 trial
        for outcome in result.outcomes:
            assert set(outcome.avg_dfb) == {"emct*", "mct", "random1w"}
            assert set(outcome.dfb_by_wmin) == {1, 5}
            assert outcome.rounds > 0
            assert outcome.seconds > 0

    def test_baseline_deviation_is_zero(self, result):
        deviation = result.deviation(result.baseline)
        assert deviation["max_dfb_shift"] == 0.0
        assert deviation["figure2_max_shift"] == 0.0
        assert deviation["rank_correlation"] == 1.0
        assert deviation["makespan_inflation_pct"] == 0.0
        assert deviation["shape_preserving"]

    def test_sticky_cuts_rounds(self, result):
        sticky = next(o for o in result.outcomes if o.policy == "sticky")
        deviation = result.deviation(sticky)
        assert deviation["round_reduction"] > 0.2

    def test_rejects_bad_policy_before_running(self):
        from repro.experiments.replan_study import run_replan_study

        with pytest.raises(ValueError):
            run_replan_study(policies=("event", "bogus"), scenarios=1)

    def test_render(self, result):
        from repro.experiments.replan_study import render_replan_study

        text = render_replan_study(result)
        assert "average dfb per replan policy" in text
        assert "deviation vs event baseline" in text
        assert "sticky" in text

    def test_spearman(self):
        from repro.experiments.replan_study import _spearman

        assert _spearman(["a", "b", "c"], ["a", "b", "c"]) == 1.0
        assert _spearman(["a", "b", "c"], ["c", "b", "a"]) == -1.0

    def test_cli_command(self, capsys):
        from repro.experiments.cli import main

        assert main([
            "replan-study", "--scenarios", "1", "--trials", "1",
            "--wmin", "1", "--policies", "event", "sticky",
            "--heuristics", "emct*", "mct",
        ]) == 0
        assert "deviation vs event baseline" in capsys.readouterr().out

    def test_cli_replan_policy_flag_on_campaigns(self, capsys):
        from repro.experiments.cli import main

        assert main([
            "deadline", "--slots", "300", "--scenarios", "1", "--trials",
            "1", "--replan-policy", "sticky",
        ]) == 0
        assert "Deadline objective" in capsys.readouterr().out

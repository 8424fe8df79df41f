"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "ra"
        assert args.n == 3
        assert args.theta is None
        assert args.faults is None

    def test_run_full_flags(self):
        args = build_parser().parse_args(
            [
                "run",
                "--algorithm", "lamport",
                "--n", "4",
                "--seed", "9",
                "--steps", "500",
                "--theta", "2",
                "--faults", "10", "50",
            ]
        )
        assert args.algorithm == "lamport"
        assert args.faults == [10, 50]

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "paxos"])

    def test_experiment_id_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "E99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in EXPERIMENTS:
            assert exp_id in out

    def test_figure1(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert "HOLDS" in out and "FAILS" in out

    def test_run_wrapped_succeeds(self, capsys):
        code = main(
            [
                "run",
                "--algorithm", "ra",
                "--seed", "4",
                "--steps", "1500",
                "--theta", "4",
                "--faults", "80", "250",
                "--grace", "400",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "converged" in out

    def test_run_bare_deadlock_exits_nonzero(self, capsys):
        """A bare run that fails to stabilize exits 1 (scriptable)."""
        code = main(
            [
                "run",
                "--algorithm", "lamport",
                "--seed", "1",
                "--steps", "1500",
                "--faults", "80", "300",
                "--grace", "300",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1, out
        assert "NOT converged" in out

    def test_experiment_table_printed(self, capsys):
        assert main(["experiment", "E7"]) == 0
        out = capsys.readouterr().out
        assert "whitebox" in out
        assert "E7" in out

    def test_experiment_with_seeds(self, capsys):
        assert main(["experiment", "E3", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out


class TestExploreCommand:
    def test_reports_local_evaluations_beside_states(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "explore.json"
        argv = ["explore", "--n", "3", "--max-depth", "6"]
        assert main([*argv, "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        evaluations = payload["stats"]["local_evaluations"]
        assert 0 < evaluations["internal"] < payload["states"]
        assert (
            f"{payload['states']} distinct states from "
            f"{evaluations['internal']} + {evaluations['deliver']} "
            "local evaluations" in out
        )

    def test_local_surface_has_no_evaluation_count(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "local.json"
        argv = ["explore", "--n", "2", "--local", "p0", "--max-clock", "2"]
        assert main([*argv, "--json", str(out_path)]) == 0
        assert "local evaluations" not in capsys.readouterr().out
        stats = json.loads(out_path.read_text())["stats"]
        assert "local_evaluations" not in stats

    def test_checkpointed_run_reports_the_serial_line(self, capsys, tmp_path):
        argv = ["explore", "--n", "3", "--max-depth", "6"]
        assert main(argv) == 0
        serial = capsys.readouterr().out.splitlines()
        assert main([*argv, "--store-dir", str(tmp_path / "run")]) == 0
        durable = capsys.readouterr().out.splitlines()
        # states + local evaluations, then the content digest
        assert durable[:2] == serial[:2]
        assert main([*argv, "--checkpoint", str(tmp_path / "run"), "--resume"]) == 0
        resumed = capsys.readouterr().out.splitlines()
        assert resumed[1] == serial[1]
        assert "resumed" in resumed[2]

    def test_checkpoint_usage_errors(self, capsys, tmp_path):
        assert main(["explore", "--resume"]) == 2
        assert "--resume needs --store-dir" in capsys.readouterr().out
        argv = ["explore", "--n", "2", "--local", "p0", "--store-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "global space only" in capsys.readouterr().out

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


class TestCampaignCommand:
    FAST = [
        "--n", "3",
        "--trials", "4",
        "--faults", "10", "40",
        "--confirm-window", "80",
        "--max-steps", "600",
        "--root-seed", "7",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.algorithm == "ra"
        assert args.n == 8
        assert args.trials == 100
        assert args.theta == 4 and not args.bare
        assert tuple(args.faults) == (40, 160)

    def test_campaign_reports_distribution(self, capsys):
        assert main(["campaign", *self.FAST]) == 0
        out = capsys.readouterr().out
        assert "convergence: 100.0%" in out
        assert "latency" in out

    def test_campaign_json_artifact(self, capsys, tmp_path):
        path = tmp_path / "BENCH_campaign.json"
        code = main(
            ["campaign", *self.FAST, "--json", str(path),
             "--require-full-convergence"]
        )
        assert code == 0
        import json

        payload = json.loads(path.read_text())
        assert payload["summary"]["outcomes"] == {"converged": 4}
        assert len(payload["trials"]) == 4

    def test_campaign_replay_matches(self, capsys):
        assert main(["campaign", *self.FAST, "--replay", "2"]) == 0
        assert "MATCH" in capsys.readouterr().out

    def test_campaign_shrink_passing_trial_refused(self, capsys):
        code = main(
            ["campaign", *self.FAST, "--fault-scale", "0", "--shrink", "0"]
        )
        assert code == 2
        assert "cannot shrink" in capsys.readouterr().out

    def test_campaign_shrink_renders_counterexample(self, capsys):
        code = main(
            [
                "campaign",
                "--n", "2",
                "--bare",
                "--faults", "5", "25",
                "--root-seed", "3",
                "--fault-scale", "6",
                "--confirm-window", "60",
                "--max-steps", "400",
                "--shrink", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "counterexample" in out
        assert "1-minimal" in out

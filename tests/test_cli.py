"""Command-line contract: flags, exit codes, and emitted files."""

import json
import os

import pytest

from verblab.checks import SuiteResult
from verblab.cli import main


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "small.json"
    path.write_text(
        json.dumps(
            {
                "world": {
                    "n_items": 40,
                    "n_train_episodes": 10,
                    "n_eval_episodes": 8,
                    "t_min": 5,
                    "t_max": 10,
                    "master_seed": 77,
                },
                "grpo_stage1": {"g": 2, "iterations": 2, "batch_episodes": 4},
                "grpo_stage2": {"g": 2, "iterations": 3, "batch_episodes": 4},
                "ablate": {"seeds": [11], "variants": ["template", "zero_shot"]},
            }
        )
    )
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentErrors:
    def test_no_command(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1
        assert "a command is required" in err

    def test_unknown_command(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 1
        assert "invalid choice" in err

    def test_unknown_flag(self, capsys):
        code, _, err = run(["--frobnicate", "gen-data"], capsys)
        assert code == 1
        assert "unrecognized arguments" in err

    def test_train_reasoner_requires_a_source(self, capsys, cfg_file, tmp_path):
        code, _, err = run(
            ["--config", cfg_file, "--out", str(tmp_path), "train-reasoner"], capsys
        )
        assert code == 1
        assert "--verbalizer" in err and "--raw" in err

    def test_eval_requires_known_variant(self, capsys, cfg_file, tmp_path):
        code, _, err = run(
            ["--config", cfg_file, "--out", str(tmp_path), "eval", "--variant", "prompt"], capsys
        )
        assert code == 1
        assert "invalid choice" in err

    def test_bad_config_key_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"wrold": {}}')
        code, _, err = run(["--config", str(bad), "gen-data"], capsys)
        assert code == 1
        assert "verblab: error:" in err and "wrold" in err

    def test_missing_config_file_exits_one(self, capsys, tmp_path):
        code, _, err = run(["--config", str(tmp_path / "nope.json"), "gen-data"], capsys)
        assert code == 1
        assert "verblab: error:" in err

    def test_seed_out_of_range(self, capsys, cfg_file, tmp_path):
        code, _, err = run(
            ["--config", cfg_file, "--out", str(tmp_path), "--seed=-5", "gen-data"], capsys
        )
        assert code == 1
        assert "unsigned 64-bit" in err


class TestGenData:
    def test_prints_digests_and_reruns_identically(self, capsys, cfg_file, tmp_path):
        argv = ["--config", cfg_file, "--out", str(tmp_path), "gen-data"]
        code_a, out_a, _ = run(argv, capsys)
        code_b, out_b, _ = run(argv, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b
        lines = out_a.splitlines()
        assert [l.split()[0] for l in lines] == ["catalog.json", "eval.jsonl", "train.jsonl"]
        assert all(l.split()[1] == "sha256" and len(l.split()[2]) == 64 for l in lines)

    def test_seed_flag_changes_data(self, capsys, cfg_file, tmp_path):
        _, out_a, _ = run(["--config", cfg_file, "--out", str(tmp_path / "a"), "gen-data"], capsys)
        _, out_b, _ = run(
            ["--config", cfg_file, "--out", str(tmp_path / "b"), "--seed", "99", "gen-data"], capsys
        )
        assert [l.split()[2] for l in out_a.splitlines()] != [l.split()[2] for l in out_b.splitlines()]

    def test_workers_flag_does_not_change_data(self, capsys, cfg_file, tmp_path):
        _, out_a, _ = run(["--config", cfg_file, "--out", str(tmp_path / "a"), "gen-data"], capsys)
        _, out_b, _ = run(
            ["--config", cfg_file, "--out", str(tmp_path / "b"), "--workers", "4", "gen-data"], capsys
        )
        assert [l.split()[2] for l in out_a.splitlines()] == [l.split()[2] for l in out_b.splitlines()]

    def test_generation_dead_end_is_a_fault(self, capsys, tmp_path):
        cfg = tmp_path / "doomed.json"
        cfg.write_text(
            json.dumps(
                {
                    "world": {
                        "n_items": 10,
                        "n_train_episodes": 50,
                        "n_eval_episodes": 5,
                        "t_min": 100,
                        "t_max": 100,
                        "p_noise": 1.0,
                        "master_seed": 1,
                    }
                }
            )
        )
        code, _, err = run(["--config", str(cfg), "--out", str(tmp_path / "out"), "gen-data"], capsys)
        assert code == 2
        assert "verblab: fault:" in err


class TestTrainAndEval:
    def test_eval_template_prints_metrics_json(self, capsys, cfg_file, tmp_path):
        code, out, _ = run(
            ["--config", cfg_file, "--out", str(tmp_path), "eval", "--variant", "template"], capsys
        )
        assert code == 0
        metrics = json.loads(out)
        assert set(metrics) == {
            "recall1_overall", "recall1_discovery", "n_eval", "n_discovery", "mean_compression",
        }
        assert metrics["n_eval"] == 8
        assert metrics["mean_compression"] == 1.0

    def test_eval_trained_variant_without_artifacts(self, capsys, cfg_file, tmp_path):
        code, _, err = run(
            ["--config", cfg_file, "--out", str(tmp_path), "eval", "--variant", "rewrite"], capsys
        )
        assert code == 1
        assert "verbalizer_rewrite.json" in err

    def test_train_verbalizer_then_eval(self, capsys, cfg_file, tmp_path):
        out_dir = str(tmp_path)
        code, out, _ = run(
            ["--config", cfg_file, "--out", out_dir, "train-verbalizer", "--policy", "action"], capsys
        )
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "verbalizer_action.json"))
        assert os.path.exists(os.path.join(out_dir, "log_stage1_action.csv"))
        assert "wrote" in out and "final r_acc" in out

        code, out, _ = run(
            ["--config", cfg_file, "--out", out_dir, "eval", "--variant", "action"], capsys
        )
        assert code == 0
        assert 0.0 <= json.loads(out)["recall1_overall"] <= 1.0

    def test_train_reasoner_raw(self, capsys, cfg_file, tmp_path):
        out_dir = str(tmp_path)
        code, out, _ = run(
            ["--config", cfg_file, "--out", out_dir, "train-reasoner", "--raw"], capsys
        )
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "reasoner_raw.json"))
        assert os.path.exists(os.path.join(out_dir, "log_stage2_raw.csv"))
        assert "final mean reward" in out

    def test_train_reasoner_on_trained_verbalizer(self, capsys, cfg_file, tmp_path):
        out_dir = str(tmp_path)
        run(["--config", cfg_file, "--out", out_dir, "train-verbalizer", "--policy", "rewrite"], capsys)
        code, _, _ = run(
            [
                "--config", cfg_file, "--out", out_dir, "train-reasoner",
                "--verbalizer", os.path.join(out_dir, "verbalizer_rewrite.json"),
            ],
            capsys,
        )
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "reasoner_rewrite.json"))

    def test_train_reasoner_on_action_verbalizer(self, capsys, cfg_file, tmp_path):
        out_dir = str(tmp_path)
        run(["--config", cfg_file, "--out", out_dir, "train-verbalizer", "--policy", "action"], capsys)
        code, out, _ = run(
            [
                "--config", cfg_file, "--out", out_dir, "train-reasoner",
                "--verbalizer", os.path.join(out_dir, "verbalizer_action.json"),
            ],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[:2] == [
            f"wrote {os.path.join(out_dir, 'reasoner_action.json')}",
            f"wrote {os.path.join(out_dir, 'log_stage2_action.csv')}",
        ]
        assert os.path.exists(os.path.join(out_dir, "reasoner_action.json"))
        assert os.path.exists(os.path.join(out_dir, "log_stage2_action.csv"))

    def test_train_reasoner_missing_verbalizer_file(self, capsys, cfg_file, tmp_path):
        code, _, err = run(
            [
                "--config", cfg_file, "--out", str(tmp_path), "train-reasoner",
                "--verbalizer", str(tmp_path / "nope.json"),
            ],
            capsys,
        )
        assert code == 1
        assert "does not exist" in err


class TestMalformedParams:
    def test_reasoner_params_without_weights(self, capsys, cfg_file, tmp_path):
        path = tmp_path / "reasoner_raw.json"
        path.write_text(json.dumps({"format_version": 1, "kind": "reasoner", "arrays": {}}))
        code, _, err = run(
            ["--config", cfg_file, "--out", str(tmp_path), "eval", "--variant", "raw_trained_reasoner"], capsys
        )
        assert code == 1
        assert "verblab: error:" in err and str(path) in err and "'weights'" in err

    def test_verbalizer_params_file_holding_a_list(self, capsys, cfg_file, tmp_path):
        path = tmp_path / "listed.json"
        path.write_text("[1, 2, 3]")
        code, _, err = run(
            ["--config", cfg_file, "--out", str(tmp_path), "train-reasoner", "--verbalizer", str(path)], capsys
        )
        assert code == 1
        assert "verblab: error:" in err and str(path) in err


class TestAblateAndPipeline:
    def test_ablate_writes_reports_and_summary(self, capsys, cfg_file, tmp_path):
        out_dir = str(tmp_path)
        code, out, _ = run(["--config", cfg_file, "--out", out_dir, "ablate"], capsys)
        assert code == 0
        assert os.path.exists(os.path.join(out_dir, "report.csv"))
        assert os.path.exists(os.path.join(out_dir, "report.md"))
        assert "template: discovery recall@1" in out
        assert "zero_shot: discovery recall@1" in out
        assert "(mean over 1 seeds)" in out

    def test_pipeline_is_ablate_with_retraining(self, capsys, cfg_file, tmp_path):
        out_dir = str(tmp_path)
        code_a, out_a, _ = run(["--config", cfg_file, "--out", out_dir, "ablate"], capsys)
        code_b, out_b, _ = run(["--config", cfg_file, "--out", out_dir, "pipeline"], capsys)
        assert code_a == code_b == 0
        assert out_a == out_b  # regenerated artifacts reproduce the report


class TestCheckCommand:
    def test_reports_pass_lines(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "verblab.cli.run_all_checks",
            lambda: [SuiteResult("gradients", True, "ok"), SuiteResult("kernels", True, "ok")],
        )
        code, out, _ = run(["check"], capsys)
        assert code == 0
        assert out.splitlines() == ["PASS gradients: ok", "PASS kernels: ok"]

    def test_any_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "verblab.cli.run_all_checks",
            lambda: [SuiteResult("gradients", True, "ok"), SuiteResult("kernels", False, "bad")],
        )
        code, out, _ = run(["check"], capsys)
        assert code == 1
        assert "FAIL kernels: bad" in out


class TestLogging:
    def test_bad_log_level_warns_but_runs(self, capsys, monkeypatch, cfg_file, tmp_path):
        monkeypatch.setenv("VERBLAB_LOG", "chatty")
        code, _, err = run(["--config", cfg_file, "--out", str(tmp_path), "gen-data"], capsys)
        assert code == 0
        assert "VERBLAB_LOG" in err

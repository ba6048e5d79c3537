"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import build_parser, main, settings_from_args


class TestParser:
    def test_all_commands_accepted(self):
        parser = build_parser()
        for command in ("datasets", "figure3", "table1", "table2", "figure4",
                        "ablation"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_run_command_accepted(self):
        args = build_parser().parse_args(
            ["run", "data.csv", "--target", "y"])
        assert args.command == "run"
        assert args.csv == "data.csv"
        assert args.target == "y"

    def test_jobs_and_column_cache_flags(self):
        args = build_parser().parse_args(
            ["figure3", "--jobs", "3", "--column-cache", "cols.cache"])
        assert args.jobs == 3
        assert args.column_cache == "cols.cache"
        # Default: serial, no persistence.
        args = build_parser().parse_args(["table1"])
        assert args.jobs == 1
        assert args.column_cache is None

    def test_single_run_commands_reject_jobs(self):
        # table2 and run execute exactly one CAFFEINE run; accepting
        # --jobs would silently promise parallelism that never happens.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--jobs", "2"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "x.csv", "--target", "y", "--jobs", "2"])
        # Both still take --column-cache (single runs warm-start too).
        args = build_parser().parse_args(
            ["table2", "--column-cache", "cols.cache"])
        assert args.column_cache == "cols.cache"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure5"])

    def test_settings_from_args(self):
        args = build_parser().parse_args(
            ["table1", "--population", "33", "--generations", "7", "--seed", "5"])
        settings = settings_from_args(args)
        assert settings.population_size == 33
        assert settings.n_generations == 7
        assert settings.random_seed == 5

    def test_paper_budget_flag(self):
        args = build_parser().parse_args(["figure3", "--paper-budget"])
        settings = settings_from_args(args)
        assert settings.population_size == 200
        assert settings.n_generations == 5000


class TestMain:
    def test_datasets_command(self, capsys):
        exit_code = main(["datasets", "--runs", "27"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "OTA datasets" in output
        assert "PM" in output

    def test_table1_command_small_budget(self, capsys):
        exit_code = main(["table1", "--runs", "27", "--population", "20",
                          "--generations", "3", "--targets", "SRp"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table I" in output
        assert "SRp" in output

    def test_table2_command_small_budget(self, capsys):
        exit_code = main(["table2", "--runs", "27", "--population", "20",
                          "--generations", "3", "--target", "SRn"])
        assert exit_code == 0
        assert "Table II" in capsys.readouterr().out

    def test_table1_with_jobs_and_cache(self, capsys, tmp_path):
        path = str(tmp_path / "cols.cache")
        exit_code = main(["table1", "--runs", "27", "--population", "16",
                          "--generations", "2", "--targets", "PM", "SRp",
                          "--jobs", "2", "--column-cache", path])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table I" in output and "2 jobs" in output
        import os
        assert os.path.exists(path)  # the sweep persisted its columns


class TestCrashSafetyFlags:
    def _record_snapshots(self, monkeypatch):
        from repro.core.cache_store import RunCheckpointStore

        generations = []
        save_state = RunCheckpointStore.save_state

        def recording_save_state(store, slot, state):
            if state["kind"] == "generation":
                generations.append(state["generation"])
            return save_state(store, slot, state)

        monkeypatch.setattr(RunCheckpointStore, "save_state",
                            recording_save_state)
        return generations

    @pytest.mark.parametrize("command", ["figure3", "table1", "figure4"])
    def test_sweeps_forward_checkpoint_every(self, command, monkeypatch,
                                             tmp_path, capsys):
        generations = self._record_snapshots(monkeypatch)
        exit_code = main([command, "--targets", "PM", "--population", "10",
                          "--generations", "6", "--runs", "27",
                          "--checkpoint", str(tmp_path / "a.ckpt"),
                          "--checkpoint-every", "3"])
        assert exit_code == 0
        # Generation 6 is the last: its boundary becomes the stored result.
        assert generations == [3]

    def test_ablation_forwards_checkpoint_every(self, monkeypatch, tmp_path,
                                                capsys):
        generations = self._record_snapshots(monkeypatch)
        exit_code = main(["ablation", "--population", "10",
                          "--generations", "6", "--runs", "27",
                          "--checkpoint", str(tmp_path / "a.ckpt"),
                          "--checkpoint-every", "3"])
        assert exit_code == 0
        assert generations == [3] * 4  # one snapshot per CAFFEINE variant

    @pytest.mark.parametrize("command", [
        ["run", "x.csv", "--target", "y"],
        ["freeze", "x.csv", "--target", "y", "--out", "f.caffeine"],
        ["figure3"], ["table1"], ["figure4"], ["ablation"]])
    def test_resume_without_checkpoint_is_a_usage_error(self, command,
                                                        capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--resume"])
        assert excinfo.value.code == 2
        assert "--resume needs --checkpoint" in capsys.readouterr().err


class TestRunCommand:
    def _write_csv(self, path):
        import numpy as np

        rng = np.random.default_rng(0)
        rows = ["a,b,y"]
        for _ in range(30):
            a, b = rng.uniform(0.5, 2.0, size=2)
            rows.append(f"{a},{b},{1 + 2 * a / b}")
        path.write_text("\n".join(rows) + "\n")

    def test_run_csv_prints_tradeoff(self, capsys, tmp_path):
        csv_path = tmp_path / "toy.csv"
        self._write_csv(csv_path)
        exit_code = main(["run", str(csv_path), "--target", "y",
                          "--population", "16", "--generations", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "error/complexity trade-off" in output
        assert "Best model:" in output

    def test_run_csv_with_test_split_and_progress(self, capsys, tmp_path):
        train_path = tmp_path / "train.csv"
        test_path = tmp_path / "test.csv"
        self._write_csv(train_path)
        self._write_csv(test_path)
        exit_code = main(["run", str(train_path), "--target", "y",
                          "--test", str(test_path), "--features", "a", "b",
                          "--population", "16", "--generations", "3",
                          "--progress"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "testing-error trade-off" in output
        assert "starting" in output  # the ProgressPrinter callback fired

    def test_run_unknown_target_fails_cleanly(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        self._write_csv(csv_path)
        with pytest.raises(ValueError, match="target column"):
            main(["run", str(csv_path), "--target", "nope"])

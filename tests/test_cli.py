"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import build_parser, main, settings_from_args


class TestParser:
    def test_all_commands_accepted(self):
        parser = build_parser()
        for command in ("datasets", "paper", "ablation"):
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
            ["paper", "--jobs", "3", "--column-cache", "cols.cache"])
        assert args.jobs == 3
        assert args.column_cache == "cols.cache"
        # Default: serial, no persistence.
        args = build_parser().parse_args(["paper"])
        assert args.jobs == 1
        assert args.column_cache is None

    def test_single_run_commands_reject_jobs(self):
        # run executes exactly one CAFFEINE run; accepting --jobs would
        # silently promise parallelism that never happens.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "x.csv", "--target", "y", "--jobs", "2"])
        # It still takes --column-cache (single runs warm-start too).
        args = build_parser().parse_args(
            ["run", "x.csv", "--target", "y", "--column-cache", "cols.cache"])
        assert args.column_cache == "cols.cache"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure5"])

    def test_freeze_is_gone(self, capsys):
        """``run --save-front`` is the one way to freeze a CSV run."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["freeze", "x.csv", "--target", "y", "--out", "f.caffeine"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'freeze'" in capsys.readouterr().err

    @pytest.mark.parametrize("command",
                             ["figure3", "table1", "table2", "figure4"])
    def test_single_artifact_commands_are_gone(self, command, capsys):
        """``paper`` renders all four artifacts from one sweep."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_settings_from_args(self):
        args = build_parser().parse_args(
            ["paper", "--population", "33", "--generations", "7", "--seed", "5"])
        settings = settings_from_args(args)
        assert settings.population_size == 33
        assert settings.n_generations == 7
        assert settings.random_seed == 5

    def test_paper_budget_flag(self):
        args = build_parser().parse_args(["paper", "--paper-budget"])
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

    def test_paper_command_small_budget(self, capsys):
        exit_code = main(["paper", "--runs", "27", "--population", "20",
                          "--generations", "3", "--targets", "SRp"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 3 [SRp]" in output
        assert "Table I" in output
        assert "Figure 4" in output
        # Table II is PM's alone, as in the paper.
        assert "Table II" not in output

    def test_paper_prints_table2_for_pm(self, capsys):
        exit_code = main(["paper", "--runs", "27", "--population", "20",
                          "--generations", "3", "--targets", "SRn", "PM"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table II: CAFFEINE-generated models of PM" in output

    def test_paper_evolves_each_target_once(self, monkeypatch, capsys):
        from repro.core.engine import CaffeineEngine

        evolved = []
        engine_run = CaffeineEngine.run

        def recording_run(engine, *args, **kwargs):
            evolved.append(engine.train.target_name)
            return engine_run(engine, *args, **kwargs)

        monkeypatch.setattr(CaffeineEngine, "run", recording_run)
        exit_code = main(["paper", "--runs", "27", "--population", "10",
                          "--generations", "2", "--targets", "PM", "SRp"])
        assert exit_code == 0
        output = capsys.readouterr().out
        # Figure 3, Tables I/II and Figure 4 all read the same two runs.
        assert "Table II" in output and "Figure 4" in output
        assert evolved == ["PM", "SRp"]

    def test_paper_with_jobs_and_cache(self, capsys, tmp_path):
        path = str(tmp_path / "cols.cache")
        exit_code = main(["paper", "--runs", "27", "--population", "16",
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

    # The Figure 3, Table I and Figure 4 sweeps are all rendered by
    # ``paper``; each must come out of the checkpointed run.
    @pytest.mark.parametrize("section", [
        "Figure 3 [PM]", "Table I", "Figure 4"],
        ids=["figure3", "table1", "figure4"])
    def test_sweeps_forward_checkpoint_every(self, section, monkeypatch,
                                             tmp_path, capsys):
        generations = self._record_snapshots(monkeypatch)
        exit_code = main(["paper", "--targets", "PM", "--population", "10",
                          "--generations", "6", "--runs", "27",
                          "--checkpoint", str(tmp_path / "a.ckpt"),
                          "--checkpoint-every", "3"])
        assert exit_code == 0
        # Generation 6 is the last: its boundary becomes the stored result.
        assert generations == [3]
        assert section in capsys.readouterr().out

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
        ["paper", "--targets", "PM", "SRp"],
        ["paper", "--targets", "SRp", "SRn"],
        ["paper", "--targets", "PM", "SRp", "--save-front", "fronts"],
        ["ablation", "--target", "SRp"]])
    def test_jobs_and_column_cache_reach_the_one_session(self, command,
                                                         monkeypatch,
                                                         tmp_path, capsys):
        from repro.core.session import Session

        sessions = []
        init = Session.__init__

        def recording_init(session, *args, **kwargs):
            init(session, *args, **kwargs)
            sessions.append(session)

        monkeypatch.setattr(Session, "__init__", recording_init)
        monkeypatch.chdir(tmp_path)  # --save-front writes under it
        path = str(tmp_path / "cols.cache")
        exit_code = main(command + ["--population", "10", "--generations",
                                    "2", "--runs", "27", "--jobs", "2",
                                    "--column-cache", path])
        assert exit_code == 0
        # Every artifact was rendered from the one Session's results.
        assert len(sessions) == 1
        assert sessions[0].jobs == 2
        assert sessions[0].column_cache_path == path
        assert len(sessions[0].problems) > 1
        if "--save-front" in command:
            # Each target's front is frozen from those same results.
            fronts = sorted((tmp_path / "fronts").glob("*.front"))
            assert [front.name for front in fronts] == ["PM.front",
                                                        "SRp.front"]

    @pytest.mark.parametrize("command", [
        ["run", "x.csv", "--target", "y"],
        ["run", "x.csv", "--target", "y", "--save-front", "f.caffeine"],
        ["paper"], ["paper", "--targets", "PM", "SRp"],
        ["paper", "--save-front", "fronts"], ["ablation"]])
    def test_resume_without_checkpoint_is_a_usage_error(self, command,
                                                        capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--resume"])
        assert excinfo.value.code == 2
        assert "--resume needs --checkpoint" in capsys.readouterr().err


class TestInvalidBudgets:
    @pytest.mark.parametrize("command, message", [
        (["run", "toy.csv", "--target", "y", "--population", "3"],
         "population_size must be at least 4"),
        (["run", "toy.csv", "--target", "y", "--generations", "0"],
         "n_generations must be at least 1"),
        (["run", "toy.csv", "--target", "y", "--checkpoint-every", "0"],
         "--checkpoint-every must be at least 1"),
        (["run", "toy.csv", "--target", "y", "--save-front", "f.caffeine",
          "--population", "3"], "population_size must be at least 4"),
        (["paper", "--targets", "PM", "--population", "3"],
         "population_size must be at least 4"),
        (["ablation", "--generations", "0"],
         "n_generations must be at least 1"),
        (["paper", "--checkpoint-every", "0"],
         "--checkpoint-every must be at least 1"),
        (["datasets", "--runs", "0"], "--runs 0"),
        (["paper", "--runs", "9"], "--runs 9"),
    ])
    def test_is_a_usage_error_before_any_work(self, command, message,
                                              monkeypatch, capsys):
        # Neither the CSV (which does not exist) nor the OTA datasets are
        # touched: the budget is checked right after parsing.
        def no_datasets(**_kwargs):
            raise AssertionError("datasets built before the budget check")

        monkeypatch.setattr("repro.__main__.generate_ota_datasets",
                            no_datasets)
        with pytest.raises(SystemExit) as excinfo:
            main(command)
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "usage:" in error
        assert f"invalid budget: {message}" in error

    @pytest.mark.parametrize("command, message", [
        (["paper", "--targets", "PM", "XYZ"], "unknown performance 'XYZ'"),
        (["paper", "--targets"], "no performance selected"),
        (["paper", "--targets", "gain"], "unknown performance 'gain'"),
        (["paper", "--targets", "XYZ", "PM"], "unknown performance 'XYZ'"),
        (["ablation", "--target", "XYZ"], "unknown performance 'XYZ'"),
    ])
    def test_bad_target_is_a_usage_error_before_any_work(self, command,
                                                         message,
                                                         monkeypatch,
                                                         capsys):
        def no_datasets(**_kwargs):
            raise AssertionError("datasets built before the target check")

        monkeypatch.setattr("repro.__main__.generate_ota_datasets",
                            no_datasets)
        with pytest.raises(SystemExit) as excinfo:
            main(command)
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert f"invalid target: {message}; known: ALF, fu, PM" in error


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

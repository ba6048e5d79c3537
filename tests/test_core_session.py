"""Problem/Session orchestration: engine equality, parallel runs, callbacks."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.cache_store import ColumnCacheStore
from repro.core.engine import CaffeineEngine
from repro.core import session as session_module
from repro.core.evaluation import BasisColumnCache, cache_budgets
from repro.core.problem import Problem
from repro.core.session import Session, SessionCallback
from repro.core.settings import CaffeineSettings
from repro.data.dataset import Dataset

SETTINGS = CaffeineSettings(population_size=16, n_generations=3,
                            random_seed=3)


def _dataset(seed: int, target_name: str = "y", n: int = 50) -> Dataset:
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0, size=(n, 3))
    y = 3.0 + 2.0 * X[:, 0] / X[:, 1] + 0.5 * X[:, 2] * seed
    return Dataset(X, y, variable_names=("a", "b", "c"),
                   target_name=target_name)


def _two_problems():
    # Same X for both (the paper's sweep shape): the shared cache genuinely
    # shares, and the fingerprint layer is exercised.
    rng = np.random.default_rng(0)
    X = rng.uniform(0.5, 2.0, size=(50, 3))
    names = ("a", "b", "c")
    p1 = Problem(train=Dataset(X, 3 + 2 * X[:, 0] / X[:, 1], names,
                               target_name="t1"))
    p2 = Problem(train=Dataset(X, X[:, 2] ** 2 + X[:, 0], names,
                               target_name="t2"))
    return [p1, p2]


def _front(result):
    # NaN test errors (no test data) compare unequal to themselves; map
    # them to None so bit-for-bit tuples stay comparable.
    return [(m.train_error,
             None if np.isnan(m.test_error) else m.test_error,
             m.complexity, m.expression())
            for m in result.tradeoff]


class TestProblem:
    def test_name_defaults_to_target(self):
        problem = Problem(train=_dataset(1, target_name="PM"))
        assert problem.name == "PM"
        assert problem.variable_names == ("a", "b", "c")

    def test_mismatched_test_rejected(self):
        train = _dataset(1, target_name="PM")
        test = _dataset(2, target_name="SRp")
        with pytest.raises(ValueError, match="target"):
            Problem(train=train, test=test)

    def test_from_arrays_default_names_and_log10(self):
        X = np.full((10, 2), 2.0)
        problem = Problem.from_arrays(X, np.full(10, 100.0),
                                      target_name="fu", log10_target=True)
        assert problem.variable_names == ("x0", "x1")
        assert problem.train.log_scaled
        assert np.allclose(problem.train.y, 2.0)
        with pytest.raises(ValueError, match="X_test was given"):
            Problem.from_arrays(X, np.ones(10), X_test=X)

    def test_from_csv_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,y\n1.0,2.0,5.0\n2.0,not-a-number,6.0\n"
                        "3.0,1.0,7.0\n1.0,2.0\n")  # last line truncated
        problem = Problem.from_csv(path, target="y")
        assert problem.variable_names == ("a", "b")
        # Bad cells AND bad row shapes become NaN rows -- counted, never
        # silently skipped -- and the engine drops them at run time.
        assert problem.train.n_samples == 4
        cleaned = problem.train.drop_nonfinite()
        assert cleaned.n_samples == 2
        with pytest.raises(ValueError, match="target column"):
            Problem.from_csv(path, target="nope")
        with pytest.raises(ValueError, match="feature columns"):
            Problem.from_csv(path, target="y", feature_columns=["a", "zz"])

    def test_from_csv_rejects_label_columns(self, tmp_path):
        path = tmp_path / "labeled.csv"
        path.write_text("id,a,y\nrun-1,1.0,5.0\nrun-2,2.0,6.0\n")
        # An all-text column included as a feature would NaN every row;
        # name it instead of silently emptying the dataset.
        with pytest.raises(ValueError, match=r"\['id'\] contain no numeric"):
            Problem.from_csv(path, target="y")
        problem = Problem.from_csv(path, target="y",
                                   feature_columns=["a"])
        assert problem.variable_names == ("a",)
        with pytest.raises(ValueError, match="'id' contains no numeric"):
            Problem.from_csv(path, target="id", feature_columns=["a"])

    def test_empty_row_selection_is_a_legal_empty_dataset(self):
        dataset = _dataset(1)
        empty = dataset.select_rows([])
        assert empty.n_samples == 0
        all_nan = Dataset(np.full((3, 2), np.nan), np.full(3, np.nan),
                          variable_names=("a", "b"))
        assert all_nan.drop_nonfinite().n_samples == 0

    def test_picklable(self):
        import pickle

        problem = Problem(train=_dataset(1), metadata={"units": "deg"})
        clone = pickle.loads(pickle.dumps(problem))
        assert clone.name == problem.name
        assert clone.metadata == {"units": "deg"}
        assert np.array_equal(clone.train.X, problem.train.X)


class TestSerialEquality:
    def test_result_mapping_api(self):
        outcome = Session(_two_problems(), settings=SETTINGS).run()
        assert outcome.names == ("t1", "t2")
        assert len(outcome) == 2
        assert outcome[0] is outcome["t1"]
        assert outcome[1] is outcome["t2"]
        assert [name for name in outcome] == ["t1", "t2"]
        with pytest.raises(ValueError, match="not 1"):
            outcome.single()

    def test_per_problem_settings_override(self):
        problems = _two_problems()
        pinned = problems[1].with_settings(
            SETTINGS.copy(population_size=20, random_seed=9))
        outcome = Session([problems[0], pinned], settings=SETTINGS).run()
        assert outcome["t2"].settings.population_size == 20
        reference = CaffeineEngine(pinned.train,
                                   settings=pinned.settings).run()
        assert _front(reference) == _front(outcome["t2"])

    def test_validation_errors(self):
        problems = _two_problems()
        with pytest.raises(ValueError, match="jobs"):
            Session(problems, jobs=0)
        with pytest.raises(ValueError, match="already scheduled"):
            Session([problems[0], problems[0]])
        with pytest.raises(TypeError, match="Problem"):
            Session([_dataset(1)])
        with pytest.raises(ValueError, match="no problems"):
            Session([], settings=SETTINGS).run()


class TestParallel:
    def test_jobs2_bitwise_identical_to_serial(self, tmp_path):
        problems = _two_problems()
        serial = Session(problems, settings=SETTINGS).run()
        parallel = Session(problems, settings=SETTINGS, jobs=2,
                           column_cache_path=str(tmp_path / "cols.cache")
                           ).run()
        for name in serial.names:
            assert _front(serial[name]) == _front(parallel[name])
        assert parallel.jobs == 2
        # Both workers merged their columns into the shared store.
        assert os.path.exists(tmp_path / "cols.cache")
        merged = BasisColumnCache(100000)
        ColumnCacheStore(tmp_path / "cols.cache").load_into(merged)
        assert len(merged) > 0

    def test_parallel_callbacks_fire_in_order(self):
        events = []

        class Recorder(SessionCallback):
            def on_problem_start(self, problem, index, total):
                events.append(("start", problem.name, index, total))

            def on_problem_end(self, problem, result, index, total):
                events.append(("end", problem.name, index, total))

        Session(_two_problems(), settings=SETTINGS, jobs=2,
                callbacks=[Recorder()]).run()
        assert events[:2] == [("start", "t1", 0, 2), ("start", "t2", 1, 2)]
        assert events[2:] == [("end", "t1", 0, 2), ("end", "t2", 1, 2)]


class TestCallbacksAndCheckpoints:
    def test_serial_callback_sequence(self):
        events = []

        class Recorder(SessionCallback):
            def on_session_start(self, problems):
                events.append(("session_start", len(problems)))

            def on_problem_start(self, problem, index, total):
                events.append(("start", problem.name))

            def on_generation(self, problem, generation, stats):
                events.append(("gen", problem.name, generation))

            def on_problem_end(self, problem, result, index, total):
                events.append(("end", problem.name, result.n_models))

            def on_session_end(self, result):
                events.append(("session_end", result.names))

        outcome = Session(_two_problems(), settings=SETTINGS,
                          callbacks=[Recorder()]).run()
        assert events[0] == ("session_start", 2)
        assert events[1] == ("start", "t1")
        generations = [e for e in events if e[0] == "gen"]
        assert len(generations) == 2 * SETTINGS.n_generations
        assert events[-1] == ("session_end", ("t1", "t2"))
        # Callbacks observe, never change: same models as a silent run.
        silent = Session(_two_problems(), settings=SETTINGS).run()
        for name in outcome.names:
            assert _front(silent[name]) == _front(outcome[name])

    def test_interrupted_serial_sweep_saves_column_store(self, tmp_path):
        """Ctrl-C during the second problem still saves the columns the
        first one paid for."""
        path = str(tmp_path / "cols.cache")

        class Interrupt(SessionCallback):
            def on_generation(self, problem, generation, stats):
                if problem.name == "t2":
                    raise KeyboardInterrupt

        outcome = Session(_two_problems(), settings=SETTINGS,
                          column_cache_path=path,
                          callbacks=[Interrupt()]).run()
        assert outcome.interrupted
        assert set(outcome.results) == {"t1"}
        assert ColumnCacheStore(path).load_into(BasisColumnCache(100000)) > 0

    def test_persistent_path_warm_start_identical(self, tmp_path):
        path = str(tmp_path / "cols.cache")
        cold = Session(_two_problems(), settings=SETTINGS,
                       column_cache_path=path).run()
        warm = Session(_two_problems(), settings=SETTINGS,
                       column_cache_path=path).run()
        for name in cold.names:
            assert _front(cold[name]) == _front(warm[name])

    def test_warm_load_is_namespace_filtered(self, tmp_path, monkeypatch):
        """Foreign namespaces in a shared store never occupy LRU room."""
        path = str(tmp_path / "cols.cache")
        # Seed the store with entries from an unrelated namespace.
        foreign = BasisColumnCache(100)
        foreign.put((("foreign-dataset", ("fs",)), ("col", 0)),
                    np.zeros(8))
        ColumnCacheStore(path).save(foreign)

        requested = []
        load_into = ColumnCacheStore.load_into

        def recording_load_into(store, cache, dataset_key=None):
            loaded = load_into(store, cache, dataset_key=dataset_key)
            requested.append((dataset_key, loaded))
            return loaded

        monkeypatch.setattr(ColumnCacheStore, "load_into",
                            recording_load_into)
        problems = _two_problems()
        Session(problems, settings=SETTINGS, column_cache_path=path).run()
        # Both problems share X, so their one namespace loads once; only
        # that namespace is requested, so the foreign entry never lands.
        expected = CaffeineEngine(problems[0].train,
                                  settings=SETTINGS).evaluator.dataset_key
        assert requested == [(expected, 0)]
        # ... while the store still holds the foreign namespace on disk.
        stored = BasisColumnCache(100000)
        load_into(ColumnCacheStore(path), stored)
        assert any(key[0][0] == "foreign-dataset"
                   for key, _column in stored.items())

    def test_shared_cache_sized_to_largest_problem_request(self, monkeypatch):
        sizes = []

        class RecordingCache(BasisColumnCache):
            def __init__(self, max_entries):
                sizes.append(max_entries)
                super().__init__(max_entries)

        monkeypatch.setattr(session_module, "BasisColumnCache",
                            RecordingCache)
        problems = _two_problems()
        # 4 x population x max_basis_functions columns: above the floor
        wide = SETTINGS.copy(n_generations=1, max_basis_functions=500)
        big = problems[1].with_settings(wide)
        outcome = Session([problems[0], big], settings=SETTINGS).run()
        assert outcome.names == ("t1", "t2")
        assert sizes == [cache_budgets(wide).columns] == [32000]

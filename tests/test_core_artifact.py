"""Frozen Pareto-front artifacts: round trip, damage handling, compat rules.

The load-bearing guarantee is *bit identity*: a front saved with
``save_front`` and loaded with ``load_front`` predicts and rescores exactly
-- to the last bit -- what the originating run's models produce (which is
also what the ``artifact_roundtrip`` equivalence key gates in CI).  On top
of that: corrupt files are quarantined to ``<path>.corrupt-<n>``, a
dataset-fingerprint mismatch warns and serves (only a feature-count
mismatch rejects), and a Session run on plain arrays or a CSV problem
saves/loads losslessly.
"""

from __future__ import annotations

import dataclasses
import types

import numpy as np
import pytest

from repro.core.artifact import (
    FrontArtifactStore,
    FrozenFront,
    load_front,
    save_front,
)
from repro.core.engine import CaffeineEngine
from repro.core.model import predict_models
from repro.core.problem import Problem
from repro.core.report import rescore_models
from repro.core.session import Session
from repro.core.settings import CaffeineSettings
from repro.data.metrics import q_tc
from repro.experiments import run_figure3
from repro.regression.least_squares import LinearFit


def _assert_rows_bit_identical(front: FrozenFront, models, X) -> None:
    stacked = front.predict_all(X)
    assert stacked.shape == (len(models), X.shape[0])
    for row, model in zip(stacked, models):
        np.testing.assert_array_equal(row, model.predict(X))


@pytest.fixture(scope="module")
def result(rational_train, rational_test, fast_settings):
    return CaffeineEngine(rational_train, rational_test, fast_settings).run()


@pytest.fixture()
def artifact_path(result, tmp_path):
    path = tmp_path / "front.caffeine"
    save_front(result, path)
    return path


class TestRoundTrip:
    def test_predictions_bit_identical(self, result, artifact_path,
                                       rational_test):
        front = load_front(artifact_path)
        _assert_rows_bit_identical(front, list(result.tradeoff),
                                   rational_test.X)

    def test_rescore_equals_rescore_models(self, result, artifact_path,
                                           rational_test):
        front = load_front(artifact_path)
        live = rescore_models(list(result.tradeoff), rational_test.X,
                              rational_test.y)
        frozen = front.rescore(rational_test.X, rational_test.y)
        assert np.array_equal(np.asarray(frozen), np.asarray(live),
                              equal_nan=True)

    def test_metadata_travels(self, result, artifact_path):
        front = load_front(artifact_path)
        assert front.target_name == result.target_name
        assert front.variable_names == result.variable_names
        assert front.n_models == len(result.tradeoff)
        assert front.dataset_fingerprint == result.dataset_fingerprint
        assert front.function_set_fingerprint == \
            result.function_set_fingerprint
        assert front.settings_fingerprint == result.settings.fingerprint()
        assert front.source_runtime_seconds == result.runtime_seconds
        assert front.created_wall_time is not None

    def test_expressions_and_tradeoff_preserved(self, result, artifact_path):
        front = load_front(artifact_path)
        assert front.expressions() == tuple(
            m.expression() for m in result.tradeoff)
        assert [m.complexity for m in front.tradeoff] == \
            [m.complexity for m in result.tradeoff]
        # the test trade-off re-filters identically from the stored errors
        assert [m.expression() for m in front.test_tradeoff] == \
            [m.expression() for m in result.test_tradeoff]

    def test_refreeze_is_lossless(self, result, artifact_path, tmp_path,
                                  rational_test):
        front = load_front(artifact_path)
        second = tmp_path / "refrozen.caffeine"
        assert save_front(front, second) == front.n_models
        again = load_front(second)
        assert again.expressions() == front.expressions()
        assert again.dataset_fingerprint == front.dataset_fingerprint
        _assert_rows_bit_identical(again, list(result.tradeoff),
                                   rational_test.X)

    def test_figure3_front_roundtrip(self, ota_datasets, tmp_path):
        settings = CaffeineSettings(population_size=24, n_generations=4,
                                    max_basis_functions=6, random_seed=0)
        figure3 = run_figure3(ota_datasets, settings, targets=("PM",))
        live = figure3.results["PM"]
        path = tmp_path / "pm.front"
        save_front(live, path)
        front = load_front(path)
        _, test = ota_datasets.for_target("PM")
        _assert_rows_bit_identical(front, list(live.tradeoff), test.X)
        assert np.array_equal(
            np.asarray(front.rescore(test.X, test.y)),
            np.asarray(rescore_models(list(live.tradeoff), test.X, test.y)),
            equal_nan=True)

    def test_six_target_front_with_log_scaled_fu(self, ota_datasets):
        """One mixed front of all six OTA targets, the log-scaled fu
        included: the shared predictor, the frozen front and the per-model
        scalar paths agree bit for bit."""
        settings = CaffeineSettings(population_size=16, n_generations=2,
                                    max_basis_functions=4, random_seed=0)
        figure3 = run_figure3(ota_datasets, settings)
        models = [model for live in figure3.results.values()
                  for model in live.tradeoff]
        assert len(figure3.results) == 6
        assert any(model.log_scaled_target for model in models)
        front = FrozenFront(target_name="six",
                            variable_names=models[0].variable_names,
                            models=tuple(models))
        _, test = ota_datasets.for_target("fu")
        X = test.X
        shared = predict_models(models, X)
        transformed = front.predict_all(X, transformed=True)
        original = front.predict_all(X)
        for index, model in enumerate(models):
            scalar = model.predict_transformed(X)
            assert shared[index].tobytes() == scalar.tobytes()
            assert transformed[index].tobytes() == scalar.tobytes()
            assert original[index].tobytes() == model.predict(X).tobytes()
            assert front.predict(X, model_index=index).tobytes() == \
                model.predict(X).tobytes()
        # six normalizations: rescoring groups by each model's own range
        assert front.rescore(X, test.y) == [
            q_tc(test.y, model.predict_transformed(X), model.normalization)
            for model in models]

    def test_csv_problem_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        X = rng.uniform(0.5, 2.0, size=(30, 2))
        y = 0.5 + X[:, 0] * X[:, 1]
        csv = tmp_path / "data.csv"
        lines = ["a,b,y"] + [f"{a},{b},{t}" for (a, b), t in zip(X, y)]
        csv.write_text("\n".join(lines) + "\n")
        problem = Problem.from_csv(str(csv), target="y")
        settings = CaffeineSettings(population_size=16, n_generations=2,
                                    random_seed=0)
        live = Session([problem], settings=settings).run().single()
        path = tmp_path / "csv.front"
        save_front(live, path)
        front = load_front(path)
        assert front.variable_names == ("a", "b")
        _assert_rows_bit_identical(front, list(live.tradeoff), X)
        np.testing.assert_array_equal(front.predict(X),
                                      live.best_model().predict(X))


class TestSelection:
    def test_select_matches_best_model(self, result, artifact_path):
        front = load_front(artifact_path)
        assert front.select(by="test").expression() == \
            result.best_model(by="test").expression()
        assert front.select(by="train").expression() == \
            result.best_model(by="train").expression()

    def test_complexity_bound(self, result, artifact_path):
        front = load_front(artifact_path)
        bound = float(min(m.complexity for m in front.models))
        chosen = front.select(by="train", complexity_max=bound)
        assert chosen.complexity <= bound
        with pytest.raises(ValueError, match="no model has complexity"):
            front.select(complexity_max=bound - 1.0)

    def test_model_index(self, artifact_path):
        front = load_front(artifact_path)
        assert front.select(model_index=0) is front.models[0]
        assert front.select(model_index=np.int64(0)) is front.models[0]
        with pytest.raises(ValueError, match="out of range"):
            front.select(model_index=front.n_models)

    @pytest.mark.parametrize("selection", [
        {"model_index": 1.7}, {"model_index": "1"}, {"model_index": True},
        {"complexity_max": "5"}, {"complexity_max": True}])
    def test_non_numeric_selection_rejected(self, artifact_path, selection):
        front = load_front(artifact_path)
        with pytest.raises(ValueError, match="must be"):
            front.select(**selection)

    def test_bad_by_rejected(self, artifact_path):
        front = load_front(artifact_path)
        with pytest.raises(ValueError, match="by must be"):
            front.select(by="validation")


class TestCompatibility:
    def test_fingerprint_mismatch_warns_and_serves(self, artifact_path,
                                                   rational_train):
        shifted = rational_train.X + 1.0
        with pytest.warns(RuntimeWarning, match="serving anyway"):
            front = load_front(artifact_path, dataset=shifted)
        # still a fully functional front
        assert np.isfinite(front.predict(shifted)).all()

    def test_matching_dataset_does_not_warn(self, artifact_path,
                                            rational_train):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            front = load_front(artifact_path, dataset=rational_train.X)
        assert front.check_dataset(rational_train.X) is True

    def test_fits_with_retired_fields_still_load(self, result, tmp_path,
                                                 rational_test):
        """Artifacts written while ``LinearFit`` also carried
        ``residual_sum_of_squares``, ``rank`` and ``singular`` pickle those
        as extra attributes; such files load and serve the same bits."""
        models = list(result.tradeoff)
        aged = []
        for model in models:
            fit = LinearFit(intercept=model.fit.intercept,
                            coefficients=model.fit.coefficients)
            object.__setattr__(fit, "residual_sum_of_squares", 1.0)
            object.__setattr__(fit, "rank", fit.n_terms + 1)
            object.__setattr__(fit, "singular", False)
            aged.append(dataclasses.replace(model, fit=fit))
        path = tmp_path / "aged.caffeine"
        save_front(types.SimpleNamespace(
            tradeoff=aged, target_name=result.target_name,
            variable_names=result.variable_names), path)
        front = load_front(path)
        assert all(model.fit.rank == model.fit.n_terms + 1
                   for model in front.models)
        _assert_rows_bit_identical(front, models, rational_test.X)
        live = rescore_models(models, rational_test.X, rational_test.y)
        frozen = front.rescore(rational_test.X, rational_test.y)
        assert np.array_equal(np.asarray(frozen), np.asarray(live),
                              equal_nan=True)

    def test_feature_count_mismatch_rejects(self, artifact_path):
        with pytest.raises(ValueError, match="shape"):
            load_front(artifact_path, dataset=np.ones((4, 7)))
        front = load_front(artifact_path)
        with pytest.raises(ValueError, match="shape"):
            front.predict(np.ones((4, 7)))
        with pytest.raises(ValueError, match="shape"):
            front.predict_all(np.ones(3))


class TestDamageAndErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_front(tmp_path / "absent.front")

    def test_corrupt_artifact_quarantined(self, artifact_path):
        blob = artifact_path.read_bytes()
        artifact_path.write_bytes(blob[:-20])  # truncate the payload
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with pytest.raises(ValueError, match="no readable front"):
                load_front(artifact_path)
        assert not artifact_path.exists()
        assert artifact_path.with_name(
            artifact_path.name + ".corrupt-0").exists()

    def test_foreign_magic_left_in_place(self, tmp_path):
        path = tmp_path / "other.front"
        path.write_bytes(b"something-else\n1\nabc\npayload")
        with pytest.warns(RuntimeWarning, match="bad magic"):
            with pytest.raises(ValueError, match="no readable front"):
                load_front(path)
        assert path.exists()  # foreign files are never destroyed

    def test_empty_tradeoff_rejected(self, tmp_path):
        empty = FrozenFront(target_name="t", variable_names=("a",),
                            models=())
        with pytest.raises(ValueError, match="empty trade-off"):
            save_front(empty, tmp_path / "x.front")

    def test_wrong_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="tradeoff"):
            save_front(object(), tmp_path / "x.front")

    def test_store_magic_is_distinct(self):
        from repro.core.cache_store import ColumnCacheStore, \
            RunCheckpointStore

        magics = {FrontArtifactStore.MAGIC, ColumnCacheStore.MAGIC,
                  RunCheckpointStore.MAGIC}
        assert len(magics) == 3


class TestEstimatorSaveLoad:
    """Fit on plain arrays, freeze with save_front, serve with load_front."""

    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0.5, 2.0, size=(40, 2))
        y = 1.0 + 2.0 * X[:, 0] / X[:, 1]
        settings = CaffeineSettings(population_size=20, n_generations=3,
                                    random_seed=0)
        live = Session([Problem.from_arrays(X, y)],
                       settings=settings).run().single()
        return live, X

    def test_save_load_predicts_identically(self, fitted, tmp_path):
        live, X = fitted
        path = tmp_path / "est.front"
        assert save_front(live, path) == len(live.tradeoff)
        front = load_front(path)
        assert isinstance(front, FrozenFront)
        np.testing.assert_array_equal(front.predict(X),
                                      live.best_model().predict(X))
        assert front.select().expression() == live.best_model().expression()
        assert front.n_variables == 2
        assert front.variable_names == live.variable_names == ("x0", "x1")
        assert front.n_models == len(live.tradeoff)

    def test_load_validates_model_selection(self, fitted, tmp_path):
        live, _ = fitted
        path = tmp_path / "est.front"
        save_front(live, path)
        front = load_front(path)
        with pytest.raises(ValueError, match="by must be"):
            front.select(by="best")
        with pytest.raises(ValueError, match="by must be"):
            front.predict(np.zeros((2, 2)), by="best")


class TestCli:
    def test_freeze_and_save_front_flags(self, tmp_path, capsys):
        from repro.__main__ import main

        rng = np.random.default_rng(1)
        X = rng.uniform(0.5, 2.0, size=(24, 2))
        y = 0.5 + X[:, 0] * X[:, 1]
        csv = tmp_path / "d.csv"
        lines = ["a,b,y"] + [f"{a},{b},{t}" for (a, b), t in zip(X, y)]
        csv.write_text("\n".join(lines) + "\n")

        saved = tmp_path / "run.front"
        assert main(["run", str(csv), "--target", "y", "--population", "16",
                     "--generations", "2", "--save-front",
                     str(saved)]) == 0
        assert "Froze" in capsys.readouterr().out
        front = load_front(saved)
        assert front.target_name == "y"

        # same problem/settings/seed => the live run's front, bit for bit
        live = Session([Problem.from_csv(csv, target="y")],
                       settings=CaffeineSettings(
                           population_size=16, n_generations=2,
                           random_seed=0)).run().single()
        models = list(live.tradeoff)
        assert front.expressions() == tuple(m.expression() for m in models)
        assert front.predict_all(X).tobytes() == \
            predict_models(models, X).tobytes()

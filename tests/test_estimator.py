"""Fitting plain arrays: Problem.from_arrays -> Session -> best_model.

The one spelling of a fit-predict workflow on NumPy arrays, checked for
predictions, validation data, variable names, a log10 target, the
persistent column cache, frozen-front serving and bit-for-bit equality with
a direct engine run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.artifact import load_front, save_front
from repro.core.engine import CaffeineEngine
from repro.core.problem import Problem
from repro.core.session import Session
from repro.core.settings import CaffeineSettings
from repro.data.dataset import Dataset

SETTINGS = CaffeineSettings(population_size=16, n_generations=3,
                            random_seed=4)


def _data(seed: int = 0, n: int = 50):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0, size=(n, 3))
    y = 3.0 + 2.0 * X[:, 0] / X[:, 1] + 0.5 * X[:, 2]
    return X, y


def _fit(X, y, **kwargs):
    problem = Problem.from_arrays(X, y, **kwargs)
    return Session([problem], settings=SETTINGS).run().single()


def _front(result):
    return [(m.train_error, m.test_error, m.complexity, m.expression())
            for m in result.tradeoff]


class TestSklearnProtocol:
    """The input checks a caller of fit/predict relies on."""

    def test_bad_model_selection_rejected_at_fit(self):
        X, y = _data()
        result = _fit(X, y)
        with pytest.raises(ValueError, match="by must be"):
            result.best_model(by="best")

    def test_predict_shape_validation(self, tmp_path):
        X, y = _data()
        path = tmp_path / "fit.front"
        save_front(_fit(X, y), path)
        with pytest.raises(ValueError, match="n_samples"):
            load_front(path).predict(np.zeros((4, 7)))


class TestFitPredict:
    def test_fit_sets_attributes_and_predicts(self):
        X, y = _data()
        result = _fit(X, y)
        assert result.variable_names == ("x0", "x1", "x2")
        assert len(result.tradeoff) >= 1
        best = result.best_model()
        predictions = best.predict(X)
        assert predictions.shape == (50,)
        assert np.isfinite(predictions).all()
        # A structured search on a smooth target should beat the mean.
        r2 = 1.0 - (np.sum((y - predictions) ** 2)
                    / np.sum((y - y.mean()) ** 2))
        assert r2 > 0.5
        assert isinstance(best.expression(), str)

    def test_validation_data_enables_test_front(self):
        X, y = _data(0)
        X_test, y_test = _data(1)
        result = _fit(X, y, X_test=X_test, y_test=y_test)
        assert len(result.test_tradeoff) >= 1
        assert np.isfinite(result.best_model().test_error)

    def test_feature_names_flow_into_expressions(self):
        X, y = _data()
        names = ("vgs", "ids", "vds")
        result = _fit(X, y, variable_names=names)
        assert result.variable_names == names
        used = set()
        for model in result.tradeoff:
            used.update(model.used_variables())
        assert used and used <= set(names)

    def test_log10_target_predicts_in_original_domain(self):
        X, y = _data()
        y = 10.0 ** (0.1 * y)  # strictly positive, wide-range target
        result = _fit(X, y, log10_target=True)
        best = result.best_model()
        predictions = best.predict(X)
        assert (predictions > 0).all()  # back-transformed via 10^(...)
        np.testing.assert_array_equal(predictions,
                                      10.0 ** best.predict_transformed(X))

        train = Dataset(X, y, variable_names=("x0", "x1", "x2"))
        direct = CaffeineEngine(train.log10_target(),
                                settings=SETTINGS).run()
        assert ([(m.train_error, m.complexity, m.expression())
                 for m in direct.tradeoff]
                == [(m.train_error, m.complexity, m.expression())
                    for m in result.tradeoff])

    def test_column_cache_path_does_not_change_models(self, tmp_path):
        X, y = _data()
        plain = _fit(X, y)
        path = str(tmp_path / "cols.cache")
        problem = Problem.from_arrays(X, y)
        cold = Session([problem], settings=SETTINGS,
                       column_cache_path=path).run().single()
        warm = Session([problem], settings=SETTINGS,
                       column_cache_path=path).run().single()
        for other in (cold, warm):
            assert ([m.train_error for m in plain.tradeoff]
                    == [m.train_error for m in other.tradeoff])


class TestShimEquality:
    def test_estimator_matches_legacy_run_caffeine(self):
        """Fixed-seed bit-for-bit equality of a from_arrays Session and a
        direct engine run on the same datasets."""
        X, y = _data()
        X_test, y_test = _data(1)
        result = _fit(X, y, X_test=X_test, y_test=y_test)

        train = Dataset(X, y, variable_names=("x0", "x1", "x2"))
        test = Dataset(X_test, y_test, variable_names=("x0", "x1", "x2"))
        direct = CaffeineEngine(train, test, settings=SETTINGS).run()

        assert _front(direct) == _front(result)
        assert (direct.best_model().expression()
                == result.best_model().expression())

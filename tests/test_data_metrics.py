"""Unit tests for :mod:`repro.data.metrics`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.metrics import (
    error_normalization,
    q_tc,
    q_wc,
    relative_rmse,
)


class TestErrorNormalization:
    def test_range_is_used(self):
        y = np.array([1.0, 3.0, 5.0])
        assert error_normalization(y) == pytest.approx(4.0)

    def test_constant_data_falls_back_to_magnitude(self):
        y = np.full(4, 2.5)
        assert error_normalization(y) == pytest.approx(2.5)

    def test_all_zero_falls_back_to_one(self):
        assert error_normalization(np.zeros(3)) == 1.0


class TestRelativeRmse:
    def test_scaling(self):
        y = np.array([0.0, 2.0])
        prediction = np.array([1.0, 1.0])
        # RMS error is 1.0; normalization 4 -> 0.25.
        assert relative_rmse(y, prediction, 4.0) == pytest.approx(0.25)

    def test_invalid_normalization(self):
        with pytest.raises(ValueError):
            relative_rmse([1.0], [1.0], 0.0)

    def test_nonfinite_prediction(self):
        assert relative_rmse([1.0, 2.0], [np.inf, 2.0], 1.0) == float("inf")

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            relative_rmse([1.0, 2.0], [1.0], 1.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            relative_rmse([], [], 1.0)


class TestPaperQualityMeasures:
    def test_constant_model_training_error_below_100_percent(self):
        """A constant model must be able to score well below 100 % (paper:
        zero-complexity models land at 10-25 % training error)."""
        rng = np.random.default_rng(0)
        y = rng.uniform(0.0, 1.0, size=200)
        constant = np.full_like(y, y.mean())
        assert 0.0 < q_wc(y, constant) < 0.5

    def test_qtc_uses_training_normalization_when_given(self):
        y_train = np.array([0.0, 10.0])
        y_test = np.array([4.0, 6.0])
        prediction = np.array([5.0, 5.0])
        assert q_tc(y_test, prediction, normalization=error_normalization(y_train)) \
            == pytest.approx(np.sqrt(1.0) / 10.0)

    def test_qtc_requires_training_normalization(self):
        """Regression: qtc used to silently fall back to the *testing* range,
        rescaling the paper's measure; the normalization is now mandatory."""
        y_test = np.array([4.0, 6.0])
        prediction = np.array([5.0, 5.0])
        with pytest.raises(TypeError):
            q_tc(y_test, prediction)

    def test_qtc_differs_from_test_range_normalization(self):
        """The training range (not the narrower testing range) is the
        denominator, so interpolative test sets score *lower*, not higher."""
        y_train = np.array([0.0, 10.0])
        y_test = np.array([4.0, 6.0])
        prediction = np.array([5.0, 5.0])
        training_normalized = q_tc(y_test, prediction,
                                   error_normalization(y_train))
        testing_normalized = q_tc(y_test, prediction,
                                  error_normalization(y_test))
        assert training_normalized < testing_normalized

    def test_interpolation_gives_lower_test_error(self):
        """With a fixed (training-range) normalization, a model evaluated on
        lower-spread interior data scores a lower error -- the paper's
        'testing error below training error' effect."""
        rng = np.random.default_rng(1)
        x_train = rng.uniform(-1.0, 1.0, size=300)
        x_test = rng.uniform(-0.3, 0.3, size=300)
        def truth(x):
            return 1.0 + 2.0 * x + 0.5 * x ** 2

        def model(x):  # misses the curvature
            return 1.0 + 2.0 * x
        normalization = error_normalization(truth(x_train))
        train_error = relative_rmse(truth(x_train), model(x_train), normalization)
        test_error = relative_rmse(truth(x_test), model(x_test), normalization)
        assert test_error < train_error

"""Tests for the linear-regression utilities (LS, PRESS, forward regression, NNLS)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.regression import (
    fit_linear_from_gram_batch,
    forward_select,
    loo_residuals,
    nonnegative_least_squares,
    predict_linear_batch,
    press_statistic,
)

from oracles import fit_linear, gram_fit, raw_normal_statistics


def predict(fit, basis_matrix):
    """One fit's predictions through the one prediction recipe."""
    return predict_linear_batch(np.array([fit.intercept]),
                                fit.coefficients[None, :],
                                basis_matrix[None])[0]


@pytest.fixture
def linear_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(80, 3))
    y = 1.5 + 2.0 * X[:, 0] - 0.5 * X[:, 1] + 0.05 * rng.normal(size=80)
    return X, y


class TestLeastSquares:
    """The production solver (through :func:`oracles.gram_fit`) and the
    reference fit it must match."""

    def test_recovers_coefficients(self, linear_data):
        X, y = linear_data
        fit = gram_fit(X, y)
        assert fit is not None
        assert fit.intercept == pytest.approx(1.5, abs=0.05)
        np.testing.assert_allclose(fit.coefficients, [2.0, -0.5, 0.0], atol=0.05)

    def test_intercept_only(self):
        y = np.array([1.0, 2.0, 3.0])
        fit = gram_fit(np.zeros((3, 0)), y)
        assert fit.intercept == pytest.approx(2.0)
        assert fit.n_terms == 0
        np.testing.assert_allclose(predict(fit, np.zeros((5, 0))),
                                   np.full(5, 2.0))

    def test_nonfinite_inputs_return_none(self):
        X = np.array([[1.0], [np.nan]])
        assert fit_linear(X, np.array([1.0, 2.0])) is None

    def test_collinear_columns_handled(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=50)
        X = np.column_stack([x, 2.0 * x])  # perfectly collinear
        y = 3.0 * x + 1.0
        fit = gram_fit(X, y)
        assert fit is not None
        predictions = predict(fit, X)
        assert np.sqrt(np.mean((predictions - y) ** 2)) < 1e-6

    def test_predict_dimension_check(self, linear_data):
        X, y = linear_data
        fit = gram_fit(X, y)
        with pytest.raises(ValueError):
            predict(fit, X[:, :2])

    def test_singular_fallback_matches_reference(self, monkeypatch):
        """When the stacked solve raises, every item is solved alone from
        the scaled, ridged stack, and an item that is still singular goes
        through lstsq -- each bit for bit the reference fit."""
        rng = np.random.default_rng(4)
        y = rng.normal(size=30)
        matrices = [rng.normal(size=(30, 3)) for _ in range(4)]
        # A zero column leaves a zero row in the unridged normal equations.
        matrices[2][:, 1] = 0.0
        grams, colsums, ydots = (np.stack(blocks) for blocks in zip(
            *(raw_normal_statistics(matrix, y) for matrix in matrices)))
        solve, lstsq = np.linalg.solve, np.linalg.lstsq
        solves, lstsq_calls = [], []

        def stacked_solve_fails(a, b):
            solves.append(np.ndim(a))
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("forced")
            return solve(a, b)

        def counted_lstsq(*args, **kwargs):
            lstsq_calls.append(1)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", stacked_solve_fails)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        fits = fit_linear_from_gram_batch(grams, colsums, ydots,
                                          float(y.sum()), matrices, y,
                                          ridge=0.0)
        monkeypatch.undo()
        assert solves == [3, 2, 2, 2, 2]
        assert len(lstsq_calls) == 1
        for matrix, fit in zip(matrices, fits):
            reference = fit_linear(matrix, y, ridge=0.0)
            assert fit.intercept == reference.intercept
            assert fit.coefficients.tobytes() == \
                reference.coefficients.tobytes()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            fit_linear(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            fit_linear(np.ones(3), np.ones(3))


class TestPress:
    def test_loo_residuals_match_explicit_loo(self):
        """Closed-form LOO residuals must equal brute-force refitting."""
        rng = np.random.default_rng(2)
        X = rng.normal(size=(25, 2))
        y = 1.0 + X[:, 0] - 2.0 * X[:, 1] + 0.1 * rng.normal(size=25)
        closed_form = loo_residuals(X, y, ridge=0.0)
        for t in range(25):
            mask = np.arange(25) != t
            fit = gram_fit(X[mask], y[mask], ridge=0.0)
            prediction = predict(fit, X[t:t + 1])[0]
            assert closed_form[t] == pytest.approx(y[t] - prediction, rel=1e-5,
                                                   abs=1e-8)

    def test_press_penalizes_overfitting(self):
        """Adding pure-noise columns must not decrease (and typically
        increases) the PRESS statistic even though it lowers the residual."""
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 1))
        y = 2.0 * X[:, 0] + 0.2 * rng.normal(size=40)
        noise = rng.normal(size=(40, 12))
        press_true = press_statistic(X, y)
        press_noisy = press_statistic(np.hstack([X, noise]), y)
        assert press_noisy > press_true * 0.9
        noisy = np.hstack([X, noise])
        residual_true = np.sum((y - predict(gram_fit(X, y), X)) ** 2)
        residual_noisy = np.sum((y - predict(gram_fit(noisy, y), noisy)) ** 2)
        assert residual_noisy < residual_true


class TestForwardRegression:
    def test_selects_true_features_before_noise(self):
        rng = np.random.default_rng(4)
        n = 60
        informative = rng.normal(size=(n, 2))
        noise = rng.normal(size=(n, 5))
        y = 3.0 * informative[:, 0] - 2.0 * informative[:, 1] \
            + 0.05 * rng.normal(size=n)
        candidates = np.hstack([noise, informative])
        selected = forward_select(candidates, y, max_terms=4)
        assert set(selected[:2]) == {5, 6}
        assert press_statistic(candidates[:, list(selected)], y) < \
            press_statistic(np.zeros((n, 0)), y)

    def test_stops_when_no_improvement(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=30)
        noise = rng.normal(size=(30, 6))
        assert len(forward_select(noise, y)) <= 2

    def test_max_terms_respected(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 8))
        y = X @ np.arange(1.0, 9.0) + 0.01 * rng.normal(size=50)
        assert len(forward_select(X, y, max_terms=3)) == 3

    def test_invalid_arguments(self):
        X = np.ones((10, 2))
        y = np.ones(10)
        with pytest.raises(ValueError):
            forward_select(X, y, max_terms=-1)
        with pytest.raises(ValueError):
            forward_select(X, y, min_relative_improvement=-0.1)

    def test_nonfinite_candidates_skipped(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(30, 2))
        y = X[:, 0]
        X = X.copy()
        X[0, 1] = np.inf
        assert 1 not in forward_select(X, y)


class TestNnls:
    def test_nonnegative_coefficients(self):
        """A negative generating coefficient is clipped to zero, and the
        constrained fit still beats the intercept-only model."""
        rng = np.random.default_rng(9)
        F = np.abs(rng.normal(size=(50, 4)))
        y = F @ np.array([1.0, -1.0, 2.0, 0.5])
        coefficients, intercept = nonnegative_least_squares(F, y)
        assert np.all(coefficients >= 0.0)
        assert coefficients[1] == 0.0
        residual = y - (F @ coefficients + intercept)
        assert np.sum(residual ** 2) < np.sum((y - y.mean()) ** 2)

    def test_free_intercept_variant(self):
        rng = np.random.default_rng(10)
        F = np.abs(rng.normal(size=(60, 3)))
        y = -5.0 + F @ np.array([1.0, 2.0, 0.0])
        coefficients, intercept = nonnegative_least_squares(F, y)
        assert intercept == pytest.approx(-5.0, abs=1e-9)
        np.testing.assert_allclose(F @ coefficients + intercept, y, atol=1e-9)

    def test_exact_fit_with_shared_mean_component(self):
        """Features of all-positive magnitudes share a large mean
        component, which an intercept/NNLS alternation converges on slowly;
        the centered solve recovers the exact generating model."""
        rng = np.random.default_rng(9)
        F = np.abs(rng.normal(size=(50, 4)))
        y = F @ np.array([1.0, 0.0, 2.0, 0.5])
        coefficients, intercept = nonnegative_least_squares(F, y)
        np.testing.assert_allclose(F @ coefficients + intercept, y, atol=1e-9)
        np.testing.assert_allclose(coefficients, [1.0, 0.0, 2.0, 0.5],
                                   atol=1e-9)
        assert intercept == pytest.approx(0.0, abs=1e-9)

    def test_import_repro_does_not_load_scipy(self):
        """Only NNLS needs SciPy, which is slow to import; every CLI
        call, worker spawn and server start imports repro."""
        source_root = Path(repro.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print('scipy' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(source_root)))
        assert result.stdout.strip() == "False"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            nonnegative_least_squares(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            nonnegative_least_squares(np.full((3, 2), np.nan), np.ones(3))

"""Error metrics used by the paper.

The paper reports *normalized mean-squared error* on training and separate
testing data, identical to two of the three posynomial "quality of fit"
measures of Daems et al.: ``qwc`` is the training error and ``qtc`` the
testing error (with the constant ``c`` in the denominator set to zero).

Two normalizations are provided:

* :func:`normalized_mse` / :func:`normalized_rmse` -- the textbook variant,
  normalized by the variance of the evaluated data.  Under this metric a
  constant model always scores 100 %, which contradicts the paper's reported
  10-25 % training error for zero-complexity (constant) models, so it cannot
  be what the paper used for its headline numbers.
* :func:`relative_rmse` with :func:`error_normalization` -- RMS error divided
  by the *training-data range* of the performance.  This matches the paper's
  behaviour: constant models land in the 10-25 % band, and interpolative
  testing error naturally comes out lower than training error.  ``qwc``/
  ``qtc`` below use this normalization; it is the one used throughout the
  reproduction's objectives and reports.

All metrics are fractions; multiply by 100 for the percentages printed in
the paper's tables.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mean_squared_error",
    "normalized_mse",
    "normalized_rmse",
    "error_normalization",
    "relative_rmse",
    "relative_rmse_rows",
    "q_wc",
    "q_tc",
    "r_squared",
]


def _as_1d(a: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    return arr


def mean_squared_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Plain mean-squared error ``mean((y_true - y_pred)^2)``."""
    y_true = _as_1d(y_true, "y_true")
    y_pred = _as_1d(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    if not np.all(np.isfinite(y_pred)):
        return float("inf")
    with np.errstate(all="ignore"):
        return float(np.mean((y_true - y_pred) ** 2))


def normalized_mse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Normalized mean-squared error.

    Defined as ``mean((y - yhat)^2) / mean((y - mean(y))^2)`` -- i.e. the MSE
    normalized by the variance of the data, so a trivial constant model scores
    1.0.  Returns ``inf`` when predictions are non-finite.  When the target is
    (numerically) constant the denominator degenerates; in that case the error
    is 0.0 for a perfect fit and ``inf`` otherwise, which keeps the metric
    meaningful for targets such as ``voffset`` that are nearly constant.
    """
    y_true = _as_1d(y_true, "y_true")
    y_pred = _as_1d(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    if not np.all(np.isfinite(y_pred)):
        return float("inf")
    with np.errstate(all="ignore"):
        residual = float(np.mean((y_true - y_pred) ** 2))
        variance = float(np.mean((y_true - np.mean(y_true)) ** 2))
        if variance <= 1e-300:
            return 0.0 if residual <= 1e-300 else float("inf")
        return residual / variance


def normalized_rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Square root of :func:`normalized_mse`.

    This is the quantity the paper quotes as a percentage ("training error of
    10-25%", "<10% error"): the root of the variance-normalized MSE.
    """
    nmse = normalized_mse(y_true, y_pred)
    with np.errstate(all="ignore"):
        return float(np.sqrt(nmse)) if np.isfinite(nmse) else float("inf")


def error_normalization(y_train: np.ndarray) -> float:
    """Reference scale used to normalize errors: the training-data range.

    Falls back to the standard deviation, then to the mean magnitude, then to
    1.0 when the data is degenerate, so the returned scale is always positive.
    """
    y_train = _as_1d(y_train, "y_train")
    spread = float(np.max(y_train) - np.min(y_train))
    if spread > 1e-300:
        return spread
    std = float(np.std(y_train))
    if std > 1e-300:
        return std
    magnitude = float(np.mean(np.abs(y_train)))
    return magnitude if magnitude > 1e-300 else 1.0


def relative_rmse(y_true: np.ndarray, y_pred: np.ndarray,
                  normalization: float) -> float:
    """RMS error divided by a fixed reference scale (see :func:`error_normalization`)."""
    y_true = _as_1d(y_true, "y_true")
    y_pred = _as_1d(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same length")
    if normalization <= 0 or not np.isfinite(normalization):
        raise ValueError("normalization must be a positive finite scale")
    if not np.all(np.isfinite(y_pred)):
        return float("inf")
    with np.errstate(all="ignore"):
        return float(np.sqrt(np.mean((y_true - y_pred) ** 2)) / normalization)


def relative_rmse_rows(y_true: np.ndarray, predictions_rows: np.ndarray,
                       normalization: float) -> np.ndarray:
    """Row-stacked :func:`relative_rmse`: one error per prediction row.

    ``predictions_rows`` is an ``(m, n_samples)`` C-contiguous stack of
    prediction vectors sharing one target; the result is the length-``m``
    vector of per-row errors, each **bit-for-bit** what
    ``relative_rmse(y_true, predictions_rows[i], normalization)`` returns.
    The identity holds because every step is either elementwise (subtract,
    square, sqrt, the two divisions -- exact per element regardless of
    batching) or a reduction along the contiguous last axis, where NumPy's
    pairwise summation depends only on each row's own data and length --
    the same batch-stability argument
    :func:`repro.regression.least_squares.pair_dots` rests on, enforced
    here by the property tests in ``tests/test_core_residual.py``.  This is
    the reduction step of the generation-batched residual engine
    (:class:`repro.core.evaluation.BatchedResidualBackend`).
    """
    y_true = _as_1d(y_true, "y_true")
    rows = np.ascontiguousarray(np.asarray(predictions_rows, dtype=float))
    if rows.ndim != 2:
        raise ValueError("predictions_rows must be 2-D (m, n_samples)")
    if rows.shape[1] != y_true.shape[0]:
        raise ValueError("predictions_rows and y_true disagree on n_samples")
    if normalization <= 0 or not np.isfinite(normalization):
        raise ValueError("normalization must be a positive finite scale")
    with np.errstate(all="ignore"):
        # errstate only silences FP warnings from non-finite rows (the scalar
        # path never reduces those; here they are computed then overwritten).
        finite = np.isfinite(rows).all(axis=1)
        residuals = y_true[None, :] - rows
        errors = np.sqrt(np.mean(residuals ** 2, axis=1)) / normalization
        errors[~finite] = np.inf
    return errors


def q_wc(y_train: np.ndarray, y_train_pred: np.ndarray) -> float:
    """Training-error quality measure ``qwc``: RMS error / training range."""
    return relative_rmse(y_train, y_train_pred, error_normalization(y_train))


def q_tc(y_test: np.ndarray, y_test_pred: np.ndarray,
         normalization: float) -> float:
    """Testing-error quality measure ``qtc``: RMS testing error / *training* range.

    The paper normalizes the testing error by the same reference as the
    training error -- the training-data range -- so training and testing
    percentages are directly comparable.  ``normalization`` is therefore
    required and must be ``error_normalization(y_train)``; defaulting to the
    testing data's own range here was a bug (it silently rescaled qtc
    whenever the test samples spanned a different range than the training
    samples).
    """
    return relative_rmse(y_test, y_test_pred, normalization)


def r_squared(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, ``1 - NMSE``.

    Provided as a convenience for users used to R^2; not used by the paper.
    """
    nmse = normalized_mse(y_true, y_pred)
    return float("-inf") if not np.isfinite(nmse) else 1.0 - nmse

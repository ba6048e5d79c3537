"""Non-negative least squares, used by the posynomial baseline.

A posynomial is a sum of monomials with *non-negative* coefficients.  Fitting
the coefficients of a fixed monomial template to data is therefore a
non-negative least-squares (NNLS) problem.  SciPy provides a reliable active
set solver; this wrapper adds the free intercept and the column scaling
used elsewhere in the package.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["nonnegative_least_squares"]


def nonnegative_least_squares(features: np.ndarray, y: np.ndarray
                              ) -> Tuple[np.ndarray, float]:
    """Solve ``min ||intercept + features @ c - y||`` subject to ``c >= 0``.

    The intercept is unconstrained and handled exactly by centering: one
    NNLS solve on the centered features and target gives ``c``, and the
    intercept is ``mean(y - features @ c)``.  (A posynomial proper has a
    non-negative constant; the baseline of Daems et al. allows a free
    constant term, which this reproduces.)

    Parameters
    ----------
    features:
        Monomial feature matrix of shape ``(n_samples, n_features)``.
    y:
        Target vector.

    Returns
    -------
    (coefficients, intercept)
    """
    # Imported here: SciPy is slow to import and only the posynomial
    # baseline solves NNLS, so ``import repro`` must not pay for it.
    from scipy.optimize import nnls as scipy_nnls

    features = np.asarray(features, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if features.ndim != 2:
        raise ValueError("features must be 2-D")
    if features.shape[0] != y.shape[0]:
        raise ValueError("features and y disagree on the number of samples")
    if not np.all(np.isfinite(features)) or not np.all(np.isfinite(y)):
        raise ValueError("features and y must be finite")

    scales = np.sqrt(np.mean(features ** 2, axis=0))
    scales[scales < 1e-300] = 1.0
    scaled = features / scales

    # For any c the best intercept is mean(y) - mean(scaled) @ c, so the
    # constrained problem reduces exactly to one NNLS on centered data.
    feature_means = scaled.mean(axis=0)
    y_mean = float(np.mean(y))
    solution, _ = scipy_nnls(scaled - feature_means, y - y_mean)
    # repro-lint: allow[bit-identity] -- NNLS baseline rides on scipy's solver; outside the bit-identity contract
    intercept = y_mean - float(feature_means @ solution)
    return solution / scales, intercept

"""PRESS statistic: closed-form leave-one-out cross-validation of linear fits.

The paper's simplification-after-generation step uses the Predicted REsidual
Sums of Squares (PRESS) statistic coupled with forward regression to prune
basis functions that harm *predictive* ability (as opposed to training fit).
For a linear model fitted by least squares, the leave-one-out residual at
sample ``t`` has the closed form ``e_t / (1 - h_tt)`` where ``e_t`` is the
ordinary residual and ``h_tt`` the t-th diagonal entry of the hat matrix
``H = X (X'X)^-1 X'`` -- no refitting needed.
"""

from __future__ import annotations

import numpy as np

from repro.regression.least_squares import design_matrix

__all__ = ["loo_residuals", "press_statistic"]


def _solve_gram(design: np.ndarray, ridge: float) -> np.ndarray:
    """(X'X + ridge*I)^-1 X' with the intercept column unpenalized."""
    # repro-lint: allow[bit-identity] -- PRESS is a diagnostic statistic, outside the fit/predict bit-identity contract
    gram = design.T @ design
    penalty = np.eye(design.shape[1]) * ridge * max(1.0, float(np.trace(gram)))
    penalty[0, 0] = 0.0
    try:
        return np.linalg.solve(gram + penalty, design.T)
    except np.linalg.LinAlgError:
        return np.linalg.pinv(design)


def loo_residuals(basis_matrix: np.ndarray, y: np.ndarray,
                  ridge: float = 1e-10) -> np.ndarray:
    """Leave-one-out residuals ``y_t - yhat_t^(-t)`` of the linear fit
    ``y ~ intercept + basis_matrix @ coefficients``.

    Computed in closed form from the hat-matrix diagonal.  Diagonal entries
    numerically equal to 1 (a sample fitted exactly by its own basis column)
    are clipped so the result stays finite; such samples effectively carry a
    very large leave-one-out residual, which is the desired behaviour for
    model selection.
    """
    basis_matrix = np.asarray(basis_matrix, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if basis_matrix.shape[0] != y.shape[0]:
        raise ValueError("basis_matrix and y disagree on the number of samples")
    design = design_matrix(basis_matrix)
    projector = _solve_gram(design, ridge)
    # repro-lint: allow[bit-identity] -- PRESS diagnostic, outside the bit-identity contract
    predictions = design @ (projector @ y)
    residuals = y - predictions
    # repro-lint: allow[bit-identity] -- PRESS diagnostic, outside the bit-identity contract
    leverage = np.einsum("ij,ji->i", design, projector)
    leverage = np.clip(leverage, 0.0, 1.0 - 1e-9)
    return residuals / (1.0 - leverage)


def press_statistic(basis_matrix: np.ndarray, y: np.ndarray,
                    ridge: float = 1e-10) -> float:
    """The PRESS statistic: sum of squared leave-one-out residuals."""
    loo = loo_residuals(basis_matrix, y, ridge)
    if not np.all(np.isfinite(loo)):
        return float("inf")
    # repro-lint: allow[bit-identity] -- PRESS diagnostic, outside the bit-identity contract
    return float(loo @ loo)

"""Least-squares fitting of linearly weighted basis functions.

In CAFFEINE the overall expression is ``y = w0 + sum_j wj * basis_j(x)``:
the basis functions are evolved by GP, the weights ``wj`` and intercept
``w0`` are learned by linear least squares on the training data.  This module
implements that fit with the numerical safeguards needed when basis functions
are nearly collinear or badly scaled (a common occurrence for randomly
generated expressions): a tiny ridge term and column scaling.

:func:`fit_linear_from_gram_batch` is the one solver.  It takes raw
cross-products (as cached and batched by the generation-level gram pool in
:mod:`repro.core.evaluation`) for a stack of same-width individuals and
solves them in one LAPACK call, with no pass over ``n_samples`` unless an
item is singular.  Its results are bit-for-bit those of a plain
one-matrix-at-a-time fit (the test suite keeps that reference) because
every normal-equation entry comes from one canonical dot-product recipe,
:func:`pair_dots`: columns are stacked as *rows* of a C-contiguous array and
reduced along the contiguous axis, where NumPy's pairwise summation depends
only on the row's own data and length -- never on which other rows share
the batch.  (BLAS GEMM does *not* have this property: the entries of
``P.T @ P`` change in the last ulp with the shape of ``P``, which is why the
gram pool cannot simply gather from one big matrix product.)

The same discipline applies on the *prediction* side.  A BLAS matvec
``B @ w`` reduces each sample's ``k`` terms in an implementation-chosen
order that may change with blocking, so predictions produced one individual
at a time and predictions produced in a stacked batch could disagree in the
last ulp.  :func:`predict_linear_batch`, the one prediction recipe,
therefore accumulates ``w0 + sum_j wj * col_j`` **left to right over the
basis columns** of an ``(m, n, k)`` stack: every step is an elementwise
multiply or add (exact per element, independent of how many individuals
share the batch), and there is no cross-sample or cross-term reduction at
all.  Each output row is bit-for-bit the row that individual would get
alone, which is what lets the generation-batched residual engine
(:class:`repro.core.evaluation.BatchedResidualBackend`) score one stacked
pass per basis width.  The residual reduction then goes through
:func:`repro.data.metrics.relative_rmse_rows`, a contiguous-last-axis
pairwise summation with the same row-independence property as
:func:`pair_dots`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["LinearFit", "design_matrix", "fit_linear_from_gram_batch",
           "pair_dots", "predict_linear_batch"]


@dataclasses.dataclass(frozen=True)
class LinearFit:
    """Result of fitting ``y ~ intercept + basis_matrix @ coefficients``."""

    intercept: float
    coefficients: np.ndarray

    @property
    def n_terms(self) -> int:
        """Number of (non-intercept) basis functions in the fit."""
        return int(self.coefficients.shape[0])


def design_matrix(basis_matrix: np.ndarray) -> np.ndarray:
    """Prepend an intercept column of ones to a basis matrix."""
    basis_matrix = np.asarray(basis_matrix, dtype=float)
    if basis_matrix.ndim != 2:
        raise ValueError("basis_matrix must be 2-D (n_samples, n_bases)")
    ones = np.ones((basis_matrix.shape[0], 1))
    return np.hstack([ones, basis_matrix])


def pair_dots(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """Canonical columnwise dot products: ``sum(rows_a * rows_b, axis=1)``.

    ``rows_a`` / ``rows_b`` are ``(n_pairs, n_samples)`` C-contiguous stacks
    of basis columns *as rows*.  Reducing along the contiguous last axis uses
    NumPy's pairwise summation, whose result for each row depends only on
    that row's data and length -- so a dot product computed in a batch of
    3000 pairs is bit-for-bit the value computed alone.  Every
    normal-equation entry the gram pool of :mod:`repro.core.evaluation`
    caches goes through this one recipe; that is the entire basis of the
    pooled == one-matrix-at-a-time fit guarantee.
    """
    return (rows_a * rows_b).sum(axis=1)


def fit_linear_from_gram_batch(grams: np.ndarray, colsums: np.ndarray,
                               ydots: np.ndarray, y_sum: float,
                               basis_matrices: Sequence[np.ndarray],
                               y: np.ndarray, ridge: float = 1e-10
                               ) -> List[Optional[LinearFit]]:
    """Fit ``y ~ w0 + B_i @ w_i`` for a stack of same-width basis matrices.

    Parameters
    ----------
    grams, colsums, ydots:
        ``(m, k, k)``, ``(m, k)`` and ``(m, k)`` stacks of each item's raw
        normal-equation blocks: columnwise dot products, column sums and
        column--target dots, each computed by the canonical
        :func:`pair_dots` recipe (the gram pool in
        :mod:`repro.core.evaluation` caches exactly these scalars per basis
        column/pair and gathers them here without touching ``n_samples``).
    y_sum:
        ``float(y.sum())`` -- cached once per dataset by the pool.
    basis_matrices, y:
        The ``m`` assembled ``(n_samples, k)`` matrices (a sequence or an
        ``(m, n_samples, k)`` stack) and the shared target, read only by
        the singular fallback.  The caller must have established
        finiteness of both (the evaluator keeps per-column finite flags).
    ridge:
        Small Tikhonov term added to the column-scaled normal equations for
        numerical robustness against collinear evolved basis functions.
        The intercept is never penalized.

    Returns one fit per item, ``None`` where the solution is not finite.
    ``k == 0`` gives intercept-only fits.  The scaling/ridge arithmetic is
    elementwise and the stacked ``solve`` gufunc runs the same LAPACK
    routine per item as a one-matrix call, so batch composition cannot
    change a bit.  A singular item aborts the stacked solve; each item is
    then solved alone from the already scaled and ridged stack, and an item
    that is still singular falls back to ``lstsq`` on its column-scaled
    design matrix.
    """
    y = np.asarray(y, dtype=float).ravel()
    m, k = colsums.shape
    if k == 0:
        return [LinearFit(intercept=float(np.mean(y)),
                          coefficients=np.zeros(0)) for _ in range(m)]
    n_samples = y.shape[0]
    size = k + 1

    base_indices = np.arange(k)
    scales = np.sqrt(grams[:, base_indices, base_indices] / n_samples)
    scales[scales < 1e-300] = 1.0
    full_scales = np.empty((m, size))
    full_scales[:, 0] = 1.0
    full_scales[:, 1:] = scales
    raw = np.empty((m, size, size))
    raw[:, 0, 0] = float(n_samples)
    raw[:, 0, 1:] = colsums
    raw[:, 1:, 0] = colsums
    raw[:, 1:, 1:] = grams
    raw_rhs = np.empty((m, size))
    raw_rhs[:, 0] = y_sum
    raw_rhs[:, 1:] = ydots
    scaled_gram = raw / (full_scales[:, :, None] * full_scales[:, None, :])
    rhs = raw_rhs / full_scales

    diagonal_indices = np.arange(size)
    traces = scaled_gram[:, diagonal_indices, diagonal_indices].sum(axis=1)
    ridge_terms = ridge * np.maximum(1.0, traces)
    scaled_gram[:, diagonal_indices[1:], diagonal_indices[1:]] += \
        ridge_terms[:, None]
    try:
        solutions = np.linalg.solve(scaled_gram, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        solutions = np.empty((m, size))
        for i in range(m):
            try:
                solutions[i] = np.linalg.solve(scaled_gram[i], rhs[i])
            except np.linalg.LinAlgError:
                design = design_matrix(
                    np.asarray(basis_matrices[i], dtype=float) / scales[i])
                solutions[i], *_ = np.linalg.lstsq(design, y, rcond=None)

    finite_rows = np.isfinite(solutions).all(axis=1)
    coefficient_rows = solutions[:, 1:] / scales
    return [LinearFit(intercept=float(solutions[i, 0]),
                      coefficients=coefficient_rows[i])
            if finite_rows[i] else None for i in range(m)]


def predict_linear_batch(intercepts: np.ndarray, coefficient_rows: np.ndarray,
                         stacked_matrices: np.ndarray) -> np.ndarray:
    """Stacked same-width predictions ``w0 + sum_j wj * col_j``.

    Parameters
    ----------
    intercepts:
        ``(m,)`` fitted intercepts, one per individual.
    coefficient_rows:
        ``(m, k)`` fitted coefficients (every individual has ``k`` basis
        functions -- callers group by width).
    stacked_matrices:
        ``(m, n_samples, k)`` stack of the individuals' basis matrices.

    Returns the ``(m, n_samples)`` prediction rows.  The accumulation is
    left-to-right over the ``k`` columns and purely elementwise, so row
    ``i`` is bit-for-bit what ``m == 1`` would give for that individual
    alone: batch composition cannot change a single bit (no cross-term
    reduction exists for a batch shape to perturb -- the prediction-side
    analogue of :func:`pair_dots`).

    One precisely-scoped caveat: when an *addition meets two NaN operands
    with different payloads*, x86 SIMD lanes and scalar tails may propagate
    different payloads, so NaN bit patterns (payload/sign only -- never
    NaN-ness itself, nor any non-NaN value) can depend on array shape.
    Two-NaN additions require NaN *inputs*: with finite intercepts and
    coefficients (every successful fit -- non-finite solutions are
    rejected) and finite columns, products of finite operands can overflow
    to infinity but never to NaN, so at most one NaN operand ever reaches
    an addition and the guarantee is fully bit-for-bit.  Columns containing
    NaN (e.g. test-set blow-ups) yield NaN predictions in identical
    *positions* either way, and the downstream residual reduction
    (:func:`repro.data.metrics.relative_rmse_rows`) maps any NaN-bearing
    row to ``inf`` regardless of payload -- so reported errors are always
    bit-for-bit equal, which is the quantity the engine's equivalence
    guarantees cover (enforced in ``tests/test_core_residual.py``).
    """
    intercepts = np.asarray(intercepts, dtype=float)
    coefficient_rows = np.asarray(coefficient_rows, dtype=float)
    stacked = np.asarray(stacked_matrices, dtype=float)
    if stacked.ndim != 3:
        raise ValueError("stacked_matrices must be 3-D (m, n_samples, k)")
    m, n_samples, k = stacked.shape
    if coefficient_rows.shape != (m, k):
        raise ValueError("coefficient_rows must have shape (m, k)")
    if intercepts.shape != (m,):
        raise ValueError("intercepts must have shape (m,)")
    predictions = np.empty((m, n_samples))
    predictions[...] = intercepts[:, None]
    for j in range(k):
        predictions += coefficient_rows[:, j, None] * stacked[:, :, j]
    return predictions

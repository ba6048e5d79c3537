"""Datasets and error metrics shared across the CAFFEINE reproduction.

The modeling pipeline only ever consumes plain ``{x(t), y(t)}`` sample tables,
mirroring the problem formulation of the paper (Section 2).  This package
provides:

* :class:`~repro.data.dataset.Dataset` -- an immutable container for a matrix
  of design points, a vector of performance values and variable names, with
  helpers for row/variable selection, log-scaling the target and filtering
  non-finite samples; :func:`~repro.data.dataset.train_test_from_doe`
  validates and cleans a train/test pair.
* :mod:`~repro.data.metrics` -- the paper's quality-of-fit measures ``qwc``
  (training error) and ``qtc`` (testing error): :func:`relative_rmse`, the
  RMS error over the training-data range :func:`error_normalization`.
"""

from repro.data.dataset import Dataset, train_test_from_doe
from repro.data.metrics import (
    error_normalization,
    q_tc,
    q_wc,
    relative_rmse,
)

__all__ = [
    "Dataset",
    "train_test_from_doe",
    "error_normalization",
    "relative_rmse",
    "q_tc",
    "q_wc",
]

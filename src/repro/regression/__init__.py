"""Linear-regression utilities shared by CAFFEINE and the posynomial baseline.

CAFFEINE's individuals are linear combinations of evolved basis functions;
the linear coefficients are learned with least squares
(:mod:`~repro.regression.least_squares`: the batched gram solver
:func:`fit_linear_from_gram_batch`, its canonical :func:`pair_dots` and the
prediction recipe :func:`predict_linear_batch`).  The post-processing step
of the paper ("simplification after generation") relies on the PRESS
statistic -- a closed-form leave-one-out cross-validation of linear models
(:mod:`~repro.regression.press`) -- combined with forward regression
(:func:`~repro.regression.forward_regression.forward_select`).  The
posynomial baseline uses non-negative least squares with a free intercept
(:mod:`~repro.regression.nnls`).
"""

from repro.regression.least_squares import (
    LinearFit,
    design_matrix,
    fit_linear_from_gram_batch,
    pair_dots,
    predict_linear_batch,
)
from repro.regression.press import loo_residuals, press_statistic
from repro.regression.forward_regression import forward_select
from repro.regression.nnls import nonnegative_least_squares

__all__ = [
    "LinearFit",
    "design_matrix",
    "fit_linear_from_gram_batch",
    "pair_dots",
    "predict_linear_batch",
    "loo_residuals",
    "press_statistic",
    "forward_select",
    "nonnegative_least_squares",
]

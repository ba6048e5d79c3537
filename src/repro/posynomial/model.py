"""Fitting posynomial / signomial performance models.

:func:`fit_posynomial` fits the coefficients of a fixed monomial template to
training data.  Two variants are provided:

* ``signomial=False`` -- a true posynomial: non-negative coefficients, fitted
  with non-negative least squares (plus a free constant, as in Daems et al.);
* ``signomial=True`` (default) -- coefficients of either sign, obtained by
  fitting the template twice (once for the positive part and once for the
  negative part) with NNLS.  This is the "signomial" relaxation the original
  work falls back to when a plain posynomial cannot follow the data, and it
  is the stronger baseline, so the Figure 4 comparison uses it by default.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.metrics import error_normalization, relative_rmse
from repro.posynomial.template import PosynomialTemplate, full_quadratic_template
from repro.regression.nnls import nonnegative_least_squares

__all__ = ["PosynomialModel", "fit_posynomial"]


@dataclasses.dataclass(frozen=True)
class PosynomialModel:
    """A fitted posynomial (or signomial) performance model."""

    target_name: str
    variable_names: Tuple[str, ...]
    template: PosynomialTemplate
    coefficients: np.ndarray
    intercept: float
    train_error: float
    test_error: float = float("nan")
    signomial: bool = True
    log_scaled_target: bool = False

    # ------------------------------------------------------------------
    @property
    def n_terms(self) -> int:
        """Number of monomials with a non-zero fitted coefficient."""
        return int(np.count_nonzero(self.coefficients))

    @property
    def train_error_percent(self) -> float:
        return 100.0 * self.train_error

    @property
    def test_error_percent(self) -> float:
        return 100.0 * self.test_error

    def predict_transformed(self, X: np.ndarray) -> np.ndarray:
        """Predictions in the (possibly log-scaled) fitting domain."""
        features = self.template.feature_matrix(np.asarray(X, dtype=float))
        # repro-lint: allow[bit-identity] -- posynomial baseline (figure4 comparison) is outside the CAFFEINE fit/predict bit-identity contract
        return features @ self.coefficients + self.intercept

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions in the original target domain."""
        predictions = self.predict_transformed(X)
        if self.log_scaled_target:
            return np.power(10.0, predictions)
        return predictions

    def expression(self, precision: int = 4, max_terms: Optional[int] = None) -> str:
        """Readable rendering; posynomial models typically have dozens of terms."""
        from repro.core.weights import format_number

        parts = [format_number(self.intercept, precision)]
        rendered = self.template.render(self.variable_names)
        order = np.argsort(-np.abs(self.coefficients))
        shown = 0
        for index in order:
            coefficient = self.coefficients[index]
            if coefficient == 0.0:
                continue
            if max_terms is not None and shown >= max_terms:
                parts.append("...")
                break
            sign = "-" if coefficient < 0 else "+"
            parts.append(f"{sign} {format_number(abs(coefficient), precision)} * "
                         f"{rendered[index]}")
            shown += 1
        body = " ".join(parts)
        if self.log_scaled_target:
            return f"10^( {body} )"
        return body

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PosynomialModel({self.target_name}: {self.n_terms} terms, "
                f"train={self.train_error_percent:.2f}%, "
                f"test={self.test_error_percent:.2f}%)")


def _fit_signomial(features: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, float]:
    """Coefficients of either sign via a double NNLS on [F, -F]."""
    stacked = np.hstack([features, -features])
    coefficients, intercept = nonnegative_least_squares(stacked, y)
    n = features.shape[1]
    return coefficients[:n] - coefficients[n:], intercept


def fit_posynomial(train: Dataset, test: Optional[Dataset] = None,
                   template: Optional[PosynomialTemplate] = None,
                   signomial: bool = True) -> PosynomialModel:
    """Fit a posynomial/signomial model of ``train`` and measure its errors.

    Parameters
    ----------
    train, test:
        Sample tables; all design-variable values must be strictly positive
        (posynomials are only defined on the positive orthant).
    template:
        Monomial template; the Daems-style full quadratic template is used
        when omitted.
    signomial:
        Allow coefficients of either sign (default) or restrict to a true
        posynomial.
    """
    train = train.drop_nonfinite()
    if np.any(train.X <= 0.0):
        raise ValueError("posynomial models require strictly positive variables")
    if template is None:
        template = full_quadratic_template(train.n_variables)
    if template.n_variables != train.n_variables:
        raise ValueError("template dimensionality does not match the dataset")

    features = template.feature_matrix(train.X)
    if signomial:
        coefficients, intercept = _fit_signomial(features, train.y)
    else:
        coefficients, intercept = nonnegative_least_squares(features,
                                                            train.y)

    # Errors use the same normalization as CAFFEINE: RMS / training-data range.
    normalization = error_normalization(train.y)
    # repro-lint: allow[bit-identity] -- posynomial baseline is outside the bit-identity contract
    train_predictions = features @ coefficients + intercept
    train_error = relative_rmse(train.y, train_predictions, normalization)

    test_error = float("nan")
    if test is not None:
        test = test.drop_nonfinite()
        if test.variable_names != train.variable_names:
            raise ValueError("train and test datasets use different design variables")
        test_features = template.feature_matrix(test.X)
        # repro-lint: allow[bit-identity] -- posynomial baseline is outside the bit-identity contract
        test_predictions = test_features @ coefficients + intercept
        test_error = relative_rmse(test.y, test_predictions, normalization)

    return PosynomialModel(
        target_name=train.target_name,
        variable_names=train.variable_names,
        template=template,
        coefficients=np.asarray(coefficients, dtype=float),
        intercept=float(intercept),
        train_error=train_error,
        test_error=test_error,
        signomial=signomial,
        log_scaled_target=train.log_scaled,
    )

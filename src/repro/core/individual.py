"""CAFFEINE individuals: sets of basis-function trees with linear weights.

"In CAFFEINE, the overall expression is a linear sum of weighted basis
functions; therefore, each individual is a set of GP trees."  An
:class:`Individual` holds those trees; fitting the outer linear weights
(intercept plus one coefficient per basis function) to the training data and
computing the two objectives (error, complexity) is delegated to
:mod:`repro.core.evaluation`, which caches basis columns by structural key
and can batch-evaluate whole populations (``Individual.evaluate`` remains as
the one-individual compatibility entry point).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.expression import ProductTerm
from repro.core.settings import CaffeineSettings
from repro.regression.least_squares import LinearFit

__all__ = ["Individual", "evaluate_basis_column", "evaluate_basis_matrix"]

#: Values beyond this magnitude are treated as numerical blow-ups.
_MAGNITUDE_LIMIT = 1e30


def evaluate_basis_column(basis: ProductTerm, X: np.ndarray) -> np.ndarray:
    """Evaluate one basis function on the sample matrix ``X``.

    Returns a vector of length ``n_samples``.  Absurd magnitudes are mapped to
    NaN; the linear-fit layer rejects such columns, which marks the owning
    individual as infeasible.  This is the single source of truth for basis
    evaluation: both the straight-through matrix assembly below and the
    column cache in :mod:`repro.core.evaluation` call it, which is what makes
    cached and uncached evaluation bit-for-bit identical.
    """
    with np.errstate(all="ignore"):
        values = np.asarray(basis.evaluate(X), dtype=float)
        return np.where(np.abs(values) > _MAGNITUDE_LIMIT, np.nan, values)


def evaluate_basis_matrix(bases: Sequence[ProductTerm], X: np.ndarray) -> np.ndarray:
    """Evaluate every basis function on the sample matrix ``X``.

    Returns an array of shape ``(n_samples, n_bases)``.  Non-finite values and
    absurd magnitudes are passed through unchanged; the linear-fit layer
    rejects such columns, which marks the individual as infeasible.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if not bases:
        return np.zeros((X.shape[0], 0))
    return np.column_stack([evaluate_basis_column(basis, X) for basis in bases])


@dataclasses.dataclass
class Individual:
    """A candidate symbolic model during evolution."""

    bases: List[ProductTerm]
    #: linear fit of the outer weights (None until evaluated or if infeasible)
    fit: Optional[LinearFit] = None
    #: normalized RMS training error (the paper's qwc); inf when infeasible
    error: float = float("inf")
    #: complexity objective of Eq. (1)
    complexity: float = float("inf")
    #: reference scale used to normalize errors (the training-data range)
    normalization: float = 1.0
    #: age counter used only for reporting
    generation_born: int = 0

    # ------------------------------------------------------------------
    @property
    def n_bases(self) -> int:
        return len(self.bases)

    @property
    def is_evaluated(self) -> bool:
        return np.isfinite(self.complexity)

    @property
    def is_feasible(self) -> bool:
        """True when the linear fit succeeded and the error is finite."""
        return self.fit is not None and np.isfinite(self.error)

    @property
    def objectives(self) -> Tuple[float, float]:
        """(error, complexity) -- both minimized by NSGA-II."""
        return (self.error, self.complexity)

    def clone(self) -> "Individual":
        """Deep copy of the trees; evaluation results are reset."""
        return Individual(bases=[b.clone() for b in self.bases],
                          generation_born=self.generation_born)

    def shared_clone(self, bases: Optional[List[ProductTerm]] = None
                     ) -> "Individual":
        """Structure-sharing counterpart of :meth:`clone`.

        Returns a fresh individual with reset evaluation results and a
        *fresh bases list*, but the trees themselves are shared by
        reference -- callers must treat them as immutable (the
        structure-sharing contract; see
        :mod:`repro.core.expression`).  Pass ``bases`` to substitute a
        ready-made list (already fresh, trees shared or new).
        """
        return Individual(bases=list(self.bases) if bases is None else bases,
                          generation_born=self.generation_born)

    # ------------------------------------------------------------------
    def evaluate(self, X: np.ndarray, y: np.ndarray,
                 settings: CaffeineSettings) -> None:
        """Fit the outer linear weights and compute both objectives.

        The error objective is the paper's ``qwc``: RMS training error
        divided by the training-data range (see :mod:`repro.data.metrics`).

        This is a thin compatibility wrapper: the actual work lives in
        :mod:`repro.core.evaluation`, which the engine drives in batch (with
        basis-column caching and optional parallelism) via
        :class:`~repro.core.evaluation.PopulationEvaluator`.
        """
        from repro.core.evaluation import evaluate_individual_inplace

        evaluate_individual_inplace(self, X, y, settings)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predictions of the fitted model on new samples."""
        if self.fit is None:
            raise RuntimeError("individual has not been (successfully) evaluated")
        basis_matrix = evaluate_basis_matrix(self.bases, X)
        return self.fit.predict(basis_matrix)

    # ------------------------------------------------------------------
    def render(self, variable_names: Sequence[str], precision: int = 4) -> str:
        """Readable model string ``w0 + w1 * basis1 + ...`` (requires a fit)."""
        from repro.core.weights import format_number

        if self.fit is None:
            bases_text = " , ".join(b.render(variable_names) for b in self.bases)
            return f"<unfitted model: {bases_text}>"
        parts = [format_number(self.fit.intercept, precision)]
        for coefficient, basis in zip(self.fit.coefficients, self.bases, strict=True):
            if coefficient == 0.0:
                continue
            sign = "-" if coefficient < 0 else "+"
            parts.append(f"{sign} {format_number(abs(coefficient), precision)} * "
                         f"{basis.render(variable_names)}")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Individual(n_bases={self.n_bases}, error={self.error:.4g}, "
                f"complexity={self.complexity:.4g})")

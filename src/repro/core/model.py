"""Result types: symbolic models and trade-off sets.

A CAFFEINE run does not return a single model; it returns a *set* of models
that collectively trade off error against complexity.  :class:`SymbolicModel`
is one immutable member of that set (expression trees + fitted linear
weights + measured errors); :class:`TradeoffSet` is the collection, with the
filtering operations the paper applies (training-error trade-off,
testing-error trade-off, "all models under 10% train and test error", ...).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.expression import ProductTerm, structural_key
from repro.core.individual import Individual, evaluate_basis_column
from repro.core.pareto import nondominated_filter
from repro.data.metrics import relative_rmse_rows
from repro.regression.least_squares import LinearFit, predict_linear_batch

__all__ = ["SymbolicModel", "TradeoffSet", "batch_test_errors",
           "predict_models"]


def predict_models(models: Sequence, X: np.ndarray) -> np.ndarray:
    """``(n_models, n_samples)`` predictions in the training domain.

    The one post-evolution predictor: test scoring, rescoring and
    :class:`~repro.core.artifact.FrozenFront` all run through it.
    ``models`` is anything carrying ``fit`` and ``bases``.  Each unique
    basis column is evaluated once across all models, and each basis width
    runs one stacked ``predict_linear_batch`` pass.  Row ``i`` is
    bit-for-bit ``models[i].predict_transformed(X)``: the accumulation is
    row-independent by construction.
    """
    X = np.asarray(X, dtype=float)
    columns: dict = {}
    matrices: List[np.ndarray] = []
    groups: Dict[int, List[int]] = {}
    for index, model in enumerate(models):
        if model.fit is None:
            raise ValueError("predict_models requires successfully fitted "
                             "models")
        assembled = []
        for basis in model.bases:
            key = structural_key(basis)
            column = columns.get(key)
            if column is None:
                column = evaluate_basis_column(basis, X)
                columns[key] = column
            assembled.append(column)
        matrices.append(np.column_stack(assembled) if assembled
                        else np.zeros((X.shape[0], 0)))
        groups.setdefault(model.fit.n_terms, []).append(index)
    predictions = np.empty((len(matrices), X.shape[0]))
    for indices in groups.values():
        predictions[indices] = predict_linear_batch(
            np.array([models[i].fit.intercept for i in indices]),
            np.stack([np.asarray(models[i].fit.coefficients, dtype=float)
                      for i in indices]),
            np.stack([matrices[i] for i in indices]))
    return predictions


def batch_test_errors(individuals: Sequence, X: np.ndarray,
                      y: np.ndarray, normalization: float) -> List[float]:
    """Per-individual ``qtc`` on ``(X, y)``: one :func:`predict_models` pass.

    Every value is bit-for-bit ``q_tc`` of that individual's predictions
    alone: the row-stacked residual reduction
    (:func:`~repro.data.metrics.relative_rmse_rows`) is batch-shape
    independent.  ``normalization`` is the *training*-data range
    shared by the individuals (the paper's qtc denominator).
    """
    return [float(error) for error in relative_rmse_rows(
        y, predict_models(individuals, X), normalization)]


@dataclasses.dataclass(frozen=True)
class SymbolicModel:
    """One interpretable symbolic performance model.

    Errors are normalized RMS errors as fractions (multiply by 100 for the
    percentages quoted in the paper); ``test_error`` is NaN when no testing
    data was supplied.
    """

    target_name: str
    variable_names: Tuple[str, ...]
    bases: Tuple[ProductTerm, ...]
    fit: LinearFit
    complexity: float
    train_error: float
    test_error: float = float("nan")
    #: reference scale (training-data range) both errors are normalized by
    normalization: float = 1.0
    #: True when the modeled target was log10-scaled (the paper's fu);
    #: :meth:`predict` then returns values in the original domain.
    log_scaled_target: bool = False

    # ------------------------------------------------------------------
    @classmethod
    def from_individual(cls, individual: Individual, target_name: str,
                        variable_names: Sequence[str],
                        log_scaled_target: bool = False,
                        test_error: float = float("nan")) -> "SymbolicModel":
        """Freeze an evaluated individual into a result model.

        ``test_error`` is the model's qtc on the testing data (the engine
        scores a whole front in one :func:`batch_test_errors` pass); it
        stays NaN without testing data.
        """
        if individual.fit is None:
            raise ValueError("individual must have a successful linear fit")
        return cls(
            target_name=target_name,
            variable_names=tuple(variable_names),
            bases=tuple(basis.clone() for basis in individual.bases),
            fit=individual.fit,
            complexity=float(individual.complexity),
            train_error=float(individual.error),
            test_error=test_error,
            normalization=float(individual.normalization),
            log_scaled_target=log_scaled_target,
        )

    # ------------------------------------------------------------------
    @property
    def n_bases(self) -> int:
        """Number of basis functions, not counting the constant intercept."""
        return len(self.bases)

    @property
    def is_constant(self) -> bool:
        """True for the zero-complexity, intercept-only model."""
        return self.n_bases == 0 or all(c == 0.0 for c in self.fit.coefficients)

    @property
    def train_error_percent(self) -> float:
        return 100.0 * self.train_error

    @property
    def test_error_percent(self) -> float:
        return 100.0 * self.test_error

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the model on new design points (original target domain)."""
        return self.to_original_domain(self.predict_transformed(X))

    def predict_transformed(self, X: np.ndarray) -> np.ndarray:
        """Evaluate in the (possibly log-scaled) training domain."""
        return predict_models([self], X)[0]

    def to_original_domain(self, predictions: np.ndarray) -> np.ndarray:
        """Undo the ``log10`` target scaling of training-domain predictions."""
        if self.log_scaled_target:
            return np.power(10.0, predictions)
        return predictions

    # ------------------------------------------------------------------
    def expression(self, precision: int = 4) -> str:
        """Readable model expression, e.g. ``90.5 + 190.6 * id1 / vsg1 + ...``.

        For a log-scaled target the expression is wrapped in ``10^(...)`` to
        show the model in its true form, as the paper does for ``fu``.
        """
        from repro.core.weights import format_number

        parts = [format_number(self.fit.intercept, precision)]
        for coefficient, basis in zip(self.fit.coefficients, self.bases, strict=True):
            if coefficient == 0.0:
                continue
            sign = "-" if coefficient < 0 else "+"
            parts.append(f"{sign} {format_number(abs(coefficient), precision)} * "
                         f"{basis.render(self.variable_names)}")
        body = " ".join(parts)
        if self.log_scaled_target:
            return f"10^( {body} )"
        return body

    def used_variables(self) -> Tuple[str, ...]:
        """Design variables that actually appear in the model.

        The paper highlights that each expression contains only a (sometimes
        small) subset of the design variables; this is how that subset is
        obtained programmatically.
        """
        used = set()
        for coefficient, basis in zip(self.fit.coefficients, self.bases, strict=True):
            if coefficient == 0.0:
                continue
            for vc in basis.variable_combos():
                for index in vc.used_variables():
                    used.add(self.variable_names[index])
        return tuple(name for name in self.variable_names if name in used)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SymbolicModel({self.target_name}: train={self.train_error_percent:.2f}%, "
                f"test={self.test_error_percent:.2f}%, complexity={self.complexity:.1f}, "
                f"bases={self.n_bases})")


class TradeoffSet:
    """An error-vs-complexity trade-off: a set of :class:`SymbolicModel`.

    Models are kept sorted by increasing complexity (and increasing training
    error as a tie break).
    """

    def __init__(self, models: Sequence[SymbolicModel],
                 deduplicate: bool = True) -> None:
        ordered = sorted(models, key=lambda m: (m.complexity, m.train_error))
        if deduplicate:
            seen = set()
            unique: List[SymbolicModel] = []
            for model in ordered:
                key = model.expression()
                if key in seen:
                    continue
                seen.add(key)
                unique.append(model)
            ordered = unique
        self._models: List[SymbolicModel] = ordered

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._models)

    def __iter__(self) -> Iterator[SymbolicModel]:
        return iter(self._models)

    def __getitem__(self, index: int) -> SymbolicModel:
        return self._models[index]

    @property
    def models(self) -> Tuple[SymbolicModel, ...]:
        return tuple(self._models)

    @property
    def is_empty(self) -> bool:
        return not self._models

    # ------------------------------------------------------------------
    def complexities(self) -> np.ndarray:
        return np.array([m.complexity for m in self._models])

    def train_errors(self) -> np.ndarray:
        return np.array([m.train_error for m in self._models])

    def test_errors(self) -> np.ndarray:
        return np.array([m.test_error for m in self._models])

    def n_bases(self) -> np.ndarray:
        return np.array([m.n_bases for m in self._models])

    # ------------------------------------------------------------------
    def train_tradeoff(self) -> "TradeoffSet":
        """Models nondominated in (training error, complexity)."""
        return TradeoffSet(nondominated_filter(
            self._models, key=lambda m: (m.train_error, m.complexity)))

    def test_tradeoff(self) -> "TradeoffSet":
        """Models nondominated in (testing error, complexity).

        This is the paper's final filtering step (rightmost column of
        Figure 3); models without testing error are dropped.  Every
        ``test_error`` here is the paper's qtc -- normalized by the
        *training*-data range (see :func:`batch_test_errors`), so filtering
        compares like with like.
        """
        with_test = [m for m in self._models if np.isfinite(m.test_error)]
        return TradeoffSet(nondominated_filter(
            with_test, key=lambda m: (m.test_error, m.complexity)))

    def within_error(self, max_train_error: float,
                     max_test_error: Optional[float] = None) -> "TradeoffSet":
        """Models with train (and optionally test) error below the thresholds.

        With both thresholds at 0.10 this answers the paper's Table I
        question: "what are all the symbolic models that provide less than
        10% error in both training and testing data?"
        """
        selected = []
        for model in self._models:
            if model.train_error > max_train_error:
                continue
            if max_test_error is not None:
                if not np.isfinite(model.test_error) or model.test_error > max_test_error:
                    continue
            selected.append(model)
        return TradeoffSet(selected)

    def simplest(self) -> SymbolicModel:
        """The lowest-complexity model (raises on an empty set)."""
        if not self._models:
            raise ValueError("trade-off set is empty")
        return self._models[0]

    def most_accurate(self, by: str = "train") -> SymbolicModel:
        """The model with the lowest training (or testing) error.

        Ties are broken towards the lower-complexity model, so a perfect fit
        never hides behind a needlessly complex duplicate.
        """
        if not self._models:
            raise ValueError("trade-off set is empty")
        if by == "train":
            return min(self._models, key=lambda m: (m.train_error, m.complexity))
        if by == "test":
            candidates = [m for m in self._models if np.isfinite(m.test_error)]
            if not candidates:
                raise ValueError("no model has a testing error")
            return min(candidates, key=lambda m: (m.test_error, m.complexity))
        raise ValueError("by must be 'train' or 'test'")

    def closest_train_error(self, target_error: float) -> SymbolicModel:
        """Model whose training error is closest to ``target_error``.

        Used for the Figure 4 comparison, where a CAFFEINE model is picked by
        fixing its training error to what the posynomial achieved.
        """
        if not self._models:
            raise ValueError("trade-off set is empty")
        return min(self._models, key=lambda m: abs(m.train_error - target_error))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TradeoffSet(n_models={len(self._models)})"

"""``SymbolicRegressor``: an sklearn-style facade over the CAFFEINE engine.

The estimator follows the scikit-learn protocol without depending on
scikit-learn: hyperparameters are plain constructor arguments stored
verbatim, ``fit(X, y)`` does all the work and sets trailing-underscore
attributes, ``predict(X)`` evaluates the selected model, ``score(X, y)``
is the coefficient of determination, and ``get_params`` / ``set_params``
make it compose with sklearn tooling (``GridSearchCV``, ``Pipeline``,
``clone``) when that library happens to be installed::

    from repro import SymbolicRegressor

    est = SymbolicRegressor(population_size=60, n_generations=25,
                            random_seed=7)
    est.fit(X, y)
    est.predict(X_new)
    est.pareto_front_      # the full error/complexity trade-off
    est.expression()       # the selected model, readably

Unlike a typical regressor, a CAFFEINE fit produces a *set* of models
trading off error against complexity; ``pareto_front_`` exposes the whole
:class:`~repro.core.model.TradeoffSet` and ``model_selection`` picks which
member ``predict`` uses ("test" = most accurate on validation data when
given, "train" otherwise).

Internally ``fit`` is one :class:`~repro.core.problem.Problem` run through
a one-problem :class:`~repro.core.session.Session` -- bit-for-bit the same
models as a :class:`~repro.core.engine.CaffeineEngine` run with the same
settings (asserted by the test suite).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.problem import Problem
from repro.core.session import Session, SessionCallback
from repro.core.settings import CaffeineSettings

__all__ = ["SymbolicRegressor"]

#: Constructor arguments forwarded one-to-one to :class:`CaffeineSettings`.
_SETTINGS_PARAMS = ("population_size", "n_generations", "random_seed",
                    "max_basis_functions", "max_tree_depth")
#: Estimator-level arguments (not CaffeineSettings fields).
_OWN_PARAMS = ("settings", "model_selection", "feature_names",
               "log10_target", "column_cache_path")


class SymbolicRegressor:
    """Template-free symbolic regression with an sklearn-style interface.

    Parameters
    ----------
    population_size, n_generations, random_seed, max_basis_functions,
    max_tree_depth:
        The most commonly tuned :class:`CaffeineSettings` fields, exposed
        directly so the estimator grid-searches naturally.
    settings:
        A full :class:`CaffeineSettings` object; when given it wins over
        the individual fields above (they are ignored).
    model_selection:
        Which trade-off member ``predict`` uses: ``"test"`` (default; falls
        back to the training winner when no validation data was passed to
        ``fit``) or ``"train"``.
    feature_names:
        Optional variable names for readable expressions (default:
        ``x0 .. x{d-1}``, or the DataFrame-style ``columns`` attribute of
        ``X`` when it has one).
    log10_target:
        Model ``log10(y)`` instead of ``y`` (the paper's ``fu``
        convention); predictions return to the original domain.
    column_cache_path:
        Optional persistent column-cache file shared across fits (never
        changes the models, see :class:`~repro.core.cache_store.ColumnCacheStore`).

    Attributes (after ``fit``)
    --------------------------
    ``result_`` (the full :class:`~repro.core.engine.CaffeineResult`),
    ``pareto_front_`` (the training-error :class:`TradeoffSet`),
    ``test_pareto_front_`` (the testing-error trade-off; empty without
    validation data), ``best_model_`` (the selected
    :class:`SymbolicModel`), ``n_features_in_``, ``feature_names_in_``.
    """

    def __init__(self, population_size: int = 100, n_generations: int = 40,
                 random_seed: Optional[int] = 0,
                 max_basis_functions: int = 15, max_tree_depth: int = 8,
                 settings: Optional[CaffeineSettings] = None,
                 model_selection: str = "test",
                 feature_names: Optional[Sequence[str]] = None,
                 log10_target: bool = False,
                 column_cache_path: Optional[str] = None) -> None:
        # sklearn contract: store constructor params verbatim, validate in
        # fit() -- this is what makes get_params/set_params/clone work.
        self.population_size = population_size
        self.n_generations = n_generations
        self.random_seed = random_seed
        self.max_basis_functions = max_basis_functions
        self.max_tree_depth = max_tree_depth
        self.settings = settings
        self.model_selection = model_selection
        self.feature_names = feature_names
        self.log10_target = log10_target
        self.column_cache_path = column_cache_path

    # ------------------------------------------------------------------
    # sklearn plumbing
    # ------------------------------------------------------------------
    def get_params(self, deep: bool = True) -> Dict[str, object]:
        """All constructor parameters (the sklearn estimator contract)."""
        return {name: getattr(self, name)
                for name in _SETTINGS_PARAMS + _OWN_PARAMS}

    def set_params(self, **params: object) -> "SymbolicRegressor":
        valid = set(_SETTINGS_PARAMS + _OWN_PARAMS)
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for SymbolicRegressor "
                    f"(valid: {sorted(valid)})")
            setattr(self, name, value)
        return self

    def _effective_settings(self) -> CaffeineSettings:
        if self.settings is not None:
            return self.settings
        return CaffeineSettings(
            population_size=self.population_size,
            n_generations=self.n_generations,
            random_seed=self.random_seed,
            max_basis_functions=self.max_basis_functions,
            max_tree_depth=self.max_tree_depth,
        )

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray,
            X_test: Optional[np.ndarray] = None,
            y_test: Optional[np.ndarray] = None,
            callbacks: Sequence[SessionCallback] = ()) -> "SymbolicRegressor":
        """Evolve the error/complexity trade-off for ``(X, y)``.

        ``X_test``/``y_test`` optionally supply validation data for the
        testing-error trade-off (the paper's interpolation test);
        ``callbacks`` observe the underlying session.
        """
        if self.model_selection not in ("test", "train"):
            raise ValueError("model_selection must be 'test' or 'train', "
                             f"got {self.model_selection!r}")
        feature_names = self.feature_names
        if feature_names is None and hasattr(X, "columns"):
            feature_names = [str(c) for c in X.columns]  # DataFrame-alike
        problem = Problem.from_arrays(
            np.asarray(X, dtype=float), np.asarray(y, dtype=float),
            variable_names=feature_names,
            X_test=(np.asarray(X_test, dtype=float)
                    if X_test is not None else None),
            y_test=(np.asarray(y_test, dtype=float)
                    if y_test is not None else None),
            log10_target=self.log10_target,
        )
        session = Session([problem], settings=self._effective_settings(),
                          column_cache_path=self.column_cache_path,
                          callbacks=callbacks)
        self.result_ = session.run().single()
        self.pareto_front_ = self.result_.tradeoff
        self.test_pareto_front_ = self.result_.test_tradeoff
        self.best_model_ = self.result_.best_model(by=self.model_selection)
        self.n_features_in_ = problem.n_variables
        self.feature_names_in_ = problem.variable_names
        return self

    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if not hasattr(self, "result_"):
            raise RuntimeError(
                "this SymbolicRegressor is not fitted yet; call fit(X, y)")

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the selected model on new points (original domain)."""
        self._check_fitted()
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X must have shape (n_samples, {self.n_features_in_}), "
                f"got {X.shape}")
        return self.best_model_.predict(X)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R^2 (the sklearn regressor score)."""
        self._check_fitted()
        y = np.asarray(y, dtype=float)
        predictions = self.predict(X)
        residual = float(((y - predictions) ** 2).sum())
        total = float(((y - y.mean()) ** 2).sum())
        if total == 0.0:
            return 0.0 if residual > 0 else 1.0
        return 1.0 - residual / total

    def expression(self, precision: int = 4) -> str:
        """The selected model as a readable formula."""
        self._check_fitted()
        return self.best_model_.expression(precision=precision)

    # ------------------------------------------------------------------
    # deployment: freeze / thaw the fitted trade-off
    # ------------------------------------------------------------------
    def save(self, path) -> int:
        """Freeze the fitted trade-off as a deployable artifact at ``path``.

        The artifact (see :mod:`repro.core.artifact`) holds the whole
        Pareto front -- expressions, fitted weights, error/complexity
        metadata and the run's data/settings fingerprints -- in a
        versioned, checksummed file.  Returns the number of frozen models.
        Load it back with :meth:`load` (or :func:`repro.load_front`), or
        serve it with ``python -m repro serve``.
        """
        self._check_fitted()
        from repro.core.artifact import save_front

        return save_front(self.result_, path)

    @classmethod
    def load(cls, path, model_selection: str = "test") -> "SymbolicRegressor":
        """An estimator restored from a :meth:`save` artifact.

        The returned estimator predicts, scores and renders expressions
        exactly like the one that was saved -- bit-identically -- but holds
        a :class:`~repro.core.artifact.FrozenFront` as its ``result_``
        (prediction-only: no history, settings or re-``fit`` state beyond
        the front itself).
        """
        if model_selection not in ("test", "train"):
            raise ValueError("model_selection must be 'test' or 'train', "
                             f"got {model_selection!r}")
        from repro.core.artifact import load_front

        front = load_front(path)
        estimator = cls(model_selection=model_selection,
                        feature_names=list(front.variable_names))
        estimator.result_ = front
        estimator.pareto_front_ = front.tradeoff
        estimator.test_pareto_front_ = front.test_tradeoff
        estimator.best_model_ = front.select(by=model_selection)
        estimator.n_features_in_ = front.n_variables
        estimator.feature_names_in_ = front.variable_names
        return estimator

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        fitted = hasattr(self, "result_")
        return (f"SymbolicRegressor(population_size={self.population_size}, "
                f"n_generations={self.n_generations}, "
                f"random_seed={self.random_seed}, fitted={fitted})")

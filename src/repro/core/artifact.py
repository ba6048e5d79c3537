"""Frozen Pareto-front artifacts: deployable trade-offs without the engine.

A CAFFEINE run's real product is its error/complexity trade-off, but until
now that trade-off died with the process (or lived inside a run checkpoint,
which drags the whole evolutionary state along).  This module freezes a
finished front into a small, versioned, checksummed file and loads it back
as a :class:`FrozenFront` -- a pure *prediction* object that reconstitutes
compiled kernels through :mod:`repro.core.compile` and never imports the
evolution machinery (engine, session, evaluator).

* :func:`save_front` serializes a :class:`~repro.core.engine.CaffeineResult`
  (or anything carrying a ``tradeoff``) through :class:`FrontArtifactStore`,
  a :class:`~repro.core.cache_store._VersionedFileStore` subclass: the file
  gets the same magic/version/sha256 header, atomic-replace write and
  damage-quarantine policy as the column cache and run checkpoints.
* :func:`load_front` validates the envelope and returns the
  :class:`FrozenFront`.  Damaged files are quarantined to
  ``<path>.corrupt-<n>`` (exactly the cache-store convention); a stored
  dataset fingerprint that disagrees with the caller's data **warns and
  serves anyway** -- mirroring the checkpoint "starting cold" convention --
  because a frozen model is *supposed* to be applied to fresh data; only a
  feature-count mismatch (the model literally cannot evaluate) rejects.

Prediction follows the engine's canonical recipes bit for bit: unique basis
columns are evaluated once across the front (compiled tapes via
:class:`~repro.core.compile.TreeCompiler`, bit-identical to the
interpreter), matrices assemble from the shared columns, and same-width
groups run through one
:func:`~repro.regression.least_squares.predict_linear_batch` pass -- so a
frozen front's predictions and :meth:`FrozenFront.rescore` errors equal the
originating run's :func:`repro.core.report.rescore_models` output exactly
(the ``artifact_roundtrip`` equivalence gate in CI).
"""

from __future__ import annotations

import dataclasses
import os
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cache_store import _VersionedFileStore
from repro.core.compile import TreeCompiler
from repro.core.expression import structural_key
from repro.core.model import SymbolicModel, TradeoffSet
from repro.regression.least_squares import predict_linear_batch

__all__ = ["FRONT_ARTIFACT_VERSION", "FrontArtifactStore", "FrozenFront",
           "save_front", "load_front"]

#: payload schema version of the artifact document (independent of the
#: envelope's FORMAT_VERSION: the envelope guards the bytes, this guards
#: the document's keys)
FRONT_ARTIFACT_VERSION = 1


class FrontArtifactStore(_VersionedFileStore):
    """On-disk envelope of one frozen trade-off.

    Layout (shared with every versioned store in the project)::

        caffeine-pareto-front\\n   <- magic
        1\\n                       <- format version
        <sha256 hex of payload>\\n <- checksum
        <pickled document>         <- payload

    Writes are atomic (temp file + ``os.replace``); damaged payloads are
    quarantined to ``<path>.corrupt-<n>`` on read; files with a foreign
    magic or a future version are warned about but left in place.
    """

    MAGIC = b"caffeine-pareto-front"
    FORMAT_VERSION = 1
    KIND = "front-artifact"

    # ------------------------------------------------------------------
    def save_document(self, document: dict) -> None:
        """Atomically write ``document`` under the envelope."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.lock:
            self._write_document(
                {"format_version": self.FORMAT_VERSION, "front": document})

    def load_document(self) -> Optional[dict]:
        """The stored front document, or None (missing/foreign/damaged)."""
        stored = self._read_document()
        if stored is None:
            return None
        front = stored.get("front")
        if not isinstance(front, dict):
            self._warn("malformed front document", quarantine=True)
            return None
        return front


# ----------------------------------------------------------------------
# prediction helpers (the canonical batched recipe, engine-free)
# ----------------------------------------------------------------------

def _front_matrices(models: Sequence[SymbolicModel],
                    X: np.ndarray) -> List[np.ndarray]:
    """One basis matrix per model from *shared* compiled columns.

    Unique basis functions across the whole front evaluate once -- front
    models share bases heavily -- through a :class:`TreeCompiler` bound to
    ``X`` (recurring skeletons run as fused tapes, bit-identical to the
    interpreter), exactly the column-sharing discipline of
    :func:`repro.core.model.batch_test_errors`.
    """
    compiler = TreeCompiler(X)
    columns: Dict[object, np.ndarray] = {}
    matrices: List[np.ndarray] = []
    for model in models:
        assembled = []
        for basis in model.bases:
            key = structural_key(basis)
            column = columns.get(key)
            if column is None:
                column = compiler.column(basis)
                columns[key] = column
            assembled.append(column)
        matrices.append(np.column_stack(assembled) if assembled
                        else np.zeros((X.shape[0], 0)))
    return matrices


def _predict_models(models: Sequence[SymbolicModel], X: np.ndarray,
                    transformed: bool = False) -> np.ndarray:
    """``(n_models, n_samples)`` predictions via the batched recipe.

    Row ``i`` is bit-for-bit ``models[i].predict(X)`` (or
    ``predict_transformed`` with ``transformed=True``): the stacked
    left-to-right accumulation of :func:`predict_linear_batch` is
    row-independent by construction, and the ``10**`` unscaling is applied
    per row so its array shape matches the scalar path.
    """
    matrices = _front_matrices(models, X)
    predictions = np.zeros((len(models), X.shape[0]))
    groups: Dict[int, List[int]] = {}
    for index, model in enumerate(models):
        groups.setdefault(model.fit.n_terms, []).append(index)
    for _width, indices in groups.items():
        stacked = np.stack([matrices[i] for i in indices])
        rows = predict_linear_batch(
            np.array([models[i].fit.intercept for i in indices]),
            np.stack([np.asarray(models[i].fit.coefficients, dtype=float)
                      for i in indices]),
            stacked)
        for row, i in enumerate(indices):
            predictions[i] = rows[row]
    if not transformed:
        for index, model in enumerate(models):
            if model.log_scaled_target:
                predictions[index] = np.power(10.0, predictions[index])
    return predictions


# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class FrozenFront:
    """A loaded trade-off: models + identity metadata, prediction only.

    Everything needed to answer prediction requests -- and nothing else:
    no population, no RNG state, no caches.  Model selection follows the
    :meth:`~repro.core.engine.CaffeineResult.best_model` contract (``by=``
    rule with test->train fallback) plus an optional complexity bound, and
    :meth:`rescore` is literally :func:`repro.core.report.rescore_models`
    on the frozen models.
    """

    target_name: str
    variable_names: Tuple[str, ...]
    models: Tuple[SymbolicModel, ...]
    #: sha1 fingerprint of the training ``X`` the front was evolved on
    #: (None for artifacts frozen from results that predate fingerprinting)
    dataset_fingerprint: Optional[str] = None
    #: operator-implementation identity of the run's function set
    function_set_fingerprint: Optional[Tuple] = None
    #: result-affecting settings digest of the originating run
    settings_fingerprint: Optional[str] = None
    #: wall-clock seconds the originating run took (None when unknown)
    source_runtime_seconds: Optional[float] = None
    #: time.time() at freeze
    created_wall_time: Optional[float] = None

    # ------------------------------------------------------------------
    @property
    def n_models(self) -> int:
        return len(self.models)

    @property
    def n_variables(self) -> int:
        return len(self.variable_names)

    @property
    def tradeoff(self) -> TradeoffSet:
        """The frozen models as a :class:`TradeoffSet` (already a front)."""
        return TradeoffSet(self.models, deduplicate=False)

    @property
    def test_tradeoff(self) -> TradeoffSet:
        """Models nondominated in (testing error, complexity)."""
        return self.tradeoff.test_tradeoff()

    def expressions(self, precision: int = 4) -> Tuple[str, ...]:
        return tuple(model.expression(precision=precision)
                     for model in self.models)

    def describe(self) -> List[dict]:
        """JSON-ready per-model metadata (the serving ``/models`` payload)."""
        return [{
            "index": index,
            "complexity": float(model.complexity),
            "train_error": float(model.train_error),
            "test_error": float(model.test_error),
            "n_bases": int(model.n_bases),
            "expression": model.expression(),
        } for index, model in enumerate(self.models)]

    # ------------------------------------------------------------------
    def _check_features(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_variables:
            raise ValueError(
                f"X must have shape (n_samples, {self.n_variables}) for the "
                f"{len(self.variable_names)} design variables "
                f"{self.variable_names}, got {X.shape}")
        return X

    def check_dataset(self, X: np.ndarray) -> bool:
        """Compatibility of ``X`` with the front; True when fingerprints match.

        A feature-count mismatch raises ``ValueError`` -- the models cannot
        evaluate at all.  Matching features with a *different* dataset
        fingerprint only warns (and returns False): applying a frozen model
        to fresh data is the whole point of freezing it, so -- like a
        checkpoint that cannot resume "starts cold" instead of failing --
        the front serves anyway.
        """
        from repro.core.evaluation import dataset_fingerprint

        X = self._check_features(X)
        if self.dataset_fingerprint is None:
            return True
        fingerprint = dataset_fingerprint(X)
        if fingerprint != self.dataset_fingerprint:
            warnings.warn(
                f"dataset fingerprint {fingerprint[:12]}... does not match "
                f"the front's training data "
                f"{self.dataset_fingerprint[:12]}...; features are "
                "compatible, serving anyway (stored train/test errors "
                "describe the original data)",
                RuntimeWarning, stacklevel=2)
            return False
        return True

    # ------------------------------------------------------------------
    def select(self, by: str = "test", complexity_max: Optional[float] = None,
               model_index: Optional[int] = None) -> SymbolicModel:
        """Pick one model: by index, or by ``by=`` rule under a bound.

        Without a bound, ``select(by=...)`` returns exactly
        ``CaffeineResult.best_model(by=...)`` of the originating run:
        lowest test error with a train fallback for ``by="test"``, lowest
        train error for ``by="train"``, ties broken toward lower
        complexity.  ``complexity_max`` first restricts the candidates to
        models within the bound (the designer's "simplest model I can
        afford" query).
        """
        if model_index is not None:
            if not 0 <= int(model_index) < len(self.models):
                raise ValueError(
                    f"model_index {model_index} out of range "
                    f"[0, {len(self.models)})")
            return self.models[int(model_index)]
        candidates = [m for m in self.models
                      if complexity_max is None
                      or m.complexity <= complexity_max]
        if not candidates:
            raise ValueError(
                f"no model has complexity <= {complexity_max} "
                f"(simplest stored: {min(m.complexity for m in self.models):.2f})")
        if by == "test":
            with_test = [m for m in candidates if np.isfinite(m.test_error)]
            if with_test:
                return min(with_test,
                           key=lambda m: (m.test_error, m.complexity))
            by = "train"
        if by == "train":
            return min(candidates, key=lambda m: (m.train_error, m.complexity))
        raise ValueError(f"by must be 'train' or 'test', got {by!r}")

    def predict(self, X: np.ndarray, by: str = "test",
                complexity_max: Optional[float] = None,
                model_index: Optional[int] = None) -> np.ndarray:
        """Predictions of the selected model (original target domain).

        Bit-for-bit what ``self.select(...).predict(X)`` -- and therefore
        what the live run's model -- returns; computed through the batched
        kernel path.
        """
        X = self._check_features(X)
        model = self.select(by=by, complexity_max=complexity_max,
                            model_index=model_index)
        return _predict_models([model], X)[0]

    def predict_all(self, X: np.ndarray,
                    transformed: bool = False) -> np.ndarray:
        """``(n_models, n_samples)`` predictions of every frozen model."""
        X = self._check_features(X)
        return _predict_models(self.models, X, transformed=transformed)

    def rescore(self, X: np.ndarray, y: np.ndarray) -> List[float]:
        """Per-model relative RMS errors on fresh data.

        Identical (bit-for-bit) to calling
        :func:`repro.core.report.rescore_models` on the originating run's
        trade-off -- the round-trip guarantee the ``artifact_roundtrip``
        equivalence key gates in CI.
        """
        from repro.core.report import rescore_models

        X = self._check_features(X)
        return rescore_models(list(self.models), X, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FrozenFront({self.target_name!r}: {self.n_models} models, "
                f"{self.n_variables} variables)")


# ----------------------------------------------------------------------
def save_front(result, path: Union[str, os.PathLike]) -> int:
    """Freeze ``result``'s trade-off at ``path``; returns the model count.

    ``result`` may be a :class:`~repro.core.engine.CaffeineResult`, a
    :class:`FrozenFront` (re-freezing is lossless) or any object carrying
    ``tradeoff``/``target_name``/``variable_names``.  The artifact stores
    the models themselves (expression trees + fitted weights + error and
    complexity metadata) plus the run's identity fingerprints; it stores
    **no** population, RNG or cache state, so files are small and loading
    never touches the evolution machinery.
    """
    if isinstance(result, FrozenFront):
        models: Sequence[SymbolicModel] = result.models
    else:
        tradeoff = getattr(result, "tradeoff", None)
        if tradeoff is None:
            raise TypeError(
                "save_front needs a CaffeineResult, FrozenFront or any "
                f"object with a 'tradeoff' attribute, got {type(result)!r}")
        models = list(tradeoff)
    if not models:
        raise ValueError("refusing to freeze an empty trade-off")
    settings = getattr(result, "settings", None)
    document = {
        "artifact_version": FRONT_ARTIFACT_VERSION,
        "target_name": str(result.target_name),
        "variable_names": tuple(result.variable_names),
        "n_variables": len(result.variable_names),
        "models": tuple(models),
        "dataset_fingerprint": getattr(result, "dataset_fingerprint", None),
        "function_set_fingerprint": getattr(result,
                                            "function_set_fingerprint", None),
        "settings_fingerprint": (settings.fingerprint()
                                 if settings is not None else
                                 getattr(result, "settings_fingerprint",
                                         None)),
        "source_runtime_seconds": getattr(result, "runtime_seconds",
                                          getattr(result,
                                                  "source_runtime_seconds",
                                                  None)),
        # repro-lint: allow[determinism] -- provenance timestamp, excluded from fingerprints and predictions
        "created_wall_time": time.time(),
    }
    FrontArtifactStore(path).save_document(document)
    return len(models)


def load_front(path: Union[str, os.PathLike],
               dataset: Optional[np.ndarray] = None) -> FrozenFront:
    """Load a frozen trade-off saved by :func:`save_front`.

    Raises ``FileNotFoundError`` for a missing file and ``ValueError`` for
    an unreadable one (a corrupt/truncated artifact is first quarantined to
    ``<path>.corrupt-<n>`` with a warning, the cache-store convention).

    ``dataset`` optionally passes the data the caller intends to predict
    on (an ``(n, d)`` array): a feature-count mismatch raises immediately,
    while a mere dataset-fingerprint mismatch warns and loads anyway --
    see :meth:`FrozenFront.check_dataset`.
    """
    store = FrontArtifactStore(path)
    if not store.path.exists():
        raise FileNotFoundError(f"no front artifact at {store.path}")
    document = store.load_document()
    if document is None:
        raise ValueError(
            f"no readable front artifact at {store.path} (see the warning "
            "above for why; damaged files are quarantined)")
    version = document.get("artifact_version")
    if version != FRONT_ARTIFACT_VERSION:
        raise ValueError(
            f"front artifact schema {version!r} is not "
            f"{FRONT_ARTIFACT_VERSION} (artifact from another build)")
    models = tuple(document["models"])
    if not models or not all(isinstance(m, SymbolicModel) for m in models):
        raise ValueError(f"front artifact at {store.path} holds no models")
    front = FrozenFront(
        target_name=document["target_name"],
        variable_names=tuple(document["variable_names"]),
        models=models,
        dataset_fingerprint=document.get("dataset_fingerprint"),
        function_set_fingerprint=document.get("function_set_fingerprint"),
        settings_fingerprint=document.get("settings_fingerprint"),
        source_runtime_seconds=document.get("source_runtime_seconds"),
        created_wall_time=document.get("created_wall_time"),
    )
    if dataset is not None:
        front.check_dataset(dataset)
    return front

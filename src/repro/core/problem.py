"""``Problem``: one symbolic-modeling task, independent of the OTA substrate.

The paper's evaluation is six independent CAFFEINE runs -- one per OTA
performance -- but nothing about the algorithm is circuit-specific: a run
needs a training :class:`~repro.data.dataset.Dataset`, optionally a testing
one, and (optionally) its own :class:`~repro.core.settings.CaffeineSettings`.
:class:`Problem` packages exactly that, so any numeric dataset -- a CSV
export, an sklearn fetcher, a simulator sweep -- is a first-class modeling
scenario, and the :class:`~repro.core.session.Session` orchestrator can run
lists of them interchangeably.

Constructors cover the common sources::

    Problem(train, test)                        # existing Dataset objects
    Problem.from_arrays(X, y, target_name="PM") # plain numpy arrays
    Problem.from_csv("ota.csv", target="PM")    # a header-row CSV file

Problems are immutable and picklable (both underlying types are), which is
what lets a Session ship them to its worker processes.
"""

from __future__ import annotations

import csv
import dataclasses
import os
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.settings import CaffeineSettings
from repro.data.dataset import Dataset, validate_train_test_pair

__all__ = ["Problem"]


@dataclasses.dataclass(frozen=True)
class Problem:
    """One symbolic-regression task: data plus (optional) per-task settings.

    Parameters
    ----------
    train:
        Training dataset (non-finite rows are dropped by the engine).
    test:
        Optional testing dataset over the same design variables; enables
        the testing-error trade-off of the result.
    name:
        Identifier used by sessions, callbacks and result mappings.
        Defaults to the training target's name.
    settings:
        Optional per-problem :class:`CaffeineSettings`; a problem without
        its own settings runs under the session's shared ones.
    metadata:
        Free-form, read-only annotations (units, provenance, notes); never
        interpreted by the engine.
    """

    train: Dataset
    test: Optional[Dataset] = None
    name: str = ""
    settings: Optional[CaffeineSettings] = None
    metadata: Mapping[str, object] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.test is not None:
            # Same validation as the paper's DOE pairs: identical variables,
            # target and scaling (raises on mismatch).  Allocation-free --
            # the engine drops non-finite rows itself at run time.
            validate_train_test_pair(self.train, self.test)
        if not self.name:
            object.__setattr__(self, "name", self.train.target_name)
        # A plain copy, not a MappingProxyType: proxies do not pickle, and
        # problems must cross process boundaries for parallel sessions.
        object.__setattr__(self, "metadata", dict(self.metadata))

    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return self.train.n_variables

    @property
    def variable_names(self) -> Tuple[str, ...]:
        return self.train.variable_names

    def effective_settings(self,
                           default: Optional[CaffeineSettings] = None
                           ) -> CaffeineSettings:
        """This problem's settings, else ``default``, else library defaults."""
        if self.settings is not None:
            return self.settings
        if default is not None:
            return default
        return CaffeineSettings()

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(cls, X: np.ndarray, y: np.ndarray,
                    variable_names: Optional[Sequence[str]] = None,
                    target_name: str = "y",
                    X_test: Optional[np.ndarray] = None,
                    y_test: Optional[np.ndarray] = None,
                    name: str = "",
                    settings: Optional[CaffeineSettings] = None,
                    log10_target: bool = False) -> "Problem":
        """Build a problem from plain arrays (names default to x0, x1, ...).

        ``log10_target`` applies the paper's ``fu`` convention: the target
        is modeled in log10 space and predictions return to the original
        domain automatically.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if variable_names is None:
            variable_names = tuple(f"x{i}" for i in range(X.shape[1]))
        train = Dataset(X, np.asarray(y, dtype=float),
                        variable_names=variable_names,
                        target_name=target_name)
        if log10_target:
            train = train.log10_target()
        test = None
        if X_test is not None:
            if y_test is None:
                raise ValueError("X_test was given without y_test")
            test = Dataset(np.asarray(X_test, dtype=float),
                           np.asarray(y_test, dtype=float),
                           variable_names=variable_names,
                           target_name=target_name)
            if log10_target:
                test = test.log10_target()
        elif y_test is not None:
            raise ValueError("y_test was given without X_test")
        return cls(train=train, test=test, name=name, settings=settings)

    @classmethod
    def from_csv(cls, path: Union[str, os.PathLike], target: str,
                 test_path: Optional[Union[str, os.PathLike]] = None,
                 feature_columns: Optional[Sequence[str]] = None,
                 name: str = "",
                 settings: Optional[CaffeineSettings] = None,
                 log10_target: bool = False,
                 delimiter: str = ",") -> "Problem":
        """Build a problem from a header-row CSV file.

        ``target`` names the modeled column; every other numeric column is
        a design variable unless ``feature_columns`` narrows the list.  An
        optional ``test_path`` CSV (same header) supplies testing data.
        Non-numeric cells -- and whole rows whose cell count disagrees
        with the header -- become NaN and the engine drops those rows,
        which matches the paper's treatment of non-converged simulations.
        """
        header, rows = _read_csv(path, delimiter)
        if target not in header:
            raise ValueError(
                f"target column {target!r} not in {path} "
                f"(columns: {header})")
        if feature_columns is None:
            feature_columns = tuple(c for c in header if c != target)
        else:
            feature_columns = tuple(feature_columns)
            missing = [c for c in feature_columns if c not in header]
            if missing:
                raise ValueError(
                    f"feature columns {missing} not in {path} "
                    f"(columns: {header})")
            if target in feature_columns:
                raise ValueError(
                    f"target column {target!r} cannot also be a feature")
        if not feature_columns:
            raise ValueError(f"no feature columns left in {path}")

        def build(header_, rows_, source):
            if header_ != header:
                raise ValueError(
                    f"{source} has columns {header_}, expected {header}")
            X, y = _columns_to_arrays(header_, rows_, feature_columns, target)
            dataset = Dataset(X, y, variable_names=feature_columns,
                              target_name=target)
            return dataset.log10_target() if log10_target else dataset

        train = build(header, rows, path)
        test = None
        if test_path is not None:
            test_header, test_rows = _read_csv(test_path, delimiter)
            test = build(test_header, test_rows, test_path)
        return cls(train=train, test=test, name=name, settings=settings)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Problem(name={self.name!r}, "
                f"n_train={self.train.n_samples}, "
                f"n_test={self.test.n_samples if self.test else 0}, "
                f"n_variables={self.n_variables})")


def _read_csv(path, delimiter: str):
    """``(header, data_rows)`` of a CSV file (header row required)."""
    with open(path, "r", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows = [row for row in reader if row and any(c.strip() for c in row)]
    if len(rows) < 2:
        raise ValueError(f"{path} needs a header row and at least one sample")
    header = tuple(cell.strip() for cell in rows[0])
    if len(set(header)) != len(header):
        raise ValueError(f"{path} has duplicate column names: {header}")
    return header, rows[1:]


def _columns_to_arrays(header, rows, feature_columns, target):
    indices = {column: position for position, column in enumerate(header)}
    width = len(header)

    def parse(cell: str) -> float:
        try:
            return float(cell)
        except ValueError:
            return float("nan")  # dropped later, like a failed simulation

    def parse_row(row):
        if len(row) != width:
            # Truncated/overlong lines become all-NaN rows: they stay in
            # the sample count and are dropped exactly like non-numeric
            # cells, never silently skipped.
            return [float("nan")] * width
        return [parse(cell) for cell in row]

    table = np.array([parse_row(row) for row in rows], dtype=float)
    if table.size == 0:
        raise ValueError("no complete data rows")
    X = table[:, [indices[column] for column in feature_columns]]
    y = table[:, indices[target]]
    # A column with no numeric cell at all is almost certainly a label/id
    # column, not a failed simulation -- including it would NaN every row
    # and silently empty the dataset.  Name it instead.
    label_like = [column for position, column in enumerate(feature_columns)
                  if np.isnan(X[:, position]).all()]
    if label_like:
        raise ValueError(
            f"feature columns {label_like} contain no numeric data; "
            f"pass feature_columns=... to exclude label columns")
    if np.isnan(y).all():
        raise ValueError(
            f"target column {target!r} contains no numeric data")
    return X, y

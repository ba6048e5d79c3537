"""Sample-table container used throughout the CAFFEINE reproduction.

The paper formulates the modeling problem as: given ``{x(t), y(t)}, t = 1..N``
where ``x(t)`` is a d-dimensional design point and ``y(t)`` a scalar circuit
performance measured by simulation, find symbolic models trading off error and
complexity.  :class:`Dataset` is exactly that sample table, with the metadata
needed to print interpretable models (variable names) and to reproduce the
paper's setup (log-scaled targets such as ``fu``).
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Tuple

import numpy as np

__all__ = ["Dataset", "train_test_from_doe", "validate_train_test_pair"]


@dataclasses.dataclass(frozen=True)
class Dataset:
    """An immutable regression sample table.

    Parameters
    ----------
    X:
        Array of shape ``(n_samples, n_variables)`` with the design points.
    y:
        Array of shape ``(n_samples,)`` with the measured performance values.
    variable_names:
        One name per column of ``X``; used when rendering symbolic models.
    target_name:
        Name of the modeled performance (e.g. ``"PM"``).
    log_scaled:
        True when ``y`` has been transformed with ``log10`` (the paper does
        this for ``fu`` so that the mean-squared error is not dominated by
        high-magnitude samples).
    """

    X: np.ndarray
    y: np.ndarray
    variable_names: Tuple[str, ...]
    target_name: str = "y"
    log_scaled: bool = False

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if y.ndim != 1:
            raise ValueError(f"y must be 1-D, got shape {y.shape}")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} rows but y has {y.shape[0]} entries"
            )
        names = tuple(str(n) for n in self.variable_names)
        if len(names) != X.shape[1]:
            raise ValueError(
                f"{len(names)} variable names for {X.shape[1]} columns"
            )
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "variable_names", names)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of rows in the sample table."""
        return int(self.X.shape[0])

    @property
    def n_variables(self) -> int:
        """Number of design variables (columns of ``X``)."""
        return int(self.X.shape[1])

    def __len__(self) -> int:
        return self.n_samples

    def column(self, name: str) -> np.ndarray:
        """Return the column of ``X`` for variable ``name``."""
        try:
            index = self.variable_names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown variable {name!r}") from exc
        return self.X[:, index]

    def variable_index(self, name: str) -> int:
        """Return the column index of variable ``name``."""
        try:
            return self.variable_names.index(name)
        except ValueError as exc:
            raise KeyError(f"unknown variable {name!r}") from exc

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def log10_target(self) -> "Dataset":
        """Return a copy whose target is ``log10(y)``.

        The paper applies this to the unity-gain frequency ``fu`` so that
        least-squares learning is not biased towards high-magnitude samples.
        All samples must be strictly positive.
        """
        if np.any(self.y <= 0.0):
            raise ValueError(
                f"cannot log-scale {self.target_name!r}: non-positive samples present"
            )
        return Dataset(
            X=self.X,
            y=np.log10(self.y),
            variable_names=self.variable_names,
            target_name=self.target_name,
            log_scaled=True,
        )

    def select_rows(self, mask_or_indices: Iterable) -> "Dataset":
        """Return a subset of rows (boolean mask or integer indices)."""
        idx = np.asarray(list(mask_or_indices))
        if idx.size == 0:
            # An empty list defaults to float64, which numpy rejects as an
            # index; an empty selection is a legal (empty) dataset.
            idx = idx.astype(np.intp)
        return Dataset(
            X=self.X[idx],
            y=self.y[idx],
            variable_names=self.variable_names,
            target_name=self.target_name,
            log_scaled=self.log_scaled,
        )

    def drop_nonfinite(self) -> "Dataset":
        """Remove rows where either ``X`` or ``y`` contains NaN/inf.

        The paper notes that some of the 243 simulations "did not converge";
        those samples are dropped before model building.
        """
        finite = np.isfinite(self.y) & np.all(np.isfinite(self.X), axis=1)
        if np.all(finite):
            return self
        return self.select_rows(np.flatnonzero(finite))

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Human-readable one-paragraph summary of the dataset."""
        lines: List[str] = [
            f"Dataset for target {self.target_name!r}"
            f"{' (log10-scaled)' if self.log_scaled else ''}:",
            f"  {self.n_samples} samples, {self.n_variables} design variables",
            f"  y range: [{self.y.min():.6g}, {self.y.max():.6g}],"
            f" mean {self.y.mean():.6g}",
        ]
        for j, name in enumerate(self.variable_names):
            col = self.X[:, j]
            lines.append(
                f"    {name}: [{col.min():.6g}, {col.max():.6g}]"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset(target={self.target_name!r}, n_samples={self.n_samples}, "
            f"n_variables={self.n_variables})"
        )


def validate_train_test_pair(train: Dataset, test: Dataset) -> None:
    """Raise ``ValueError`` unless a train/test pair is compatible.

    Checks variables, target name and log-scaling agree; allocation-free
    (no data is copied or cleaned), so it is safe to call per-Problem.
    """
    if train.variable_names != test.variable_names:
        raise ValueError("train and test datasets use different design variables")
    if train.target_name != test.target_name:
        raise ValueError(
            f"train target {train.target_name!r} != test target {test.target_name!r}"
        )
    if train.log_scaled != test.log_scaled:
        raise ValueError("train and test datasets differ in log-scaling")


def train_test_from_doe(train: Dataset, test: Dataset) -> Tuple[Dataset, Dataset]:
    """Validate that a train/test dataset pair is compatible and clean it.

    Checks that both datasets use the same variables and the same target, and
    drops non-converged (non-finite) samples from both.  Mirrors the paper's
    setup where training data comes from a ``dx = 0.10`` DOE and testing data
    from a ``dx = 0.03`` DOE over the same design variables.
    """
    validate_train_test_pair(train, test)
    return train.drop_nonfinite(), test.drop_nonfinite()

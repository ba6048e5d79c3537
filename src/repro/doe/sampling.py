"""Mapping DOE level indices onto physical design-variable values.

The paper varies each of the 13 operating-point design variables over three
levels around its nominal value with a relative step ``dx`` ("scaled
dx = 0.1" for training, ``dx = 0.03`` for testing).  This module converts
integer level matrices produced by :mod:`repro.doe.orthogonal` into physical
sample matrices, and bundles the result in a small plan object.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.doe.orthogonal import orthogonal_hypercube

__all__ = ["centered_levels", "scale_design", "DoePlan"]


def centered_levels(design: np.ndarray, levels: int) -> np.ndarray:
    """Convert level indices ``0..levels-1`` to symmetric integers around 0.

    For three levels, indices ``0, 1, 2`` become ``-1, 0, +1``.  For an even
    number of levels the result is half-integer spaced (e.g. ``-0.5, +0.5``),
    still centered on zero.
    """
    design = np.asarray(design, dtype=float)
    if levels < 2:
        raise ValueError("levels must be >= 2")
    return design - (levels - 1) / 2.0


def scale_design(design: np.ndarray, nominal: Sequence[float], dx: float,
                 levels: int = 3) -> np.ndarray:
    """Map a level-index design onto physical values around a nominal point.

    Parameters
    ----------
    design:
        Integer level matrix of shape ``(n_runs, n_factors)`` with entries in
        ``0 .. levels-1``.
    nominal:
        Nominal value per factor, length ``n_factors``.
    dx:
        Relative step per level.  With three levels, a factor takes the
        values ``nominal * (1 - dx), nominal, nominal * (1 + dx)`` --
        exactly the paper's "scaled dx" sampling.
    """
    design = np.asarray(design)
    nominal_arr = np.asarray(list(nominal), dtype=float)
    if design.ndim != 2:
        raise ValueError("design must be 2-D")
    if nominal_arr.shape[0] != design.shape[1]:
        raise ValueError(
            f"{nominal_arr.shape[0]} nominal values for {design.shape[1]} factors"
        )
    if dx < 0:
        raise ValueError("dx must be non-negative")
    centered = centered_levels(design, levels)
    return nominal_arr[None, :] * (1.0 + dx * centered)


@dataclasses.dataclass(frozen=True)
class DoePlan:
    """A complete sampling plan: physical sample points plus metadata.

    Attributes
    ----------
    points:
        Array of shape ``(n_runs, n_factors)`` with physical variable values.
    variable_names:
        Factor names, in column order.
    nominal:
        Nominal value per factor.
    dx:
        Relative step used to build the plan.
    """

    points: np.ndarray
    variable_names: Tuple[str, ...]
    nominal: Tuple[float, ...]
    dx: float

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        names = tuple(str(n) for n in self.variable_names)
        nominal = tuple(float(v) for v in self.nominal)
        if points.ndim != 2:
            raise ValueError("points must be 2-D")
        if points.shape[1] != len(names):
            raise ValueError("one name per column required")
        if len(nominal) != len(names):
            raise ValueError("one nominal value per column required")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "nominal", nominal)

    @property
    def n_runs(self) -> int:
        return int(self.points.shape[0])

    @property
    def n_factors(self) -> int:
        return int(self.points.shape[1])

    @classmethod
    def orthogonal(cls, nominal: Mapping[str, float], dx: float,
                   n_runs: Optional[int] = None, levels: int = 3) -> "DoePlan":
        """Build the paper's orthogonal-hypercube plan around a nominal point.

        ``nominal`` maps variable names to nominal values; ``dx`` is the
        relative step; ``n_runs`` (e.g. 243) selects the size of the
        orthogonal array.
        """
        names = tuple(nominal.keys())
        nominal_values = tuple(float(nominal[n]) for n in names)
        design = orthogonal_hypercube(len(names), levels=levels, n_runs=n_runs)
        points = scale_design(design, nominal_values, dx, levels=levels)
        return cls(points=points, variable_names=names,
                   nominal=nominal_values, dx=dx)

"""Variable combos (``VC`` grammar terminals).

A variable combo is a "single-basis rational combination of variables": a
product of design variables raised to integer exponents, stored as one
integer vector with an entry per design variable.  The paper's example is the
vector ``[1, 0, -2, 1]`` which means ``(x1 * x4) / (x3^2)``.  Real-valued or
fractional exponents are deliberately not allowed, for interpretability.

VC-specific evolutionary operators are one-point crossover of the exponent
vectors and randomly adding/subtracting 1 to an exponent; both live here so
the rest of the system treats a VC as an opaque terminal.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

import numpy as np

__all__ = ["VariableCombo"]


@dataclasses.dataclass
class VariableCombo:
    """Integer-exponent product of design variables."""

    exponents: Tuple[int, ...]

    def __post_init__(self) -> None:
        exps = tuple(int(e) for e in self.exponents)
        if len(exps) == 0:
            raise ValueError("a variable combo needs at least one variable slot")
        self.exponents = exps

    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return len(self.exponents)

    @property
    def is_constant(self) -> bool:
        """True when every exponent is zero (the combo degenerates to 1)."""
        return all(e == 0 for e in self.exponents)

    @property
    def total_order(self) -> int:
        """Sum of absolute exponents; the quantity priced by the complexity measure."""
        return int(sum(abs(e) for e in self.exponents))

    def used_variables(self) -> Tuple[int, ...]:
        """Indices of variables with a non-zero exponent."""
        return tuple(i for i, e in enumerate(self.exponents) if e != 0)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n_variables: int) -> "VariableCombo":
        """The all-zero (constant 1) combo."""
        return cls(exponents=(0,) * n_variables)

    @classmethod
    def single(cls, n_variables: int, index: int, exponent: int = 1) -> "VariableCombo":
        """A combo using a single variable."""
        if not 0 <= index < n_variables:
            raise IndexError("variable index out of range")
        exps = [0] * n_variables
        exps[index] = int(exponent)
        return cls(exponents=tuple(exps))

    @classmethod
    def random(cls, n_variables: int, rng: np.random.Generator,
               max_exponent: int = 2, expected_active: float = 1.5,
               allow_negative: bool = True) -> "VariableCombo":
        """A random sparse combo.

        Each variable is active with probability ``expected_active /
        n_variables``; active exponents are drawn uniformly from
        ``{-max_exponent .. -1, 1 .. max_exponent}`` (or positive only).  At
        least one variable is forced active so the combo is never constant.
        """
        if n_variables < 1:
            raise ValueError("n_variables must be >= 1")
        if max_exponent < 1:
            raise ValueError("max_exponent must be >= 1")
        # repro-lint: allow[errstate] -- scalar probability from two ints, no column math
        probability = min(1.0, expected_active / n_variables)
        random = rng.random
        exps = [0] * n_variables
        for i in range(n_variables):
            if random() < probability:
                exps[i] = cls._random_exponent(rng, max_exponent, allow_negative)
        if not any(exps):
            index = int(rng.integers(n_variables))
            exps[index] = cls._random_exponent(rng, max_exponent, allow_negative)
        # Every exponent is already a Python int, so skip __post_init__'s
        # coercion.
        combo = object.__new__(cls)
        combo.exponents = tuple(exps)
        return combo

    @staticmethod
    def _random_exponent(rng: np.random.Generator, max_exponent: int,
                         allow_negative: bool) -> int:
        magnitude = int(rng.integers(1, max_exponent + 1))
        if allow_negative and rng.random() < 0.5:
            return -magnitude
        return magnitude

    # ------------------------------------------------------------------
    # evaluation and rendering
    # ------------------------------------------------------------------
    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the combo on a sample matrix ``(n_samples, n_variables)``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_variables:
            raise ValueError(
                f"X must have {self.n_variables} columns, got shape {X.shape}")
        result = np.ones(X.shape[0])
        with np.errstate(all="ignore"):
            for index, exponent in enumerate(self.exponents):
                if exponent != 0:
                    result = result * np.power(X[:, index], float(exponent))
        return result

    def render(self, variable_names: Sequence[str]) -> str:
        """Readable rendering, e.g. ``(id1*id2) / vgs2^2`` or ``1``."""
        if len(variable_names) != self.n_variables:
            raise ValueError("one name per variable required")
        numerator = [self._format_factor(variable_names[i], e)
                     for i, e in enumerate(self.exponents) if e > 0]
        denominator = [self._format_factor(variable_names[i], -e)
                       for i, e in enumerate(self.exponents) if e < 0]
        if not numerator and not denominator:
            return "1"
        num_text = self._join_factors(numerator) if numerator else "1"
        if not denominator:
            return num_text
        den_text = self._join_factors(denominator)
        return f"{num_text} / {den_text}"

    @staticmethod
    def _format_factor(name: str, exponent: int) -> str:
        return name if exponent == 1 else f"{name}^{exponent}"

    @staticmethod
    def _join_factors(factors: Sequence[str]) -> str:
        if len(factors) == 1:
            return factors[0]
        return "(" + "*".join(factors) + ")"

    # ------------------------------------------------------------------
    # evolutionary operators
    # ------------------------------------------------------------------
    def mutated(self, rng: np.random.Generator, max_exponent: int = 4,
                allow_negative: bool = True) -> "VariableCombo":
        """Randomly add or subtract 1 to one exponent (clipped to the range)."""
        exps = list(self.exponents)
        index = int(rng.integers(self.n_variables))
        delta = 1 if rng.random() < 0.5 else -1
        new_value = exps[index] + delta
        lower = -max_exponent if allow_negative else 0
        exps[index] = int(min(max(new_value, lower), max_exponent))
        return VariableCombo(exponents=tuple(exps))

    def crossover(self, other: "VariableCombo", rng: np.random.Generator
                  ) -> Tuple["VariableCombo", "VariableCombo"]:
        """One-point crossover of two exponent vectors."""
        if self.n_variables != other.n_variables:
            raise ValueError("cannot cross combos over different variable counts")
        if self.n_variables == 1:
            return self.copy(), other.copy()
        point = int(rng.integers(1, self.n_variables))
        child_a = self.exponents[:point] + other.exponents[point:]
        child_b = other.exponents[:point] + self.exponents[point:]
        return VariableCombo(exponents=child_a), VariableCombo(exponents=child_b)

    def copy(self) -> "VariableCombo":
        return VariableCombo(exponents=self.exponents)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VariableCombo):
            return NotImplemented
        return self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VariableCombo({list(self.exponents)})"

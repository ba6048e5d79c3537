"""Operator (function) definitions for the CAFFEINE grammar.

The paper's experimental setup allows the single-input operators
``sqrt, ln, log10, 1/x, abs, x^2, sin, cos, tan, max(0,x), min(0,x), 2^x,
10^x`` and the double-input operators ``+, *, max, min, pow, /``, plus an
``lte`` conditional.  Each operator is described by an :class:`Operator`
record carrying a vectorized NumPy implementation (a module-level named
function, so operators -- and the expression trees that embed them --
survive ``pickle`` and can cross process boundaries) and a formatting
template;
:class:`FunctionSet` is the designer-facing collection, which can be
restricted ("the designer can turn off any of the rules") -- e.g. to
rationals only, or to exclude trigonometric functions.

Numerical-domain violations (log of a negative number, division by zero,
overflow) deliberately produce ``inf``/``nan``: the evaluation layer treats
any individual that misbehaves on the training data as infeasible, which is
how the search pressure stays on well-behaved expressions.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, Tuple

import numpy as np

__all__ = [
    "Operator",
    "FunctionSet",
    "UNARY_OPERATORS",
    "BINARY_OPERATORS",
    "default_function_set",
    "rational_function_set",
    "polynomial_function_set",
]


@dataclasses.dataclass(frozen=True)
class Operator:
    """One nonlinear operator usable inside a canonical-form expression."""

    name: str
    arity: int
    implementation: Callable[..., np.ndarray]
    #: Python-ish format template with ``{0}``, ``{1}`` placeholders.
    template: str
    #: grammar terminal symbol (e.g. ``"LOG10"``) used by the grammar printer
    symbol: str

    def __call__(self, *args: np.ndarray) -> np.ndarray:
        if len(args) != self.arity:
            raise TypeError(
                f"operator {self.name!r} expects {self.arity} arguments, "
                f"got {len(args)}"
            )
        with np.errstate(all="ignore"):
            return self.implementation(*args)

    def format(self, *rendered_args: str) -> str:
        """Render a call of this operator with already-rendered arguments."""
        if len(rendered_args) != self.arity:
            raise TypeError(
                f"operator {self.name!r} expects {self.arity} arguments, "
                f"got {len(rendered_args)}"
            )
        return self.template.format(*rendered_args)


# Operator implementations are module-level named functions (not lambdas) so
# that Operator records -- and therefore whole expression trees -- pickle by
# reference.  This is what lets results holding basis trees travel back from
# ``Session(jobs>1)`` worker processes and into checkpoints.

def _sqrt(x: np.ndarray) -> np.ndarray:
    return np.sqrt(x)


def _ln(x: np.ndarray) -> np.ndarray:
    return np.log(x)


def _log10(x: np.ndarray) -> np.ndarray:
    return np.log10(x)


def _inv(x: np.ndarray) -> np.ndarray:
    return 1.0 / x


def _abs(x: np.ndarray) -> np.ndarray:
    return np.abs(x)


def _square(x: np.ndarray) -> np.ndarray:
    return np.square(x)


def _sin(x: np.ndarray) -> np.ndarray:
    return np.sin(x)


def _cos(x: np.ndarray) -> np.ndarray:
    return np.cos(x)


def _protected_tan(x: np.ndarray) -> np.ndarray:
    # Large magnitudes near the poles are left as-is; the evaluation layer
    # rejects individuals that produce non-finite or absurd values.
    return np.tan(x)


def _max0(x: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, x)


def _min0(x: np.ndarray) -> np.ndarray:
    return np.minimum(0.0, x)


def _exp2(x: np.ndarray) -> np.ndarray:
    return np.power(2.0, x)


def _exp10(x: np.ndarray) -> np.ndarray:
    return np.power(10.0, x)


def _add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a + b


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * b


def _max(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def _min(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.minimum(a, b)


def _pow(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.power(a, b)


def _div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a / b


UNARY_OPERATORS: Dict[str, Operator] = {
    op.name: op for op in (
        Operator("sqrt", 1, _sqrt, "sqrt({0})", "SQRT"),
        Operator("ln", 1, _ln, "ln({0})", "LOGE"),
        Operator("log10", 1, _log10, "log10({0})", "LOG10"),
        Operator("inv", 1, _inv, "1 / ({0})", "INV"),
        Operator("abs", 1, _abs, "abs({0})", "ABS"),
        Operator("square", 1, _square, "({0})^2", "SQUARE"),
        Operator("sin", 1, _sin, "sin({0})", "SIN"),
        Operator("cos", 1, _cos, "cos({0})", "COS"),
        Operator("tan", 1, _protected_tan, "tan({0})", "TAN"),
        Operator("max0", 1, _max0, "max(0, {0})", "MAX0"),
        Operator("min0", 1, _min0, "min(0, {0})", "MIN0"),
        Operator("exp2", 1, _exp2, "2^({0})", "POW2"),
        Operator("exp10", 1, _exp10, "10^({0})", "POW10"),
    )
}

BINARY_OPERATORS: Dict[str, Operator] = {
    op.name: op for op in (
        Operator("add", 2, _add, "({0} + {1})", "ADD"),
        Operator("mul", 2, _mul, "({0} * {1})", "MUL"),
        Operator("max", 2, _max, "max({0}, {1})", "MAX"),
        Operator("min", 2, _min, "min({0}, {1})", "MIN"),
        Operator("pow", 2, _pow, "({0})^({1})", "POW"),
        Operator("div", 2, _div, "({0}) / ({1})", "DIVIDE"),
    )
}

_ALL_OPERATORS: Dict[str, Operator] = {**UNARY_OPERATORS, **BINARY_OPERATORS}


class FunctionSet:
    """The set of operators the grammar is allowed to use.

    The paper emphasizes that "the designer can turn off any of the rules if
    they are considered unwanted or unneeded", e.g. restricting the search to
    polynomials or rationals, or removing hard-to-interpret functions such as
    ``sin``/``cos``.  A :class:`FunctionSet` is that switchboard.
    """

    def __init__(self, unary: Iterable[str] = (), binary: Iterable[str] = ()) -> None:
        self._unary: Tuple[Operator, ...] = tuple(
            self._lookup(name, UNARY_OPERATORS, "unary") for name in unary)
        self._binary: Tuple[Operator, ...] = tuple(
            self._lookup(name, BINARY_OPERATORS, "binary") for name in binary)

    @staticmethod
    def _lookup(name: str, table: Dict[str, Operator], kind: str) -> Operator:
        if name not in table:
            raise KeyError(
                f"unknown {kind} operator {name!r}; known: {sorted(table)}")
        return table[name]

    # ------------------------------------------------------------------
    @property
    def unary(self) -> Tuple[Operator, ...]:
        return self._unary

    @property
    def binary(self) -> Tuple[Operator, ...]:
        return self._binary

    @property
    def has_nonlinear_operators(self) -> bool:
        """True when at least one nonlinear operator is enabled."""
        return bool(self._unary) or bool(self._binary)

    def operator(self, name: str) -> Operator:
        """Look up an enabled operator by name."""
        for op in self._unary + self._binary:
            if op.name == name:
                return op
        raise KeyError(f"operator {name!r} is not enabled in this function set")

    def names(self) -> Tuple[str, ...]:
        return tuple(op.name for op in self._unary + self._binary)

    def fingerprint(self) -> Tuple:
        """Hashable identity of the operator *implementations*.

        Two function sets share a fingerprint exactly when every same-named
        operator is bound to the same implementation (module + qualname), so
        caches keyed by it (the shared column cache, the persistent
        :class:`~repro.core.cache_store.ColumnCacheStore`) never serve a
        column computed under different operator semantics.
        """
        entries = []
        for op in self._unary + self._binary:
            implementation = op.implementation
            entries.append((op.name, op.arity,
                            getattr(implementation, "__module__", ""),
                            getattr(implementation, "__qualname__",
                                    repr(implementation))))
        return tuple(sorted(entries))

    def without(self, *names: str) -> "FunctionSet":
        """A copy with the given operators removed."""
        remove = set(names)
        return FunctionSet(
            unary=[op.name for op in self._unary if op.name not in remove],
            binary=[op.name for op in self._binary if op.name not in remove],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FunctionSet(unary={[o.name for o in self._unary]}, "
                f"binary={[o.name for o in self._binary]})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FunctionSet):
            return NotImplemented
        return self.names() == other.names()

    def __hash__(self) -> int:
        return hash(self.names())


def default_function_set() -> FunctionSet:
    """The paper's experimental function set (Section 6.1).

    ``add`` and ``mul`` are omitted as explicit binary operators because the
    canonical-form grammar already provides arbitrary sums (``REPADD``) and
    products (``REPVC``/``REPOP``); including them as operators would only
    duplicate structure without enlarging the expressible set.
    """
    return FunctionSet(
        unary=("sqrt", "ln", "log10", "inv", "abs", "square",
               "sin", "cos", "tan", "max0", "min0", "exp2", "exp10"),
        binary=("div", "pow", "max", "min"),
    )


def rational_function_set() -> FunctionSet:
    """Restriction to rational functions (division only)."""
    return FunctionSet(unary=("inv",), binary=("div",))


def polynomial_function_set() -> FunctionSet:
    """Restriction to polynomials: no nonlinear operators at all.

    With this set the grammar reduces to weighted sums of variable combos,
    i.e. (generalized) polynomials, mirroring the paper's remark that "one
    could easily restrict the search to polynomials or rationals".
    """
    return FunctionSet(unary=(), binary=())

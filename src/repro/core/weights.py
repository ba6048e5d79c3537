"""Weight terminals (``W`` nodes) of the CAFFEINE grammar.

The grammar stores a real value in ``[-2B, +2B]`` at each ``W`` node; during
interpretation the stored value is mapped onto
``[-1e+B, -1e-B] U {0} U [1e-B, 1e+B]`` so that an evolved parameter can take
very small or very large magnitudes of either sign while mutation operates on
a compact, well-scaled representation.  Zero-mean Cauchy mutation (Yao,
Liu & Lin 1999) perturbs the stored value; its heavy tails occasionally make
large jumps, which is what lets the search escape poor local parameter
choices.
"""

from __future__ import annotations

import dataclasses
import math
import numpy as np

__all__ = ["Weight", "transform_stored_value", "cauchy_mutated_value"]

#: Default exponent bound B of the paper ("B is user-set, e.g. 10").
DEFAULT_EXPONENT_BOUND = 10.0


def _clip_stored(stored: float, upper: float) -> float:
    """``float(np.clip(stored, -upper, upper))`` for a float ``stored`` and
    a positive ``upper``.

    Branch-based rather than ``np.clip`` purely for speed: weights are
    clipped at every construction, mutation and interpretation, and the
    NumPy scalar path is ~13x slower.  The branches replicate ``np.clip``
    bit for bit, NaN passthrough and signed zeros included
    (property-tested).
    """
    if stored > upper:
        return upper
    if stored < -upper:
        return -upper
    return stored  # NaN lands here, exactly like np.clip


def transform_stored_value(stored: float, exponent_bound: float = DEFAULT_EXPONENT_BOUND
                           ) -> float:
    """Map a stored value in ``[-2B, 2B]`` to its interpreted magnitude.

    * ``stored == 0``      -> ``0.0``
    * ``stored in (0, 2B]`` -> ``+10**(stored - B)``  (magnitudes 1e-B .. 1e+B)
    * ``stored in [-2B, 0)``-> ``-10**(-stored - B)`` (same magnitudes, negative)
    """
    bound = float(exponent_bound)
    if bound <= 0:
        raise ValueError("exponent_bound must be positive")
    clipped = _clip_stored(float(stored), 2.0 * bound)
    if clipped == 0.0:
        return 0.0
    if clipped > 0:
        return 10.0 ** (clipped - bound)
    return -(10.0 ** (-clipped - bound))


def inverse_transform_value(value: float,
                            exponent_bound: float = DEFAULT_EXPONENT_BOUND) -> float:
    """Stored value that interprets to ``value`` (inverse of the transform)."""
    bound = float(exponent_bound)
    if value == 0.0:
        return 0.0
    magnitude = min(max(abs(value), 10.0 ** (-bound)), 10.0 ** bound)
    stored = math.log10(magnitude) + bound
    if stored == 0.0:
        # The smallest representable magnitude (1e-B) lands exactly on the
        # stored value 0.0, which the transform reserves for the value 0;
        # nudge it into the positive branch so the round trip stays exact.
        stored = math.nextafter(0.0, 1.0)
    return stored if value > 0 else -stored


def cauchy_mutated_value(stored: float, scale: float,
                         rng: np.random.Generator,
                         exponent_bound: float = DEFAULT_EXPONENT_BOUND) -> float:
    """Zero-mean Cauchy mutation of a stored value, clipped to ``[-2B, 2B]``."""
    if scale <= 0:
        raise ValueError("mutation scale must be positive")
    perturbed = stored + scale * rng.standard_cauchy()
    return _clip_stored(float(perturbed), 2.0 * exponent_bound)


@dataclasses.dataclass
class Weight:
    """A ``W`` grammar terminal: an evolvable real parameter.

    ``stored`` lives in ``[-2B, 2B]``; :attr:`value` is the interpreted
    parameter used when evaluating expressions.
    """

    stored: float
    exponent_bound: float = DEFAULT_EXPONENT_BOUND

    def __post_init__(self) -> None:
        if not self.exponent_bound > 0:
            raise ValueError("exponent_bound must be positive")
        self.stored = _clip_stored(float(self.stored),
                                   2.0 * self.exponent_bound)

    # ------------------------------------------------------------------
    @property
    def value(self) -> float:
        """Interpreted parameter value."""
        return transform_stored_value(self.stored, self.exponent_bound)

    @classmethod
    def from_value(cls, value: float,
                   exponent_bound: float = DEFAULT_EXPONENT_BOUND) -> "Weight":
        """Build a weight whose interpreted value is (approximately) ``value``."""
        return cls(stored=inverse_transform_value(value, exponent_bound),
                   exponent_bound=exponent_bound)

    @classmethod
    def random(cls, rng: np.random.Generator,
               exponent_bound: float = DEFAULT_EXPONENT_BOUND) -> "Weight":
        """A uniformly random stored value in ``[-2B, 2B]``."""
        stored = rng.uniform(-2.0 * exponent_bound, 2.0 * exponent_bound)
        return cls(stored=stored, exponent_bound=exponent_bound)

    # ------------------------------------------------------------------
    def mutated(self, rng: np.random.Generator, scale: float = 1.0) -> "Weight":
        """Return a Cauchy-mutated copy (the original is left untouched)."""
        return Weight(stored=cauchy_mutated_value(self.stored, scale, rng,
                                                  self.exponent_bound),
                      exponent_bound=self.exponent_bound)

    def copy(self) -> "Weight":
        return Weight(stored=self.stored, exponent_bound=self.exponent_bound)

    # ------------------------------------------------------------------
    def render(self, precision: int = 4) -> str:
        """Human-readable rendering of the interpreted value."""
        return format_number(self.value, precision)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Weight(value={self.value:.4g})"


def format_number(value: float, precision: int = 4) -> str:
    """Format a coefficient the way the paper's tables do.

    Plain decimal notation for moderate magnitudes, scientific notation
    (``2.36e+07`` style) otherwise.
    """
    if value == 0.0:
        return "0"
    magnitude = abs(value)
    if 1e-3 <= magnitude < 1e5:
        text = f"{value:.{precision}g}"
    else:
        text = f"{value:.{max(precision - 2, 2)}e}"
    return text

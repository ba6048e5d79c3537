"""Run settings for CAFFEINE.

All tunables of the algorithm live in :class:`CaffeineSettings`, mirroring
the paper's Section 6.1 run settings: maximum number of basis functions (15),
population size (200), number of generations (5000), maximum tree depth (8),
weight range ``[-1e10, -1e-10] U {0} U [1e-10, 1e10]`` (i.e. exponent bound
``B = 10``), equal operator probabilities except parameter mutation being 5x
more likely, and complexity-measure constants ``wb = 10`` and ``wvc = 0.25``.

Two constructors are provided: :meth:`CaffeineSettings.paper_settings` with
the full budgets of the paper (hours of runtime) and the default constructor
with reduced budgets suitable for laptops and for the benchmark harness.

Settings hold only the algorithm.  The population-evaluation caches size
themselves from ``population_size`` and ``max_basis_functions``
(:func:`repro.core.evaluation.cache_budgets`), and fault injection is armed
through the ``REPRO_FAULTS`` environment variable (:mod:`repro.core.faults`);
neither can change a run's models, so neither is a setting.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from typing import Optional

from repro.core.functions import FunctionSet, default_function_set

__all__ = ["CaffeineSettings"]


@dataclasses.dataclass
class CaffeineSettings:
    """All tunables of a CAFFEINE run."""

    # -- evolutionary budget -------------------------------------------------
    population_size: int = 100
    n_generations: int = 40
    random_seed: Optional[int] = 0

    # -- model structure -----------------------------------------------------
    max_basis_functions: int = 15
    max_tree_depth: int = 8
    #: largest |exponent| a variable may take inside a variable combo
    max_vc_exponent: int = 4
    #: allow negative exponents (rational variable combos); turning this off
    #: restricts combos to plain monomials
    allow_negative_exponents: bool = True
    #: expected number of active variables in a freshly generated combo
    expected_vc_variables: float = 1.5
    #: enable the ``lte`` conditional construct (off by default: least
    #: interpretable allowed construct)
    enable_conditionals: bool = False

    # -- weights ---------------------------------------------------------------
    #: exponent bound B: interpreted weights live in [1e-B, 1e+B] magnitudes
    weight_exponent_bound: float = 10.0
    #: scale of the zero-mean Cauchy mutation applied to stored weight values
    weight_mutation_scale: float = 1.0

    # -- operator probabilities ------------------------------------------------
    #: relative probability of parameter (weight) mutation; the paper makes it
    #: 5x more likely than the other operators, which all have weight 1
    parameter_mutation_bias: float = 5.0

    # -- generation shape -------------------------------------------------------
    #: probability that a freshly generated product term contains a variable combo
    p_variable_combo: float = 0.85
    #: probability of adding (another) nonlinear operator factor to a product term
    p_operator_factor: float = 0.25
    #: probability of adding (another) weighted term inside an operator argument
    p_extra_sum_term: float = 0.35
    #: initial number of basis functions is drawn uniformly from [1, this]
    max_initial_basis_functions: int = 4

    # -- objectives --------------------------------------------------------------
    #: complexity constant per basis function (paper: wb = 10)
    basis_function_cost: float = 10.0
    #: complexity cost per unit of |exponent| in variable combos (paper: wvc = 0.25)
    vc_exponent_cost: float = 0.25

    # -- function set -------------------------------------------------------------
    function_set: FunctionSet = dataclasses.field(default_factory=default_function_set)

    # -- post-processing -----------------------------------------------------------
    #: run PRESS + forward regression simplification after generation
    simplify_after_generation: bool = True
    #: minimum relative PRESS improvement a basis function must bring to survive
    sag_min_relative_improvement: float = 1e-4

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings."""
        if self.population_size < 4:
            raise ValueError("population_size must be at least 4")
        if self.n_generations < 1:
            raise ValueError("n_generations must be at least 1")
        if self.max_basis_functions < 1:
            raise ValueError("max_basis_functions must be at least 1")
        if self.max_tree_depth < 2:
            raise ValueError("max_tree_depth must be at least 2")
        if self.max_vc_exponent < 1:
            raise ValueError("max_vc_exponent must be at least 1")
        if not 0.0 <= self.p_variable_combo <= 1.0:
            raise ValueError("p_variable_combo must be a probability")
        if not 0.0 <= self.p_operator_factor <= 1.0:
            raise ValueError("p_operator_factor must be a probability")
        if not 0.0 <= self.p_extra_sum_term <= 1.0:
            raise ValueError("p_extra_sum_term must be a probability")
        if self.max_initial_basis_functions < 1:
            raise ValueError("max_initial_basis_functions must be at least 1")
        if self.max_initial_basis_functions > self.max_basis_functions:
            raise ValueError(
                "max_initial_basis_functions cannot exceed max_basis_functions")
        # The chained comparisons also reject NaN, which compares false.
        for name in ("weight_exponent_bound", "weight_mutation_scale",
                     "parameter_mutation_bias"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("expected_vc_variables", "basis_function_cost",
                     "vc_exponent_cost", "sag_min_relative_improvement"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Hex digest over every field.

        Two settings objects with equal fingerprints are guaranteed to
        evolve bit-identical models from the same data and seed.
        :class:`~repro.core.cache_store.RunCheckpointStore` snapshots carry
        this digest so a checkpoint refuses to resume under settings that
        would silently diverge from the interrupted run.  Cache budgets and
        armed faults are not settings, so a checkpoint resumes under any of
        them.
        """
        parts = []
        for field in sorted(f.name for f in dataclasses.fields(self)):
            value = getattr(self, field)
            if isinstance(value, FunctionSet):
                value = value.fingerprint()
            parts.append(f"{field}={value!r}")
        return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    @classmethod
    def paper_settings(cls, random_seed: Optional[int] = 0) -> "CaffeineSettings":
        """The full run settings of the paper's experiments (Section 6.1).

        Population 200, 5000 generations, at most 15 basis functions, tree
        depth 8, ``B = 10``, ``wb = 10``, ``wvc = 0.25``.  A single run with
        these settings took about 12 hours on the paper's 3 GHz workstation;
        expect comparable magnitudes here.
        """
        return cls(
            population_size=200,
            n_generations=5000,
            random_seed=random_seed,
            max_basis_functions=15,
            max_tree_depth=8,
            weight_exponent_bound=10.0,
            parameter_mutation_bias=5.0,
            basis_function_cost=10.0,
            vc_exponent_cost=0.25,
        )

    @classmethod
    def fast_settings(cls, random_seed: Optional[int] = 0) -> "CaffeineSettings":
        """Reduced budgets for tests and quick exploration (seconds, not hours)."""
        return cls(
            population_size=40,
            n_generations=15,
            random_seed=random_seed,
            max_basis_functions=8,
            max_initial_basis_functions=3,
            max_tree_depth=6,
        )

    def copy(self, **overrides: object) -> "CaffeineSettings":
        """A copy with selected fields replaced."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

"""Random generation of canonical-form expressions.

Random generation must follow the grammar's derivation rules; because the
typed AST of :mod:`repro.core.expression` encodes the canonical form, the
generator below produces only grammar-conforming trees.  Shape and size are
controlled by :class:`~repro.core.settings.CaffeineSettings`: the probability
of attaching a variable combo, of multiplying in (further) nonlinear operator
factors, of adding extra terms inside operator arguments, and the maximum
tree depth (the paper uses depth 8).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.compile import canonicalize_fresh_product_term
from repro.core.expression import (
    BinaryOpTerm,
    ConditionalOpTerm,
    OpTerm,
    ProductTerm,
    UnaryOpTerm,
    WeightedSum,
    WeightedTerm,
)
from repro.core.functions import Operator
from repro.core.settings import CaffeineSettings
from repro.core.variable_combo import VariableCombo
from repro.core.weights import Weight

__all__ = ["ExpressionGenerator"]

#: pseudo-operator record used by conditional nodes
_LTE_OPERATOR = Operator("lte", 2, lambda a, b: a, "lte({0}, {1})", "LTE")


class ExpressionGenerator:
    """Generates random canonical-form trees for a fixed problem dimension."""

    def __init__(self, n_variables: int, settings: CaffeineSettings,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n_variables < 1:
            raise ValueError("n_variables must be >= 1")
        self.n_variables = n_variables
        self.settings = settings
        self.rng = rng if rng is not None else np.random.default_rng(settings.random_seed)

    # ------------------------------------------------------------------
    # terminals
    # ------------------------------------------------------------------
    def small_weight(self) -> Weight:
        """A weight whose interpreted value is of order one.

        Used for offsets inside operator arguments so that freshly generated
        expressions are numerically tame more often than not.
        """
        stored = self.rng.normal(loc=0.0, scale=1.0)
        sign = 1.0 if self.rng.random() < 0.5 else -1.0
        return Weight(stored=sign * (self.settings.weight_exponent_bound + stored),
                      exponent_bound=self.settings.weight_exponent_bound)

    def random_variable_combo(self) -> VariableCombo:
        """A random ``VC`` terminal."""
        return VariableCombo.random(
            self.n_variables, self.rng,
            max_exponent=min(2, self.settings.max_vc_exponent),
            expected_active=self.settings.expected_vc_variables,
            allow_negative=self.settings.allow_negative_exponents,
        )

    # ------------------------------------------------------------------
    # nonterminals
    # ------------------------------------------------------------------
    def random_weighted_sum(self, depth_budget: int) -> WeightedSum:
        """A random ``W + REPADD``: offset plus at least one weighted term."""
        terms: List[WeightedTerm] = [
            WeightedTerm(weight=self.small_weight(),
                         term=self.random_product_term(depth_budget - 1))
        ]
        while (len(terms) < 4
               and self.rng.random() < self.settings.p_extra_sum_term):
            terms.append(WeightedTerm(weight=self.small_weight(),
                                      term=self.random_product_term(depth_budget - 1)))
        return WeightedSum(offset=self.small_weight(), terms=terms)

    def random_op_term(self, depth_budget: int) -> OpTerm:
        """A random ``REPOP``: one nonlinear operator application."""
        function_set = self.settings.function_set
        choices: List[str] = []
        if function_set.unary:
            choices.append("unary")
        if function_set.binary:
            choices.append("binary")
        if self.settings.enable_conditionals:
            choices.append("conditional")
        if not choices:
            raise ValueError(
                "cannot generate an operator term: the function set is empty")
        kind = choices[int(self.rng.integers(len(choices)))]
        if kind == "unary":
            operator = function_set.unary[int(self.rng.integers(len(function_set.unary)))]
            return UnaryOpTerm(op=operator,
                               argument=self.random_weighted_sum(depth_budget - 1))
        if kind == "binary":
            operator = function_set.binary[int(self.rng.integers(len(function_set.binary)))]
            expression_arg = self.random_weighted_sum(depth_budget - 1)
            other_arg = (self.small_weight() if self.rng.random() < 0.5
                         else self.random_weighted_sum(depth_budget - 1))
            if self.rng.random() < 0.5:
                return BinaryOpTerm(op=operator, left=expression_arg, right=other_arg)
            return BinaryOpTerm(op=operator, left=other_arg, right=expression_arg)
        return ConditionalOpTerm(
            op=_LTE_OPERATOR,
            test=self.random_weighted_sum(depth_budget - 1),
            threshold=self.small_weight(),
            if_true=self.random_weighted_sum(depth_budget - 1),
            if_false=self.random_weighted_sum(depth_budget - 1),
        )

    def random_product_term(self, depth_budget: Optional[int] = None) -> ProductTerm:
        """A random ``REPVC`` -- the start symbol, i.e. one basis function."""
        if depth_budget is None:
            depth_budget = self.settings.max_tree_depth
        # An operator factor adds at least three levels below the product term
        # (operator -> weighted sum -> product term), so a budget below four
        # forces a VC-only term.
        can_use_operators = (depth_budget >= 4
                             and (self.settings.function_set.has_nonlinear_operators
                                  or self.settings.enable_conditionals))

        use_vc = self.rng.random() < self.settings.p_variable_combo
        ops: List[OpTerm] = []
        if can_use_operators:
            while (len(ops) < 3
                   and self.rng.random() < self.settings.p_operator_factor):
                ops.append(self.random_op_term(depth_budget - 1))
        if not use_vc and not ops:
            # REPVC must derive to at least a VC or an operator factor.
            if can_use_operators and self.rng.random() < 0.5:
                ops.append(self.random_op_term(depth_budget - 1))
            else:
                use_vc = True
        term = ProductTerm(vc=self.random_variable_combo() if use_vc else None,
                           ops=ops)
        # Fresh trees are born canonical: commutative factor lists are
        # sorted so order-variants of one product share a structural key
        # and a compiled kernel (see repro.core.compile.canonicalize_factors).
        # Every product term nested in ``ops`` was already sorted by its own
        # random_product_term call, so sorting this term's factor list is the
        # only canonicalization left -- the rest of a full-tree pass would be
        # a stable no-op.  Sorting also seeds the on-node structural-key
        # memos that the shared-genome variation layer and the evaluation
        # cache reuse; generated trees are never mutated in place afterwards
        # (variation path-copies), so the memos stay valid for the tree's
        # lifetime.
        canonicalize_fresh_product_term(term)
        return term

    # ------------------------------------------------------------------
    def random_basis_functions(self, n_bases: Optional[int] = None
                               ) -> List[ProductTerm]:
        """A fresh list of basis functions for a new individual."""
        if n_bases is None:
            n_bases = int(self.rng.integers(
                1, self.settings.max_initial_basis_functions + 1))
        if n_bases < 1:
            raise ValueError("n_bases must be >= 1")
        n_bases = min(n_bases, self.settings.max_basis_functions)
        return [self.random_product_term() for _ in range(n_bases)]

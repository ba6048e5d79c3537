"""Evolutionary variation operators.

CAFFEINE's operators act on three levels and all respect the grammar --
"only subtrees with the same root can be crossed over, and random generation
of trees must follow the derivation rules":

* **parameter level** -- zero-mean Cauchy mutation of ``W`` weights (the paper
  makes this operator 5x more likely than the others), and the VC operators
  (one-point crossover of exponent vectors, +/-1 on a random exponent);
* **tree level** -- subtree crossover between nodes with the same grammar
  symbol, and subtree mutation (regenerating a random subtree);
* **basis-function level** -- creating a new individual by randomly choosing
  at least one basis function from each of two parents; deleting a random
  basis function; adding a randomly generated tree as a new basis function;
  copying a subtree from one individual to become a new basis function of
  another.

All operators return *new* individuals; parents are never modified.

Children are built by **path copying**.  A child starts as a fresh
individual whose bases *list* is fresh but whose trees are shared by
reference with the parents.  An edit at some slot rebuilds only the spine of
shallow node copies from that slot up to the basis root (``O(depth)`` fresh
nodes for an ``O(n)``-node parent) and shares every untouched subtree; donor
material from the second parent is likewise shared, never cloned.  Shared
subtrees keep their memoized structural keys/skeletons
(:mod:`repro.core.expression`), which is what keeps the evaluation caches
warm.  Only the fresh spine nodes need re-canonicalization
(:func:`repro.core.compile.canonicalize_fresh_product_term`).  The test
suite keeps the original clone-the-parent-and-edit-in-place operators as
the reference: both consume identical RNG draw sequences and produce
bit-identical children.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.expression import (
    BinaryOpTerm,
    ConditionalOpTerm,
    ExpressionNode,
    ProductTerm,
    UnaryOpTerm,
    WeightedSum,
    WeightedTerm,
    cached_depth,
    iter_variable_combos,
)
from repro.core.compile import canonicalize_fresh_product_term
from repro.core.generator import ExpressionGenerator
from repro.core.individual import Individual
from repro.core.settings import CaffeineSettings
from repro.core.weights import Weight, cauchy_mutated_value

__all__ = ["VariationOperators"]


# ----------------------------------------------------------------------
# path-addressed sites (the operators' editing primitive)
# ----------------------------------------------------------------------
# A site is (kind, basis_index, path, occupant): ``path`` is a tuple of
# edges from the basis root to the occupant, each edge a tuple whose first
# element names the attribute ("ops", "term", "argument", ...) and whose
# optional second element is a list index.  Paths address positions, not
# objects, so they stay unambiguous even when one node object appears at
# several positions (possible after sharing donor material or when
# parent_a is parent_b).

def _walk_slot_sites(node: ExpressionNode, basis_index: int,
                     path: Tuple[Tuple, ...], out: List[Tuple]) -> None:
    # Pre-order: record this node's slots, then recurse into children in
    # children() order.
    if isinstance(node, ProductTerm):
        for i, op in enumerate(node.ops):
            out.append(("REPOP", basis_index, path + (("ops", i),), op))
        for i, op in enumerate(node.ops):
            _walk_slot_sites(op, basis_index, path + (("ops", i),), out)
    elif isinstance(node, WeightedSum):
        for i, weighted in enumerate(node.terms):
            out.append(("REPVC", basis_index, path + (("term", i),),
                        weighted.term))
        for i, weighted in enumerate(node.terms):
            _walk_slot_sites(weighted.term, basis_index,
                             path + (("term", i),), out)
    elif isinstance(node, UnaryOpTerm):
        out.append(("REPADD", basis_index, path + (("argument",),),
                    node.argument))
        _walk_slot_sites(node.argument, basis_index,
                         path + (("argument",),), out)
    elif isinstance(node, BinaryOpTerm):
        if isinstance(node.left, WeightedSum):
            out.append(("REPADD", basis_index, path + (("left",),), node.left))
        if isinstance(node.right, WeightedSum):
            out.append(("REPADD", basis_index, path + (("right",),),
                        node.right))
        if isinstance(node.left, WeightedSum):
            _walk_slot_sites(node.left, basis_index, path + (("left",),), out)
        if isinstance(node.right, WeightedSum):
            _walk_slot_sites(node.right, basis_index, path + (("right",),),
                             out)
    elif isinstance(node, ConditionalOpTerm):
        out.append(("REPADD", basis_index, path + (("test",),), node.test))
        out.append(("REPADD", basis_index, path + (("if_true",),),
                    node.if_true))
        out.append(("REPADD", basis_index, path + (("if_false",),),
                    node.if_false))
        if isinstance(node.threshold, WeightedSum):
            out.append(("REPADD", basis_index, path + (("threshold",),),
                        node.threshold))
        _walk_slot_sites(node.test, basis_index, path + (("test",),), out)
        if isinstance(node.threshold, WeightedSum):
            _walk_slot_sites(node.threshold, basis_index,
                             path + (("threshold",),), out)
        _walk_slot_sites(node.if_true, basis_index, path + (("if_true",),),
                         out)
        _walk_slot_sites(node.if_false, basis_index, path + (("if_false",),),
                         out)


def _slot_sites(individual: Individual,
                include_bases: bool = True) -> List[Tuple]:
    """Every grammar-legal replacement point in an individual, read-only.

    Top-level basis functions are ``REPVC`` sites; positions inside trees
    are recorded where product terms (``REPVC``), operator terms
    (``REPOP``) and weighted sums (``REPADD``) live, as
    ``(kind, basis_index, path, occupant)``.  The order is the pre-order
    walk the operators' index draws are defined against.
    """
    sites: List[Tuple] = []
    if include_bases:
        for index, basis in enumerate(individual.bases):
            sites.append(("REPVC", index, (), basis))
    for index, basis in enumerate(individual.bases):
        _walk_slot_sites(basis, index, (), sites)
    return sites


def _walk_weight_sites(node: ExpressionNode, basis_index: int,
                       path: Tuple[Tuple, ...], out: List[Tuple]) -> None:
    # Pre-order, mirroring iter_weights' enumeration order.
    if isinstance(node, WeightedSum):
        out.append((basis_index, path + (("offset",),), node.offset))
        for i, weighted in enumerate(node.terms):
            out.append((basis_index, path + (("tweight", i),),
                        weighted.weight))
        for i, weighted in enumerate(node.terms):
            _walk_weight_sites(weighted.term, basis_index,
                               path + (("term", i),), out)
    elif isinstance(node, ProductTerm):
        for i, op in enumerate(node.ops):
            _walk_weight_sites(op, basis_index, path + (("ops", i),), out)
    elif isinstance(node, UnaryOpTerm):
        _walk_weight_sites(node.argument, basis_index,
                           path + (("argument",),), out)
    elif isinstance(node, BinaryOpTerm):
        if isinstance(node.left, Weight):
            out.append((basis_index, path + (("left",),), node.left))
        if isinstance(node.right, Weight):
            out.append((basis_index, path + (("right",),), node.right))
        if isinstance(node.left, WeightedSum):
            _walk_weight_sites(node.left, basis_index, path + (("left",),),
                               out)
        if isinstance(node.right, WeightedSum):
            _walk_weight_sites(node.right, basis_index, path + (("right",),),
                               out)
    elif isinstance(node, ConditionalOpTerm):
        if isinstance(node.threshold, Weight):
            out.append((basis_index, path + (("threshold",),),
                        node.threshold))
        _walk_weight_sites(node.test, basis_index, path + (("test",),), out)
        if isinstance(node.threshold, WeightedSum):
            _walk_weight_sites(node.threshold, basis_index,
                               path + (("threshold",),), out)
        _walk_weight_sites(node.if_true, basis_index, path + (("if_true",),),
                           out)
        _walk_weight_sites(node.if_false, basis_index,
                           path + (("if_false",),), out)


def _weight_sites(individual: Individual) -> List[Tuple]:
    """``(basis_index, path, weight)`` for every ``W`` terminal, read-only,
    in the same order ``iter_weights`` enumerates them basis by basis."""
    sites: List[Tuple] = []
    for index, basis in enumerate(individual.bases):
        _walk_weight_sites(basis, index, (), sites)
    return sites


def _vc_sites(individual: Individual) -> List[Tuple]:
    """``(basis_index, path, owner_product_term)`` for every variable
    combo, read-only, in ``iter_variable_combos`` order."""
    sites: List[Tuple] = []
    for index, basis in enumerate(individual.bases):
        stack: List[Tuple[ExpressionNode, Tuple[Tuple, ...]]] = [(basis, ())]
        while stack:
            node, path = stack.pop()
            if isinstance(node, ProductTerm):
                if node.vc is not None:
                    sites.append((index, path, node))
                stack.extend(reversed([(op, path + (("ops", i),))
                                       for i, op in enumerate(node.ops)]))
            elif isinstance(node, WeightedSum):
                stack.extend(reversed([(w.term, path + (("term", i),))
                                       for i, w in enumerate(node.terms)]))
            elif isinstance(node, UnaryOpTerm):
                stack.append((node.argument, path + (("argument",),)))
            elif isinstance(node, BinaryOpTerm):
                children = []
                if isinstance(node.left, WeightedSum):
                    children.append((node.left, path + (("left",),)))
                if isinstance(node.right, WeightedSum):
                    children.append((node.right, path + (("right",),)))
                stack.extend(reversed(children))
            elif isinstance(node, ConditionalOpTerm):
                children = [(node.test, path + (("test",),))]
                if isinstance(node.threshold, WeightedSum):
                    children.append((node.threshold, path + (("threshold",),)))
                children.append((node.if_true, path + (("if_true",),)))
                children.append((node.if_false, path + (("if_false",),)))
                stack.extend(reversed(children))
    return sites


def _child_at(node: ExpressionNode, edge: Tuple):
    tag = edge[0]
    if tag == "ops":
        return node.ops[edge[1]]
    if tag == "term":
        return node.terms[edge[1]].term
    if tag == "argument":
        return node.argument
    if tag in ("left", "right", "test", "threshold", "if_true", "if_false"):
        return getattr(node, tag)
    raise KeyError(f"cannot descend through edge {edge!r}")


def _replace_at(node: ExpressionNode, edge: Tuple, new) -> ExpressionNode:
    """Shallow copy of ``node`` with the position at ``edge`` replaced.

    Containers (ops/terms lists) are copied so the fresh node never aliases
    a shared parent's mutable list; the elements themselves stay shared.
    """
    tag = edge[0]
    if tag == "ops":
        ops = list(node.ops)
        ops[edge[1]] = new
        return ProductTerm(vc=node.vc, ops=ops)
    if tag == "vc":
        return ProductTerm(vc=new, ops=list(node.ops))
    if tag == "term":
        terms = list(node.terms)
        old = terms[edge[1]]
        terms[edge[1]] = WeightedTerm(weight=old.weight, term=new)
        return WeightedSum(offset=node.offset, terms=terms)
    if tag == "tweight":
        terms = list(node.terms)
        old = terms[edge[1]]
        terms[edge[1]] = WeightedTerm(weight=new, term=old.term)
        return WeightedSum(offset=node.offset, terms=terms)
    if tag == "offset":
        return WeightedSum(offset=new, terms=list(node.terms))
    if tag == "argument":
        return UnaryOpTerm(op=node.op, argument=new)
    if tag == "left":
        return BinaryOpTerm(op=node.op, left=new, right=node.right)
    if tag == "right":
        return BinaryOpTerm(op=node.op, left=node.left, right=new)
    if tag in ("test", "threshold", "if_true", "if_false"):
        parts = {"test": node.test, "threshold": node.threshold,
                 "if_true": node.if_true, "if_false": node.if_false}
        parts[tag] = new
        return ConditionalOpTerm(op=node.op, **parts)
    raise KeyError(f"cannot replace through edge {edge!r}")


def _rebuild(root: ExpressionNode, path: Tuple[Tuple, ...], new_value,
             fresh: List[ExpressionNode]) -> ExpressionNode:
    """Path-copy: rebuild the spine from the edited position to the root.

    Returns the new root; appends every fresh spine copy to ``fresh`` in
    deepest-first creation order (the order
    :func:`_canonicalize_fresh` must process them in).  An empty path
    replaces the root itself.
    """
    if not path:
        return new_value

    def rebuild_from(node: ExpressionNode, index: int) -> ExpressionNode:
        edge = path[index]
        if index == len(path) - 1:
            replacement = new_value
        else:
            replacement = rebuild_from(_child_at(node, edge), index + 1)
        copy = _replace_at(node, edge, replacement)
        fresh.append(copy)
        return copy

    return rebuild_from(root, 0)


def _canonicalize_fresh(fresh: List[ExpressionNode]) -> None:
    """Re-sort the factor lists of freshly path-copied spine nodes.

    ``fresh`` arrives deepest-first, so by the time a product term is
    sorted every fresh descendant is already in its final order -- the
    exact post-order subset of ``canonicalize_factors`` that can reorder
    anything (shared subtrees are canonical by the population invariant).
    """
    for node in fresh:
        if type(node) is ProductTerm:
            canonicalize_fresh_product_term(node)


class VariationOperators:
    """Applies CAFFEINE's variation operators with the configured probabilities."""

    def __init__(self, generator: ExpressionGenerator,
                 settings: CaffeineSettings,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.generator = generator
        self.settings = settings
        self.rng = rng if rng is not None else generator.rng
        self._operators: List[Tuple[str, float]] = [
            ("parameter_mutation", settings.parameter_mutation_bias),
            ("vc_mutation", 1.0),
            ("vc_crossover", 1.0),
            ("subtree_mutation", 1.0),
            ("subtree_crossover", 1.0),
            ("basis_crossover", 1.0),
            ("basis_delete", 1.0),
            ("basis_add", 1.0),
            ("basis_copy", 1.0),
        ]
        # The dispatch table is fixed for the operator set's lifetime, so
        # the name array and normalized probability vector are built once
        # here instead of on every vary() call.
        self._operator_names = [name for name, _ in self._operators]
        weights = np.array([weight for _, weight in self._operators],
                           dtype=float)
        self._operator_probabilities = weights / weights.sum()

    # ------------------------------------------------------------------
    # top-level entry point
    # ------------------------------------------------------------------
    def vary(self, parent_a: Individual, parent_b: Individual) -> Individual:
        """Produce one child from two parents using a randomly chosen operator.

        If the chosen operator cannot apply (e.g. deleting from a one-basis
        individual) it falls back to parameter mutation, which always applies.
        """
        operator_name = str(self.rng.choice(self._operator_names,
                                            p=self._operator_probabilities))
        child = self._dispatch(operator_name, parent_a, parent_b)
        if child is None:
            child = self.parameter_mutation(parent_a)
        # Offspring leave variation canonical: each operator already sorted
        # the commutative factors of its fresh spine nodes (everything else
        # is shared and canonical by the population invariant), which is
        # what lets order-variants share cached columns and compiled
        # kernels.
        return self._enforce_limits(child)

    def operator_names(self) -> Tuple[str, ...]:
        return tuple(self._operator_names)

    def _dispatch(self, name: str, parent_a: Individual,
                  parent_b: Individual) -> Optional[Individual]:
        if name == "parameter_mutation":
            return self.parameter_mutation(parent_a)
        if name == "vc_mutation":
            return self.vc_mutation(parent_a)
        if name == "vc_crossover":
            return self.vc_crossover(parent_a, parent_b)
        if name == "subtree_mutation":
            return self.subtree_mutation(parent_a)
        if name == "subtree_crossover":
            return self.subtree_crossover(parent_a, parent_b)
        if name == "basis_crossover":
            return self.basis_crossover(parent_a, parent_b)
        if name == "basis_delete":
            return self.basis_delete(parent_a)
        if name == "basis_add":
            return self.basis_add(parent_a)
        if name == "basis_copy":
            return self.basis_copy(parent_a, parent_b)
        raise KeyError(f"unknown operator {name!r}")

    # ------------------------------------------------------------------
    def _rebuild_child(self, parent: Individual, basis_index: int,
                       path: Tuple[Tuple, ...], new_node) -> Individual:
        """One-edit path-copied child: share everything but the spine."""
        child = parent.shared_clone()
        fresh: List[ExpressionNode] = []
        child.bases[basis_index] = _rebuild(child.bases[basis_index], path,
                                            new_node, fresh)
        _canonicalize_fresh(fresh)
        return child

    # ------------------------------------------------------------------
    # parameter level
    # ------------------------------------------------------------------
    def parameter_mutation(self, parent: Individual) -> Individual:
        """Cauchy-mutate one (or a few) random weights of the parent.

        The child shares the parent's untouched trees; the parent is never
        modified.
        """
        sites = _weight_sites(parent)
        if not sites:
            return self.basis_add(parent) or parent.shared_clone()
        n_mutations = 1 + int(self.rng.integers(0, 2))
        scale = self.settings.weight_mutation_scale
        # Draws interleave (index, cauchy, index, cauchy, ...), and a
        # repeated index composes: the second mutation perturbs the first
        # one's result -- exactly as mutating the weights in place would.
        pending = {}
        for _ in range(n_mutations):
            index = int(self.rng.integers(len(sites)))
            weight = sites[index][2]
            stored = pending.get(index, weight.stored)
            pending[index] = cauchy_mutated_value(
                stored, scale, self.rng, weight.exponent_bound)
        child = parent.shared_clone()
        fresh: List[ExpressionNode] = []
        for index, stored in pending.items():
            basis_index, path, weight = sites[index]
            replacement = Weight(stored=stored,
                                 exponent_bound=weight.exponent_bound)
            child.bases[basis_index] = _rebuild(child.bases[basis_index],
                                                path, replacement, fresh)
        # Canonicalize after *all* edits (weight values are part of the
        # factor sort keys); the paths above stay valid because nothing is
        # reordered until here.
        _canonicalize_fresh(fresh)
        return child

    def vc_mutation(self, parent: Individual) -> Optional[Individual]:
        """Add or subtract 1 to a random exponent of a random variable combo."""
        sites = _vc_sites(parent)
        if not sites:
            return None
        basis_index, path, owner = sites[int(self.rng.integers(len(sites)))]
        new_vc = owner.vc.mutated(self.rng, self.settings.max_vc_exponent,
                                  self.settings.allow_negative_exponents)
        replacement = ProductTerm(vc=new_vc, ops=list(owner.ops))
        return self._rebuild_child(parent, basis_index, path, replacement)

    def vc_crossover(self, parent_a: Individual,
                     parent_b: Individual) -> Optional[Individual]:
        """One-point crossover between a VC of each parent (child from parent A)."""
        sites_a = _vc_sites(parent_a)
        vcs_b = []
        for basis in parent_b.bases:
            vcs_b.extend(vc for _, vc in iter_variable_combos(basis))
        if not sites_a or not vcs_b:
            return None
        basis_index, path, owner = \
            sites_a[int(self.rng.integers(len(sites_a)))]
        vc_b = vcs_b[int(self.rng.integers(len(vcs_b)))]
        new_vc, _ = owner.vc.crossover(vc_b, self.rng)
        replacement = ProductTerm(vc=new_vc, ops=list(owner.ops))
        return self._rebuild_child(parent_a, basis_index, path, replacement)

    # ------------------------------------------------------------------
    # tree level
    # ------------------------------------------------------------------
    def subtree_mutation(self, parent: Individual) -> Optional[Individual]:
        """Replace a random subtree with a freshly generated one of the same symbol."""
        depth_budget = max(2, self.settings.max_tree_depth - 2)
        sites = _slot_sites(parent)
        if not sites:
            return None
        kind, basis_index, path, _ = sites[int(self.rng.integers(len(sites)))]
        if kind == "REPVC":
            replacement = self.generator.random_product_term(depth_budget)
        elif kind == "REPOP":
            replacement = self.generator.random_op_term(depth_budget)
        else:  # REPADD
            replacement = self.generator.random_weighted_sum(depth_budget)
        return self._rebuild_child(parent, basis_index, path, replacement)

    def subtree_crossover(self, parent_a: Individual,
                          parent_b: Individual) -> Optional[Individual]:
        """Swap subtrees between parents; only same-symbol roots are exchanged.

        The donor subtree is grafted by reference (never cloned).
        """
        donor_sites = _slot_sites(parent_b)
        child_sites = _slot_sites(parent_a)
        if not child_sites or not donor_sites:
            return None
        order = self.rng.permutation(len(child_sites))
        for slot_index in order:
            kind, basis_index, path, _ = child_sites[int(slot_index)]
            compatible = [d for d in donor_sites if d[0] == kind]
            if compatible:
                donor = compatible[int(self.rng.integers(len(compatible)))]
                return self._rebuild_child(parent_a, basis_index, path,
                                           donor[3])
        return None

    # ------------------------------------------------------------------
    # basis-function level
    # ------------------------------------------------------------------
    def basis_crossover(self, parent_a: Individual,
                        parent_b: Individual) -> Optional[Individual]:
        """New individual from >0 randomly chosen basis functions of each parent."""
        if not parent_a.bases or not parent_b.bases:
            return None
        chosen: List[ProductTerm] = []
        for parent in (parent_a, parent_b):
            n_take = 1 + int(self.rng.integers(len(parent.bases)))
            indices = self.rng.choice(len(parent.bases), size=n_take, replace=False)
            chosen.extend(parent.bases[i] for i in np.sort(indices))
        max_bases = self.settings.max_basis_functions
        if len(chosen) > max_bases:
            keep = self.rng.choice(len(chosen), size=max_bases, replace=False)
            chosen = [chosen[i] for i in np.sort(keep)]
        return Individual(bases=chosen)

    def basis_delete(self, parent: Individual) -> Optional[Individual]:
        """Delete one random basis function.

        Deleting the last basis function is allowed: the resulting individual
        is the constant (intercept-only) model, which the paper reports as
        the zero-complexity end of every trade-off curve.
        """
        if parent.n_bases < 1:
            return None
        index = int(self.rng.integers(parent.n_bases))
        bases = list(parent.bases)
        del bases[index]
        return parent.shared_clone(bases)

    def basis_add(self, parent: Individual) -> Optional[Individual]:
        """Add a randomly generated tree as a new basis function."""
        if parent.n_bases >= self.settings.max_basis_functions:
            return None
        bases = list(parent.bases)
        bases.append(self.generator.random_product_term())
        return parent.shared_clone(bases)

    def basis_copy(self, parent_a: Individual,
                   parent_b: Individual) -> Optional[Individual]:
        """Copy a subtree of parent B to become a new basis function of parent A."""
        if parent_a.n_bases >= self.settings.max_basis_functions:
            return None
        donor_sites = [site for site in _slot_sites(parent_b)
                       if site[0] == "REPVC"]
        if not donor_sites:
            return None
        donor = donor_sites[int(self.rng.integers(len(donor_sites)))]
        bases = list(parent_a.bases)
        bases.append(donor[3])
        return parent_a.shared_clone(bases)

    # ------------------------------------------------------------------
    def _enforce_limits(self, child: Individual) -> Individual:
        """Clamp basis count and tree depth to the configured limits."""
        max_bases = self.settings.max_basis_functions
        if len(child.bases) > max_bases:
            keep = self.rng.choice(len(child.bases), size=max_bases, replace=False)
            child.bases = [child.bases[i] for i in np.sort(keep)]
        max_depth = self.settings.max_tree_depth
        for index, basis in enumerate(child.bases):
            if cached_depth(basis) > max_depth:
                child.bases[index] = self.generator.random_product_term()
        return child

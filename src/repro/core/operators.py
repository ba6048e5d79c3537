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
material from the second parent is likewise shared, never cloned.  Positions
are paths of the edges each node declares
(:meth:`~repro.core.expression.ExpressionNode.edges`): one pre-order walk
lists the slot, weight and variable-combo sites the index draws pick from,
and each spine copy is the node's own
:meth:`~repro.core.expression.ExpressionNode.replace`.  Shared
subtrees keep their memoized structural keys/skeletons
(:mod:`repro.core.expression`), which is what keeps the evaluation caches
warm.  Only the fresh spine nodes need re-canonicalization
(:func:`repro.core.compile.canonicalize_fresh_product_term`).  The test
suite keeps the original clone-the-parent-and-edit-in-place operators as
the reference: both consume identical RNG draw sequences and produce
bit-identical children.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.expression import ExpressionNode, ProductTerm, cached_depth
from repro.core.compile import canonicalize_fresh_product_term
from repro.core.generator import ExpressionGenerator
from repro.core.individual import Individual
from repro.core.settings import CaffeineSettings
from repro.core.variable_combo import VariableCombo
from repro.core.weights import Weight, cauchy_mutated_value

__all__ = ["VariationOperators"]


# ----------------------------------------------------------------------
# path-addressed sites (the operators' editing primitive)
# ----------------------------------------------------------------------
# A site is (basis_index, path, occupant): ``path`` is the tuple of edges
# (:meth:`~repro.core.expression.ExpressionNode.edges`) from the basis root
# to the occupant, e.g. (("ops", 0), ("argument",), ("term", 1)).  Paths
# address positions, not objects, so they stay unambiguous even when one
# node object appears at several positions (possible after sharing donor
# material or when parent_a is parent_b).  Slot sites hold subtrees
# (product terms, operator terms and weighted sums, by their
# ``grammar_symbol`` REPVC/REPOP/REPADD); weight and variable-combo sites
# hold the terminals.

def _sites(individual: Individual, kind: type) -> List[Tuple]:
    """``(basis_index, path, occupant)`` for every position holding a
    ``kind``, read-only.

    Basis roots that are a ``kind`` come first; then each basis in turn,
    pre-order: at every node, that node's matching edges in edge order,
    then each child subtree.  This is the order the operators' index
    draws are defined against.
    """
    sites = [(index, (), basis) for index, basis in enumerate(individual.bases)
             if isinstance(basis, kind)]

    def walk(node: ExpressionNode, basis_index: int,
             path: Tuple[Tuple, ...]) -> None:
        edges = node.edges()
        for edge, child in edges:
            if isinstance(child, kind):
                sites.append((basis_index, path + (edge,), child))
        for edge, child in edges:
            if isinstance(child, ExpressionNode):
                walk(child, basis_index, path + (edge,))

    for index, basis in enumerate(individual.bases):
        walk(basis, index, ())
    return sites


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
            replacement = rebuild_from(dict(node.edges())[edge], index + 1)
        copy = node.replace(edge, replacement)
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
        # the name array, normalized probability vector and its CDF are
        # built once here instead of on every vary() call.  The CDF is
        # ``Generator.choice(names, p=...)``'s own (``p.cumsum()`` divided
        # by its last entry): choice draws one ``random()`` double and
        # searches it with ``side="right"``, which ``bisect_right`` does
        # on the same floats, so the draw stream and every pick are
        # unchanged at a fraction of choice's per-call cost.
        self._operator_names = [name for name, _ in self._operators]
        weights = np.array([weight for _, weight in self._operators],
                           dtype=float)
        self._operator_probabilities = weights / weights.sum()
        cdf = self._operator_probabilities.cumsum()
        cdf /= cdf[-1]
        self._operator_cdf = cdf.tolist()

    # ------------------------------------------------------------------
    # top-level entry point
    # ------------------------------------------------------------------
    def vary(self, parent_a: Individual, parent_b: Individual) -> Individual:
        """Produce one child from two parents using a randomly chosen operator.

        If the chosen operator cannot apply (e.g. deleting from a one-basis
        individual) it falls back to parameter mutation, which always applies.
        """
        operator_name = self._operator_names[
            bisect_right(self._operator_cdf, self.rng.random())]
        child = self._dispatch(operator_name, parent_a, parent_b)
        if child is None:
            child = self.parameter_mutation(parent_a)
        # Offspring leave variation canonical: each operator already sorted
        # the commutative factors of its fresh spine nodes (everything else
        # is shared and canonical by the population invariant), which is
        # what lets order-variants share cached columns and compiled
        # kernels.
        return self._enforce_limits(child)

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
        sites = _sites(parent, Weight)
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
        sites = _sites(parent, VariableCombo)
        if not sites:
            return None
        basis_index, path, vc = sites[int(self.rng.integers(len(sites)))]
        new_vc = vc.mutated(self.rng, self.settings.max_vc_exponent,
                            self.settings.allow_negative_exponents)
        return self._rebuild_child(parent, basis_index, path, new_vc)

    def vc_crossover(self, parent_a: Individual,
                     parent_b: Individual) -> Optional[Individual]:
        """One-point crossover between a VC of each parent (child from parent A)."""
        sites_a = _sites(parent_a, VariableCombo)
        sites_b = _sites(parent_b, VariableCombo)
        if not sites_a or not sites_b:
            return None
        basis_index, path, vc_a = \
            sites_a[int(self.rng.integers(len(sites_a)))]
        vc_b = sites_b[int(self.rng.integers(len(sites_b)))][2]
        new_vc, _ = vc_a.crossover(vc_b, self.rng)
        return self._rebuild_child(parent_a, basis_index, path, new_vc)

    # ------------------------------------------------------------------
    # tree level
    # ------------------------------------------------------------------
    def subtree_mutation(self, parent: Individual) -> Optional[Individual]:
        """Replace a random subtree with a freshly generated one of the same symbol."""
        depth_budget = max(2, self.settings.max_tree_depth - 2)
        sites = _sites(parent, ExpressionNode)
        if not sites:
            return None
        basis_index, path, slot = sites[int(self.rng.integers(len(sites)))]
        if slot.grammar_symbol == "REPVC":
            replacement = self.generator.random_product_term(depth_budget)
        elif slot.grammar_symbol == "REPOP":
            replacement = self.generator.random_op_term(depth_budget)
        else:  # REPADD
            replacement = self.generator.random_weighted_sum(depth_budget)
        return self._rebuild_child(parent, basis_index, path, replacement)

    def subtree_crossover(self, parent_a: Individual,
                          parent_b: Individual) -> Optional[Individual]:
        """Swap subtrees between parents; only same-symbol roots are exchanged.

        The donor subtree is grafted by reference (never cloned).
        """
        donor_sites = _sites(parent_b, ExpressionNode)
        child_sites = _sites(parent_a, ExpressionNode)
        if not child_sites or not donor_sites:
            return None
        donors: Dict[str, List[ExpressionNode]] = {}
        for _, _, donor in donor_sites:
            donors.setdefault(donor.grammar_symbol, []).append(donor)
        order = self.rng.permutation(len(child_sites))
        for slot_index in order:
            basis_index, path, slot = child_sites[int(slot_index)]
            compatible = donors.get(slot.grammar_symbol)
            if compatible:
                donor = compatible[int(self.rng.integers(len(compatible)))]
                return self._rebuild_child(parent_a, basis_index, path, donor)
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
        donor_sites = _sites(parent_b, ProductTerm)
        if not donor_sites:
            return None
        donor = donor_sites[int(self.rng.integers(len(donor_sites)))]
        bases = list(parent_a.bases)
        bases.append(donor[2])
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

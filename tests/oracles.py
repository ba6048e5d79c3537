"""Reference implementations the production paths are tested against.

The library ships exactly one implementation per layer.  Each has a
plainer reference here that it must match bit for bit:

* columns -- :class:`InterpColumnBackend` walks every tree node by node
  instead of running compiled NumPy tapes;
* fits -- :class:`DirectFitEvaluator` runs a full ``fit_linear`` per
  individual instead of gathering normal equations from the gram pool;
* residuals -- :class:`ScalarResidualBackend` scores one individual at a
  time instead of one stacked pass per basis width;
* Pareto -- :func:`nondominated_indices`, :func:`fast_nondominated_sort`
  and :func:`crowding_distances` are Deb's definitions in pure Python;
* genome -- :class:`DeepcopyVariationOperators` clones the whole parent and
  edits the clone in place instead of path-copying.

:func:`reference_layers` swaps any of them into the engine for the duration
of a ``with`` block, so a whole fixed-seed run can be compared against the
production run.  ``benchmarks/bench_evaluation.py`` and
``benchmarks/bench_pareto.py`` import this module for their
production-vs-reference equivalence keys.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.core import engine, evaluation, model, nsga2, pareto
from repro.core.compile import canonicalize_factors
from repro.core.evaluation import PopulationEvaluator, evaluate_individual_inplace
from repro.core.expression import (
    BinaryOpTerm,
    ConditionalOpTerm,
    ExpressionNode,
    ProductTerm,
    UnaryOpTerm,
    WeightedSum,
    cached_structural_key,
    iter_nodes,
    iter_variable_combos,
    iter_weights,
)
from repro.core.individual import Individual, evaluate_basis_column
from repro.core.operators import VariationOperators
from repro.core.pareto import dominates
from repro.data.metrics import relative_rmse
from repro.regression.least_squares import LinearFit

#: the layers :func:`reference_layers` can swap
LAYERS = ("columns", "fits", "residuals", "pareto", "genome")


# ----------------------------------------------------------------------
# columns
# ----------------------------------------------------------------------
class InterpColumnBackend:
    """Node-by-node tree interpretation; keys are plain structural keys."""

    def __init__(self, X: np.ndarray, settings=None) -> None:
        self.X = X

    def basis_key(self, basis: ProductTerm) -> Tuple:
        return cached_structural_key(basis)

    def evaluate(self, basis: ProductTerm, key: Tuple) -> np.ndarray:
        return evaluate_basis_column(basis, self.X)


# ----------------------------------------------------------------------
# fits
# ----------------------------------------------------------------------
class DirectFitEvaluator(PopulationEvaluator):
    """The evaluator with one full ``fit_linear`` per individual.

    Columns, caches and complexities are the production evaluator's; only
    the fit replaces the gram-pool gather-and-solve with
    :func:`~repro.core.evaluation.evaluate_individual_inplace`.
    """

    def _prepare_fits(self, pending) -> None:
        """Direct fits need no batch precomputation."""

    def _fit(self, individual: Individual, basis_keys: List[Tuple]) -> None:
        evaluate_individual_inplace(
            individual, self.X, self.y, self.settings,
            basis_matrix=self._matrix_from_keys(basis_keys, individual.bases),
            normalization=self.normalization,
            complexity=self._complexity_from_keys(basis_keys,
                                                  individual.bases))


# ----------------------------------------------------------------------
# residuals
# ----------------------------------------------------------------------
class ScalarResidualBackend:
    """One prediction/residual pass per fit."""

    def __init__(self, y: np.ndarray, normalization: float) -> None:
        self.y = np.ascontiguousarray(np.asarray(y, dtype=float).ravel())
        self.normalization = float(normalization)

    def error(self, fit: LinearFit, basis_matrix: np.ndarray) -> float:
        return relative_rmse(self.y, fit.predict(basis_matrix),
                             self.normalization)

    def errors(self, fits: Sequence[LinearFit],
               basis_matrices: Sequence[np.ndarray]) -> List[float]:
        return [self.error(fit, basis_matrix)
                for fit, basis_matrix in zip(fits, basis_matrices)]


# ----------------------------------------------------------------------
# Pareto kernels (Deb's definitions; fronts in ascending index order)
# ----------------------------------------------------------------------
def nondominated_indices(objective_vectors) -> List[int]:
    n = len(objective_vectors)
    return [i for i in range(n)
            if not any(i != j and dominates(objective_vectors[j],
                                            objective_vectors[i])
                       for j in range(n))]


def fast_nondominated_sort(objective_vectors) -> List[List[int]]:
    n = len(objective_vectors)
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: List[List[int]] = [[]]
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(objective_vectors[i], objective_vectors[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(objective_vectors[j], objective_vectors[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
        if domination_count[i] == 0:
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        next_front: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    next_front.append(j)
        next_front.sort()
        current += 1
        fronts.append(next_front)
    fronts.pop()  # the last front is always empty
    return fronts


def crowding_distances(objective_vectors) -> List[float]:
    n = len(objective_vectors)
    if n == 0:
        return []
    distances = [0.0] * n
    for m in range(len(objective_vectors[0])):
        order = sorted(range(n), key=lambda i, m=m: objective_vectors[i][m])
        lowest = objective_vectors[order[0]][m]
        highest = objective_vectors[order[-1]][m]
        distances[order[0]] = float("inf")
        distances[order[-1]] = float("inf")
        span = highest - lowest
        if span <= 0 or not (span < float("inf")):
            continue
        for position in range(1, n - 1):
            previous_value = objective_vectors[order[position - 1]][m]
            next_value = objective_vectors[order[position + 1]][m]
            distances[order[position]] += (next_value - previous_value) / span
    return distances


# ----------------------------------------------------------------------
# genome: clone the parent, edit the clone in place
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Slot:
    """A replaceable position in an individual's trees.

    ``kind`` is the grammar symbol of the node occupying the slot
    (``"REPVC"`` for product terms, ``"REPOP"`` for operator terms,
    ``"REPADD"`` for weighted sums); ``get``/``set`` read and replace it.
    """

    kind: str
    get: Callable[[], ExpressionNode]
    set: Callable[[ExpressionNode], None]


def _list_slot(kind: str, container: list, index: int) -> Slot:
    return Slot(kind=kind,
                get=lambda: container[index],
                set=lambda node: container.__setitem__(index, node))


def _attr_slot(kind: str, owner: object, attribute: str) -> Slot:
    return Slot(kind=kind,
                get=lambda: getattr(owner, attribute),
                set=lambda node: setattr(owner, attribute, node))


def collect_slots(individual: Individual,
                  include_bases: bool = True) -> List[Slot]:
    """Every grammar-legal replacement point, as in-place setters.

    Same order as the production operators' path-addressed sites, so index
    draws against either pick the same grammatical position.
    """
    slots: List[Slot] = []
    if include_bases:
        for index in range(len(individual.bases)):
            slots.append(_list_slot("REPVC", individual.bases, index))
    for basis in individual.bases:
        for node in iter_nodes(basis):
            if isinstance(node, ProductTerm):
                for op_index in range(len(node.ops)):
                    slots.append(_list_slot("REPOP", node.ops, op_index))
            elif isinstance(node, WeightedSum):
                for term in node.terms:
                    slots.append(_attr_slot("REPVC", term, "term"))
            elif isinstance(node, UnaryOpTerm):
                slots.append(_attr_slot("REPADD", node, "argument"))
            elif isinstance(node, BinaryOpTerm):
                if isinstance(node.left, WeightedSum):
                    slots.append(_attr_slot("REPADD", node, "left"))
                if isinstance(node.right, WeightedSum):
                    slots.append(_attr_slot("REPADD", node, "right"))
            elif isinstance(node, ConditionalOpTerm):
                slots.append(_attr_slot("REPADD", node, "test"))
                slots.append(_attr_slot("REPADD", node, "if_true"))
                slots.append(_attr_slot("REPADD", node, "if_false"))
                if isinstance(node.threshold, WeightedSum):
                    slots.append(_attr_slot("REPADD", node, "threshold"))
    return slots


class DeepcopyVariationOperators(VariationOperators):
    """Variation by cloning the whole parent and editing the clone.

    Consumes exactly the production operators' RNG draws; every child is
    canonicalized by a full-tree pass at the end of :meth:`vary`.
    """

    def vary(self, parent_a: Individual, parent_b: Individual) -> Individual:
        child = super().vary(parent_a, parent_b)
        for basis in child.bases:
            canonicalize_factors(basis)
        return child

    def _enforce_limits(self, child: Individual) -> Individual:
        max_bases = self.settings.max_basis_functions
        if len(child.bases) > max_bases:
            keep = self.rng.choice(len(child.bases), size=max_bases,
                                   replace=False)
            child.bases = [child.bases[i] for i in np.sort(keep)]
        for index, basis in enumerate(child.bases):
            if basis.depth > self.settings.max_tree_depth:
                child.bases[index] = self.generator.random_product_term()
        return child

    def parameter_mutation(self, parent: Individual) -> Individual:
        child = parent.clone()
        weights = []
        for basis in child.bases:
            weights.extend(iter_weights(basis))
        if not weights:
            return self.basis_add(parent) or child
        n_mutations = 1 + int(self.rng.integers(0, 2))
        for _ in range(n_mutations):
            weight = weights[int(self.rng.integers(len(weights)))]
            mutated = weight.mutated(self.rng,
                                     self.settings.weight_mutation_scale)
            weight.stored = mutated.stored
        return child

    def vc_mutation(self, parent: Individual) -> Optional[Individual]:
        child = parent.clone()
        owners = []
        for basis in child.bases:
            owners.extend(iter_variable_combos(basis))
        if not owners:
            return None
        owner, vc = owners[int(self.rng.integers(len(owners)))]
        owner.vc = vc.mutated(self.rng, self.settings.max_vc_exponent,
                              self.settings.allow_negative_exponents)
        return child

    def vc_crossover(self, parent_a: Individual,
                     parent_b: Individual) -> Optional[Individual]:
        child = parent_a.clone()
        owners_a = []
        for basis in child.bases:
            owners_a.extend(iter_variable_combos(basis))
        owners_b = []
        for basis in parent_b.bases:
            owners_b.extend(iter_variable_combos(basis))
        if not owners_a or not owners_b:
            return None
        owner_a, vc_a = owners_a[int(self.rng.integers(len(owners_a)))]
        _, vc_b = owners_b[int(self.rng.integers(len(owners_b)))]
        owner_a.vc, _ = vc_a.crossover(vc_b, self.rng)
        return child

    def subtree_mutation(self, parent: Individual) -> Optional[Individual]:
        depth_budget = max(2, self.settings.max_tree_depth - 2)
        child = parent.clone()
        slots = collect_slots(child)
        if not slots:
            return None
        slot = slots[int(self.rng.integers(len(slots)))]
        if slot.kind == "REPVC":
            slot.set(self.generator.random_product_term(depth_budget))
        elif slot.kind == "REPOP":
            slot.set(self.generator.random_op_term(depth_budget))
        else:  # REPADD
            slot.set(self.generator.random_weighted_sum(depth_budget))
        return child

    def subtree_crossover(self, parent_a: Individual,
                          parent_b: Individual) -> Optional[Individual]:
        """Clones exactly the transplanted donor subtree, never the donor."""
        donor_slots = collect_slots(parent_b)
        child = parent_a.clone()
        child_slots = collect_slots(child)
        if not child_slots or not donor_slots:
            return None
        for slot_index in self.rng.permutation(len(child_slots)):
            slot = child_slots[int(slot_index)]
            compatible = [d for d in donor_slots if d.kind == slot.kind]
            if compatible:
                donor = compatible[int(self.rng.integers(len(compatible)))]
                slot.set(donor.get().clone())
                return child
        return None

    def basis_crossover(self, parent_a: Individual,
                        parent_b: Individual) -> Optional[Individual]:
        if not parent_a.bases or not parent_b.bases:
            return None
        chosen: List[ProductTerm] = []
        for parent in (parent_a, parent_b):
            n_take = 1 + int(self.rng.integers(len(parent.bases)))
            indices = self.rng.choice(len(parent.bases), size=n_take,
                                      replace=False)
            chosen.extend(parent.bases[i].clone() for i in np.sort(indices))
        max_bases = self.settings.max_basis_functions
        if len(chosen) > max_bases:
            keep = self.rng.choice(len(chosen), size=max_bases, replace=False)
            chosen = [chosen[i] for i in np.sort(keep)]
        return Individual(bases=chosen)

    def basis_delete(self, parent: Individual) -> Optional[Individual]:
        if parent.n_bases < 1:
            return None
        child = parent.clone()
        del child.bases[int(self.rng.integers(len(child.bases)))]
        return child

    def basis_add(self, parent: Individual) -> Optional[Individual]:
        if parent.n_bases >= self.settings.max_basis_functions:
            return None
        child = parent.clone()
        child.bases.append(self.generator.random_product_term())
        return child

    def basis_copy(self, parent_a: Individual,
                   parent_b: Individual) -> Optional[Individual]:
        if parent_a.n_bases >= self.settings.max_basis_functions:
            return None
        donor_slots = [slot for slot in collect_slots(parent_b)
                       if slot.kind == "REPVC"]
        if not donor_slots:
            return None
        child = parent_a.clone()
        slot = donor_slots[int(self.rng.integers(len(donor_slots)))]
        child.bases.append(slot.get().clone())
        return child


# ----------------------------------------------------------------------
# swapping references into the engine
# ----------------------------------------------------------------------
@contextlib.contextmanager
def reference_layers(*layers: str) -> Iterator[None]:
    """Run the engine on the reference implementation of ``layers``.

    Inside the block, every :class:`~repro.core.engine.CaffeineEngine` (and,
    for ``"columns"``/``"residuals"``, every evaluator or test-set scoring
    pass) built uses the named references above.  Serial
    :class:`~repro.core.session.Session` runs execute in this process, so
    ``Session(jobs=1)`` picks the swap up too.
    """
    unknown = sorted(set(layers) - set(LAYERS))
    if unknown:
        raise ValueError(f"unknown layers {unknown} (known: {LAYERS})")
    with pytest.MonkeyPatch.context() as patch:
        if "columns" in layers:
            patch.setattr(evaluation, "CompiledColumnBackend",
                          InterpColumnBackend)
        if "fits" in layers:
            patch.setattr(engine, "PopulationEvaluator", DirectFitEvaluator)
        if "residuals" in layers:
            patch.setattr(evaluation, "BatchedResidualBackend",
                          ScalarResidualBackend)
            patch.setattr(model, "BatchedResidualBackend",
                          ScalarResidualBackend)
        if "pareto" in layers:
            patch.setattr(pareto, "nondominated_indices", nondominated_indices)
            patch.setattr(nsga2, "fast_nondominated_sort",
                          fast_nondominated_sort)
            patch.setattr(nsga2, "crowding_distances", crowding_distances)
        if "genome" in layers:
            patch.setattr(engine, "VariationOperators",
                          DeepcopyVariationOperators)
        yield

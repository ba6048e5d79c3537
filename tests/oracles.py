"""Reference implementations the production paths are tested against.

The library ships exactly one implementation per layer.  Each has a
plainer reference here that it must match bit for bit:

* columns -- :class:`InterpColumnBackend` walks every tree node by node
  instead of running compiled NumPy tapes;
* fits -- :class:`DirectFitEvaluator` fits each individual on its own
  (:func:`evaluate_individual_inplace`): :func:`fit_linear` builds normal
  equations from the assembled basis matrix and solves once, and
  :func:`predict_linear` predicts left to right -- instead of gathering
  normal equations from the gram pool and solving each basis width in one
  stacked ``fit_linear_from_gram_batch`` call;
* residuals -- :class:`ScalarResidualBackend` scores one individual at a
  time with :func:`predict_linear` instead of one stacked
  ``predict_linear_batch`` pass per basis width;
* Pareto -- :func:`nondominated_indices`, :func:`fast_nondominated_sort`
  and :func:`crowding_distances` are Deb's definitions in pure Python for
  any number of objectives (production sorts exactly two, with one
  lexicographic sweep), and :func:`environmental_selection` is the plain
  fill-by-fronts survivor selection that ``nsga2.select_and_rerank``
  must reproduce from its single sort;
* genome -- :class:`DeepcopyVariationOperators` draws each operator with
  ``Generator.choice`` instead of searching a cached CDF, clones the whole
  parent and edits the clone in place instead of path-copying, and
  canonicalizes every child with the full-tree pass.

:func:`reference_layers` swaps any of them into the engine for the duration
of a ``with`` block, so a whole fixed-seed run can be compared against the
production run.  ``test_equivalence_keys.py`` runs the required
equivalence keys through it, and ``benchmarks/bench_pareto.py`` times the
Pareto kernels against it.

The OTA's analytic performance model has a reference too:
:func:`ota_small_signal_netlist` is the OTA's small-signal circuit,
:func:`ac_solve` solves it one frequency at a time, and
:func:`dc_gain_db`, :func:`unity_gain_frequency` and :func:`phase_margin`
read ``ALF``, ``fu`` and ``PM`` off the response.

The DOE tests check the orthogonal-array construction with
:func:`is_orthogonal_array`, which counts level combinations directly.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
from typing import Callable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.circuits.ota import SymmetricalOta
from repro.core import engine, evaluation, nsga2, pareto
from repro.core.compile import canonicalize_factors
from repro.core.complexity import model_complexity
from repro.core.evaluation import PopulationEvaluator
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
from repro.core.settings import CaffeineSettings
from repro.data.metrics import error_normalization, relative_rmse
from repro.regression.least_squares import (
    LinearFit,
    design_matrix,
    fit_linear_from_gram_batch,
    pair_dots,
)

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
def evaluate_basis_matrix(bases: Sequence[ProductTerm],
                          X: np.ndarray) -> np.ndarray:
    """The ``(n_samples, n_bases)`` matrix of interpreted basis columns."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-D")
    if not bases:
        return np.zeros((X.shape[0], 0))
    return np.column_stack([evaluate_basis_column(basis, X)
                            for basis in bases])


def raw_normal_statistics(basis_matrix: np.ndarray, y: np.ndarray
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(gram, colsums, ydots)`` of one assembled matrix.

    The raw (unscaled, no-intercept) normal-equation blocks, each entry by
    the canonical :func:`~repro.regression.least_squares.pair_dots` recipe
    -- the scalars the gram pool caches per column and pair.
    """
    n_bases = basis_matrix.shape[1]
    rows = np.ascontiguousarray(basis_matrix.T)
    colsums = rows.sum(axis=1)
    ydots = (rows * y[None, :]).sum(axis=1)
    upper_i, upper_j = np.triu_indices(n_bases)
    dots = pair_dots(rows[upper_i], rows[upper_j])
    gram = np.empty((n_bases, n_bases))
    gram[upper_i, upper_j] = dots
    gram[upper_j, upper_i] = dots
    return gram, colsums, ydots


def fit_linear(basis_matrix: np.ndarray, y: np.ndarray,
               ridge: float = 1e-10) -> Optional[LinearFit]:
    """Fit ``y ~ w0 + basis_matrix @ w`` on its own, one solve.

    Column-scaled, slightly ridged normal equations (the intercept is never
    penalized) built from the assembled matrix; a singular system falls
    back to ``lstsq`` on the scaled design matrix.  ``None`` when an input
    or the solution is not finite.
    """
    basis_matrix = np.asarray(basis_matrix, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if basis_matrix.ndim != 2:
        raise ValueError("basis_matrix must be 2-D (n_samples, n_bases)")
    if basis_matrix.shape[0] != y.shape[0]:
        raise ValueError("basis_matrix and y disagree on the number of samples")
    if y.size == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.all(np.isfinite(basis_matrix)) or not np.all(np.isfinite(y)):
        return None
    n_samples, n_bases = basis_matrix.shape
    if n_bases == 0:
        return LinearFit(intercept=float(np.mean(y)),
                         coefficients=np.zeros(0))
    gram, colsums, ydots = raw_normal_statistics(basis_matrix, y)
    scales = np.sqrt(gram.diagonal() / n_samples)
    scales[scales < 1e-300] = 1.0
    size = n_bases + 1
    full_scales = np.empty(size)
    full_scales[0] = 1.0
    full_scales[1:] = scales
    raw = np.empty((size, size))
    raw[0, 0] = float(n_samples)
    raw[0, 1:] = colsums
    raw[1:, 0] = colsums
    raw[1:, 1:] = gram
    raw_rhs = np.empty(size)
    raw_rhs[0] = float(y.sum())
    raw_rhs[1:] = ydots
    scaled_gram = raw / (full_scales[:, None] * full_scales[None, :])
    rhs = raw_rhs / full_scales
    diagonal = np.arange(size)
    ridge_term = ridge * max(1.0, float(scaled_gram[diagonal, diagonal].sum()))
    scaled_gram[diagonal[1:], diagonal[1:]] += ridge_term
    try:
        solution = np.linalg.solve(scaled_gram, rhs)
    except np.linalg.LinAlgError:
        solution, *_ = np.linalg.lstsq(design_matrix(basis_matrix / scales),
                                       y, rcond=None)
    if not np.all(np.isfinite(solution)):
        return None
    return LinearFit(intercept=float(solution[0]),
                     coefficients=solution[1:] / scales)


def predict_linear(fit: LinearFit, basis_matrix: np.ndarray) -> np.ndarray:
    """``w0 + sum_j wj * basis_matrix[:, j]``, one column at a time."""
    basis_matrix = np.asarray(basis_matrix, dtype=float)
    if basis_matrix.ndim != 2 or basis_matrix.shape[1] != fit.n_terms:
        raise ValueError(f"fit has {fit.n_terms} terms but basis matrix has "
                         f"shape {basis_matrix.shape}")
    predictions = np.full(basis_matrix.shape[0], float(fit.intercept))
    for j in range(basis_matrix.shape[1]):
        predictions += fit.coefficients[j] * basis_matrix[:, j]
    return predictions


def gram_fit(basis_matrix: np.ndarray, y: np.ndarray,
             ridge: float = 1e-10) -> Optional[LinearFit]:
    """The production solver on one finite assembled matrix.

    Feeds :func:`raw_normal_statistics` to
    ``fit_linear_from_gram_batch`` as a batch of one, the way tests drive
    the one solver without an evaluator.
    """
    basis_matrix = np.asarray(basis_matrix, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    gram, colsums, ydots = raw_normal_statistics(basis_matrix, y)
    return fit_linear_from_gram_batch(gram[None], colsums[None], ydots[None],
                                      float(y.sum()), [basis_matrix], y,
                                      ridge)[0]


def evaluate_individual_inplace(individual: Individual, X: np.ndarray,
                                y: np.ndarray, settings: CaffeineSettings,
                                basis_matrix: Optional[np.ndarray] = None,
                                normalization: Optional[float] = None,
                                complexity: Optional[float] = None) -> None:
    """Fit one individual with :func:`fit_linear` and set both objectives.

    ``basis_matrix``/``normalization``/``complexity`` let callers that
    already hold those skip recomputing them.
    """
    y = np.asarray(y, dtype=float)
    individual.complexity = (complexity if complexity is not None
                             else model_complexity(individual.bases, settings))
    individual.normalization = (normalization if normalization is not None
                                else error_normalization(y))
    if basis_matrix is None:
        basis_matrix = evaluate_basis_matrix(individual.bases, X)
    fit = fit_linear(basis_matrix, y)
    if fit is None:
        individual.fit = None
        individual.error = float("inf")
        return
    individual.fit = fit
    individual.error = relative_rmse(y, predict_linear(fit, basis_matrix),
                                     individual.normalization)


class DirectFitEvaluator(PopulationEvaluator):
    """The evaluator with one :func:`fit_linear` per individual.

    Columns, caches and complexities are the production evaluator's; only
    the batched gram-pool gather-and-solve is replaced by
    :func:`evaluate_individual_inplace`.
    """

    def _prepare_fits(self, pending) -> List[Tuple[Optional[LinearFit], float]]:
        results = []
        for individual, keys in pending:
            evaluate_individual_inplace(
                individual, self.X, self.y, self.settings,
                basis_matrix=self.basis_matrix(individual.bases),
                normalization=self.normalization,
                complexity=self._complexity_from_keys(keys, individual.bases))
            results.append((individual.fit, individual.error))
        return results


# ----------------------------------------------------------------------
# residuals
# ----------------------------------------------------------------------
class ScalarResidualBackend:
    """One prediction/residual pass per fit."""

    def __init__(self, y: np.ndarray, normalization: float) -> None:
        self.y = np.ascontiguousarray(np.asarray(y, dtype=float).ravel())
        self.normalization = float(normalization)

    def error(self, fit: LinearFit, basis_matrix: np.ndarray) -> float:
        return relative_rmse(self.y, predict_linear(fit, basis_matrix),
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


def environmental_selection(population, target_size: int) -> list:
    """Deb's survivor selection: fill by fronts, truncate the one partial
    front by descending crowding, ties kept in front order."""
    vectors = [tuple(ind.objectives) for ind in population]
    survivors: list = []
    for front in fast_nondominated_sort(vectors):
        if len(survivors) + len(front) <= target_size:
            survivors.extend(population[i] for i in front)
            continue
        crowding = crowding_distances([vectors[i] for i in front])
        order = sorted(range(len(front)), key=crowding.__getitem__,
                       reverse=True)
        remaining = target_size - len(survivors)
        survivors.extend(population[front[k]] for k in order[:remaining])
        break
    return survivors


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


def collect_slots(individual: Individual) -> List[Slot]:
    """Every grammar-legal replacement point, as in-place setters.

    Same order as the production operators' path-addressed sites (a
    conditional's in edge order: test, threshold, if_true, if_false), so
    index draws against either pick the same grammatical position.
    """
    slots: List[Slot] = [_list_slot("REPVC", individual.bases, index)
                         for index in range(len(individual.bases))]
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
                if isinstance(node.threshold, WeightedSum):
                    slots.append(_attr_slot("REPADD", node, "threshold"))
                slots.append(_attr_slot("REPADD", node, "if_true"))
                slots.append(_attr_slot("REPADD", node, "if_false"))
    return slots


class DeepcopyVariationOperators(VariationOperators):
    """Variation by cloning the whole parent and editing the clone.

    Consumes exactly the production operators' RNG draws; every child is
    canonicalized by a full-tree pass at the end of :meth:`vary`.
    """

    def vary(self, parent_a: Individual, parent_b: Individual) -> Individual:
        """Picks the operator with ``Generator.choice`` over the normalized
        probabilities, not production's cached-CDF search."""
        operator_name = str(self.rng.choice(self._operator_names,
                                            p=self._operator_probabilities))
        child = self._dispatch(operator_name, parent_a, parent_b)
        if child is None:
            child = self.parameter_mutation(parent_a)
        child = self._enforce_limits(child)
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
# OTA small signal: a linear AC solve of the OTA's own netlist
# ----------------------------------------------------------------------
#: a netlist element: ``(kind, nodes, value)``, see :func:`ac_solve`
Element = Tuple[str, Tuple[str, ...], float]

#: 10 Hz to 1 GHz, 30 points per decade
OTA_SWEEP_HZ = np.logspace(1.0, 9.0, 241)


def ota_small_signal_netlist(ota: SymmetricalOta,
                             point: Mapping[str, float]) -> Tuple[Element, ...]:
    """The OTA's small-signal circuit at ``point``, driven by 1 V AC at ``inp``.

    Each device becomes its ``gm`` (a VCCS), its ``gds`` (folded into one
    resistor per node) and its capacitances, from the same operating points
    and load capacitance as :meth:`SymmetricalOta.performances`.  The
    cross-check asserts that ``V(out)`` reproduces that model's ``ALF``,
    ``fu`` and ``PM`` at ``OTA_NOMINAL_POINT`` only; the hand-analysis
    formulas drift from this circuit elsewhere in the design space.
    """
    resolved = ota.validate_point(point)
    devices = ota.formulation.operating_points(resolved)
    m1, m2, m3, m4, m6 = (devices[name]
                          for name in ("M1", "M2", "M3", "M4", "M6"))
    mirror_ratio = resolved["id2"] / resolved["id1"]
    c_node_nmos = m2.cgs + m6.cgs + m2.cdb + m1.cdb + m1.cgd
    c_node_pmos = m3.cgs + m4.cgs + m3.cdb + m3.cgd
    return (
        # Full differential input on one source.
        ("V", ("inp", "0"), 1.0),
        # Path A: half the pair current into the NMOS diode at n1, mirrored
        # with ratio B straight to the output (sinking).
        ("G", ("0", "n1", "inp", "0"), 0.5 * m1.gm),
        ("G", ("n1", "0", "n1", "0"), m2.gm),
        ("R", ("n1", "0"), 1.0 / (m1.gds + m2.gds)),
        ("C", ("n1", "0"), c_node_nmos),
        ("G", ("out", "0", "n1", "0"), mirror_ratio * m2.gm),
        # Path B: the other half into the NMOS diode at n0, mirrored into
        # the PMOS diode at n2, whose output device M4 sources the output.
        ("G", ("n0", "0", "inp", "0"), 0.5 * m1.gm),
        ("G", ("n0", "0", "n0", "0"), m2.gm),
        ("R", ("n0", "0"), 1.0 / (m1.gds + m2.gds)),
        ("C", ("n0", "0"), c_node_nmos),
        ("G", ("n2", "0", "n0", "0"), mirror_ratio * m2.gm),
        ("G", ("n2", "0", "n2", "0"), m3.gm),
        ("R", ("n2", "0"), 1.0 / (m3.gds + m6.gds)),
        ("C", ("n2", "0"), c_node_pmos),
        ("G", ("out", "0", "n2", "0"), m4.gm),
        # Output conductance and total load capacitance.
        ("R", ("out", "0"), 1.0 / (m4.gds + m6.gds)),
        ("C", ("out", "0"), ota.load_capacitance + m4.cdb + m6.cdb
         + m4.cgd + m6.cgd),
    )


def ac_solve(netlist: Sequence[Element], output: str,
             frequencies_hz: Sequence[float]) -> np.ndarray:
    """``V(output)`` over ``frequencies_hz``: one complex MNA solve each.

    ``netlist`` holds ``("V", (p, n), ac)`` -- exactly one source, whose
    branch current is the last unknown -- plus any number of
    ``("G", (p, n, cp, cn), gm)`` (``gm * (v(cp) - v(cn))`` leaves ``p``
    and enters ``n``), ``("R", (a, b), ohms)`` and ``("C", (a, b), farads)``.
    Node ``"0"`` is ground.
    """
    nodes: dict[str, int] = {}
    for _kind, terminals, _value in netlist:
        for node in terminals:
            if node != "0":
                nodes.setdefault(node, len(nodes))
    size = len(nodes) + 1
    response = np.empty(len(frequencies_hz), dtype=complex)
    for k, frequency in enumerate(frequencies_hz):
        omega = 2.0 * np.pi * frequency
        matrix = np.zeros((size, size), dtype=complex)
        rhs = np.zeros(size, dtype=complex)
        for kind, terminals, value in netlist:
            if kind == "V":
                rhs[-1] += value
                for node, sign in zip(terminals, (1.0, -1.0), strict=True):
                    if node != "0":
                        matrix[nodes[node], -1] += sign
                        matrix[-1, nodes[node]] += sign
                continue
            if kind == "G":
                gain = value
            else:
                # A two-terminal admittance is a VCCS controlled by its own
                # terminals.
                gain = 1.0 / value if kind == "R" else 1j * omega * value
                terminals = terminals * 2
            out_pos, out_neg, ctrl_pos, ctrl_neg = terminals
            for out, out_sign in ((out_pos, 1.0), (out_neg, -1.0)):
                for ctrl, ctrl_sign in ((ctrl_pos, 1.0), (ctrl_neg, -1.0)):
                    if out != "0" and ctrl != "0":
                        matrix[nodes[out], nodes[ctrl]] += (
                            out_sign * ctrl_sign * gain)
        response[k] = np.linalg.solve(matrix, rhs)[nodes[output]]
    return response


def dc_gain_db(response: np.ndarray) -> float:
    """Gain at the sweep's first frequency in dB -- the paper's ``ALF``."""
    return 20.0 * math.log10(abs(response[0]))


def unity_gain_frequency(frequencies_hz: np.ndarray,
                         response: np.ndarray) -> float:
    """First crossing of ``|H| = 1``, log-log interpolated -- ``fu``.

    NaN when the gain starts at or below 1 or never crosses it in the sweep.
    """
    magnitude = np.abs(response)
    below = np.flatnonzero(magnitude <= 1.0)
    if magnitude[0] <= 1.0 or below.size == 0:
        return float("nan")
    hi = int(below[0])
    log_m = math.log10(magnitude[hi - 1]), math.log10(magnitude[hi])
    log_f = (math.log10(frequencies_hz[hi - 1]),
             math.log10(frequencies_hz[hi]))
    t = -log_m[0] / (log_m[1] - log_m[0])
    return float(10 ** (log_f[0] + t * (log_f[1] - log_f[0])))


def phase_margin(frequencies_hz: np.ndarray, response: np.ndarray) -> float:
    """``180`` plus the phase lost from DC to ``fu``, in degrees -- ``PM``.

    NaN when there is no unity-gain crossing in the sweep.
    """
    fu = unity_gain_frequency(frequencies_hz, response)
    if math.isnan(fu):
        return float("nan")
    phase = np.degrees(np.unwrap(np.angle(response)))
    phase_fu = np.interp(math.log10(fu), np.log10(frequencies_hz), phase)
    return float(180.0 + (phase_fu - phase[0]))


# ----------------------------------------------------------------------
# DOE: the orthogonal-array property, checked by counting
# ----------------------------------------------------------------------
def is_orthogonal_array(design: np.ndarray, levels: int,
                        strength: int = 2) -> bool:
    """Check the orthogonal-array property of ``design``.

    Every ``strength``-tuple of columns must contain each combination of
    levels equally often.
    """
    design = np.asarray(design, dtype=int)
    if design.ndim != 2:
        raise ValueError("design must be a 2-D array")
    n_runs, n_factors = design.shape
    if strength > n_factors:
        raise ValueError("strength cannot exceed the number of columns")
    expected = n_runs / (levels ** strength)
    if expected != int(expected):
        return False
    for cols in itertools.combinations(range(n_factors), strength):
        sub = design[:, cols]
        # Encode each row of the sub-design as a single base-`levels` integer.
        codes = np.zeros(n_runs, dtype=int)
        for c in range(strength):
            codes = codes * levels + sub[:, c]
        counts = np.bincount(codes, minlength=levels ** strength)
        if not np.all(counts == int(expected)):
            return False
    return True


# ----------------------------------------------------------------------
# swapping references into the engine
# ----------------------------------------------------------------------
@contextlib.contextmanager
def reference_layers(*layers: str) -> Iterator[None]:
    """Run the engine on the reference implementation of ``layers``.

    Inside the block, every :class:`~repro.core.engine.CaffeineEngine` (and,
    for ``"columns"``/``"residuals"``, every evaluator) built uses the named
    references above.  Serial
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
        if "pareto" in layers:
            patch.setattr(pareto, "nondominated_indices", nondominated_indices)
            patch.setattr(nsga2, "fast_nondominated_sort",
                          fast_nondominated_sort)
            patch.setattr(nsga2, "crowding_distances", crowding_distances)
        if "genome" in layers:
            patch.setattr(engine, "VariationOperators",
                          DeepcopyVariationOperators)
        yield

"""Simplification After Generation (SAG), Section 5.1 of the paper.

After the evolutionary run, each model in the trade-off is post-processed:

1. **PRESS + forward regression.**  The Predicted REsidual Sums of Squares
   statistic approximates leave-one-out cross-validation of the linear
   parameters; forward regression re-selects the basis functions of the
   model, pruning those that harm predictive ability.  The surviving basis
   functions are refitted by least squares.
2. **Testing-error filtering.**  The trade-off models are evaluated on
   separate testing data and filtered down to the models that are also on
   the trade-off of *testing* error vs. complexity (the 5-10 models per
   performance of most interest in the paper).

Step 1 runs here; every refit goes through the evaluator's one fit path,
:meth:`~repro.core.evaluation.PopulationEvaluator.evaluate_population`, as
two batches per trade-off.  Batching never changes a bit, so simplifying a
whole trade-off equals simplifying each model on its own.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.individual import Individual
from repro.regression.forward_regression import forward_select

__all__ = ["simplify_population"]


def simplify_population(individuals: Sequence[Individual],
                        evaluator) -> List[Individual]:
    """PRESS-driven forward-regression pruning of each individual's bases.

    Returns one new, evaluated individual per input, in order: either the
    basis functions forward regression selected (possibly all of them) or,
    when that simplification would destroy the training fit, a re-evaluated
    copy of the original.  The inputs are not modified, and the outputs
    share the inputs' trees (population trees are never edited in place),
    so the evaluator reuses their memoized basis keys.

    ``evaluator`` is the :class:`~repro.core.evaluation.PopulationEvaluator`
    the individuals were evolved with: it supplies the training data, the
    settings, the basis matrices (from its column cache) and both batched
    evaluations -- the simplified candidates, then copies of the originals
    whose candidate was rejected.

    Forward selection runs once per distinct ordered basis-key tuple (the
    evaluator's fit key): equal keys mean equal cached columns and so the
    same selection, and a final front is mostly clones.  Each candidate is
    still built from its own individual's bases.
    """
    selections = {}
    candidates = []
    for individual in individuals:
        fit_key = tuple(evaluator.basis_key(b) for b in individual.bases)
        selected = selections.get(fit_key)
        if selected is None:
            selected = selections[fit_key] = _forward_selected(individual,
                                                               evaluator)
        candidates.append(_candidate(individual, selected))
    evaluator.evaluate_population(candidates)
    rejected = [position for position, (individual, kept)
                in enumerate(zip(individuals, candidates, strict=True))
                if not _keeps_fit(individual, kept)]
    originals = evaluator.evaluate_population(
        [individuals[position].shared_clone() for position in rejected])
    simplified = list(candidates)
    for position, original in zip(rejected, originals, strict=True):
        simplified[position] = original
    return simplified


def _forward_selected(individual: Individual, evaluator) -> List[int]:
    """The indices of the bases forward regression keeps, sorted."""
    if not individual.bases:
        return []
    settings = evaluator.settings
    return sorted(forward_select(
        evaluator.basis_matrix(individual.bases), evaluator.y,
        max_terms=settings.max_basis_functions,
        min_relative_improvement=settings.sag_min_relative_improvement,
    ))


def _candidate(individual: Individual, selected: List[int]) -> Individual:
    """An unevaluated individual holding the ``selected`` bases."""
    if len(selected) == len(individual.bases):
        return individual.shared_clone()
    if not selected:
        # All bases pruned: fall back to the constant model (an Individual
        # must hold at least one tree, so keep the cheapest original one
        # but let the linear fit decide; if even that hurts, the fit's
        # coefficient will be ~0).
        cheapest = min(individual.bases, key=lambda b: b.n_nodes)
        return individual.shared_clone([cheapest])
    return individual.shared_clone([individual.bases[i] for i in selected])


def _keeps_fit(individual: Individual, kept: Individual) -> bool:
    """Whether the evaluated simplification ``kept`` may replace ``individual``:
    it does not worsen the training fit, or it is simpler and still finite."""
    if kept.error <= individual.error * (1.0 + 1e-9) \
            or not individual.is_feasible:
        return True
    return kept.complexity < individual.complexity and np.isfinite(kept.error)

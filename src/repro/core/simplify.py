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
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.individual import Individual
from repro.regression.forward_regression import forward_select

__all__ = ["simplify_individual", "simplify_population"]


def simplify_individual(individual: Individual, evaluator) -> Individual:
    """PRESS-driven forward-regression pruning of one individual's bases.

    Returns a new, re-evaluated individual containing only the basis
    functions selected by forward regression (possibly all of them, possibly
    none -- then the model reduces to a constant).  The original individual
    is not modified.

    ``evaluator`` is the :class:`~repro.core.evaluation.PopulationEvaluator`
    the individual was evolved with: it supplies the training data, the
    settings, the basis matrices (from its column cache) and every
    re-evaluation.
    """
    if not individual.bases:
        return evaluator.evaluate_individual(individual.clone())

    settings = evaluator.settings
    selection = forward_select(
        evaluator.basis_matrix(individual.bases), evaluator.y,
        max_terms=settings.max_basis_functions,
        min_relative_improvement=settings.sag_min_relative_improvement,
    )
    if len(selection.selected_indices) == len(individual.bases):
        kept = individual.clone()
    else:
        kept = Individual(
            bases=[individual.bases[i].clone()
                   for i in sorted(selection.selected_indices)],
            generation_born=individual.generation_born,
        )
        if not kept.bases:
            # All bases pruned: fall back to the constant model (an Individual
            # must hold at least one tree, so keep the cheapest original one
            # but let the linear fit decide; if even that hurts, the fit's
            # coefficient will be ~0).
            cheapest = min(individual.bases, key=lambda b: b.n_nodes)
            kept = Individual(bases=[cheapest.clone()],
                              generation_born=individual.generation_born)
    evaluator.evaluate_individual(kept)
    # Keep the simplification only if it does not destroy the training fit.
    if kept.error <= individual.error * (1.0 + 1e-9) or not individual.is_feasible:
        return kept
    if kept.complexity < individual.complexity and np.isfinite(kept.error):
        return kept
    return evaluator.evaluate_individual(individual.clone())


def simplify_population(individuals: Sequence[Individual],
                        evaluator) -> List[Individual]:
    """Apply :func:`simplify_individual` to a whole trade-off set.

    The engine passes its own evaluator, so the basis-column cache built
    during evolution is reused.
    """
    return [simplify_individual(individual, evaluator)
            for individual in individuals]

"""Forward regression driven by the PRESS statistic.

Implements the robust nonlinear identification procedure the paper cites
(Hong, Sharkey, Warwick 2003) in the form CAFFEINE needs: given a pool of
candidate basis functions (columns), greedily add the column that most
improves the leave-one-out PRESS statistic, and stop when no candidate
improves it.  The selected subset is what survives "simplification after
generation"; basis functions that only help the training fit but hurt
prediction are pruned.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.regression.press import press_statistic

__all__ = ["forward_select"]


def forward_select(basis_matrix: np.ndarray, y: np.ndarray,
                   max_terms: Optional[int] = None,
                   min_relative_improvement: float = 0.0,
                   ridge: float = 1e-10) -> Tuple[int, ...]:
    """Greedy forward selection of basis-function columns by PRESS.

    Parameters
    ----------
    basis_matrix:
        Candidate basis functions evaluated on the training data, shape
        ``(n_samples, n_candidates)``.
    y:
        Training targets.
    max_terms:
        Optional cap on the number of selected columns.
    min_relative_improvement:
        A candidate is only accepted when it reduces PRESS by at least this
        fraction of the current value (0.0 accepts any strict improvement).

    Returns
    -------
    tuple of int
        The selected column indices, in selection order.
    """
    basis_matrix = np.asarray(basis_matrix, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    if basis_matrix.ndim != 2:
        raise ValueError("basis_matrix must be 2-D")
    if basis_matrix.shape[0] != y.shape[0]:
        raise ValueError("basis_matrix and y disagree on the number of samples")
    n_candidates = basis_matrix.shape[1]
    if max_terms is None:
        max_terms = n_candidates
    if max_terms < 0:
        raise ValueError("max_terms must be >= 0")
    if min_relative_improvement < 0:
        raise ValueError("min_relative_improvement must be >= 0")

    # Drop candidates with non-finite values up front; they can never help.
    pool = [i for i in range(n_candidates)
            if np.all(np.isfinite(basis_matrix[:, i]))]

    selected: List[int] = []
    current_press = press_statistic(np.zeros((y.shape[0], 0)), y,
                                    ridge=ridge)

    while pool and len(selected) < max_terms:
        best_index = None
        best_press = current_press
        for index in pool:
            trial = basis_matrix[:, selected + [index]]
            trial_press = press_statistic(trial, y, ridge=ridge)
            if trial_press < best_press:
                best_press = trial_press
                best_index = index
        if best_index is None:
            break
        improvement = (current_press - best_press) / max(current_press, 1e-300)
        if selected and improvement < min_relative_improvement:
            break
        selected.append(best_index)
        pool.remove(best_index)
        current_press = best_press

    return tuple(selected)

"""Pareto-dominance utilities (all objectives minimized).

Shared by the NSGA-II selection machinery and by the post-processing steps
that filter models down to the trade-off of training error vs. complexity and
later of *testing* error vs. complexity (the rightmost column of the paper's
Figure 3).

CAFFEINE has exactly two objectives, so the sorting kernels take exactly
two: :func:`fast_nondominated_sort` is one O(n log n) lexicographic sweep,
:func:`nondominated_indices` is its front 0, and any other objective count
raises ``ValueError``.  This is what lets the engine scale
``population_size`` without the ranking step going quadratic.
:func:`dominates` and :func:`crowding_distances` are defined for any
number of objectives.  Results are canonical: fronts are ascending index
lists (a front is a set; ascending order is the deterministic choice), and
``inf`` objectives (the engine's marker for infeasible individuals) follow
IEEE comparison semantics.  NaN objectives are not supported -- the engine
never produces them (errors are finite or exactly ``inf``).  The pure-Python
references of Deb's definitions that every kernel must match live in
``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

import numpy as np

__all__ = ["dominates", "nondominated_indices", "nondominated_filter",
           "fast_nondominated_sort", "crowding_distances"]

T = TypeVar("T")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when objective vector ``a`` Pareto-dominates ``b`` (minimization)."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have the same length")
    at_least_as_good = all(x <= y for x, y in zip(a, b, strict=True))
    strictly_better = any(x < y for x, y in zip(a, b, strict=True))
    return at_least_as_good and strictly_better


def _objective_array(objective_vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """The vectors as a float ``(n, m)`` array (raises on ragged input)."""
    return np.asarray([tuple(v) for v in objective_vectors], dtype=float)


# ----------------------------------------------------------------------
# fast nondominated sort
# ----------------------------------------------------------------------
def fast_nondominated_sort(objective_vectors: Sequence[Sequence[float]]
                           ) -> List[List[int]]:
    """Deb's fast nondominated sort of (error, complexity) vectors: list of
    fronts (ascending index lists).

    Front 0 is the Pareto front; each subsequent front is nondominated once
    all previous fronts are removed.  Raises ``ValueError`` unless every
    vector has exactly two objectives.

    Points are processed in lexicographic ``(o1, o2)`` order, so every
    dominator of a point is already assigned when the point is reached.  A
    front dominates the current point iff the front's minimum ``o2`` beats
    the point's (or ties it with a strictly smaller ``o1`` -- the duplicate
    vs. strictly-better distinction); because every front-``f+1`` member is
    dominated by a front-``f`` member, the predicate is monotone in the
    front index and the point's front is found by binary search: O(n log n)
    overall, with the same membership as Deb's peeling definition.
    """
    if len(objective_vectors) == 0:
        return []
    vectors = _objective_array(objective_vectors)
    if vectors.shape[1] != 2:
        raise ValueError("Pareto sorting takes exactly two objectives "
                         "(error, complexity) per vector")
    o1 = vectors[:, 0]
    o2 = vectors[:, 1]
    order = np.lexsort((o2, o1))
    assignment = np.empty(vectors.shape[0], dtype=np.intp)
    front_min_o2: List[float] = []
    front_min_o2_o1: List[float] = []
    for idx in order:
        x = float(o1[idx])
        y = float(o2[idx])
        low, high = 0, len(front_min_o2)
        while low < high:
            mid = (low + high) // 2
            m2 = front_min_o2[mid]
            if m2 < y or (m2 == y and front_min_o2_o1[mid] < x):
                low = mid + 1  # front ``mid`` dominates the point
            else:
                high = mid
        assignment[idx] = low
        if low == len(front_min_o2):
            front_min_o2.append(y)
            front_min_o2_o1.append(x)
        elif y < front_min_o2[low]:
            front_min_o2[low] = y
            front_min_o2_o1[low] = x
        elif y == front_min_o2[low] and x < front_min_o2_o1[low]:
            front_min_o2_o1[low] = x
    fronts: List[List[int]] = [[] for _ in range(len(front_min_o2))]
    for i, f in enumerate(assignment):
        fronts[f].append(int(i))
    return fronts


# ----------------------------------------------------------------------
# nondominated indices / filter
# ----------------------------------------------------------------------
def nondominated_indices(objective_vectors: Sequence[Sequence[float]]
                         ) -> List[int]:
    """Indices of the nondominated vectors (the Pareto front), ascending."""
    fronts = fast_nondominated_sort(objective_vectors)
    return fronts[0] if fronts else []


def nondominated_filter(items: Sequence[T],
                        key: Callable[[T], Sequence[float]]) -> List[T]:
    """Return the items whose ``key(item)`` objective vectors are nondominated."""
    vectors = [tuple(key(item)) for item in items]
    keep = set(nondominated_indices(vectors))
    return [item for index, item in enumerate(items) if index in keep]


# ----------------------------------------------------------------------
# crowding distances
# ----------------------------------------------------------------------
def crowding_distances(objective_vectors: Sequence[Sequence[float]]
                       ) -> List[float]:
    """Crowding distance of each vector within its (single) front."""
    if len(objective_vectors) == 0:
        return []
    vectors = _objective_array(objective_vectors)
    n = vectors.shape[0]
    distances = np.zeros(n)
    for m in range(vectors.shape[1]):
        column = vectors[:, m]
        # kind="stable" ties resolve to original order, matching Python's
        # Timsort on the same keys (signed zeros compare equal in both).
        order = np.argsort(column, kind="stable")
        column_sorted = column[order]
        distances[order[0]] = np.inf
        distances[order[-1]] = np.inf
        span = float(column_sorted[-1]) - float(column_sorted[0])
        if span <= 0 or not (span < float("inf")):
            continue
        if n > 2:
            # Deb's per-element arithmetic: the gap between each point's
            # sorted neighbours, normalized by the span, summed objective by
            # objective in order.
            distances[order[1:-1]] += \
                (column_sorted[2:] - column_sorted[:-2]) / span
    return [float(d) for d in distances]

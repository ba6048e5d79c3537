"""Pareto-dominance utilities (all objectives minimized).

Shared by the NSGA-II selection machinery and by the post-processing steps
that filter models down to the trade-off of training error vs. complexity and
later of *testing* error vs. complexity (the rightmost column of the paper's
Figure 3).

The kernels are vectorized: broadcasting implementations build the
pairwise domination matrix in chunks, and the two-objective (error,
complexity) case -- the engine's -- runs O(n log n) sweeps.  This is what
lets the engine scale ``population_size`` without the ranking step going
quadratic-in-pure-Python.  Results are canonical: fronts are ascending
index lists (a front is a set; ascending order is the deterministic
choice), and ``inf`` objectives (the engine's marker for infeasible
individuals) follow IEEE comparison semantics.  NaN objectives are not
supported -- the engine never produces them (errors are finite or exactly
``inf``).  The test suite checks every kernel against a pure-Python
reference of Deb's definitions.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple, TypeVar

import numpy as np

__all__ = ["dominates", "nondominated_indices", "nondominated_filter",
           "fast_nondominated_sort", "crowding_distances"]

T = TypeVar("T")
Objectives = Tuple[float, ...]


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when objective vector ``a`` Pareto-dominates ``b`` (minimization)."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have the same length")
    at_least_as_good = all(x <= y for x, y in zip(a, b, strict=True))
    strictly_better = any(x < y for x, y in zip(a, b, strict=True))
    return at_least_as_good and strictly_better


def _objective_array(objective_vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """The vectors as a float ``(n, m)`` array (raises on ragged input)."""
    array = np.asarray([tuple(v) for v in objective_vectors], dtype=float)
    if array.ndim == 1:
        # Zero-length objective vectors: asarray of empty tuples collapses.
        array = array.reshape(len(objective_vectors), 0)
    return array


def _domination_matrix(vectors: np.ndarray) -> np.ndarray:
    """Boolean ``D`` with ``D[i, j]`` true when ``i`` dominates ``j``.

    Built in row chunks so the broadcast temporaries stay bounded (a few MB)
    for the multi-thousand-point populations the benchmarks exercise.
    """
    n, n_objectives = vectors.shape
    matrix = np.empty((n, n), dtype=bool)
    chunk = max(1, 4_000_000 // max(1, n * max(1, n_objectives)))
    for start in range(0, n, chunk):
        block = vectors[start:start + chunk, None, :]
        not_worse = (block <= vectors[None, :, :]).all(axis=-1)
        strictly_better = (block < vectors[None, :, :]).any(axis=-1)
        matrix[start:start + chunk] = not_worse & strictly_better
    return matrix


# ----------------------------------------------------------------------
# nondominated indices / filter
# ----------------------------------------------------------------------
def nondominated_indices(objective_vectors: Sequence[Sequence[float]]
                         ) -> List[int]:
    """Indices of the nondominated vectors (the Pareto front), ascending."""
    if len(objective_vectors) == 0:
        return []
    vectors = _objective_array(objective_vectors)
    if vectors.shape[1] == 2:
        return _nondominated_indices_two_objective(vectors)
    matrix = _domination_matrix(vectors)
    return [int(i) for i in np.flatnonzero(matrix.sum(axis=0) == 0)]


def _nondominated_indices_two_objective(vectors: np.ndarray) -> List[int]:
    """O(n log n) sweep for the two-objective (error, complexity) case.

    After a lexicographic sort by ``(o1, o2)``, every possible dominator of
    a point precedes it, so one pass tracking the running minimum of ``o2``
    (and, among points attaining it, the minimum ``o1`` -- needed to tell a
    duplicate point, which does not dominate, from a strictly better one)
    decides domination for each point in O(1).
    """
    o1 = vectors[:, 0]
    o2 = vectors[:, 1]
    order = np.lexsort((o2, o1))
    min_o2 = np.inf
    min_o2_o1 = np.inf
    keep: List[int] = []
    for idx in order:
        x = float(o1[idx])
        y = float(o2[idx])
        dominated = min_o2 < y or (min_o2 == y and min_o2_o1 < x)
        if not dominated:
            keep.append(int(idx))
        if y < min_o2:
            min_o2 = y
            min_o2_o1 = x
        elif y == min_o2 and x < min_o2_o1:
            min_o2_o1 = x
    keep.sort()
    return keep


def nondominated_filter(items: Sequence[T],
                        key: Callable[[T], Sequence[float]]) -> List[T]:
    """Return the items whose ``key(item)`` objective vectors are nondominated."""
    vectors = [tuple(key(item)) for item in items]
    keep = set(nondominated_indices(vectors))
    return [item for index, item in enumerate(items) if index in keep]


# ----------------------------------------------------------------------
# fast nondominated sort
# ----------------------------------------------------------------------
def _fast_nondominated_sort_two_objective(
        vectors: np.ndarray) -> List[List[int]]:
    """O(n log n) full front assignment for the two-objective case.

    Points are processed in lexicographic ``(o1, o2)`` order, so every
    dominator of a point is already assigned when the point is reached.  A
    front dominates the current point iff the front's minimum ``o2`` beats
    the point's (or ties it with a strictly smaller ``o1`` -- the duplicate
    vs. strictly-better distinction); because every front-``f+1`` member is
    dominated by a front-``f`` member, the predicate is monotone in the
    front index and the point's front is found by binary search.  Matches
    Deb's peeling definition exactly: same membership, and fronts are
    emitted as ascending index lists.
    """
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


def fast_nondominated_sort(objective_vectors: Sequence[Sequence[float]]
                           ) -> List[List[int]]:
    """Deb's fast nondominated sort: list of fronts (ascending index lists).

    Front 0 is the Pareto front; each subsequent front is nondominated once
    all previous fronts are removed.
    """
    if len(objective_vectors) == 0:
        return []
    vectors = _objective_array(objective_vectors)
    n = vectors.shape[0]
    if vectors.shape[1] == 2:
        return _fast_nondominated_sort_two_objective(vectors)
    matrix = _domination_matrix(vectors)
    counts = matrix.sum(axis=0).astype(np.int64)
    unassigned = np.ones(n, dtype=bool)
    fronts: List[List[int]] = []
    while True:
        front = np.flatnonzero(unassigned & (counts == 0))
        if front.size == 0:
            break
        fronts.append([int(i) for i in front])
        unassigned[front] = False
        counts -= matrix[front].sum(axis=0)
    return fronts


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

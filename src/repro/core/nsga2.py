"""NSGA-II selection machinery (Deb et al., PPSN 2000).

CAFFEINE uses NSGA-II to drive a two-objective search (training error vs.
complexity) and return a nondominated set of models.  The engine supplies a
list of individuals with a two-element ``objectives`` tuple and receives the
survivor selection and the tournament-based parent selection.  This module
is the one selection path; the object-based two-pass reference it must
match (sort, fill by fronts, then re-rank the survivors) lives in
``tests/oracles.py``.

Selection works on rank/crowding *vectors* (:class:`RankedPopulation`)
rather than per-individual wrapper objects, and :func:`select_and_rerank`
derives the survivors' own rank/crowding arrays from the combined
population's single nondominated sort -- one ``fast_nondominated_sort`` of
``2n`` points per generation.  The derivation is exact, not approximate:

* a survivor's rank among the survivors equals its rank in the combined
  population (dominators of a front-``j`` member live in fronts ``< j``,
  all of which are fully retained, and truncated-front members keep rank
  ``k+1`` because the fronts below them survive intact);
* crowding of a fully included front is unchanged (same member list, same
  order), and only the one crowding-truncated front needs its crowding
  recomputed on the kept subset.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.pareto import crowding_distances, fast_nondominated_sort

__all__ = ["HasObjectives", "RankedPopulation", "rank_population_arrays",
           "select_and_rerank", "tournament_winner"]


class HasObjectives(Protocol):
    """Anything exposing a tuple of minimized objectives."""

    @property
    def objectives(self) -> Tuple[float, ...]:  # pragma: no cover - protocol
        ...


T = TypeVar("T", bound=HasObjectives)


class RankedPopulation:
    """A population with its NSGA-II rank/crowding as flat arrays.

    ``individuals`` is the population list itself (identity is meaningful:
    the engine uses ``ranked.individuals is engine.population`` to detect a
    stale cache), ``ranks``/``crowding`` are parallel vectors.
    """

    __slots__ = ("individuals", "ranks", "crowding")

    def __init__(self, individuals: Sequence[T], ranks: np.ndarray,
                 crowding: np.ndarray) -> None:
        self.individuals = individuals
        self.ranks = ranks
        self.crowding = crowding

    def __len__(self) -> int:
        return len(self.individuals)


def rank_population_arrays(population: Sequence[T]) -> RankedPopulation:
    """Nondomination rank and crowding distance of every individual, from
    one nondominated sort."""
    vectors = [tuple(ind.objectives) for ind in population]
    n = len(vectors)
    ranks = np.empty(n, dtype=np.intp)
    crowding = np.empty(n, dtype=float)
    for rank, front in enumerate(fast_nondominated_sort(vectors)):
        ranks[front] = rank
        crowding[front] = crowding_distances([vectors[i] for i in front])
    return RankedPopulation(population, ranks, crowding)


def _truncation_order(crowding: Sequence[float]) -> Sequence[int]:
    """Indices of a partial front in survival order: descending crowding,
    ties kept in front (ascending-index) order.

    The tie-break is pinned behavior: it must equal the stable
    ``sorted(range(n), key=crowding.__getitem__, reverse=True)`` -- Python's
    ``reverse=True`` preserves the original relative order of equal keys,
    and so does a stable argsort of the negated values (NaN-free by the
    :mod:`repro.core.pareto` contract; ``inf`` boundary crowding is fine).
    """
    return np.argsort(-np.asarray(crowding, dtype=float), kind="stable")


def select_and_rerank(population: Sequence[T], target_size: int
                      ) -> Tuple[List[T], RankedPopulation]:
    """NSGA-II survivor selection plus the survivors' rank/crowding arrays.

    Survivors fill by fronts; within the one partially included front they
    are the members of largest crowding distance, and on equal crowding the
    member earlier in the front (smaller population index) wins -- the
    stable tie-break pinned by :func:`_truncation_order`.  The result equals
    the two-pass reference (selection, then :func:`rank_population_arrays`
    of the survivors) but comes from a *single* ``fast_nondominated_sort``
    of the combined population (see module docstring for why the
    derivation is exact).  The engine calls this once per generation; the
    returned :class:`RankedPopulation` seeds the next generation's
    tournaments with no extra sort.
    """
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    vectors = [tuple(ind.objectives) for ind in population]
    fronts = fast_nondominated_sort(vectors)
    survivors: List[T] = []
    ranks: List[int] = []
    crowding_parts: List[float] = []
    for rank, front in enumerate(fronts):
        if len(survivors) + len(front) <= target_size:
            front_crowding = crowding_distances([vectors[i] for i in front])
            survivors.extend(population[i] for i in front)
            ranks.extend([rank] * len(front))
            crowding_parts.extend(front_crowding)
            if len(survivors) == target_size:
                break
            continue
        front_vectors = [vectors[i] for i in front]
        front_crowding = crowding_distances(front_vectors)
        order = _truncation_order(front_crowding)
        remaining = target_size - len(survivors)
        kept = [front[k] for k in order[:remaining]]
        survivors.extend(population[i] for i in kept)
        ranks.extend([rank] * remaining)
        # Among the survivors this front's member list changed, so its
        # crowding must be recomputed on the kept subset (in survivor
        # order); every fully included front keeps its combined-population
        # crowding unchanged.
        crowding_parts.extend(crowding_distances([vectors[i] for i in kept]))
        break
    ranked = RankedPopulation(survivors,
                              np.asarray(ranks, dtype=np.intp),
                              np.asarray(crowding_parts, dtype=float))
    return survivors, ranked


def tournament_winner(ranked: RankedPopulation, first_index: int,
                      second_draw: int) -> int:
    """Index of the crowded-comparison winner between ``first_index`` and
    the ``second_draw``-th of the other ``n - 1`` positions.

    Deb's binary tournament compares two *distinct* members: lower rank
    wins, and on equal rank the larger crowding distance (on equal crowding
    too, the second competitor).  ``second_draw`` is a draw from
    ``[0, n - 1)`` mapped around ``first_index``, so a member never competes
    against itself, and the engine batches each offspring's four index
    draws into one ``rng.integers`` call.
    """
    second_index = second_draw + (second_draw >= first_index)
    ranks = ranked.ranks
    if ranks[first_index] != ranks[second_index]:
        return (first_index if ranks[first_index] < ranks[second_index]
                else second_index)
    crowding = ranked.crowding
    return (first_index if crowding[first_index] > crowding[second_index]
            else second_index)

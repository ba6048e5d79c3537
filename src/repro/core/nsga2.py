"""NSGA-II selection machinery (Deb et al., PPSN 2000).

CAFFEINE uses NSGA-II to drive a two-objective search (training error vs.
complexity) and return a nondominated set of models.  The implementation
here is generic over objective vectors: the engine supplies a list of
individuals with an ``objectives`` tuple and receives the survivor selection
and the tournament-based parent selection.

Array-native core.  The engine-facing hot path works on rank/crowding
*vectors* (:class:`RankedPopulation`) rather than per-individual wrapper
objects, and :func:`select_and_rerank` derives the survivors' own
rank/crowding arrays from the combined population's single nondominated
sort -- one ``fast_nondominated_sort`` of ``2n`` points per generation
replaces the previous ``n`` (rank) + ``2n`` (selection) sorts.  The
derivation is exact, not approximate:

* a survivor's rank among the survivors equals its rank in the combined
  population (dominators of a front-``j`` member live in fronts ``< j``,
  all of which are fully retained, and truncated-front members keep rank
  ``k+1`` because the fronts below them survive intact);
* crowding of a fully included front is unchanged (same member list, same
  order), and only the one crowding-truncated front needs its crowding
  recomputed on the kept subset.

:func:`rank_population`, :func:`environmental_selection` and
:func:`binary_tournament` keep their object-based signatures (they are
public API, pinned by tests) and are thin views over the same kernels.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, Tuple, TypeVar

import numpy as np

from repro.core.pareto import crowding_distances, fast_nondominated_sort

__all__ = ["HasObjectives", "RankedIndividual", "RankedPopulation",
           "rank_population", "rank_population_arrays",
           "environmental_selection", "select_and_rerank",
           "binary_tournament", "tournament_winner"]


class HasObjectives(Protocol):
    """Anything exposing a tuple of minimized objectives."""

    @property
    def objectives(self) -> Tuple[float, ...]:  # pragma: no cover - protocol
        ...


T = TypeVar("T", bound=HasObjectives)


class RankedIndividual:
    """Bookkeeping record attaching NSGA-II rank and crowding to an individual."""

    __slots__ = ("individual", "rank", "crowding")

    def __init__(self, individual: HasObjectives, rank: int, crowding: float) -> None:
        self.individual = individual
        self.rank = rank
        self.crowding = crowding

    def beats(self, other: "RankedIndividual") -> bool:
        """Crowded-comparison operator: lower rank wins, ties by larger crowding."""
        if self.rank != other.rank:
            return self.rank < other.rank
        return self.crowding > other.crowding


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


def _rank_arrays(vectors: List[Tuple[float, ...]]
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """(ranks, crowding) vectors from one nondominated sort."""
    n = len(vectors)
    ranks = np.empty(n, dtype=np.intp)
    crowding = np.empty(n, dtype=float)
    for rank, front in enumerate(fast_nondominated_sort(vectors)):
        front_crowding = crowding_distances([vectors[i] for i in front])
        ranks[front] = rank
        crowding[front] = front_crowding
    return ranks, crowding


def rank_population_arrays(population: Sequence[T]) -> RankedPopulation:
    """Array-native :func:`rank_population` (one sort, no wrapper objects)."""
    vectors = [tuple(ind.objectives) for ind in population]
    ranks, crowding = _rank_arrays(vectors)
    return RankedPopulation(population, ranks, crowding)


def rank_population(population: Sequence[T]) -> List[RankedIndividual]:
    """Assign nondomination rank and crowding distance to every individual."""
    ranked = rank_population_arrays(population)
    return [RankedIndividual(individual, int(rank), float(crowding))
            for individual, rank, crowding
            in zip(population, ranked.ranks, ranked.crowding, strict=True)]


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


def environmental_selection(population: Sequence[T],
                            target_size: int) -> List[T]:
    """NSGA-II survivor selection: fill by fronts, truncate by crowding.

    Within the one partially included front, survivors are the
    ``target_size - len(already_kept)`` members of largest crowding
    distance; on equal crowding the member earlier in the front (i.e. of
    smaller population index, since fronts are ascending) wins -- the
    stable-sort tie-break pinned by :func:`_truncation_order` and the
    regression tests.
    """
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    vectors = [tuple(ind.objectives) for ind in population]
    fronts = fast_nondominated_sort(vectors)
    survivors: List[T] = []
    for front in fronts:
        if len(survivors) + len(front) <= target_size:
            survivors.extend(population[i] for i in front)
            if len(survivors) == target_size:
                break
            continue
        # Partial front: keep the most spread-out individuals.
        front_vectors = [vectors[i] for i in front]
        crowding = crowding_distances(front_vectors)
        order = _truncation_order(crowding)
        remaining = target_size - len(survivors)
        survivors.extend(population[front[k]] for k in order[:remaining])
        break
    return survivors


def select_and_rerank(population: Sequence[T], target_size: int
                      ) -> Tuple[List[T], RankedPopulation]:
    """Environmental selection plus the survivors' rank/crowding arrays.

    Behaviorally ``(environmental_selection(population, target_size),
    rank_population_arrays(survivors))``, but from a *single*
    ``fast_nondominated_sort`` of the combined population (see module
    docstring for why the derivation is exact).  The engine calls this once
    per generation; the returned :class:`RankedPopulation` seeds the next
    generation's tournaments with no extra sort.
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

    ``second_draw`` is a draw from ``[0, n - 1)``; mapping it around
    ``first_index`` reproduces :func:`binary_tournament`'s distinct-pair
    sampling exactly, so the engine can batch its four index draws per
    offspring into one ``rng.integers`` call without changing the stream.
    """
    second_index = second_draw + (second_draw >= first_index)
    ranks = ranked.ranks
    if ranks[first_index] != ranks[second_index]:
        return (first_index if ranks[first_index] < ranks[second_index]
                else second_index)
    crowding = ranked.crowding
    return (first_index if crowding[first_index] > crowding[second_index]
            else second_index)


def binary_tournament(ranked: Sequence[RankedIndividual],
                      rng: np.random.Generator) -> HasObjectives:
    """Pick the better of two *distinct* random individuals.

    Deb's NSGA-II tournament compares two different population members; an
    individual competing against itself would be a selection-pressure-free
    pick.  With at least two members the second index is drawn from the
    remaining ``n - 1`` positions, so self-competition cannot occur.
    """
    if not ranked:
        raise ValueError("cannot run a tournament on an empty population")
    n = len(ranked)
    first_index = int(rng.integers(n))
    if n == 1:
        return ranked[first_index].individual
    second_index = int(rng.integers(n - 1))
    if second_index >= first_index:
        second_index += 1
    first = ranked[first_index]
    second = ranked[second_index]
    winner = first if first.beats(second) else second
    return winner.individual

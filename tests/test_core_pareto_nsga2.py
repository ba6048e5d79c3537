"""Tests for Pareto utilities and the NSGA-II selection machinery."""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np
import pytest

from repro.core.nsga2 import (
    binary_tournament,
    environmental_selection,
    rank_population,
    rank_population_arrays,
    select_and_rerank,
    tournament_winner,
)
from repro.core import pareto
from repro.core.pareto import (
    crowding_distances,
    dominates,
    fast_nondominated_sort,
    nondominated_filter,
    nondominated_indices,
)

import oracles


@dataclasses.dataclass
class Point:
    objectives: Tuple[float, float]


class TestDominance:
    def test_strict_dominance(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))
        assert dominates((1.0, 2.0), (1.0, 3.0))

    def test_non_dominance(self):
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((1.0, 1.0), (1.0, 1.0))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (1.0, 2.0))

    def test_nondominated_indices_simple_front(self):
        vectors = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0), (3.0, 3.0)]
        assert nondominated_indices(vectors) == [0, 1, 2]

    def test_nondominated_filter_on_objects(self):
        points = [Point((1.0, 4.0)), Point((2.0, 2.0)), Point((3.0, 3.0))]
        front = nondominated_filter(points, key=lambda p: p.objectives)
        assert points[2] not in front
        assert len(front) == 2


class TestFastNondominatedSort:
    def test_fronts_are_ordered(self):
        vectors = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (1.5, 0.5)]
        fronts = fast_nondominated_sort(vectors)
        assert set(fronts[0]) == {0, 3}
        assert fronts[1] == [1]
        assert fronts[2] == [2]

    def test_all_nondominated_single_front(self):
        vectors = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]
        fronts = fast_nondominated_sort(vectors)
        assert len(fronts) == 1
        assert set(fronts[0]) == {0, 1, 2}

    def test_every_index_appears_exactly_once(self):
        rng = np.random.default_rng(0)
        vectors = [tuple(v) for v in rng.random((40, 2))]
        fronts = fast_nondominated_sort(vectors)
        flattened = [i for front in fronts for i in front]
        assert sorted(flattened) == list(range(40))


class TestCrowding:
    def test_boundary_points_infinite(self):
        vectors = [(1.0, 4.0), (2.0, 3.0), (3.0, 2.0), (4.0, 1.0)]
        distances = crowding_distances(vectors)
        assert distances[0] == float("inf")
        assert distances[-1] == float("inf")
        assert np.isfinite(distances[1]) and np.isfinite(distances[2])

    def test_denser_region_has_smaller_distance(self):
        vectors = [(0.0, 10.0), (1.0, 5.0), (1.1, 4.9), (1.2, 4.8), (10.0, 0.0)]
        distances = crowding_distances(vectors)
        assert distances[2] < distances[1]

    def test_empty(self):
        assert crowding_distances([]) == []


class TestBackendDispatch:
    """The production Pareto kernels agree with the pure-Python reference,
    and no backend selector is accepted any more."""

    VECTORS = [(1.0, 4.0), (2.0, 2.0), (4.0, 1.0), (3.0, 3.0), (2.0, 2.0),
               (float("inf"), 0.0), (0.5, float("inf"))]

    def test_unknown_backend_rejected(self):
        for function in (fast_nondominated_sort, crowding_distances,
                         nondominated_indices):
            with pytest.raises(TypeError):
                function(self.VECTORS, backend="cython")

    def test_sort_backends_agree(self):
        assert fast_nondominated_sort(self.VECTORS) == \
            oracles.fast_nondominated_sort(self.VECTORS)

    def test_indices_backends_agree(self):
        assert nondominated_indices(self.VECTORS) == \
            oracles.nondominated_indices(self.VECTORS)

    def test_crowding_backends_agree(self):
        assert crowding_distances(self.VECTORS) == \
            oracles.crowding_distances(self.VECTORS)

    def test_empty_input(self):
        for kernels in (pareto, oracles):
            assert kernels.fast_nondominated_sort([]) == []
            assert kernels.crowding_distances([]) == []
            assert kernels.nondominated_indices([]) == []

    def test_filter_backends_agree(self):
        points = [Point(v) for v in self.VECTORS]
        production = nondominated_filter(points, key=lambda p: p.objectives)
        with oracles.reference_layers("pareto"):
            reference = nondominated_filter(points, key=lambda p: p.objectives)
        assert production == reference

    def test_fronts_are_ascending(self):
        rng = np.random.default_rng(3)
        vectors = [tuple(v) for v in rng.random((60, 2))]
        for kernels in (pareto, oracles):
            for front in kernels.fast_nondominated_sort(vectors):
                assert front == sorted(front)


class TestNsga2Selection:
    def _population(self):
        return [Point((1.0, 5.0)), Point((2.0, 3.0)), Point((3.0, 2.0)),
                Point((5.0, 1.0)), Point((4.0, 4.0)), Point((6.0, 6.0))]

    def test_rank_population_assigns_ranks(self):
        ranked = rank_population(self._population())
        ranks = [r.rank for r in ranked]
        assert ranks[:4] == [0, 0, 0, 0]
        assert ranks[4] == 1 and ranks[5] > 0

    def test_environmental_selection_prefers_first_front(self):
        population = self._population()
        survivors = environmental_selection(population, 4)
        assert len(survivors) == 4
        assert all(p.objectives != (6.0, 6.0) for p in survivors)

    def test_environmental_selection_truncates_by_crowding(self):
        population = [Point((float(i), float(10 - i))) for i in range(11)]
        population.append(Point((5.0, 5.0001)))  # crowded duplicate-ish point
        survivors = environmental_selection(population, 5)
        objectives = {p.objectives for p in survivors}
        # The extreme points always survive truncation.
        assert (0.0, 10.0) in objectives
        assert (10.0, 0.0) in objectives

    def test_environmental_selection_invalid_size(self):
        with pytest.raises(ValueError):
            environmental_selection(self._population(), 0)

    def test_binary_tournament_prefers_better_rank(self):
        population = self._population()
        ranked = rank_population(population)
        rng = np.random.default_rng(0)
        winners = [binary_tournament(ranked, rng) for _ in range(100)]
        dominated_wins = sum(1 for w in winners if w.objectives == (6.0, 6.0))
        assert dominated_wins < 30

    def test_binary_tournament_empty(self):
        with pytest.raises(ValueError):
            binary_tournament([], np.random.default_rng(0))

    def test_binary_tournament_singleton_population(self):
        only = Point((1.0, 1.0))
        ranked = rank_population([only])
        assert binary_tournament(ranked, np.random.default_rng(0)) is only

    def test_binary_tournament_never_self_competes(self):
        """With two members where one dominates, the tournament always draws
        two distinct competitors, so the dominated one can never win (the old
        same-index bug let it win ~25% of the time)."""
        better = Point((1.0, 1.0))
        worse = Point((2.0, 2.0))
        ranked = rank_population([better, worse])
        rng = np.random.default_rng(0)
        winners = [binary_tournament(ranked, rng) for _ in range(200)]
        assert all(w is better for w in winners)

    def test_environmental_selection_partial_front_tied_crowding(self):
        """Truncating inside a front of equally spaced (tied-crowding) points
        keeps exactly target_size survivors including both boundary points."""
        front = [Point((float(i), float(6 - i))) for i in range(7)]
        survivors = environmental_selection(front, 4)
        assert len(survivors) == 4
        objectives = {p.objectives for p in survivors}
        # Boundary points carry infinite crowding and always survive; the
        # interior picks come from the tied group without duplication.
        assert (0.0, 6.0) in objectives and (6.0, 0.0) in objectives
        assert len(objectives) == 4

    def test_environmental_selection_all_tied_interior(self):
        """A partial front where every interior crowding distance ties must
        still fill deterministically to the requested size."""
        front = [Point((float(i), float(9 - i))) for i in range(10)]
        first = environmental_selection(front, 5)
        second = environmental_selection(front, 5)
        assert [p.objectives for p in first] == [p.objectives for p in second]
        assert len(first) == 5

    def test_partial_front_tie_break_keeps_earlier_front_members(self):
        """The crowding-truncation tie-break is pinned behavior: on equal
        crowding, the member earlier in the front (smaller population index)
        survives, and survivors are emitted in descending-crowding order.

        Five equally spaced colinear points form one front whose three
        interior members all carry crowding 1.0; truncating to four must keep
        both infinite-crowding boundary points first, then the two earliest
        interior members -- never the last one."""
        front = [Point((float(i), float(4 - i))) for i in range(5)]
        survivors = environmental_selection(front, 4)
        assert survivors == [front[0], front[4], front[1], front[2]]


class TestArrayNativeSelection:
    """select_and_rerank / rank_population_arrays vs. the object-based API."""

    def _random_population(self, rng, n):
        vectors = rng.integers(0, 8, size=(n, 2)).astype(float)
        # A few infeasible (infinite-error) members, like the engine produces.
        for i in range(0, n, 7):
            vectors[i, 0] = np.inf
        return [Point((float(a), float(b))) for a, b in vectors]

    def test_rank_population_arrays_matches_objects(self):
        rng = np.random.default_rng(11)
        population = self._random_population(rng, 40)
        ranked_objects = rank_population(population)
        ranked_arrays = rank_population_arrays(population)
        assert ranked_arrays.individuals is population
        assert [int(r) for r in ranked_arrays.ranks] == \
            [r.rank for r in ranked_objects]
        assert [float(c) for c in ranked_arrays.crowding] == \
            [r.crowding for r in ranked_objects]

    def test_select_and_rerank_matches_two_pass_reference(self):
        """One combined-population sort must reproduce, exactly, the
        reference sequence `environmental_selection` then a fresh
        `rank_population_arrays` of the survivors -- same survivor list
        (identity and order), bit-equal ranks and crowding."""
        rng = np.random.default_rng(7)
        for _trial in range(20):
            n = int(rng.integers(4, 60))
            target = int(rng.integers(1, n))
            population = self._random_population(rng, n)
            survivors, ranked = select_and_rerank(population, target)
            reference = environmental_selection(population, target)
            assert len(survivors) == target
            assert all(a is b for a, b in zip(survivors, reference))
            rereference = rank_population_arrays(survivors)
            assert list(ranked.ranks) == list(rereference.ranks)
            assert list(ranked.crowding) == list(rereference.crowding)

    def test_select_and_rerank_invalid_size(self):
        with pytest.raises(ValueError):
            select_and_rerank([Point((1.0, 1.0))], 0)

    def test_tournament_winner_matches_crowded_comparison(self):
        """tournament_winner's (first_index, second_draw) encoding maps the
        second draw around the first index (distinct-pair sampling) and
        applies the same crowded-comparison as RankedIndividual.beats."""
        rng = np.random.default_rng(3)
        population = self._random_population(rng, 12)
        ranked_objects = rank_population(population)
        ranked_arrays = rank_population_arrays(population)
        n = len(population)
        for first in range(n):
            for draw in range(n - 1):
                second = draw + (draw >= first)
                assert second != first
                winner = tournament_winner(ranked_arrays, first, draw)
                expected = (first if ranked_objects[first].beats(
                    ranked_objects[second]) else second)
                assert winner == expected


class TestTwoObjectiveSweep:
    """The O(n log n) two-objective fast paths agree with the pure-Python
    oracle on adversarial inputs (duplicates, infs, ties)."""

    def _adversarial_vectors(self, rng, n):
        vectors = rng.integers(0, 6, size=(n, 2)).astype(float)
        vectors[rng.random(n) < 0.1, 0] = np.inf
        vectors[rng.random(n) < 0.1, 1] = np.inf
        return [tuple(v) for v in vectors]

    def test_sort_agrees_with_python_oracle(self):
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 17, 120):
            vectors = self._adversarial_vectors(rng, n)
            assert fast_nondominated_sort(vectors) == \
                oracles.fast_nondominated_sort(vectors)

    def test_indices_agree_with_python_oracle(self):
        rng = np.random.default_rng(43)
        for n in (1, 2, 3, 17, 120):
            vectors = self._adversarial_vectors(rng, n)
            assert nondominated_indices(vectors) == \
                oracles.nondominated_indices(vectors)

    def test_three_objectives_still_agree(self):
        """>2 objectives take the domination-matrix path -- keep it covered."""
        rng = np.random.default_rng(44)
        vectors = [tuple(v) for v in
                   rng.integers(0, 4, size=(50, 3)).astype(float)]
        assert fast_nondominated_sort(vectors) == \
            oracles.fast_nondominated_sort(vectors)
        assert nondominated_indices(vectors) == \
            oracles.nondominated_indices(vectors)

    def test_all_duplicates_single_front(self):
        vectors = [(2.0, 2.0)] * 6
        assert fast_nondominated_sort(vectors) == \
            [[0, 1, 2, 3, 4, 5]]
        assert nondominated_indices(vectors) == \
            [0, 1, 2, 3, 4, 5]

"""Invariants of a long engine run, asserted after every generation.

A population 40 x 150 run on the PM training set drives
:meth:`CaffeineEngine.step` directly and checks, each generation, what any
long run must keep: the population size is exact, the rank-0 set is
mutually nondominated, the best training error never increases, feasible
individuals have finite objectives, every individual stays within the
basis-count and tree-depth limits and inside the canonical-form grammar,
and every evaluation cache stays within its budget.  The run is repeated
with a 50-pair :class:`GramPool`, which evicts every generation; cache
budgets trade wall-clock time only, so both runs must end on bit-identical
fronts.  The default-budget run also saves its generation-75 boundary
through a :class:`RunCheckpointStore`; a fresh engine restored from it
steps on to 150 under the same invariants and must end on that run's
bit-identical front.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cache_store import RunCheckpointStore
from repro.core.engine import CaffeineEngine
from repro.core.evaluation import GramPool
from repro.core.expression import structural_key
from repro.core.grammar import default_grammar, validate_expression
from repro.core.settings import CaffeineSettings

SETTINGS = CaffeineSettings(population_size=40, n_generations=150,
                            max_basis_functions=15, random_seed=2005)

#: the generation boundary the midpoint checkpoint is taken at
RESUME_AT = 75

GRAMMAR = default_grammar()


@pytest.fixture(scope="module")
def pm_train(ota_datasets_full):
    train, _test = ota_datasets_full.for_target("PM")
    return train


def _assert_invariants(engine: CaffeineEngine, previous_best: float) -> float:
    population = engine.population
    assert len(population) == SETTINGS.population_size
    # The rank arrays the next tournaments draw from (computed here for
    # the initial population, exactly as the first step would).
    ranked = engine._ranked_population()
    assert ranked.individuals is population
    front = np.array([ind.objectives for ind, rank
                      in zip(population, ranked.ranks, strict=True)
                      if rank == 0])
    assert len(front)
    # Pareto dominance (minimization) between every ordered pair at once.
    dominated = ((front[:, None] <= front[None]).all(axis=2)
                 & (front[:, None] < front[None]).any(axis=2))
    assert not dominated.any()
    for individual in population:
        if individual.is_feasible:
            assert np.isfinite(individual.error)
            assert np.isfinite(individual.complexity)
        # Variation never grows a model past the size limits or out of
        # the canonical-form grammar.
        assert len(individual.bases) <= SETTINGS.max_basis_functions
        for basis in individual.bases:
            assert basis.depth <= SETTINGS.max_tree_depth
            validate_expression(basis, GRAMMAR)
    best = min(individual.error for individual in population)
    assert best <= previous_best
    evaluator = engine.evaluator
    pool = evaluator.gram_pool
    assert len(pool._pairs) <= pool.max_pairs
    assert len(pool._columns) <= pool.max_columns
    assert len(evaluator.cache) <= evaluator.cache.max_entries
    assert len(evaluator._fit_cache) <= evaluator.cache.max_entries
    return best


def _step_through(engine: CaffeineEngine, generations: range,
                  best: float) -> float:
    for generation in generations:
        engine.step(generation)
        best = _assert_invariants(engine, best)
    return best


def _front(engine: CaffeineEngine) -> list:
    return [(repr(ind.error), repr(ind.complexity),
             tuple(repr(structural_key(basis)) for basis in ind.bases),
             repr(ind.fit.intercept), ind.fit.coefficients.tobytes())
            for ind in engine.final_front()]


def _run(train, pool_pairs=None, checkpoint=None):
    """The whole run; with ``checkpoint``, the RESUME_AT boundary is saved."""
    engine = CaffeineEngine(train, settings=SETTINGS)
    if pool_pairs is not None:
        engine.evaluator.gram_pool = GramPool(engine.evaluator.y, pool_pairs)
    engine.initialize_population()
    best = _assert_invariants(engine, float("inf"))
    best = _step_through(engine, range(RESUME_AT), best)
    if checkpoint is not None:
        checkpoint.save_state("PM", engine.capture_run_state(RESUME_AT))
    _step_through(engine, range(RESUME_AT, SETTINGS.n_generations), best)
    return _front(engine), engine.evaluator.gram_pool


@pytest.fixture(scope="module")
def uninterrupted(pm_train, tmp_path_factory):
    """The default-budget run, with its midpoint checkpoint store."""
    store = RunCheckpointStore(tmp_path_factory.mktemp("long_run") / "run.ckpt")
    front, pool = _run(pm_train, checkpoint=store)
    return front, pool, store


def test_long_run_invariants_hold_under_any_pool_budget(pm_train,
                                                        uninterrupted):
    default_front, default_pool, _store = uninterrupted
    tiny_front, tiny_pool = _run(pm_train, pool_pairs=50)
    assert default_front
    assert tiny_front == default_front
    # The tiny pool really evicted: it recomputed pairs the default kept.
    assert len(tiny_pool) == 50
    assert tiny_pool.n_pairs_computed > default_pool.n_pairs_computed
    assert tiny_pool.n_pair_requests == default_pool.n_pair_requests


def test_midpoint_resume_ends_on_the_uninterrupted_front(pm_train,
                                                         uninterrupted):
    default_front, _pool, store = uninterrupted
    engine = CaffeineEngine(pm_train, settings=SETTINGS)
    assert engine.restore_run_state(store.load_state("PM")) == RESUME_AT
    assert len(engine.history) == RESUME_AT
    # The restored history carries the best error the saved run had
    # reached, so the never-increases rule spans the resume boundary.
    best = _assert_invariants(engine, engine.history[-1].best_error)
    _step_through(engine, range(RESUME_AT, SETTINGS.n_generations), best)
    assert _front(engine) == default_front

"""The required equivalence keys: production layers vs their references.

Each key compares a production layer against its plainer reference from
``oracles.py`` bit for bit, on the Figure-3 workload: the PM training set
of the paper-sized OTA datasets at engine seed 2005.

* ``residual_scalar_vs_batched`` -- the population 100 x 30 offspring
  stream scored by the stacked residual pass and one individual at a time;
* ``population_1000_scalar_vs_batched`` -- the same comparison on the first
  offspring batch of a population 1000 x 5 engine run;
* ``genome_shared_vs_deepcopy`` -- that run's final population, and the
  fronts of a population 100 x 5 ``Session``, under path-copying and
  deepcopy variation;
* ``artifact_roundtrip`` -- a frozen front predicts and rescores exactly
  like the run it came from, offline and over HTTP.

The same runs assert the cache counters that keep the fast paths fast.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.core.artifact import load_front, save_front
from repro.core.engine import CaffeineEngine
from repro.core.evaluation import PopulationEvaluator
from repro.core.expression import structural_key
from repro.core.problem import Problem
from repro.core.report import rescore_models
from repro.core.session import Session
from repro.core.settings import CaffeineSettings
from repro.serve import make_server

from oracles import reference_layers

#: The Figure-3 workload: population 100 over 30 generations.
FIGURE3 = CaffeineSettings(
    population_size=100, n_generations=30, max_basis_functions=15, random_seed=2005
)
#: The population >= 1000 scale, five generations past initialization.
POPULATION_1000 = FIGURE3.copy(population_size=1000, n_generations=5)
#: The one-problem Session whose fronts are compared and frozen.
SESSION = FIGURE3.copy(n_generations=5)


@pytest.fixture(scope="module")
def pm_train(ota_datasets_full):
    train, _test = ota_datasets_full.for_target("PM")
    return train


def _run_engine(train, settings):
    """Drive a fixed-seed engine through every generation of ``settings``.

    Returns the engine, every batch it evaluated (the initial population,
    then each generation's offspring) and its population after
    initialization and after each generation.  Evaluation never edits an
    individual's trees, and :func:`_evaluate` scores fresh clones, so the
    individuals are recorded as they are.
    """
    engine = CaffeineEngine(train, settings=settings)
    batches = []
    evaluate = engine.evaluator.evaluate_population

    def capture(individuals):
        batches.append(list(individuals))
        return evaluate(individuals)

    engine.evaluator.evaluate_population = capture
    engine.initialize_population()
    populations = [list(engine.population)]
    for generation in range(settings.n_generations):
        engine.step(generation)
        populations.append(list(engine.population))
    return engine, batches, populations


def _evaluate(train, batches, settings, *layers):
    """Score clones of ``batches`` through a fresh, cold evaluator."""
    clones = [[individual.clone() for individual in batch] for batch in batches]
    with reference_layers(*layers):
        evaluator = PopulationEvaluator(train.X, train.y, settings)
        for batch in clones:
            evaluator.evaluate_population(batch)
    return clones, evaluator


def _objectives(batches):
    return [(ind.error, ind.complexity) for batch in batches for ind in batch]


def _snapshot(population):
    """Bit-level view of a population: objectives and basis structure."""
    return [
        (
            repr(ind.error),
            repr(ind.complexity),
            tuple(repr(structural_key(basis)) for basis in ind.bases),
        )
        for ind in population
    ]


def _front(result):
    return [
        (repr(model.train_error), repr(model.complexity), model.expression())
        for model in result.tradeoff
    ]


def _run_session(train):
    return Session([Problem(train=train)], settings=SESSION).run().single()


@pytest.fixture(scope="module")
def figure3_stream(pm_train):
    """The offspring stream and per-generation populations of one run."""
    _engine, offspring, populations = _run_engine(pm_train, FIGURE3)
    return offspring, populations


@pytest.fixture(scope="module")
def population_1000(pm_train):
    """The production population-1000 run: engine, batches, final snapshot."""
    engine, batches, _populations = _run_engine(pm_train, POPULATION_1000)
    return engine, batches, _snapshot(engine.population)


@pytest.fixture(scope="module")
def session_result(pm_train):
    return _run_session(pm_train)


def test_residual_scalar_vs_batched(pm_train, figure3_stream):
    offspring, _populations = figure3_stream
    batched, evaluator = _evaluate(pm_train, offspring, FIGURE3)
    scalar, _ = _evaluate(pm_train, offspring, FIGURE3, "residuals")
    assert len(_objectives(batched)) == 100 * 31
    assert _objectives(scalar) == _objectives(batched)
    # Offspring reuse parental bases: most columns and gram pairs are hits.
    assert evaluator.column_hit_rate > 0.5
    assert evaluator.gram_pool.pair_hit_rate > 0.5


def test_reevaluation_hits_the_fit_cache(pm_train, figure3_stream):
    _offspring, populations = figure3_stream
    _clones, evaluator = _evaluate(pm_train, populations, FIGURE3)
    # Survivors recur wholesale across generations.
    assert evaluator.fit_hit_rate > 0.5


def test_population_1000_scalar_vs_batched(pm_train, population_1000):
    engine, batches, _final = population_1000
    first_offspring = batches[1:2]
    batched, _ = _evaluate(pm_train, first_offspring, POPULATION_1000)
    scalar, _ = _evaluate(pm_train, first_offspring, POPULATION_1000, "residuals")
    assert len(_objectives(batched)) == 1000
    assert _objectives(scalar) == _objectives(batched)
    # Canonical factor order lets order-variants share compiled kernels.
    assert engine.evaluator.column_backend.compiler.kernel_hit_rate > 0.25


def test_genome_shared_vs_deepcopy(pm_train, population_1000, session_result):
    _engine, _batches, shared = population_1000
    with reference_layers("genome"):
        deepcopy, _, _ = _run_engine(pm_train, POPULATION_1000)
    assert len(shared) == 1000
    assert _snapshot(deepcopy.population) == shared

    with reference_layers("genome"):
        reference = _run_session(pm_train)
    assert _front(session_result)
    assert _front(reference) == _front(session_result)


def test_artifact_roundtrip(pm_train, session_result, tmp_path):
    path = str(tmp_path / "front.caffeine")
    models = list(session_result.tradeoff)
    assert models
    assert save_front(session_result, path) == len(models)
    front = load_front(path)
    X, y = pm_train.X, pm_train.y
    stacked = front.predict_all(X)
    assert len(stacked) == len(models)
    for row, model in zip(stacked, models):
        assert np.array_equal(row, model.predict(X))
    assert np.array_equal(
        np.asarray(front.rescore(X, y)),
        np.asarray(rescore_models(models, X, y)),
        equal_nan=True,
    )

    # Served predictions match the frozen ones (JSON null is non-finite).
    probe = X[np.random.default_rng(2005).integers(0, X.shape[0], size=100)]
    server = make_server(path)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        request = urllib.request.Request(
            server.url + "/predict",
            data=json.dumps({"X": probe.tolist()}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            predictions = json.loads(response.read())["predictions"]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
    assert not thread.is_alive()
    served = np.array([np.nan if value is None else value for value in predictions])
    assert np.array_equal(served, front.predict(probe), equal_nan=True)

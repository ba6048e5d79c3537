"""The reference oracles reach the engine, removing the knobs broke no
checkpoint, and the retired second way to run stays retired.

Every layer ships one production implementation; the equivalence tests
compare it against the references in ``tests/oracles.py``.  These tests
make sure such a comparison is never vacuous -- inside
:func:`oracles.reference_layers` the engine really runs the references,
and outside it really runs production code -- and that the settings
fingerprint checkpoints carry did not change when the backend, cache-budget
and fault-injection knobs went.  :class:`Session` is the one way to run
CAFFEINE: the one-call shims, the pre-Session cache helpers and the
Session options only they or the tests set are gone for good, as are the
object-based NSGA-II selection API beside the array path, the
netlist/MNA circuit simulator, which produced none of the OTA data, and
the metric, sampling and PRESS helpers nothing in the package reached.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pickle

import numpy as np
import pytest

from repro.core import nsga2, pareto
from repro.core.engine import CaffeineEngine
from repro.core.evaluation import (
    BatchedResidualBackend,
    CompiledColumnBackend,
    PopulationEvaluator,
)
from repro.core.operators import VariationOperators
from repro.core.session import Session
from repro.core.settings import CaffeineSettings

import oracles

#: the removed implementation switches (now test-side references)
REMOVED_KNOBS = ("evaluation_backend", "evaluation_workers", "column_backend",
                 "fit_backend", "pareto_backend", "residual_backend",
                 "genome_backend", "basis_cache_size", "gram_pool_size",
                 "kernel_cache_size", "adaptive_cache_budgets",
                 "fault_injection")

#: retired second paths: (module, name) pairs that must not exist
REMOVED_NAMES = (
    ("repro", "run_caffeine"),
    ("repro.core", "run_caffeine"),
    ("repro.core.engine", "run_caffeine"),
    ("repro.core", "LegacyProgressCallback"),
    ("repro.core.session", "LegacyProgressCallback"),
    ("repro.experiments", "run_caffeine_for_target"),
    ("repro.experiments", "shared_column_cache"),
    ("repro.experiments", "persistent_shared_cache"),
    ("repro.experiments.setup", "run_caffeine_for_target"),
    ("repro.experiments.setup", "shared_column_cache"),
    ("repro.experiments.setup", "persistent_shared_cache"),
    # the object-based second selection path (the array path is the one;
    # the plain survivor selection is oracles.environmental_selection)
    ("repro.core.nsga2", "RankedIndividual"),
    ("repro.core.nsga2", "rank_population"),
    ("repro.core.nsga2", "environmental_selection"),
    ("repro.core.nsga2", "binary_tournament"),
    # the netlist/MNA circuit simulator (the OTA cross-check's linear AC
    # solve is oracles.ac_solve)
    *(("repro.circuits", name) for name in (
        "Circuit", "Resistor", "Capacitor", "VoltageSource", "CurrentSource",
        "VoltageControlledCurrentSource", "Mosfet", "DCSolution", "solve_dc",
        "ACSweep", "ac_analysis", "transfer_function", "FrequencyResponse",
        "gain_db", "unity_gain_frequency", "phase_margin")),
    ("repro.circuits.mosfet", "thermal_voltage"),
    ("repro.circuits.mosfet", "gm_over_id_saturation"),
    ("repro.circuits.mosfet", "required_veff"),
    # library surface nothing reached: alternative metrics, samplers and
    # PRESS helpers (is_orthogonal_array is oracles.is_orthogonal_array)
    *((module, name)
      for package, defining, names in (
          ("repro.data", "repro.data.metrics",
           ("mean_squared_error", "normalized_mse", "normalized_rmse",
            "r_squared")),
          ("repro.doe", "repro.doe.sampling", ("latin_hypercube",)),
          ("repro.doe", "repro.doe.orthogonal",
           ("full_factorial", "is_orthogonal_array")),
          ("repro.regression", "repro.regression.press",
           ("hat_matrix", "press_rmse")),
          ("repro.regression", "repro.regression.forward_regression",
           ("ForwardSelectionResult",)))
      for module in (package, defining) for name in names),
    ("repro.core.report", "target_summary_row"),
    ("repro.core.report", "rescore_table"),
)

#: the simulator's modules
REMOVED_MODULES = ("repro.circuits.mna", "repro.circuits.dc",
                   "repro.circuits.ac", "repro.circuits.netlist",
                   "repro.circuits.performance")

#: Session options that only the retired shims or the tests set
REMOVED_SESSION_OPTIONS = ("failure_policy", "column_cache", "retry_backoff",
                           "fallback_serial", "checkpoint_column_cache")


def _engine(rational_train, fast_settings):
    return CaffeineEngine(rational_train, settings=fast_settings)


def test_production_engine_runs_production_layers(rational_train,
                                                  fast_settings):
    engine = _engine(rational_train, fast_settings)
    assert type(engine.evaluator) is PopulationEvaluator
    assert type(engine.evaluator.column_backend) is CompiledColumnBackend
    assert type(engine.evaluator.residual_backend) is BatchedResidualBackend
    assert type(engine.operators) is VariationOperators
    assert nsga2.fast_nondominated_sort is pareto.fast_nondominated_sort


def test_reference_layers_swap_every_layer_and_restore(rational_train,
                                                       fast_settings):
    with oracles.reference_layers(*oracles.LAYERS):
        engine = _engine(rational_train, fast_settings)
        assert isinstance(engine.evaluator, oracles.DirectFitEvaluator)
        assert isinstance(engine.evaluator.column_backend,
                          oracles.InterpColumnBackend)
        assert isinstance(engine.evaluator.residual_backend,
                          oracles.ScalarResidualBackend)
        assert isinstance(engine.operators,
                          oracles.DeepcopyVariationOperators)
        assert nsga2.fast_nondominated_sort is oracles.fast_nondominated_sort
        assert nsga2.crowding_distances is oracles.crowding_distances
        assert pareto.nondominated_indices is oracles.nondominated_indices
    test_production_engine_runs_production_layers(rational_train,
                                                  fast_settings)


def test_all_references_together_reproduce_the_production_run(
        rational_train, rational_test, fast_settings):
    settings = fast_settings.copy(n_generations=4)
    production = CaffeineEngine(rational_train, rational_test,
                                settings).run()
    with oracles.reference_layers(*oracles.LAYERS):
        reference = CaffeineEngine(rational_train, rational_test,
                                   settings).run()

    def front(result):
        return [(repr(m.train_error), repr(m.test_error), repr(m.complexity),
                 m.expression()) for m in result.tradeoff]

    assert front(production) == front(reference)
    assert front(production)


def test_unknown_layer_rejected():
    with pytest.raises(ValueError, match="unknown layers"):
        with oracles.reference_layers("gpu"):
            pass


@pytest.mark.parametrize("knob", REMOVED_KNOBS)
def test_removed_knobs_are_not_settings(knob):
    with pytest.raises(TypeError, match=knob):
        CaffeineSettings(**{knob: "serial"})


def test_settings_hold_only_the_algorithm():
    assert len(dataclasses.fields(CaffeineSettings)) == 21


def test_session_checkpoint_column_cache_option_removed():
    with pytest.raises(TypeError, match="checkpoint_column_cache"):
        Session(checkpoint_column_cache=True)


@pytest.mark.parametrize("module, name", REMOVED_NAMES)
def test_removed_entry_points_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
    with pytest.raises(ImportError, match=name):
        exec(f"from {module} import {name}", {})


@pytest.mark.parametrize("module", REMOVED_MODULES)
def test_removed_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_session_add_callback_removed():
    with pytest.raises(AttributeError, match="add_callback"):
        Session().add_callback  # noqa: B018


@pytest.mark.parametrize("option", REMOVED_SESSION_OPTIONS)
def test_removed_session_options_rejected(option):
    with pytest.raises(TypeError, match=option):
        Session(**{option: None})


def test_session_takes_seven_keyword_options():
    parameters = inspect.signature(Session.__init__).parameters.values()
    keyword_only = [p.name for p in parameters
                    if p.kind is inspect.Parameter.KEYWORD_ONLY]
    assert keyword_only == ["jobs", "column_cache_path", "callbacks",
                            "checkpoint_path", "checkpoint_every", "timeout",
                            "retries"]


def test_settings_fingerprint_unchanged_by_knob_removal():
    """The removed knobs were result-neutral, so they never entered the
    fingerprint: checkpoints written with them still resume.  The digests
    below were computed with the knobs still present."""
    assert CaffeineSettings().fingerprint() == (
        "050ad1f8b367a8d7dd7df6de510f2f1efd354b372476316fb5d0293cccaa81f1")
    assert CaffeineSettings.paper_settings(random_seed=2005).fingerprint() \
        == "25d2826480efc8e46283af913eede415eeb3690baef71da8a9ebbea103c72c74"


def test_settings_pickled_with_removed_knobs_still_work():
    """A settings object unpickled from an older checkpoint carries the
    removed knobs as plain attributes; they change neither its fingerprint
    nor its copies."""
    settings = CaffeineSettings(population_size=24, random_seed=3)
    stale = pickle.loads(pickle.dumps(settings))
    stale.__dict__.update(dict.fromkeys(REMOVED_KNOBS, "serial"))
    assert stale.fingerprint() == settings.fingerprint()
    copied = stale.copy(n_generations=2)
    assert copied.fingerprint() == settings.copy(n_generations=2).fingerprint()
    assert not any(hasattr(copied, knob) for knob in REMOVED_KNOBS)


def test_direct_fit_reference_matches_on_empty_and_infeasible(rational_train,
                                                              fast_settings):
    from repro.core.expression import ProductTerm
    from repro.core.individual import Individual
    from repro.core.variable_combo import VariableCombo

    X = rational_train.X.copy()
    X[0, 0] = 0.0
    population = [Individual(bases=[]),
                  Individual(bases=[ProductTerm(vc=VariableCombo((-4, 0, 0)))]),
                  Individual(bases=[ProductTerm(vc=VariableCombo((1, 0, 0)))])]
    reference = [ind.clone() for ind in population]
    PopulationEvaluator(X, rational_train.y, fast_settings) \
        .evaluate_population(population)
    oracles.DirectFitEvaluator(X, rational_train.y, fast_settings) \
        .evaluate_population(reference)
    for a, b in zip(population, reference):
        assert (a.error, a.complexity) == (b.error, b.complexity)
        assert (a.fit is None) == (b.fit is None)
        if a.fit is not None:
            assert a.fit.intercept == b.fit.intercept
            assert np.array_equal(a.fit.coefficients, b.fit.coefficients)

"""Population-evaluation benchmark: cached subsystems vs. naive re-evaluation.

Measures the Figure-3 workload (the PM dataset, population 100) through the
batch evaluation subsystem of :mod:`repro.core.evaluation` and through the
naive per-individual path it replaced, on **two** honestly labeled workloads:

* ``offspring`` -- the engine's actual evaluation stream (initial population
  plus every generation's fresh offspring).  Fresh individuals need fresh
  linear fits, so here the gains come from the basis-column cache plus --
  since the gram pool -- from fits that gather cached normal-equation
  scalars instead of re-reducing ``n_samples``-long columns.
* ``reevaluation`` -- re-evaluating each generation's post-selection
  population, the shape of simplification passes, test-set sweeps and
  repeated analysis.  Survivors recur across generations, so the
  individual-level fit cache dominates and the speedup is large.

Each workload is measured through the batch evaluator (gram-pool
gather-and-solve fits) against the naive path, and the report includes
fits/sec.  Further sections compare one layer at a time against its
reference implementation from ``tests/oracles.py`` on the offspring stream:
``column_backend`` (compiled tapes vs the tree interpreter on the
cache-miss path, see :mod:`repro.core.compile`; reports the *end-to-end*
speedup and the *warm-miss* speedup -- a warmed kernel cache with cleared
column/fit caches -- as separate, self-consistent ratios of their own
reported wall-clocks), ``residual_backend`` (the generation-batched
prediction/residual pass vs per-individual scoring) and
``persistent_cache`` (a cold start vs one warm-started from a
:class:`~repro.core.cache_store.ColumnCacheStore` file).  The
``population_1000`` section runs the engine at population 1000 (the
ROADMAP's scaling item): per-phase wall-clocks (generation, evaluation,
selection), evaluations/sec, every cache hit rate, the size-adaptive
budgets actually resolved, and a scalar-vs-batched residual equivalence
check at that scale.  The ``selection_variation`` section puts the
structure-sharing variation operators head to head against the deepcopy
reference (per-operator child cost, node clones per offspring,
population-1000 phase seconds for both) and contributes the
``genome_shared_vs_deepcopy`` bit-identity verdict.  The ``serving``
section freezes a fixed-seed run with :func:`~repro.core.artifact.save_front`
and serves it through :mod:`repro.serve`: artifact size, cold-load
milliseconds, ``/predict`` latency percentiles and rows/sec per batch
size (1/100/10000), and the ``artifact_roundtrip`` verdict -- frozen and
served predictions bit-identical to the originating run.  NSGA-II ranking
time is reported *separately* (it is selection, not evaluation) in a
``pareto_sort`` section -- and at larger population scales in
``bench_pareto.json``.

Emits machine-readable JSON (``benchmarks/output/bench_evaluation.json``;
schema documented in ``benchmarks/README.md``) so future PRs can track the
performance trajectory of the hot loop.  Every fast path is verified to
produce bit-for-bit identical errors; the outcome is recorded in the
report's ``equivalence`` block *before* the assertions fire, so the CI
trajectory gate (``benchmarks/compare_trajectory.py``) can see a violation
even in the uploaded artifact of a failed run.
"""

from __future__ import annotations

import json
import os
import time

from repro.core.cache_store import ColumnCacheStore
from repro.core.engine import CaffeineEngine
from repro.core.evaluation import (
    PopulationEvaluator,
    evaluate_individual_inplace,
)
from repro.core.nsga2 import rank_population
from repro.core.operators import VariationOperators
from repro.core.settings import CaffeineSettings

from conftest import write_output
from oracles import DeepcopyVariationOperators, reference_layers

#: Regression gates.  The batch evaluator must deliver the PR-2 tentpole's
#: promised >= 2x on the fresh-offspring stream; the re-evaluation path is
#: fit-cache dominated; compiled columns and a warm persistent cache must
#: never lose to their baselines.  ``BENCH_RELAX_SPEEDUP_GATES=1`` (set by CI's shared
#: noisy runners) disables only the wall-clock ratio gates; the bit-for-bit
#: equivalence checks always hold.
_GATES_RELAXED = os.environ.get("BENCH_RELAX_SPEEDUP_GATES") == "1"
MIN_REEVALUATION_SPEEDUP = 0.0 if _GATES_RELAXED else 2.5
MIN_OFFSPRING_SPEEDUP_GRAM = 0.0 if _GATES_RELAXED else 2.0
#: The compiled-column effect is real but small (~1.1x end to end, the
#: column share of an offspring evaluation); gate at 0.9 so run-to-run
#: noise cannot flip it while a genuine slowdown (a backend that loses
#: outright) still fails.
MIN_COMPILED_COLUMN_SPEEDUP = 0.0 if _GATES_RELAXED else 0.9
MIN_WARM_CACHE_SPEEDUP = 0.0 if _GATES_RELAXED else 1.0
#: The batched residual pass saves per-individual NumPy call overhead;
#: losing outright to scalar scoring would be a bug.
MIN_RESIDUAL_SPEEDUP = 0.0 if _GATES_RELAXED else 0.9
#: Acceptance gate for the population-1000 scaling work: canonical factor
#: ordering plus the size-adaptive kernel budget must lift the compiled
#: columns' kernel hit rate above the ~25% the ROADMAP flagged.
#: Deterministic (fixed seed), so never relaxed.
MIN_POPULATION_1000_KERNEL_HIT_RATE = 0.25
#: The structure-sharing genome must never lose to the deepcopy reference
#: on the population-1000 variation phase (it shares every untouched
#: subtree instead of cloning the whole parent per child).
MIN_SHARED_VARIATION_SPEEDUP = 0.0 if _GATES_RELAXED else 1.0

#: Figure-3 workload scale: population 100 over the benchmark generation
#: budget used by the shared harness (see conftest.BENCH_SETTINGS).
WORKLOAD_SETTINGS = CaffeineSettings(
    population_size=100,
    n_generations=30,
    max_basis_functions=15,
    random_seed=2005,
)


def _capture_workloads(train):
    """Run one engine; capture its true evaluation stream and its
    per-generation populations."""
    engine = CaffeineEngine(train, settings=WORKLOAD_SETTINGS)
    offspring_batches = []
    original = engine.evaluator.evaluate_population

    def capturing(individuals):
        offspring_batches.append([ind.clone() for ind in individuals])
        return original(individuals)

    engine.evaluator.evaluate_population = capturing
    population_batches = []
    engine.initialize_population()
    population_batches.append([ind.clone() for ind in engine.population])
    for generation in range(WORKLOAD_SETTINGS.n_generations):
        engine.step(generation)
        population_batches.append([ind.clone() for ind in engine.population])
    engine.evaluator.evaluate_population = original
    return engine, offspring_batches, population_batches


#: Timing rounds; every round times the compared paths back to back
#: (round-robin), and each path reports its best round.  Interleaving means
#: background load (the rest of the benchmark suite, CI neighbours) hits all
#: paths alike instead of skewing whichever ran while the machine was busy,
#: which is what keeps the speedup gates stable.
TIMING_ROUNDS = 3


def _run_naive(engine, batches):
    """Naive per-individual evaluation (tree re-evaluation + direct fit)."""
    clones = [[ind.clone() for ind in batch] for batch in batches]
    start = time.perf_counter()
    for batch in clones:
        for individual in batch:
            evaluate_individual_inplace(individual, engine.train.X,
                                        engine.train.y, WORKLOAD_SETTINGS)
    return time.perf_counter() - start, clones


def _evaluator(engine, layers=(), cache=None):
    """A fresh evaluator, with ``layers`` swapped for their references."""
    with reference_layers(*layers):
        return PopulationEvaluator(engine.train.X, engine.train.y,
                                   WORKLOAD_SETTINGS, cache=cache)


def _run_cached(engine, batches, cache=None, layers=()):
    """Batch evaluation through a fresh evaluator (cold unless given a cache).

    Every round starts from the same cache state, so hit rates and work
    counters are identical across rounds (they are deterministic); only
    wall-clock varies.
    """
    clones = [[ind.clone() for ind in batch] for batch in batches]
    evaluator = _evaluator(engine, layers, cache)
    start = time.perf_counter()
    for batch in clones:
        evaluator.evaluate_population(batch)
    return time.perf_counter() - start, clones, evaluator


def _batches_equal(left, right) -> bool:
    """Bit-for-bit agreement of two evaluated copies of the same stream."""
    for left_batch, right_batch in zip(left, right, strict=True):
        for a, b in zip(left_batch, right_batch, strict=True):
            if a.error != b.error or a.complexity != b.complexity:
                return False
    return True


def _paired_speedup(baseline_rounds, candidate_rounds) -> float:
    """Best load-matched ratio: each round's candidate time is compared
    against the baseline time of the *same* round (they run back to back, so
    machine load hits both alike).  Comparing independent bests instead
    would let one lucky baseline round on a drifting machine mask a
    genuinely faster candidate."""
    return max(baseline / candidate for baseline, candidate
               in zip(baseline_rounds, candidate_rounds, strict=True))


def _measure(engine, batches):
    """Time the naive path vs the batch evaluator; check bit-for-bit
    equality."""
    n_evaluations = sum(len(batch) for batch in batches)
    seconds_by_path = {"naive": [], "gram": []}
    first_results = {}
    for _round in range(TIMING_ROUNDS):
        seconds, naive = _run_naive(engine, batches)
        seconds_by_path["naive"].append(seconds)
        first_results.setdefault("naive", naive)
        seconds, cached, evaluator = _run_cached(engine, batches)
        seconds_by_path["gram"].append(seconds)
        first_results.setdefault("gram", cached)

    best_naive = min(seconds_by_path["naive"])
    equal = _batches_equal(first_results["naive"], first_results["gram"])
    seconds = min(seconds_by_path["gram"])
    pool = evaluator.gram_pool
    report = {
        "n_evaluations": n_evaluations,
        "naive_seconds": round(best_naive, 4),
        "naive_evaluations_per_second": round(n_evaluations / best_naive, 1),
        "backends": {"gram": {
            "seconds": round(seconds, 4),
            "evaluations_per_second": round(n_evaluations / seconds, 1),
            "fits_per_second": round(evaluator.n_fits_computed / seconds, 1),
            "n_fits_computed": evaluator.n_fits_computed,
            "speedup": round(_paired_speedup(seconds_by_path["naive"],
                                             seconds_by_path["gram"]), 2),
            "column_cache_hit_rate": round(evaluator.column_hit_rate, 4),
            "fit_cache_hit_rate": round(evaluator.fit_hit_rate, 4),
            "column_cache_entries": len(evaluator.cache),
            "gram_pair_hit_rate": round(pool.pair_hit_rate, 4),
            "gram_pairs_computed": pool.n_pairs_computed,
            "gram_pool_entries": len(pool),
        }},
    }
    return report, equal


def _measure_column_backend(engine, batches):
    """Compiled tapes vs the tree interpreter on the offspring miss path.

    Both evaluators run the production gram fits from a cold column
    cache, so the only difference is how cache *misses* evaluate their
    trees.  Two speedups are reported, each the ratio of its *own* reported
    wall-clocks (the committed PR-3 baseline mixed a load-paired ratio with
    independent best-round seconds, making the JSON self-inconsistent):

    * ``end_to_end_speedup`` -- cold kernel cache, the whole offspring
      stream (compilation warmup included);
    * ``warm_miss_speedup`` -- the kernel cache stays warm but the column
      and fit caches are cleared before every round, isolating the steady
      state where every miss re-runs a known skeleton (the regime a long
      run or a shared-cache sweep lives in).
    """
    seconds_by_path = {"interp": [], "compiled": []}
    first_results = {}
    compilers = {}
    # Extra rounds here: the compared effect is the smallest in the module,
    # so the best ratio needs more samples to stabilize.
    paths = {"interp": ("columns",), "compiled": ()}
    for _round in range(max(TIMING_ROUNDS, 5)):
        for column_backend, layers in paths.items():
            seconds, cached, evaluator = _run_cached(engine, batches,
                                                     layers=layers)
            seconds_by_path[column_backend].append(seconds)
            first_results.setdefault(column_backend, cached)
            compilers.setdefault(column_backend, getattr(
                evaluator.column_backend, "compiler", None))

    # Warm-miss pass: one persistent evaluator per backend, warmed over the
    # whole stream once; every timed round then clears the column/fit/
    # complexity caches (but not the kernel cache or gram pool -- both
    # backends keep their warm gram pool, so the comparison stays paired)
    # and replays the stream as pure miss traffic.
    warm_seconds = {"interp": [], "compiled": []}
    for column_backend, layers in paths.items():
        evaluator = _evaluator(engine, layers)
        warmup = [[ind.clone() for ind in batch] for batch in batches]
        for batch in warmup:
            evaluator.evaluate_population(batch)
        for _round in range(max(TIMING_ROUNDS, 5)):
            evaluator.cache.clear()
            evaluator._fit_cache.clear()
            evaluator._complexity_cache.clear()
            clones = [[ind.clone() for ind in batch] for batch in batches]
            start = time.perf_counter()
            for batch in clones:
                evaluator.evaluate_population(batch)
            warm_seconds[column_backend].append(time.perf_counter() - start)

    equal = _batches_equal(first_results["interp"], first_results["compiled"])
    compiler = compilers["compiled"]
    interp_seconds = min(seconds_by_path["interp"])
    compiled_seconds = min(seconds_by_path["compiled"])
    interp_warm = min(warm_seconds["interp"])
    compiled_warm = min(warm_seconds["compiled"])
    report = {
        "workload": "offspring stream, gram fits, cold column cache",
        "interp_seconds": round(interp_seconds, 4),
        "compiled_seconds": round(compiled_seconds, 4),
        "end_to_end_speedup": round(interp_seconds / compiled_seconds, 2),
        "interp_warm_miss_seconds": round(interp_warm, 4),
        "compiled_warm_miss_seconds": round(compiled_warm, 4),
        "warm_miss_speedup": round(interp_warm / compiled_warm, 2),
        "kernel_hit_rate": round(compiler.kernel_hit_rate, 4),
        "kernels_compiled": compiler.n_compiled,
        "first_sightings_interpreted": compiler.n_interpreted,
        "kernel_requests": compiler.n_kernel_requests,
    }
    return report, equal


def _measure_residual_backend(engine, batches):
    """Generation-batched vs per-individual prediction/residual pass.

    Both evaluators run gram fits over compiled columns from a cold cache
    (scalar scoring is the reference from ``tests/oracles.py``);
    the only difference is whether each same-width group's post-fit scoring
    runs as one stacked pass or one individual at a time.  The speedup is
    the ratio of the two reported wall-clocks (self-consistent by
    construction).
    """
    seconds_by_path = {"scalar": [], "batched": []}
    first_results = {}
    backends = {}
    for _round in range(max(TIMING_ROUNDS, 5)):
        for residual_backend, layers in (("scalar", ("residuals",)),
                                         ("batched", ())):
            seconds, cached, evaluator = _run_cached(engine, batches,
                                                     layers=layers)
            seconds_by_path[residual_backend].append(seconds)
            first_results.setdefault(residual_backend, cached)
            backends.setdefault(residual_backend, evaluator.residual_backend)

    equal = _batches_equal(first_results["scalar"], first_results["batched"])
    scalar_seconds = min(seconds_by_path["scalar"])
    batched_seconds = min(seconds_by_path["batched"])
    report = {
        "workload": "offspring stream, gram fits, cold column cache",
        "scalar_seconds": round(scalar_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "offspring_stream_speedup": round(scalar_seconds / batched_seconds, 2),
        "batched_passes": backends["batched"].n_batched_passes,
        "batched_fits": backends["batched"].n_batched_fits,
    }
    return report, equal


#: population_1000 budget: enough generations for the caches/kernels to
#: reach their steady state (the first generations are JIT warmup -- every
#: fresh skeleton is interpreted once before it can ever hit) without
#: pricing the section out of bench smoke.
POPULATION_1000_SETTINGS = CaffeineSettings(
    population_size=1000,
    n_generations=5,
    max_basis_functions=15,
    random_seed=2005,
)


def _run_population_1000(train, genome_backend):
    """One fixed-seed population-1000 engine loop with per-phase timers.

    ``genome_backend`` is ``"shared"`` (the production operators) or
    ``"deepcopy"`` (the reference operators from ``tests/oracles.py``).

    Mirrors :meth:`CaffeineEngine.step` exactly (array-native ranking,
    batched tournament draws, ``select_and_rerank`` survivor selection) so
    the phase timers measure the code the engine actually runs; the loop is
    unrolled here only to put ``time.perf_counter()`` fences between the
    phases.  Returns the phase wall-clocks, the engine (for cache/counter
    inspection), the first offspring batch (for residual equivalence) and a
    bit-level snapshot of the final population (errors, complexities and
    per-basis structural keys) for the shared-vs-deepcopy verdict.
    """
    import numpy as np

    from repro.core.expression import structural_key
    from repro.core.individual import Individual
    from repro.core.nsga2 import (rank_population_arrays, select_and_rerank,
                                  tournament_winner)

    settings = POPULATION_1000_SETTINGS
    with reference_layers(*(("genome",) if genome_backend == "deepcopy"
                            else ())):
        engine = CaffeineEngine(train, settings=settings)
    phase = {"generation": 0.0, "evaluation": 0.0, "selection": 0.0}
    captured_offspring = None
    n = settings.population_size
    bounds = np.array([n, n - 1, n, n - 1], dtype=np.int64)

    start = time.perf_counter()
    population = [Individual(bases=engine.generator.random_basis_functions())
                  for _ in range(n)]
    phase["generation"] += time.perf_counter() - start
    start = time.perf_counter()
    engine.evaluator.evaluate_population(population)
    phase["evaluation"] += time.perf_counter() - start
    engine.population = population

    start = time.perf_counter()
    ranked = rank_population_arrays(engine.population)
    selection_seconds = time.perf_counter() - start
    for _generation in range(settings.n_generations):
        start = time.perf_counter()
        offspring = []
        for _ in range(n):
            draws = engine.rng.integers(0, bounds)
            parent_a = engine.population[
                tournament_winner(ranked, draws[0], draws[1])]
            parent_b = engine.population[
                tournament_winner(ranked, draws[2], draws[3])]
            offspring.append(engine.operators.vary(parent_a, parent_b))
        phase["generation"] += time.perf_counter() - start
        if captured_offspring is None:
            captured_offspring = [ind.clone() for ind in offspring]
        start = time.perf_counter()
        engine.evaluator.evaluate_population(offspring)
        phase["evaluation"] += time.perf_counter() - start
        start = time.perf_counter()
        engine.population, ranked = select_and_rerank(
            engine.population + offspring, n)
        phase["selection"] += selection_seconds \
            + (time.perf_counter() - start)
        selection_seconds = 0.0

    final_snapshot = [
        (repr(ind.error), repr(ind.complexity),
         tuple(repr(structural_key(basis)) for basis in ind.bases))
        for ind in engine.population]
    return phase, engine, captured_offspring, final_snapshot


def _measure_population_1000(train):
    """The ROADMAP's population >= 1000 scaling item, measured end to end.

    Runs the real engine loop at population 1000 with per-phase timers
    (generation = RNG-driven variation, evaluation = the batch evaluator,
    selection = NSGA-II ranking + environmental selection), then reports
    throughput, every cache hit rate, the size-adaptive budgets the run
    resolved, and a scalar-vs-batched residual equivalence verdict on this
    scale's first offspring batch.
    """
    settings = POPULATION_1000_SETTINGS
    phase, engine, captured_offspring, final_snapshot = \
        _run_population_1000(train, "shared")

    evaluator = engine.evaluator
    compiler = evaluator.column_backend.compiler
    n_evaluations = evaluator.n_evaluated

    # Residual equivalence at this scale: the first real offspring batch,
    # re-evaluated through fresh scalar-reference and batched evaluators.
    results = {}
    for residual_backend, layers in (("scalar", ("residuals",)),
                                     ("batched", ())):
        with reference_layers(*layers):
            fresh = PopulationEvaluator(engine.train.X, engine.train.y,
                                        settings)
        clones = [ind.clone() for ind in captured_offspring]
        fresh.evaluate_population(clones)
        results[residual_backend] = clones
    equal = _batches_equal([results["scalar"]], [results["batched"]])

    report = {
        "workload": "figure3-PM engine loop at population 1000",
        "population_size": settings.population_size,
        "n_generations": settings.n_generations,
        "n_evaluations": n_evaluations,
        "evaluations_per_second": round(
            n_evaluations / phase["evaluation"], 1),
        "generation_seconds": round(phase["generation"], 4),
        "evaluation_seconds": round(phase["evaluation"], 4),
        "selection_seconds": round(phase["selection"], 4),
        "column_cache_hit_rate": round(evaluator.column_hit_rate, 4),
        "fit_cache_hit_rate": round(evaluator.fit_hit_rate, 4),
        "gram_pair_hit_rate": round(evaluator.gram_pool.pair_hit_rate, 4),
        "kernel_hit_rate": round(compiler.kernel_hit_rate, 4),
        "kernels_compiled": compiler.n_compiled,
        "column_cache_entries": len(evaluator.cache),
        "gram_pool_entries": len(evaluator.gram_pool),
        "resolved_basis_cache_size": evaluator.cache.max_entries,
        "resolved_gram_pool_size": evaluator.gram_pool.max_pairs,
        "resolved_kernel_cache_size": compiler.max_kernels,
    }
    return report, equal, final_snapshot


#: Node classes whose ``clone`` calls the clones-per-offspring probe counts.
_CLONABLE_NODE_CLASSES = ("ProductTerm", "UnaryOpTerm", "BinaryOpTerm",
                          "ConditionalOpTerm", "WeightedSum", "WeightedTerm")


def _count_node_clones(run_once, n_calls):
    """Average expression-node ``clone()`` calls per invocation of
    ``run_once``, counted by temporarily wrapping every node class."""
    import repro.core.expression as expression_module

    counter = [0]
    originals = {}

    def counting(original):
        def wrapper(self):
            counter[0] += 1
            return original(self)
        return wrapper

    for class_name in _CLONABLE_NODE_CLASSES:
        node_class = getattr(expression_module, class_name)
        originals[node_class] = node_class.clone
        node_class.clone = counting(node_class.clone)
    try:
        for _ in range(n_calls):
            run_once()
    finally:
        for node_class, original in originals.items():
            node_class.clone = original
    return counter[0] / n_calls


def _measure_selection_variation(train, shared_population_1000_report,
                                 shared_final_snapshot):
    """Structure-sharing variation vs the deepcopy reference, head to head.

    Three views of the same tentpole:

    * ``per_operator_child_microseconds`` -- each variation operator timed
      in isolation on identical fixed-seed parents under both operator
      sets (path-copying shares untouched subtrees; the reference
      deep-clones a parent per child);
    * ``clones_per_offspring`` -- expression-node ``clone()`` calls per
      ``vary`` call under each operator set (the structural measure the
      timing follows);
    * population-1000 phase seconds for the deepcopy reference next to the
      shared run's (copied from the ``population_1000`` section so the pair
      is read side by side), plus the combined selection+variation
      per-generation seconds the PR's acceptance gate tracks.

    Also produces the ``genome_shared_vs_deepcopy`` equivalence verdict:
    the deepcopy population-1000 run must reach a bit-identical final
    population (errors, complexities, structural keys), and a fixed-seed
    Figure-3 workload must yield bit-identical Pareto fronts through
    ``run_caffeine`` under both operator sets.
    """
    import numpy as np

    from repro.core.engine import run_caffeine
    from repro.core.generator import ExpressionGenerator
    from repro.core.individual import Individual

    operator_sets = {"shared": VariationOperators,
                     "deepcopy": DeepcopyVariationOperators}
    unary = ("parameter_mutation", "vc_mutation", "subtree_mutation",
             "basis_delete", "basis_add")
    binary = ("vc_crossover", "subtree_crossover", "basis_crossover",
              "basis_copy")
    per_operator = {name: {} for name in unary + binary}
    clones_per_offspring = {}

    for genome_backend, operator_set in operator_sets.items():
        settings = WORKLOAD_SETTINGS
        generator = ExpressionGenerator(train.X.shape[1], settings,
                                        rng=np.random.default_rng(7))
        operators = operator_set(generator, settings,
                                 rng=np.random.default_rng(8))
        parent_a = Individual(bases=generator.random_basis_functions(6))
        parent_b = Individual(bases=generator.random_basis_functions(6))

        best = {name: float("inf") for name in per_operator}
        repeats = 200
        for _round in range(TIMING_ROUNDS):
            for name in unary + binary:
                operator = getattr(operators, name)
                start = time.perf_counter()
                if name in unary:
                    for _ in range(repeats):
                        operator(parent_a)
                else:
                    for _ in range(repeats):
                        operator(parent_a, parent_b)
                seconds = time.perf_counter() - start
                best[name] = min(best[name], seconds)
        for name, seconds in best.items():
            per_operator[name][genome_backend] = round(
                seconds / repeats * 1e6, 2)

        clones_per_offspring[genome_backend] = round(_count_node_clones(
            lambda: operators.vary(parent_a, parent_b), 300), 2)

    for _name, entry in per_operator.items():
        entry["speedup"] = round(
            entry["deepcopy"] / max(entry["shared"], 1e-9), 2)

    # Deepcopy reference at population 1000 + the bit-identity verdict.
    deepcopy_phase, _engine, _offspring, deepcopy_snapshot = \
        _run_population_1000(train, "deepcopy")
    population_1000_equal = deepcopy_snapshot == shared_final_snapshot

    figure3_settings = WORKLOAD_SETTINGS.copy(n_generations=5)
    fronts = {}
    for genome_backend, layers in (("shared", ()), ("deepcopy", ("genome",))):
        with reference_layers(*layers):
            result = run_caffeine(train, settings=figure3_settings)
        fronts[genome_backend] = [
            (repr(model.train_error), repr(model.complexity),
             model.expression()) for model in result.tradeoff]
    figure3_equal = fronts["shared"] == fronts["deepcopy"]

    shared = shared_population_1000_report
    report = {
        "workload": "figure3-PM variation + selection, shared vs deepcopy",
        "per_operator_child_microseconds": per_operator,
        "clones_per_offspring": clones_per_offspring,
        "population_1000_shared_generation_seconds":
            shared["generation_seconds"],
        "population_1000_shared_selection_seconds":
            shared["selection_seconds"],
        "population_1000_deepcopy_generation_seconds":
            round(deepcopy_phase["generation"], 4),
        "population_1000_deepcopy_selection_seconds":
            round(deepcopy_phase["selection"], 4),
        "population_1000_selection_plus_generation_seconds": round(
            shared["generation_seconds"] + shared["selection_seconds"], 4),
    }
    return report, population_1000_equal and figure3_equal


def _measure_persistent_cache(engine, batches, tmp_path):
    """Cold start vs a ColumnCacheStore-warmed start on the offspring stream.

    The store is produced by one cold pass (exactly what a previous sweep or
    CI run would have left behind), then each warm round reloads it into a
    fresh cache.  Load/save costs are reported separately -- they are paid
    once per process, not per generation.
    """
    store = ColumnCacheStore(os.path.join(tmp_path, "bench-columns.cache"))
    _seconds, cold_reference, cold_evaluator = _run_cached(engine, batches)
    save_start = time.perf_counter()
    store_entries = store.save(cold_evaluator.cache)
    save_seconds = time.perf_counter() - save_start

    load_start = time.perf_counter()
    store.load(cold_evaluator.cache.max_entries)
    load_seconds = time.perf_counter() - load_start

    seconds_by_path = {"cold": [], "warm": []}
    first_results = {"cold": cold_reference}
    warm_evaluator = None
    for _round in range(TIMING_ROUNDS):
        seconds, _cold, _evaluator = _run_cached(engine, batches)
        seconds_by_path["cold"].append(seconds)
        warm_cache = store.load(cold_evaluator.cache.max_entries)
        seconds, warm, evaluator = _run_cached(engine, batches,
                                               cache=warm_cache)
        seconds_by_path["warm"].append(seconds)
        first_results.setdefault("warm", warm)
        warm_evaluator = warm_evaluator or evaluator

    equal = _batches_equal(first_results["cold"], first_results["warm"])
    report = {
        "workload": "offspring stream, gram fits, compiled columns",
        "cold_seconds": round(min(seconds_by_path["cold"]), 4),
        "warm_seconds": round(min(seconds_by_path["warm"]), 4),
        "speedup": round(_paired_speedup(seconds_by_path["cold"],
                                         seconds_by_path["warm"]), 2),
        "store_entries": store_entries,
        "store_bytes": os.path.getsize(store.path),
        "save_seconds": round(save_seconds, 4),
        "load_seconds": round(load_seconds, 4),
        "cold_columns_computed": cold_evaluator.n_columns_computed,
        "warm_columns_computed": warm_evaluator.n_columns_computed,
        "warm_column_hit_rate": round(warm_evaluator.column_hit_rate, 4),
    }
    return report, equal


def _measure_session_api(train):
    """Legacy ``run_caffeine`` shim vs the Problem/Session path, PR 4's API.

    Both run the same small fixed-seed workload; the section records wall
    clocks and -- the part the trajectory gate cares about -- whether the
    resulting Pareto fronts are bit-for-bit identical, which is the
    guarantee the deprecation shims advertise.
    """
    from repro.core.engine import run_caffeine
    from repro.core.problem import Problem
    from repro.core.session import Session

    settings = WORKLOAD_SETTINGS.copy(n_generations=5)

    legacy_start = time.perf_counter()
    legacy = run_caffeine(train, settings=settings)
    legacy_seconds = time.perf_counter() - legacy_start

    session_start = time.perf_counter()
    session = Session([Problem(train=train)], settings=settings).run().single()
    session_seconds = time.perf_counter() - session_start

    def front(result):
        return [(m.train_error, m.complexity, m.expression())
                for m in result.tradeoff]

    equal = front(legacy) == front(session)
    report = {
        "workload": "figure3-PM, 5 generations, fixed seed",
        "legacy_run_caffeine_seconds": round(legacy_seconds, 4),
        "session_seconds": round(session_seconds, 4),
        "n_models": legacy.n_models,
    }
    return report, equal


def _measure_serving(train, tmp_path):
    """Frozen-front artifact round trip plus served-prediction latency.

    Freezes a fixed-seed Figure-3 run with :func:`save_front`, loads it
    back with :func:`load_front`, and produces the ``artifact_roundtrip``
    verdict: the frozen front's ``predict_all``/``rescore`` and the
    responses served over HTTP must be bit-for-bit identical to the
    originating run's models and to
    :func:`~repro.core.report.rescore_models`.  The report is the
    trajectory's ``serving`` section: artifact size, save/cold-load
    wall-clocks, and -- per batch size 1/100/10000 -- the ``/predict``
    latency percentiles and throughput from the server's own
    :class:`~repro.serve.RequestProfiler` (swapped fresh per batch size so
    the percentiles are not mixed across scales).  Latency numbers are
    informational, never gated (noisy-runner rule); only the bit identity
    is asserted.
    """
    import threading
    import urllib.request

    import numpy as np

    from repro.core.artifact import load_front, save_front
    from repro.core.engine import run_caffeine
    from repro.core.report import rescore_models
    from repro.serve import RequestProfiler, make_server

    result = run_caffeine(train,
                          settings=WORKLOAD_SETTINGS.copy(n_generations=5))
    path = os.path.join(tmp_path, "bench-front.caffeine")
    save_start = time.perf_counter()
    n_models = save_front(result, path)
    save_seconds = time.perf_counter() - save_start

    # Offline round trip: bit identity against the originating run.
    front = load_front(path)
    models = list(result.tradeoff)
    X, y = train.X, train.y
    stacked = front.predict_all(X)
    equal = all(np.array_equal(row, model.predict(X))
                for row, model in zip(stacked, models, strict=True))
    equal = equal and np.array_equal(
        np.asarray(front.rescore(X, y)),
        np.asarray(rescore_models(models, X, y)), equal_nan=True)

    server = make_server(path)
    cold_load_ms = server.profiler.snapshot()["metrics"]["cold_load_ms"]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    report = {
        "workload": "figure3-PM front frozen + served over HTTP",
        "n_models": n_models,
        "artifact_bytes": os.path.getsize(path),
        "save_seconds": round(save_seconds, 4),
        "cold_load_ms": round(cold_load_ms, 3),
    }
    try:
        def post_predict(payload):
            request = urllib.request.Request(
                server.url + "/predict", data=payload,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=60) as response:
                return json.loads(response.read())

        # Served bit identity: one probe batch vs the frozen predictions
        # (the server maps non-finite values to JSON null).
        rng = np.random.default_rng(2005)
        probe = X[rng.integers(0, X.shape[0], size=100)]
        served = np.array(
            [np.nan if value is None else value
             for value in post_predict(
                 json.dumps({"X": probe.tolist()}).encode())["predictions"]])
        equal = equal and np.array_equal(served, front.predict(probe),
                                         equal_nan=True)

        for batch_size, n_requests in ((1, 50), (100, 20), (10000, 5)):
            batch = X[rng.integers(0, X.shape[0], size=batch_size)]
            payload = json.dumps({"X": batch.tolist()}).encode()
            server.profiler = RequestProfiler()
            for _request in range(n_requests):
                post_predict(payload)
            snapshot = server.profiler.snapshot()["steps"]["predict"]
            report[f"batch_{batch_size}"] = {
                "requests": n_requests,
                "p50_ms": round(snapshot["p50_ms"], 3),
                "p95_ms": round(snapshot["p95_ms"], 3),
                "p99_ms": round(snapshot["p99_ms"], 3),
                "rows_per_second": round(snapshot["rows_per_second"], 1),
            }
    finally:
        server.shutdown()
        server.server_close()
    return report, equal


def _measure_concurrent_store(tmp_path):
    """Two simultaneous ``ColumnCacheStore.save`` cycles on one path.

    The stores' advisory lock serializes the read-merge-write cycles, so
    the union of both writers' entries must survive -- the PR-4 fix for
    the last-writer-wins hazard.  Two threads with separate store
    instances exercise the same flock exclusion as two processes (each
    ``save`` opens the lock file independently), at bench-smoke cost.
    """
    import threading

    from repro.core.evaluation import BasisColumnCache

    import numpy as np

    path = os.path.join(tmp_path, "concurrent-columns.cache")
    n_entries = 200
    barrier = threading.Barrier(2)
    durations = {}

    def writer(worker_id):
        cache = BasisColumnCache(10000)
        for index in range(n_entries):
            cache.put((f"ds-{worker_id}", ("col", index)),
                      np.full(8, worker_id * 1000.0 + index))
        barrier.wait(timeout=30)
        start = time.perf_counter()
        ColumnCacheStore(path).save(cache)
        durations[worker_id] = time.perf_counter() - start

    threads = [threading.Thread(target=writer, args=(worker_id,))
               for worker_id in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    merged = ColumnCacheStore(path).load(max_entries=10000)
    stored = {key for key, _column in merged.items()}
    expected = {(f"ds-{worker_id}", ("col", index))
                for worker_id in (1, 2) for index in range(n_entries)}
    no_lost_entries = expected <= stored
    report = {
        "entries_per_writer": n_entries,
        "stored_entries": len(merged),
        "first_save_seconds": round(min(durations.values()), 4),
        "second_save_seconds": round(max(durations.values()), 4),
    }
    return report, no_lost_entries


def _measure_sort(population):
    """NSGA-II ranking time on one realistic population: production kernels
    ("numpy") vs the pure-Python reference ("python")."""
    report = {"population_size": len(population)}
    for backend, layers in (("python", ("pareto",)), ("numpy", ())):
        repeats = 5
        with reference_layers(*layers):
            start = time.perf_counter()
            for _ in range(repeats):
                rank_population(population)
            seconds = (time.perf_counter() - start) / repeats
        report[f"{backend}_seconds"] = round(seconds, 6)
    report["speedup"] = round(report["python_seconds"]
                              / max(report["numpy_seconds"], 1e-12), 2)
    return report


def test_population_evaluation_throughput(benchmark, bench_datasets,
                                          tmp_path):
    train, _ = bench_datasets.for_target("PM")
    engine, offspring_batches, population_batches = _capture_workloads(train)

    offspring_report, offspring_equal = _measure(engine, offspring_batches)
    reevaluation_report, reevaluation_equal = _measure(engine,
                                                       population_batches)
    column_report, column_equal = _measure_column_backend(engine,
                                                          offspring_batches)
    residual_report, residual_equal = _measure_residual_backend(
        engine, offspring_batches)
    cache_report, cache_equal = _measure_persistent_cache(
        engine, offspring_batches, str(tmp_path))
    population_1000_report, population_1000_equal, shared_final_snapshot = \
        _measure_population_1000(train)
    selection_variation_report, genome_backends_equal = \
        _measure_selection_variation(train, population_1000_report,
                                     shared_final_snapshot)
    sort_report = _measure_sort(population_batches[-1])
    session_report, session_equal = _measure_session_api(train)
    serving_report, artifact_equal = _measure_serving(train, str(tmp_path))
    concurrent_report, concurrent_ok = _measure_concurrent_store(
        str(tmp_path))

    equivalence = {
        "offspring_naive_vs_gram": offspring_equal,
        "reevaluation_naive_vs_gram": reevaluation_equal,
        "interp_vs_compiled": column_equal,
        "residual_scalar_vs_batched": residual_equal,
        "population_1000_scalar_vs_batched": population_1000_equal,
        "genome_shared_vs_deepcopy": genome_backends_equal,
        "cold_vs_warm_cache": cache_equal,
        "legacy_shim_vs_session": session_equal,
        "artifact_roundtrip": artifact_equal,
        "concurrent_store_writers_lose_nothing": concurrent_ok,
    }
    equivalence["verified"] = all(equivalence.values())

    report = {
        "workload": "figure3-PM",
        "population_size": WORKLOAD_SETTINGS.population_size,
        "n_generations": WORKLOAD_SETTINGS.n_generations,
        "offspring": offspring_report,
        "reevaluation": reevaluation_report,
        "column_backend": column_report,
        "residual_backend": residual_report,
        "persistent_cache": cache_report,
        "population_1000": population_1000_report,
        "selection_variation": selection_variation_report,
        "pareto_sort": sort_report,
        "session_api": session_report,
        "serving": serving_report,
        "concurrent_store": concurrent_report,
        "equivalence": equivalence,
    }
    write_output("bench_evaluation.json", json.dumps(report, indent=2))

    # Bit-for-bit equivalence is non-negotiable (never relaxed in CI).
    assert equivalence["verified"], \
        f"fast paths are not bit-for-bit identical: {equivalence}"

    gram_offspring = offspring_report["backends"]["gram"]
    gram_reevaluation = reevaluation_report["backends"]["gram"]
    assert gram_reevaluation["speedup"] >= MIN_REEVALUATION_SPEEDUP, \
        (f"re-evaluation speedup regressed: "
         f"{gram_reevaluation['speedup']}x < {MIN_REEVALUATION_SPEEDUP}x")
    assert gram_offspring["speedup"] >= MIN_OFFSPRING_SPEEDUP_GRAM, \
        (f"gram offspring-stream speedup regressed: "
         f"{gram_offspring['speedup']}x < {MIN_OFFSPRING_SPEEDUP_GRAM}x")
    assert column_report["end_to_end_speedup"] >= MIN_COMPILED_COLUMN_SPEEDUP, \
        (f"compiled columns lost to the interpreter: "
         f"{column_report['end_to_end_speedup']}x < "
         f"{MIN_COMPILED_COLUMN_SPEEDUP}x")
    assert residual_report["offspring_stream_speedup"] >= \
        MIN_RESIDUAL_SPEEDUP, \
        (f"batched residual pass lost to scalar scoring: "
         f"{residual_report['offspring_stream_speedup']}x < "
         f"{MIN_RESIDUAL_SPEEDUP}x")
    assert cache_report["speedup"] >= MIN_WARM_CACHE_SPEEDUP, \
        (f"warm persistent cache lost to a cold start: "
         f"{cache_report['speedup']}x < {MIN_WARM_CACHE_SPEEDUP}x")
    assert population_1000_report["kernel_hit_rate"] > \
        MIN_POPULATION_1000_KERNEL_HIT_RATE, \
        (f"population-1000 kernel hit rate regressed: "
         f"{population_1000_report['kernel_hit_rate']} <= "
         f"{MIN_POPULATION_1000_KERNEL_HIT_RATE}")
    shared_generation = selection_variation_report[
        "population_1000_shared_generation_seconds"]
    deepcopy_generation = selection_variation_report[
        "population_1000_deepcopy_generation_seconds"]
    assert deepcopy_generation / shared_generation >= \
        MIN_SHARED_VARIATION_SPEEDUP, \
        (f"shared-genome variation lost to the deepcopy reference: "
         f"{deepcopy_generation / shared_generation:.2f}x < "
         f"{MIN_SHARED_VARIATION_SPEEDUP}x")
    # Offspring reuse parental basis functions even though their fits are
    # fresh; survivors recur wholesale; offspring grams are mostly gathers;
    # a store-warmed cache serves nearly every column from disk.
    assert gram_offspring["column_cache_hit_rate"] > 0.5
    assert gram_reevaluation["fit_cache_hit_rate"] > 0.5
    assert gram_offspring["gram_pair_hit_rate"] > 0.5
    assert cache_report["warm_column_hit_rate"] > 0.9

    # ------------------------------------------------------------------
    # Timed section: one warm-cache population evaluation (the unit of work
    # the evolutionary loop repeats every generation).
    # ------------------------------------------------------------------
    final_batch = population_batches[-1]
    evaluator = PopulationEvaluator(engine.train.X, engine.train.y,
                                    WORKLOAD_SETTINGS)
    evaluator.evaluate_population([ind.clone() for ind in final_batch])

    def evaluate_final_population():
        evaluator.evaluate_population([ind.clone() for ind in final_batch])

    benchmark(evaluate_final_population)

"""Tests for the batch population-evaluation subsystem and structural keys."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import CaffeineEngine
from repro.core.evaluation import (
    BasisColumnCache,
    GramPool,
    PopulationEvaluator,
    cache_budgets,
)
from repro.core.expression import ProductTerm, UnaryOpTerm, WeightedSum, structural_key
from repro.core.functions import UNARY_OPERATORS
from repro.core.generator import ExpressionGenerator
from repro.core.individual import Individual
from repro.core.settings import CaffeineSettings
from repro.core.variable_combo import VariableCombo
from repro.core.weights import Weight
from repro.data.dataset import Dataset

from oracles import DirectFitEvaluator, evaluate_basis_matrix, \
    evaluate_individual_inplace, reference_layers


@pytest.fixture()
def generator(fast_settings):
    return ExpressionGenerator(3, fast_settings, rng=np.random.default_rng(11))


def _random_population(generator, n: int):
    return [Individual(bases=generator.random_basis_functions())
            for _ in range(n)]


class TestStructuralKey:
    def test_clone_has_equal_key(self, generator):
        for basis in generator.random_basis_functions(4):
            assert structural_key(basis) == structural_key(basis.clone())

    def test_key_is_hashable(self, generator):
        keys = {structural_key(b) for b in generator.random_basis_functions(4)}
        assert len(keys) >= 1

    def test_different_exponents_differ(self):
        a = ProductTerm(vc=VariableCombo((1, 0, -2)))
        b = ProductTerm(vc=VariableCombo((1, 0, 2)))
        assert structural_key(a) != structural_key(b)

    def test_different_weights_differ(self):
        def make(stored):
            argument = WeightedSum(offset=Weight(stored=stored))
            return ProductTerm(ops=[UnaryOpTerm(op=UNARY_OPERATORS["abs"],
                                                argument=argument)])
        assert structural_key(make(1.0)) != structural_key(make(2.0))

    def test_different_operators_differ(self):
        argument = WeightedSum(offset=Weight(stored=1.0))
        a = ProductTerm(ops=[UnaryOpTerm(op=UNARY_OPERATORS["abs"],
                                         argument=argument.clone())])
        b = ProductTerm(ops=[UnaryOpTerm(op=UNARY_OPERATORS["sqrt"],
                                         argument=argument.clone())])
        assert structural_key(a) != structural_key(b)

    def test_operator_order_is_part_of_key(self):
        # Products are not reordered: the key encodes the exact float recipe.
        argument = WeightedSum(offset=Weight(stored=1.0))
        op_a = UnaryOpTerm(op=UNARY_OPERATORS["abs"], argument=argument.clone())
        op_b = UnaryOpTerm(op=UNARY_OPERATORS["sqrt"], argument=argument.clone())
        ab = ProductTerm(ops=[op_a.clone(), op_b.clone()])
        ba = ProductTerm(ops=[op_b.clone(), op_a.clone()])
        assert structural_key(ab) != structural_key(ba)

    def test_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            structural_key(object())


class TestBasisColumnCache:
    def test_lru_eviction(self):
        cache = BasisColumnCache(max_entries=2)
        cache.put(("a",), np.zeros(3))
        cache.put(("b",), np.ones(3))
        assert cache.get(("a",)) is not None  # refresh recency of "a"
        cache.put(("c",), np.full(3, 2.0))    # evicts "b"
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache
        assert cache.stats.evictions == 1

    def test_zero_capacity_rejected(self):
        # Every evaluator caches at least one column and one fit; there is
        # no disabled mode.
        with pytest.raises(ValueError):
            BasisColumnCache(max_entries=0)
        cache = BasisColumnCache(max_entries=1)
        cache.put(("a",), np.zeros(3))
        cache.put(("b",), np.ones(3))
        assert len(cache) == 1 and ("b",) in cache

    def test_hit_rate(self):
        cache = BasisColumnCache(max_entries=4)
        cache.put(("a",), np.zeros(3))
        cache.get(("a",))
        cache.get(("missing",))
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert cache.stats.as_dict()["hit_rate"] == pytest.approx(0.5)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            BasisColumnCache(max_entries=-1)


class TestEvaluatorEquivalence:
    """Cached, uncached, serial and parallel evaluation are bit-for-bit equal."""

    def _assert_same_evaluation(self, a: Individual, b: Individual):
        assert a.error == b.error
        assert a.complexity == b.complexity
        assert a.normalization == b.normalization
        assert (a.fit is None) == (b.fit is None)
        if a.fit is not None:
            assert a.fit.intercept == b.fit.intercept
            assert np.array_equal(a.fit.coefficients, b.fit.coefficients)

    def test_matches_legacy_individual_evaluate(self, generator, rational_train,
                                                fast_settings):
        """The evaluator equals the uncached one-individual reference."""
        population = _random_population(generator, 12)
        legacy = [ind.clone() for ind in population]
        for individual in legacy:
            evaluate_individual_inplace(individual, rational_train.X,
                                        rational_train.y, fast_settings)
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        fast_settings)
        evaluator.evaluate_population(population)
        for cached, uncached in zip(population, legacy):
            self._assert_same_evaluation(cached, uncached)

    def test_cache_hit_equals_cache_miss(self, generator, rational_train,
                                         fast_settings):
        individual = _random_population(generator, 1)[0]
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        fast_settings)
        first, = evaluator.evaluate_population([individual.clone()])
        assert evaluator.n_fits_computed == 1
        # A structurally identical clone is served from the fit cache ...
        second, = evaluator.evaluate_population([individual.clone()])
        assert evaluator.n_fits_computed == 1
        assert evaluator.n_fit_requests == 2
        assert evaluator.fit_hit_rate == pytest.approx(0.5)
        self._assert_same_evaluation(first, second)
        # ... and a weight-perturbed variant misses the fit cache but still
        # evaluates correctly against the legacy path.
        from repro.core.expression import iter_weights

        variant = individual.clone()
        perturbed = False
        for basis in variant.bases:
            for weight in iter_weights(basis):
                weight.stored = weight.stored + 0.5
                perturbed = True
        legacy = variant.clone()
        evaluator.evaluate_population([variant])
        evaluate_individual_inplace(legacy, rational_train.X, rational_train.y,
                                    fast_settings)
        if perturbed:
            assert evaluator.n_fits_computed == 2
        self._assert_same_evaluation(variant, legacy)

    def test_cache_disabled_still_correct(self, generator, rational_train,
                                          fast_settings):
        """The smallest cache (one column, one fit) changes no result."""
        population = _random_population(generator, 6)
        reference = [ind.clone() for ind in population]
        no_cache = PopulationEvaluator(rational_train.X, rational_train.y,
                                       fast_settings,
                                       cache=BasisColumnCache(1))
        cached = PopulationEvaluator(rational_train.X, rational_train.y,
                                     fast_settings)
        no_cache.evaluate_population(population)
        cached.evaluate_population(reference)
        for a, b in zip(population, reference):
            self._assert_same_evaluation(a, b)

    def test_tiny_cache_evicts_but_stays_correct(self, generator, rational_train,
                                                 fast_settings):
        population = _random_population(generator, 10)
        reference = [ind.clone() for ind in population]
        tiny = PopulationEvaluator(rational_train.X, rational_train.y,
                                   fast_settings, cache=BasisColumnCache(2))
        big = PopulationEvaluator(rational_train.X, rational_train.y,
                                  fast_settings)
        tiny.evaluate_population(population)
        big.evaluate_population(reference)
        assert tiny.cache.stats.evictions > 0
        for a, b in zip(population, reference):
            self._assert_same_evaluation(a, b)

    def test_infeasible_individuals_marked(self, rational_train, fast_settings):
        # x^-4 on a dataset containing zero blows up -> non-finite column.
        X = rational_train.X.copy()
        X[0, 0] = 0.0
        bad = Individual(bases=[ProductTerm(vc=VariableCombo((-4, 0, 0)))])
        evaluator = PopulationEvaluator(X, rational_train.y, fast_settings)
        evaluator.evaluate_population([bad])
        assert not bad.is_feasible
        assert bad.error == float("inf")

    def test_evaluate_individual_inplace_helper(self, generator, rational_train,
                                                fast_settings):
        """The reference helper's shortcuts (a precomputed basis matrix,
        normalization and complexity) change nothing."""
        from repro.core.complexity import model_complexity
        from repro.data.metrics import error_normalization

        individual = _random_population(generator, 1)[0]
        reference = individual.clone()
        evaluate_individual_inplace(individual, rational_train.X,
                                    rational_train.y, fast_settings)
        evaluate_individual_inplace(
            reference, rational_train.X, rational_train.y, fast_settings,
            basis_matrix=evaluate_basis_matrix(reference.bases,
                                               rational_train.X),
            normalization=error_normalization(rational_train.y),
            complexity=model_complexity(reference.bases, fast_settings))
        self._assert_same_evaluation(individual, reference)


class TestEvaluatorValidation:
    def test_rejects_1d_X(self, fast_settings):
        with pytest.raises(ValueError):
            PopulationEvaluator(np.zeros(5), np.zeros(5), fast_settings)

    def test_rejects_sample_mismatch(self, fast_settings):
        with pytest.raises(ValueError):
            PopulationEvaluator(np.zeros((5, 2)), np.zeros(4), fast_settings)

    def test_settings_validate_backend(self):
        # Evaluation has one production path: the former backend knobs are
        # not settings any more, and neither is the cache budget, whose
        # capacity the cache itself still validates.
        with pytest.raises(TypeError):
            CaffeineSettings(evaluation_backend="gpu")
        with pytest.raises(TypeError):
            CaffeineSettings(evaluation_workers=2)
        with pytest.raises(TypeError):
            CaffeineSettings(basis_cache_size=100)
        with pytest.raises(ValueError):
            BasisColumnCache(-1)


class TestGramPoolEquivalence:
    """Gram-pool fits are bit-for-bit identical to one oracles.fit_linear per
    individual (the reference :class:`oracles.DirectFitEvaluator`)."""

    def _assert_same_evaluation(self, a: Individual, b: Individual):
        assert a.error == b.error
        assert a.complexity == b.complexity
        assert (a.fit is None) == (b.fit is None)
        if a.fit is not None:
            assert a.fit.intercept == b.fit.intercept
            assert np.array_equal(a.fit.coefficients, b.fit.coefficients)

    def test_gram_matches_direct_on_random_populations(self, generator,
                                                       rational_train,
                                                       fast_settings):
        population = _random_population(generator, 25)
        reference = [ind.clone() for ind in population]
        gram = PopulationEvaluator(rational_train.X, rational_train.y,
                                   fast_settings)
        direct = DirectFitEvaluator(rational_train.X, rational_train.y,
                                    fast_settings)
        gram.evaluate_population(population)
        direct.evaluate_population(reference)
        assert len(gram.gram_pool) > 0 and len(direct.gram_pool) == 0
        for a, b in zip(population, reference):
            self._assert_same_evaluation(a, b)

    def test_gram_pairs_reused_across_generations(self, generator,
                                                  rational_train, fast_settings):
        """Re-evaluating overlapping individuals hits the pair pool: the
        second batch (clones missing a one-entry fit cache) computes no new
        pair dots."""
        population = _random_population(generator, 10)
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        fast_settings,
                                        cache=BasisColumnCache(1))
        evaluator.evaluate_population(population)
        pairs_after_first = evaluator.gram_pool.n_pairs_computed
        assert pairs_after_first > 0
        evaluator.evaluate_population([ind.clone() for ind in population])
        assert evaluator.gram_pool.n_pairs_computed == pairs_after_first
        assert evaluator.gram_pool.pair_hit_rate > 0.0

    def test_gram_infeasible_individuals_match_direct(self, rational_train,
                                                      fast_settings):
        X = rational_train.X.copy()
        X[0, 0] = 0.0
        bad = Individual(bases=[ProductTerm(vc=VariableCombo((-4, 0, 0)))])
        gram = PopulationEvaluator(X, rational_train.y, fast_settings)
        direct = DirectFitEvaluator(X, rational_train.y, fast_settings)
        a, b = bad.clone(), bad.clone()
        gram.evaluate_population([a])
        direct.evaluate_population([b])
        assert not a.is_feasible and not b.is_feasible
        self._assert_same_evaluation(a, b)

    def test_mixed_batch_with_intercept_only_matches_reference(
            self, generator, rational_train, fast_settings):
        """Intercept-only individuals (``basis_delete`` can empty a 1-basis
        parent) form the width-0 group of one batch beside other widths,
        duplicates and an infeasible individual, bit for bit the reference
        fits."""
        X = rational_train.X.copy()
        X[0, 0] = 0.0
        train = Dataset(X, rational_train.y, rational_train.variable_names)
        infeasible = Individual(bases=[ProductTerm(vc=VariableCombo((-4, 0, 0)))])
        population = _random_population(generator, 10)
        population[3:3] = [Individual(bases=[]), infeasible]
        population += [Individual(bases=[]), population[0].clone()]
        reference = [ind.clone() for ind in population]
        CaffeineEngine(train, settings=fast_settings).evaluator \
            .evaluate_population(population)
        with reference_layers("fits"):
            direct = CaffeineEngine(train, settings=fast_settings).evaluator
        assert isinstance(direct, DirectFitEvaluator)
        direct.evaluate_population(reference)
        assert population[3].is_feasible and not population[4].is_feasible
        assert population[3].fit.coefficients.shape == (0,)
        for a, b in zip(population, reference):
            self._assert_same_evaluation(a, b)

    def test_gram_tiny_pool_still_correct(self, generator, rational_train,
                                          fast_settings):
        """A pool far smaller than one batch thrashes but never lies."""
        population = _random_population(generator, 12)
        reference = [ind.clone() for ind in population]
        tiny = PopulationEvaluator(rational_train.X, rational_train.y,
                                   fast_settings)
        tiny.gram_pool = GramPool(rational_train.y, 3)
        direct = DirectFitEvaluator(rational_train.X, rational_train.y,
                                    fast_settings)
        tiny.evaluate_population(population)
        direct.evaluate_population(reference)
        for a, b in zip(population, reference):
            self._assert_same_evaluation(a, b)

    def test_pool_renumbers_before_ids_reach_2_31(self, generator,
                                                  rational_train,
                                                  fast_settings):
        """Pair keys pack two column ids below ``2**31`` into one int64: a
        pool about to run out of ids renumbers from zero, and the fits
        before, across and after the renumbering stay bit for bit the
        reference fits."""
        population = _random_population(generator, 12)
        reference = [ind.clone() for ind in population]
        evaluator = PopulationEvaluator(rational_train.X, rational_train.y,
                                        fast_settings,
                                        cache=BasisColumnCache(1))
        pool = evaluator.gram_pool
        pool._next_id = GramPool.MAX_IDS - 3
        assert GramPool.MAX_IDS == 2 ** 31
        ids_seen = []
        for individual in population:
            evaluator.evaluate_population([individual])
            assert pool._next_id <= GramPool.MAX_IDS
            ids_seen.extend(entry[0] for entry in pool._columns.values())
            assert all(0 <= key < 2 ** 63 for key in pool._pairs)
        assert max(ids_seen) >= GramPool.MAX_IDS - 3
        assert pool._next_id < GramPool.MAX_IDS - 3  # it renumbered
        # A second pass through the renumbered pool (the one-entry fit
        # cache misses) reuses pooled pairs and still matches.
        again = [ind.clone() for ind in population]
        evaluator.evaluate_population(again)
        direct = DirectFitEvaluator(rational_train.X, rational_train.y,
                                    fast_settings)
        direct.evaluate_population(reference)
        for a, b, c in zip(population, again, reference):
            self._assert_same_evaluation(a, c)
            self._assert_same_evaluation(b, c)

    def test_pair_accounting_on_a_mixed_batch(self, generator, rational_train,
                                              fast_settings):
        """Pair requests are k(k+1)/2 per freshly fitted individual, and
        pair computations are the batch's distinct column pairs the pool
        did not hold -- over widths, within-batch duplicates, an
        intercept-only and an infeasible individual."""
        X = rational_train.X.copy()
        X[0, 0] = 0.0
        evaluator = PopulationEvaluator(X, rational_train.y, fast_settings)
        population = _random_population(generator, 10)
        evaluator.evaluate_population(population[:6])
        infeasible = Individual(bases=[ProductTerm(vc=VariableCombo((-4, 0, 0)))])
        batch = population[4:] + [
            Individual(bases=[]), infeasible, population[7].clone(),
            Individual(bases=population[0].bases[:1]
                       + population[8].bases + infeasible.bases)]

        pool = evaluator.gram_pool
        live = {entry[0]: key for key, entry in pool._columns.items()}
        pooled = {frozenset((live[packed >> 32], live[packed & (2 ** 32 - 1)]))
                  for packed in pool._pairs
                  if packed >> 32 in live and packed & (2 ** 32 - 1) in live}
        fresh = {}
        for individual in batch:
            keys = tuple(evaluator.basis_key(b) for b in individual.bases)
            if keys not in evaluator._fit_cache:
                fresh[keys] = len(keys)
        wanted = {frozenset((keys[a], keys[b]))
                  for keys in fresh for a in range(len(keys))
                  for b in range(a, len(keys))}
        requests_before = pool.n_pair_requests
        computed_before = pool.n_pairs_computed
        evaluator.evaluate_population(batch)

        assert len(fresh) < len(batch)
        assert pool.n_pair_requests - requests_before == \
            sum(k * (k + 1) // 2 for k in fresh.values())
        assert pool.n_pairs_computed - computed_before == \
            len(wanted - pooled) > 0
        assert not batch[7].is_feasible and not batch[9].is_feasible
        assert batch[6].is_feasible

    def test_settings_validate_fit_backend(self):
        # Fits and Pareto ranking have one production path each; their
        # former backend knobs are rejected outright.
        with pytest.raises(TypeError):
            CaffeineSettings(fit_backend="direct")
        with pytest.raises(TypeError):
            CaffeineSettings(gram_pool_size=100)
        with pytest.raises(ValueError):
            GramPool(np.zeros(3), -1)
        with pytest.raises(TypeError):
            CaffeineSettings(pareto_backend="python")


class TestPicklableFunctionSet:
    """The default function set round-trips through pickle (so results
    holding trees travel back from session workers and into checkpoints)."""

    def test_default_function_set_round_trips(self):
        import pickle as pickle_module

        from repro.core.functions import default_function_set

        function_set = default_function_set()
        restored = pickle_module.loads(pickle_module.dumps(function_set))
        assert restored == function_set
        x = np.linspace(0.1, 2.0, 7)
        for original, copy in zip(
                function_set.unary + function_set.binary,
                restored.unary + restored.binary):
            args = (x,) * original.arity
            assert np.array_equal(original(*args), copy(*args),
                                  equal_nan=True)

    def test_operator_bearing_tree_round_trips(self, generator):
        import pickle as pickle_module

        X = np.linspace(0.5, 1.5, 12).reshape(4, 3)
        for basis in generator.random_basis_functions(4):
            restored = pickle_module.loads(pickle_module.dumps(basis))
            assert structural_key(restored) == structural_key(basis)
            assert np.array_equal(basis.evaluate(X), restored.evaluate(X),
                                  equal_nan=True)


class TestSharedColumnCache:
    """One BasisColumnCache serves several evaluators via dataset keys."""

    def test_same_data_shares_columns(self, generator, rational_train,
                                      fast_settings):
        from repro.core.evaluation import dataset_fingerprint

        population = _random_population(generator, 8)
        shared = BasisColumnCache(max_entries=5000)
        y_other = rational_train.y * 2.0 + 1.0
        first = PopulationEvaluator(rational_train.X, rational_train.y,
                                    fast_settings, cache=shared)
        second = PopulationEvaluator(rational_train.X, y_other,
                                     fast_settings, cache=shared)
        assert first.dataset_key == second.dataset_key == \
            (dataset_fingerprint(rational_train.X),
             fast_settings.function_set.fingerprint())
        first.evaluate_population([ind.clone() for ind in population])
        computed_by_first = first.n_columns_computed
        assert computed_by_first > 0
        # Same X, different target: every column comes from the shared cache.
        second.evaluate_population([ind.clone() for ind in population])
        assert second.n_columns_computed == 0
        assert second.column_hit_rate == 1.0

    def test_different_function_sets_never_collide(self, rational_train,
                                                   fast_settings):
        """Same X but a different operator binding gets its own namespace:
        structural keys identify operators by name, so cross-set sharing is
        only safe when the implementations provably match."""
        from repro.core.functions import rational_function_set

        shared = BasisColumnCache(max_entries=5000)
        full = PopulationEvaluator(rational_train.X, rational_train.y,
                                   fast_settings, cache=shared)
        rational = PopulationEvaluator(
            rational_train.X, rational_train.y,
            fast_settings.copy(function_set=rational_function_set()),
            cache=shared)
        assert full.dataset_key != rational.dataset_key

    def test_different_data_never_collides(self, generator, rational_train,
                                           fast_settings):
        population = _random_population(generator, 6)
        shared = BasisColumnCache(max_entries=5000)
        X_other = rational_train.X * 1.5
        first = PopulationEvaluator(rational_train.X, rational_train.y,
                                    fast_settings, cache=shared)
        second = PopulationEvaluator(X_other, rational_train.y,
                                     fast_settings, cache=shared)
        assert first.dataset_key != second.dataset_key
        first.evaluate_population([ind.clone() for ind in population])
        shared_clones = [ind.clone() for ind in population]
        second.evaluate_population(shared_clones)
        # The shared cache must not have served columns evaluated on the
        # wrong X: results match a private-cache evaluation bit for bit.
        private = PopulationEvaluator(X_other, rational_train.y, fast_settings)
        private_clones = [ind.clone() for ind in population]
        private.evaluate_population(private_clones)
        assert second.n_columns_computed == private.n_columns_computed
        for a, b in zip(shared_clones, private_clones):
            assert a.error == b.error
            assert a.complexity == b.complexity


class TestEndToEndReproducibility:
    def test_cache_on_off_same_tradeoff(self, rational_train, rational_test):
        """Fixed seed => identical trade-off with the default cache and the
        smallest one (one column, one fit)."""
        base = CaffeineSettings(population_size=20, n_generations=4,
                                random_seed=7)
        cached = CaffeineEngine(rational_train, rational_test, base).run()
        uncached = CaffeineEngine(rational_train, rational_test, base,
                                  column_cache=BasisColumnCache(1)).run()
        assert [m.expression() for m in cached.tradeoff] == \
            [m.expression() for m in uncached.tradeoff]
        assert [m.train_error for m in cached.tradeoff] == \
            [m.train_error for m in uncached.tradeoff]

    def test_gram_and_pareto_backends_same_tradeoff(self, rational_train,
                                                    rational_test):
        """Fixed seed => identical trade-offs with the gram-pool fits and
        the vectorized Pareto kernels swapped for their references (all
        three non-production combinations)."""
        base = CaffeineSettings(population_size=20, n_generations=4,
                                random_seed=7)
        reference = CaffeineEngine(rational_train, rational_test, base).run()
        for layers in (("fits",), ("pareto",), ("fits", "pareto")):
            with reference_layers(*layers):
                result = CaffeineEngine(rational_train, rational_test, base).run()
                assert [m.expression() for m in result.tradeoff] == \
                    [m.expression() for m in reference.tradeoff], layers
                assert [m.train_error for m in result.tradeoff] == \
                    [m.train_error for m in reference.tradeoff]
                assert [m.test_error for m in result.tradeoff] == \
                    [m.test_error for m in reference.tradeoff]

    def test_shared_column_cache_same_tradeoff(self, rational_train,
                                               rational_test):
        """Sharing a column cache across runs never changes the models."""
        from repro.core.evaluation import BasisColumnCache as Cache

        base = CaffeineSettings(population_size=20, n_generations=3,
                                random_seed=11)
        private = CaffeineEngine(rational_train, rational_test, base).run()
        shared = Cache(cache_budgets(base).columns)
        first = CaffeineEngine(rational_train, rational_test, base,
                               column_cache=shared).run()
        second = CaffeineEngine(rational_train, rational_test, base,
                                column_cache=shared).run()
        for result in (first, second):
            assert [m.expression() for m in result.tradeoff] == \
                [m.expression() for m in private.tradeoff]

    def test_engine_cache_hits_accumulate(self, rational_train):
        settings = CaffeineSettings(population_size=20, n_generations=3,
                                    random_seed=5)
        engine = CaffeineEngine(rational_train, settings=settings)
        result = engine.run()
        assert result.n_models >= 1
        # Clones and crossover survivors re-use parental basis functions, so
        # a multi-generation run must see cache hits.
        assert engine.evaluator.cache.stats.hits > 0
        assert engine.evaluator.n_fit_requests >= \
            settings.population_size * (settings.n_generations + 1)

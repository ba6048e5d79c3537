"""Tests for random expression generation and the variation operators."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings as hyp_settings
from hypothesis import strategies as st

from repro.core.expression import ProductTerm, iter_weights, structural_key
from repro.core.functions import polynomial_function_set, rational_function_set
from repro.core.generator import ExpressionGenerator
from repro.core.grammar import default_grammar, validate_expression
from repro.core.individual import Individual
from repro.core.operators import VariationOperators
from repro.core.settings import CaffeineSettings

from oracles import DeepcopyVariationOperators, collect_slots, reference_layers


@pytest.fixture
def settings():
    return CaffeineSettings(population_size=20, n_generations=5,
                            max_basis_functions=6, random_seed=0)


@pytest.fixture
def generator(settings):
    return ExpressionGenerator(n_variables=4, settings=settings,
                               rng=np.random.default_rng(0))


@pytest.fixture
def operators(generator, settings):
    return VariationOperators(generator, settings, rng=np.random.default_rng(1))


def make_individual(generator, n_bases=3):
    return Individual(bases=generator.random_basis_functions(n_bases))


class TestGenerator:
    def test_product_terms_respect_grammar(self, generator):
        grammar = default_grammar()
        for _ in range(50):
            term = generator.random_product_term()
            assert isinstance(term, ProductTerm)
            validate_expression(term, grammar)

    def test_depth_limit_respected(self, generator):
        for _ in range(100):
            term = generator.random_product_term()
            assert term.depth <= generator.settings.max_tree_depth

    def test_basis_function_count_in_range(self, generator):
        for _ in range(30):
            bases = generator.random_basis_functions()
            assert 1 <= len(bases) <= generator.settings.max_initial_basis_functions

    def test_explicit_count_clamped(self, generator):
        bases = generator.random_basis_functions(100)
        assert len(bases) == generator.settings.max_basis_functions

    def test_polynomial_function_set_yields_vc_only_terms(self, settings):
        poly_settings = settings.copy(function_set=polynomial_function_set())
        generator = ExpressionGenerator(3, poly_settings,
                                        rng=np.random.default_rng(2))
        for _ in range(50):
            term = generator.random_product_term()
            assert term.vc is not None
            assert term.ops == []

    def test_evaluation_on_positive_data_mostly_finite(self, generator):
        X = np.random.default_rng(0).uniform(0.5, 2.0, size=(20, 4))
        finite = 0
        for _ in range(50):
            values = generator.random_product_term().evaluate(X)
            finite += int(np.all(np.isfinite(values)))
        assert finite > 25  # most random canonical-form expressions behave

    def test_invalid_dimension(self, settings):
        with pytest.raises(ValueError):
            ExpressionGenerator(0, settings)

    def test_empty_function_set_cannot_make_op_terms(self, settings):
        poly_settings = settings.copy(function_set=polynomial_function_set())
        generator = ExpressionGenerator(3, poly_settings)
        with pytest.raises(ValueError):
            generator.random_op_term(4)


class TestSlots:
    def test_collect_slots_covers_bases(self, generator):
        individual = make_individual(generator, n_bases=3)
        slots = collect_slots(individual)
        kinds = {slot.kind for slot in slots}
        assert "REPVC" in kinds
        base_slots = [s for s in slots if s.kind == "REPVC"]
        assert len(base_slots) >= 3

    def test_slot_set_replaces_node(self, generator):
        individual = make_individual(generator, n_bases=2)
        slots = [s for s in collect_slots(individual) if s.kind == "REPVC"]
        replacement = generator.random_product_term()
        slots[0].set(replacement)
        assert slots[0].get() is replacement


class TestVariationOperators:
    def test_vary_always_returns_valid_individual(self, generator, operators):
        grammar = default_grammar()
        parent_a = make_individual(generator)
        parent_b = make_individual(generator)
        for _ in range(60):
            child = operators.vary(parent_a, parent_b)
            assert isinstance(child, Individual)
            assert len(child.bases) <= operators.settings.max_basis_functions
            for basis in child.bases:
                assert basis.depth <= operators.settings.max_tree_depth
                validate_expression(basis, grammar)

    def test_parents_never_modified(self, generator, operators):
        parent_a = make_individual(generator)
        parent_b = make_individual(generator)
        renders_a = [b.render(("a", "b", "c", "d")) for b in parent_a.bases]
        renders_b = [b.render(("a", "b", "c", "d")) for b in parent_b.bases]
        for _ in range(40):
            operators.vary(parent_a, parent_b)
        assert [b.render(("a", "b", "c", "d")) for b in parent_a.bases] == renders_a
        assert [b.render(("a", "b", "c", "d")) for b in parent_b.bases] == renders_b

    def test_parameter_mutation_changes_some_weight(self, generator, operators):
        parent = make_individual(generator)
        child = operators.parameter_mutation(parent)
        parent_weights = [w.stored for b in parent.bases for w in iter_weights(b)]
        child_weights = [w.stored for b in child.bases for w in iter_weights(b)]
        if parent_weights:  # individuals without weights fall back to basis_add
            assert len(parent_weights) == len(child_weights)
            assert parent_weights != child_weights

    def test_basis_delete_reduces_count(self, generator, operators):
        parent = make_individual(generator, n_bases=3)
        child = operators.basis_delete(parent)
        assert child is not None
        assert child.n_bases == 2

    def test_basis_delete_can_reach_constant_model(self, generator, operators):
        parent = make_individual(generator, n_bases=1)
        child = operators.basis_delete(parent)
        assert child is not None
        assert child.n_bases == 0

    def test_basis_add_respects_maximum(self, generator, operators):
        parent = make_individual(generator, n_bases=6)
        assert operators.basis_add(parent) is None
        smaller = make_individual(generator, n_bases=2)
        child = operators.basis_add(smaller)
        assert child.n_bases == 3

    def test_basis_crossover_mixes_parents(self, generator, operators):
        parent_a = make_individual(generator, n_bases=3)
        parent_b = make_individual(generator, n_bases=3)
        child = operators.basis_crossover(parent_a, parent_b)
        assert child is not None
        assert 2 <= child.n_bases <= operators.settings.max_basis_functions

    def test_basis_copy_appends(self, generator, operators):
        parent_a = make_individual(generator, n_bases=2)
        parent_b = make_individual(generator, n_bases=2)
        child = operators.basis_copy(parent_a, parent_b)
        assert child is not None
        assert child.n_bases == 3

    def test_subtree_crossover_same_kind(self, generator, operators):
        parent_a = make_individual(generator, n_bases=3)
        parent_b = make_individual(generator, n_bases=3)
        child = operators.subtree_crossover(parent_a, parent_b)
        assert child is None or isinstance(child, Individual)

    def test_vc_mutation_only_touches_exponents(self, generator, operators):
        parent = make_individual(generator, n_bases=3)
        child = operators.vc_mutation(parent)
        if child is not None:
            assert child.n_bases == parent.n_bases

    def test_operator_names_include_paper_set(self, operators):
        names = set(operators.operator_names())
        assert {"parameter_mutation", "vc_mutation", "vc_crossover",
                "subtree_mutation", "subtree_crossover", "basis_crossover",
                "basis_delete", "basis_add", "basis_copy"} == names

    def test_rational_function_set_children_stay_rational(self, settings):
        rational = settings.copy(function_set=rational_function_set())
        generator = ExpressionGenerator(3, rational, rng=np.random.default_rng(5))
        operators = VariationOperators(generator, rational,
                                       rng=np.random.default_rng(6))
        from repro.core.grammar import grammar_text_for_function_set, parse_grammar
        grammar = parse_grammar(grammar_text_for_function_set(rational_function_set()))
        parent_a = make_individual(generator)
        parent_b = make_individual(generator)
        for _ in range(40):
            child = operators.vary(parent_a, parent_b)
            for basis in child.bases:
                validate_expression(basis, grammar)


def _tree_snapshot(individual):
    """Bit-level identity of an individual's genome: per-basis structural key
    (recomputed from scratch -- :func:`structural_key` is deliberately
    memo-free) plus every weight's stored value and exponent bound."""
    return tuple(
        (repr(structural_key(basis)),
         tuple((w.stored, w.exponent_bound) for w in iter_weights(basis)))
        for basis in individual.bases)


#: the production path-copying operators and the clone-and-edit reference
_GENOME_OPERATORS = {"shared": VariationOperators,
                     "deepcopy": DeepcopyVariationOperators}


def _backend_pair(backend, seed):
    settings = CaffeineSettings(population_size=20, n_generations=5,
                                max_basis_functions=6, random_seed=0)
    generator = ExpressionGenerator(n_variables=4, settings=settings,
                                    rng=np.random.default_rng(seed))
    operators = _GENOME_OPERATORS[backend](
        generator, settings, rng=np.random.default_rng(seed + 1))
    return generator, operators


#: Every variation operator with its arity (how many parents it consumes).
OPERATOR_ARITY = {
    "parameter_mutation": 1, "vc_mutation": 1, "subtree_mutation": 1,
    "basis_delete": 1, "basis_add": 1,
    "vc_crossover": 2, "subtree_crossover": 2, "basis_crossover": 2,
    "basis_copy": 2,
}


class TestGenomeBackends:
    def test_settings_reject_unknown_genome_backend(self):
        # Variation has one production genome; the reference lives in the
        # tests, so no genome switch is accepted as a setting.
        with pytest.raises(TypeError, match="genome_backend"):
            CaffeineSettings(genome_backend="deepcopy")

    def test_subtree_crossover_never_clones_whole_donor(self):
        """Regression: the deepcopy reference used to deep-clone the entire donor
        individual just to enumerate graft sites.  Counting clone() calls on
        the donor's basis roots, a single crossover may clone at most the one
        transplanted subtree (<= 1 root clone; a wholesale donor clone would
        count one per donor basis), and the shared path clones nothing."""
        for backend, per_call_limit in (("shared", 0), ("deepcopy", 1)):
            generator, operators = _backend_pair(backend, seed=10)
            parent_a = make_individual(generator, n_bases=3)
            parent_b = make_individual(generator, n_bases=3)
            counter = [0]
            for basis in parent_b.bases:
                def counting_clone(_basis=basis):
                    counter[0] += 1
                    return type(_basis).clone(_basis)
                basis.clone = counting_clone
            for _ in range(30):
                before = counter[0]
                operators.subtree_crossover(parent_a, parent_b)
                assert counter[0] - before <= per_call_limit, backend

    def test_vary_streams_bit_identical_across_backends(self):
        """The shared (path-copying) operators and the deepcopy reference
        must produce bit-identical children from an identical RNG stream --
        including when shared children are recycled as parents."""
        results = {}
        for backend in ("shared", "deepcopy"):
            generator, operators = _backend_pair(backend, seed=20)
            population = [make_individual(generator, n_bases=3)
                          for _ in range(5)]
            children = []
            for i in range(120):
                child = operators.vary(population[i % 5],
                                       population[(i * 3 + 1) % 5])
                children.append(_tree_snapshot(child))
                if i % 4 == 0:
                    population[i % 5] = child
            rng_state = operators.rng.bit_generator.state["state"]["state"]
            results[backend] = (children, rng_state)
        assert results["shared"] == results["deepcopy"]

    def test_engine_runs_bit_identical_across_backends(self, rational_train,
                                                       fast_settings):
        from repro.core.engine import CaffeineEngine

        fronts = {}
        settings = fast_settings.copy(n_generations=4)
        for backend, layers in (("shared", ()), ("deepcopy", ("genome",))):
            with reference_layers(*layers):
                result = CaffeineEngine(rational_train, settings=settings).run()
            fronts[backend] = [(repr(m.train_error), repr(m.complexity),
                                m.expression()) for m in result.tradeoff]
        assert fronts["shared"] == fronts["deepcopy"]
        assert fronts["shared"]  # non-degenerate: the run found models


class TestParentIsolationProperty:
    @given(seed=st.integers(0, 10_000),
           name=st.sampled_from(sorted(OPERATOR_ARITY)),
           backend=st.sampled_from(["shared", "deepcopy"]))
    @hyp_settings(max_examples=80, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
    def test_operator_leaves_parents_bit_identical(self, seed, name, backend):
        """After any variation operator, in either genome backend, both
        parents' trees are bit-identical to before: same structural keys,
        same stored weight values.  This is the invariant that makes
        structure sharing safe -- a shared subtree is never edited in
        place."""
        generator, operators = _backend_pair(backend, seed)
        parent_a = make_individual(generator, n_bases=1 + seed % 4)
        parent_b = make_individual(generator, n_bases=1 + (seed // 4) % 4)
        before_a = _tree_snapshot(parent_a)
        before_b = _tree_snapshot(parent_b)
        operator = getattr(operators, name)
        if OPERATOR_ARITY[name] == 1:
            operator(parent_a)
        else:
            operator(parent_a, parent_b)
        assert _tree_snapshot(parent_a) == before_a
        assert _tree_snapshot(parent_b) == before_b

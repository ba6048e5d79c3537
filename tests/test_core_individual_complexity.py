"""Tests for individuals, the linear fit of outer weights, and Eq. (1) complexity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.complexity import (
    basis_function_complexity,
    model_complexity,
    vc_cost,
)
from repro.core.evaluation import PopulationEvaluator
from repro.core.expression import ProductTerm
from repro.core.generator import ExpressionGenerator
from repro.core.individual import Individual
from repro.core.model import predict_models
from repro.core.settings import CaffeineSettings
from repro.core.variable_combo import VariableCombo

from oracles import evaluate_basis_matrix


@pytest.fixture
def settings():
    return CaffeineSettings(population_size=10, n_generations=2, random_seed=0)


@pytest.fixture
def data():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.5, 2.0, size=(60, 3))
    y = 1.0 + 2.0 * X[:, 0] / X[:, 1] + 0.3 * X[:, 2]
    return X, y


def ratio_term():
    return ProductTerm(vc=VariableCombo((1, -1, 0)))


def evaluate(individual, X, y, settings):
    """Fit one individual through the one fit path, the batch evaluator."""
    PopulationEvaluator(X, y, settings).evaluate_population([individual])


def linear_term(index):
    exponents = [0, 0, 0]
    exponents[index] = 1
    return ProductTerm(vc=VariableCombo(tuple(exponents)))


class TestComplexity:
    def test_vc_cost_scales_with_exponents(self):
        assert vc_cost(VariableCombo((1, 0, -2, 1)), 0.25) == pytest.approx(1.0)
        assert vc_cost(VariableCombo((0, 0)), 0.25) == 0.0
        with pytest.raises(ValueError):
            vc_cost(VariableCombo((1,)), -1.0)

    def test_basis_function_complexity_components(self):
        term = ratio_term()
        value = basis_function_complexity(term, basis_function_cost=10.0,
                                          vc_exponent_cost=0.25)
        # wb (10) + nnodes (product term + VC = 2) + 0.25 * 2 exponents
        assert value == pytest.approx(10.0 + 2.0 + 0.5)

    def test_constant_model_has_zero_complexity(self, settings):
        assert model_complexity([], settings) == 0.0

    def test_complexity_additive_over_bases(self, settings):
        one = model_complexity([ratio_term()], settings)
        two = model_complexity([ratio_term(), ratio_term()], settings)
        assert two == pytest.approx(2.0 * one)

    def test_more_exponents_cost_more(self, settings):
        simple = model_complexity([ProductTerm(vc=VariableCombo((1, 0, 0)))], settings)
        heavy = model_complexity([ProductTerm(vc=VariableCombo((2, -2, 1)))], settings)
        assert heavy > simple


class TestBasisMatrix:
    def test_shapes(self, data):
        X, _ = data
        matrix = evaluate_basis_matrix([ratio_term(), linear_term(2)], X)
        assert matrix.shape == (X.shape[0], 2)
        empty = evaluate_basis_matrix([], X)
        assert empty.shape == (X.shape[0], 0)

    def test_values_match_direct_evaluation(self, data):
        X, _ = data
        matrix = evaluate_basis_matrix([ratio_term()], X)
        np.testing.assert_allclose(matrix[:, 0], X[:, 0] / X[:, 1])

    def test_blowups_become_nan(self):
        X = np.array([[1e20, 1e-20, 1.0]])
        term = ProductTerm(vc=VariableCombo((3, -3, 0)))
        matrix = evaluate_basis_matrix([term], X)
        assert np.isnan(matrix).all()


class TestIndividualEvaluation:
    def test_exact_model_reaches_zero_error(self, settings, data):
        X, y = data
        individual = Individual(bases=[ratio_term(), linear_term(2)])
        evaluate(individual, X, y, settings)
        assert individual.is_feasible
        assert individual.error < 1e-8
        assert individual.fit.intercept == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(individual.fit.coefficients, [2.0, 0.3],
                                   atol=1e-6)

    def test_constant_individual(self, settings, data):
        X, y = data
        individual = Individual(bases=[])
        evaluate(individual, X, y, settings)
        assert individual.is_feasible
        assert individual.complexity == 0.0
        assert individual.fit.intercept == pytest.approx(np.mean(y))
        # RMS of a centered fit relative to the range: well below 100 %.
        assert 0.0 < individual.error < 0.6

    def test_infeasible_individual_when_basis_blows_up(self, settings):
        X = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        y = np.array([1.0, 2.0])
        individual = Individual(bases=[ProductTerm(vc=VariableCombo((-1, 0, 0)))])
        evaluate(individual, X, y, settings)
        assert not individual.is_feasible
        assert individual.error == float("inf")
        with pytest.raises(ValueError):
            predict_models([individual], X)

    def test_predict_matches_fit(self, settings, data):
        X, y = data
        individual = Individual(bases=[ratio_term()])
        evaluate(individual, X, y, settings)
        predictions = predict_models([individual], X)[0]
        assert predictions.shape == y.shape
        assert np.all(np.isfinite(predictions))

    def test_clone_resets_evaluation(self, settings, data):
        X, y = data
        individual = Individual(bases=[ratio_term()])
        evaluate(individual, X, y, settings)
        clone = individual.clone()
        assert clone.fit is None
        assert not np.isfinite(clone.complexity)
        assert clone.n_bases == individual.n_bases

    def test_render_shows_coefficients_and_bases(self, settings, data):
        X, y = data
        individual = Individual(bases=[ratio_term(), linear_term(2)])
        evaluate(individual, X, y, settings)
        text = individual.render(("a", "b", "c"))
        assert "a / b" in text
        assert "c" in text

    def test_objectives_tuple(self, settings, data):
        X, y = data
        individual = Individual(bases=[ratio_term()])
        evaluate(individual, X, y, settings)
        error, complexity = individual.objectives
        assert error == individual.error
        assert complexity == individual.complexity

    def test_random_individuals_usually_feasible(self, settings, data):
        X, y = data
        generator = ExpressionGenerator(3, settings, rng=np.random.default_rng(1))
        feasible = 0
        for _ in range(40):
            individual = Individual(bases=generator.random_basis_functions())
            evaluate(individual, X, y, settings)
            feasible += int(individual.is_feasible)
        assert feasible > 20

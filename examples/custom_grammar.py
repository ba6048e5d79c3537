#!/usr/bin/env python3
"""Restricting the grammar: rationals, polynomials and custom operator sets.

The paper stresses that "the designer can turn off any of the rules if they
are considered unwanted or unneeded", e.g. restricting the search to
polynomials or rationals or removing hard-to-interpret functions.  This
example shows the three ways to do that with the library:

1. use one of the provided restricted function sets;
2. build a custom :class:`~repro.core.FunctionSet` directly;
3. write the grammar as text (the paper's own workflow: "the grammar was
   defined in a separate text file and parsed by the CAFFEINE system") and
   derive the function set from it.

Run with::

    python examples/custom_grammar.py
"""

from __future__ import annotations

import numpy as np

from repro import CaffeineSettings, Dataset, Problem, Session
from repro.core import (
    FunctionSet,
    default_function_set,
    function_set_from_grammar,
    grammar_text_for_function_set,
    parse_grammar,
    polynomial_function_set,
    rational_function_set,
)


def make_dataset(n_samples: int, seed: int) -> Dataset:
    """Samples of ``y = 1 + x0^2 / x1 + ln(x2)`` on a positive region."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 3.0, size=(n_samples, 3))
    y = 1.0 + X[:, 0] ** 2 / X[:, 1] + np.log(X[:, 2])
    return Dataset(X, y, variable_names=("x0", "x1", "x2"), target_name="y")


def run_with(name: str, function_set: FunctionSet, train: Dataset,
             test: Dataset) -> None:
    settings = CaffeineSettings(
        population_size=50,
        n_generations=20,
        max_basis_functions=5,
        random_seed=11,
        function_set=function_set,
    )
    result = Session([Problem(train, test)], settings=settings).run().single()
    best = result.best_model()
    print(f"{name:>28}: train {best.train_error_percent:5.2f}%  "
          f"test {best.test_error_percent:5.2f}%   y ~ {best.expression()[:70]}")


def main() -> None:
    train = make_dataset(200, seed=0)
    test = make_dataset(120, seed=1)

    print("Ground truth: y = 1 + x0^2/x1 + ln(x2)\n")

    # 1. provided restricted sets
    run_with("full grammar", default_function_set(), train, test)
    run_with("rationals only", rational_function_set(), train, test)
    run_with("polynomials only", polynomial_function_set(), train, test)

    # 2. a hand-built custom set: logs and division, nothing else
    custom = FunctionSet(unary=("ln", "log10"), binary=("div",))
    run_with("custom (ln, log10, div)", custom, train, test)

    # 3. round-trip through grammar text, as the original tool did
    text = grammar_text_for_function_set(custom)
    print("\nGrammar text generated for the custom set:\n")
    print(text)
    grammar = parse_grammar(text)
    recovered = function_set_from_grammar(grammar)
    print(f"\nOperators recovered from the grammar text: {recovered.names()}")


if __name__ == "__main__":
    main()

"""Tests for the function set and the grammar machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.expression import ProductTerm, UnaryOpTerm, WeightedSum, WeightedTerm
from repro.core.functions import (
    BINARY_OPERATORS,
    FunctionSet,
    UNARY_OPERATORS,
    default_function_set,
    polynomial_function_set,
    rational_function_set,
)
from repro.core.grammar import (
    CAFFEINE_GRAMMAR_TEXT,
    GrammarError,
    default_grammar,
    function_set_from_grammar,
    grammar_text_for_function_set,
    parse_grammar,
    validate_expression,
)
from repro.core.variable_combo import VariableCombo
from repro.core.weights import Weight


class TestOperators:
    def test_unary_operators_vectorized(self):
        x = np.array([1.0, 4.0, 9.0])
        np.testing.assert_allclose(UNARY_OPERATORS["sqrt"](x), np.sqrt(x))
        np.testing.assert_allclose(UNARY_OPERATORS["inv"](x), 1.0 / x)
        np.testing.assert_allclose(UNARY_OPERATORS["max0"](np.array([-1.0, 2.0])),
                                   [0.0, 2.0])

    def test_binary_operators_vectorized(self):
        a, b = np.array([1.0, 8.0]), np.array([2.0, 4.0])
        np.testing.assert_allclose(BINARY_OPERATORS["div"](a, b), a / b)
        np.testing.assert_allclose(BINARY_OPERATORS["min"](a, b), [1.0, 4.0])

    def test_arity_enforced(self):
        with pytest.raises(TypeError):
            UNARY_OPERATORS["ln"](np.ones(3), np.ones(3))
        with pytest.raises(TypeError):
            BINARY_OPERATORS["div"](np.ones(3))

    def test_format_templates(self):
        assert UNARY_OPERATORS["ln"].format("x") == "ln(x)"
        assert BINARY_OPERATORS["div"].format("a", "b") == "(a) / (b)"
        with pytest.raises(TypeError):
            UNARY_OPERATORS["ln"].format("a", "b")

    def test_domain_violations_do_not_raise(self):
        values = UNARY_OPERATORS["ln"](np.array([-1.0, 0.0, 1.0]))
        assert np.isnan(values[0]) and np.isinf(values[1])


class TestFunctionSet:
    def test_default_set_matches_paper(self):
        fs = default_function_set()
        names = set(fs.names())
        assert {"sqrt", "ln", "log10", "inv", "abs", "square", "sin", "cos",
                "tan", "max0", "min0", "exp2", "exp10", "div", "pow",
                "max", "min"} <= names

    def test_restricted_sets(self):
        assert set(rational_function_set().names()) == {"inv", "div"}
        assert polynomial_function_set().names() == ()
        assert not polynomial_function_set().has_nonlinear_operators

    def test_without(self):
        fs = default_function_set().without("sin", "cos", "tan")
        assert "sin" not in fs.names()

    def test_unknown_operator_rejected(self):
        with pytest.raises(KeyError):
            FunctionSet(unary=("nonsense",))
        with pytest.raises(KeyError):
            default_function_set().operator("nonsense")

    def test_equality_and_hash(self):
        assert rational_function_set() == rational_function_set()
        assert hash(rational_function_set()) == hash(rational_function_set())
        assert rational_function_set() != polynomial_function_set()


class TestGrammarParsing:
    def test_default_grammar_parses(self):
        grammar = default_grammar()
        assert grammar.start_symbol == "REPVC"
        assert "REPADD" in grammar.nonterminals
        assert "VC" in grammar.terminals
        assert "W" in grammar.terminals

    def test_operator_symbols_extracted(self):
        grammar = default_grammar()
        assert "DIVIDE" in grammar.operator_symbols("2OP")
        assert "LOG10" in grammar.operator_symbols("1OP")
        assert grammar.operator_symbols("MISSING") == ()

    def test_round_trip_render_and_parse(self):
        grammar = default_grammar()
        reparsed = parse_grammar(grammar.render())
        assert set(reparsed.nonterminals) == set(grammar.nonterminals)
        assert set(reparsed.terminals) == set(grammar.terminals)

    def test_malformed_lines_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar("REPVC 'VC'")
        with pytest.raises(GrammarError):
            parse_grammar("=> 'VC'")
        with pytest.raises(GrammarError):
            parse_grammar("REPVC => 'VC' | ")

    def test_duplicate_rule_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar("REPVC => 'VC'\nREPVC => 'W'")

    def test_missing_start_symbol_rejected(self):
        with pytest.raises(GrammarError):
            parse_grammar("FOO => 'VC'", start_symbol="REPVC")

    def test_comments_and_continuations(self):
        text = """
        # comment line
        REPVC => 'VC'
            | REPVC '*' REPOP
        REPOP => 1OP '(' 'W' ')'
        1OP => 'INV'
        """
        grammar = parse_grammar(text)
        assert len(grammar.rule("REPVC").productions) == 2


class TestGrammarFunctionSetBridge:
    def test_function_set_from_default_grammar(self):
        fs = function_set_from_grammar(default_grammar())
        assert set(fs.names()) == set(default_function_set().names())

    def test_text_for_function_set_round_trip(self):
        custom = FunctionSet(unary=("ln", "inv"), binary=("div",))
        text = grammar_text_for_function_set(custom)
        recovered = function_set_from_grammar(parse_grammar(text))
        assert set(recovered.names()) == set(custom.names())

    def test_unknown_symbol_rejected(self):
        with pytest.raises(GrammarError):
            function_set_from_grammar(parse_grammar(
                "REPVC => 'VC'\n1OP => 'WIBBLE'\nREPADD => 'W' '*' REPVC"))

    def test_polynomial_grammar_has_no_operator_rules(self):
        text = grammar_text_for_function_set(polynomial_function_set())
        grammar = parse_grammar(text)
        assert grammar.operator_symbols("1OP") == ()
        assert grammar.operator_symbols("2OP") == ()


class TestValidateExpression:
    def _term_with(self, operator_name):
        inner = WeightedSum(offset=Weight.from_value(1.0),
                            terms=[WeightedTerm(Weight.from_value(1.0),
                                                ProductTerm(vc=VariableCombo((1,))))])
        return ProductTerm(ops=[UnaryOpTerm(op=UNARY_OPERATORS[operator_name],
                                            argument=inner)])

    def test_allowed_expression_passes(self):
        validate_expression(self._term_with("ln"), default_grammar())

    def test_disallowed_operator_fails(self):
        restricted = parse_grammar(grammar_text_for_function_set(
            rational_function_set()))
        with pytest.raises(GrammarError):
            validate_expression(self._term_with("sin"), restricted)

    def test_paper_grammar_text_constant_available(self):
        assert "REPVC" in CAFFEINE_GRAMMAR_TEXT
        assert "'VC'" in CAFFEINE_GRAMMAR_TEXT

"""Canonical-form expression trees.

These node classes *are* the CAFFEINE grammar in typed form -- any tree built
from them satisfies the canonical form by construction, which is how the
reproduction guarantees that every explored expression is interpretable:

* a **basis function** is a :class:`ProductTerm` (grammar symbol ``REPVC``):
  a product of an optional variable combo and zero or more nonlinear operator
  applications;
* a **nonlinear operator application** (grammar symbol ``REPOP``) is a
  :class:`UnaryOpTerm`, :class:`BinaryOpTerm` or :class:`ConditionalOpTerm`;
  its expression arguments are weighted sums;
* a **weighted sum** (grammar symbols ``W + REPADD``) is a
  :class:`WeightedSum`: an offset weight plus weighted product terms -- i.e.
  the same canonical structure again, recursively;
* **terminals** are :class:`~repro.core.weights.Weight` parameters and
  :class:`~repro.core.variable_combo.VariableCombo` variable products.

The overall model is a linear combination of basis functions whose top-level
weights are learned by least squares (see :mod:`repro.core.individual`), so
those outer weights are *not* part of the trees.

Architecture note -- structure sharing.  The node classes are plain mutable
dataclasses, but the engine treats every tree that has entered a population
as *effectively immutable*: variation operators never edit a live tree in
place.  A child individual is built by *path copying*:
only the spine from an edited slot up to its basis root is rebuilt
(``O(depth)`` fresh nodes) and every untouched subtree is shared by
reference with the parent (see :mod:`repro.core.operators`).  Because
shared subtrees are final, derived data can be memoized directly on the
nodes -- :func:`cached_structural_key`, :func:`cached_depth` and the
compiled backend's cached skeletons flow from parent to child for free,
which keeps the evaluation caches warm across generations.  The test
suite keeps the original clone-the-parent-and-edit-in-place operators as
the fixed-seed bit-identical reference.  The freshness contract that makes
on-node memoization
safe: in-place edits only ever happen on freshly built, memo-free nodes
*before* canonicalization finalizes them (the generator and the operators
sort each fresh product term with
:func:`repro.core.compile.canonicalize_fresh_product_term`), never on a
node that a population tree already references.

Tree shape is declared once per class.  :meth:`ExpressionNode.edges` lists
a node's ordered ``(edge, occupant)`` pairs, terminals included, in the
path vocabulary the variation operators address positions with:
``("vc",)`` and ``("ops", i)`` on a product term; ``("offset",)``,
``("tweight", i)`` and ``("term", i)`` on a weighted sum; ``("argument",)``,
``("left",)``/``("right",)`` and ``("test",)``, ``("threshold",)``,
``("if_true",)``, ``("if_false",)`` on the operator terms.
:meth:`ExpressionNode.replace` is the matching shallow edit.  Everything
structural is derived from those two: ``children``, ``clone`` (a full deep
copy -- callers that want sharing simply reuse the node reference),
``n_nodes``, ``depth``, :func:`cached_depth`, :func:`iter_weights`,
:func:`iter_variable_combos` and the operators' site lists.  ``evaluate``
and ``render`` -- the semantics -- stay per class.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.functions import Operator
from repro.core.variable_combo import VariableCombo
from repro.core.weights import Weight

__all__ = [
    "ExpressionNode",
    "OpTerm",
    "UnaryOpTerm",
    "BinaryOpTerm",
    "ConditionalOpTerm",
    "WeightedTerm",
    "WeightedSum",
    "ProductTerm",
    "iter_nodes",
    "iter_weights",
    "iter_variable_combos",
    "structural_key",
    "cached_structural_key",
    "cached_depth",
]


#: a position below a node, e.g. ``("ops", 2)`` or ``("argument",)``
Edge = Tuple
#: what an edge leads to: a subtree or a terminal
Occupant = Union["ExpressionNode", Weight, VariableCombo]


class ExpressionNode:
    """Common interface of all canonical-form tree nodes."""

    #: the grammar symbol the node derives from: REPVC, REPOP or REPADD
    grammar_symbol: str

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the node on a sample matrix ``(n_samples, n_variables)``."""
        raise NotImplementedError

    def render(self, variable_names: Sequence[str]) -> str:
        """Readable rendering using the given design-variable names."""
        raise NotImplementedError

    def edges(self) -> List[Tuple[Edge, Occupant]]:
        """Ordered ``(edge, occupant)`` pairs of everything below this node.

        Every node has at least one edge (the grammar never derives an
        empty node).
        """
        raise NotImplementedError

    def replace(self, edge: Edge, new: Occupant) -> "ExpressionNode":
        """Shallow copy of this node with the occupant at ``edge`` replaced.

        Containers (ops/terms lists) are copied so the fresh node never
        aliases a shared node's mutable list; their elements stay shared.
        """
        raise NotImplementedError

    def children(self) -> Tuple["ExpressionNode", ...]:
        """Direct child nodes (terminals excluded), in edge order."""
        return tuple(child for _, child in self.edges()
                     if isinstance(child, ExpressionNode))

    def clone(self) -> "ExpressionNode":
        """Deep copy of the subtree."""
        copy = self
        for edge, child in self.edges():
            copy = copy.replace(edge, child.clone()
                                if isinstance(child, ExpressionNode)
                                else child.copy())
        return copy

    @property
    def n_nodes(self) -> int:
        """Number of tree nodes in this subtree (terminals count one each)."""
        return 1 + sum(child.n_nodes if isinstance(child, ExpressionNode)
                       else 1 for _, child in self.edges())

    @property
    def depth(self) -> int:
        """Depth of the subtree (a terminal-only node has depth 1)."""
        return 1 + max((child.depth for child in self.children()), default=0)

    def variable_combos(self) -> List[VariableCombo]:
        """All variable combos in the subtree (used by the complexity measure)."""
        return [vc for _, vc in iter_variable_combos(self)]


# ----------------------------------------------------------------------
# operator applications (grammar symbol REPOP)
# ----------------------------------------------------------------------
class OpTerm(ExpressionNode):
    """Base class for nonlinear operator applications.

    Every edge of an operator term is named after the field it reads.
    """

    op: Operator
    grammar_symbol = "REPOP"

    def replace(self, edge: Edge, new: Occupant) -> "OpTerm":
        return dataclasses.replace(self, **{edge[0]: new})


@dataclasses.dataclass
class UnaryOpTerm(OpTerm):
    """``op(W + REPADD)``: a single-input operator on a weighted sum."""

    op: Operator
    argument: "WeightedSum"

    def __post_init__(self) -> None:
        if self.op.arity != 1:
            raise ValueError(f"operator {self.op.name!r} is not unary")

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        return self.op(self.argument.evaluate(X))

    def edges(self) -> List[Tuple[Edge, Occupant]]:
        return [(("argument",), self.argument)]

    def render(self, variable_names: Sequence[str]) -> str:
        return self.op.format(self.argument.render(variable_names))


@dataclasses.dataclass
class BinaryOpTerm(OpTerm):
    """``op(2ARGS)``: a two-input operator.

    Following the grammar's ``2ARGS`` rule, each argument is either a full
    weighted sum (``W + REPADD``) or a bare weight (``MAYBEW`` choosing
    ``W``); at least one argument must be a weighted sum, so that e.g. in
    ``pow(a, b)`` either the base or the exponent -- but not both -- can be a
    constant.
    """

    op: Operator
    left: Union[Weight, "WeightedSum"]
    right: Union[Weight, "WeightedSum"]

    def __post_init__(self) -> None:
        if self.op.arity != 2:
            raise ValueError(f"operator {self.op.name!r} is not binary")
        if isinstance(self.left, Weight) and isinstance(self.right, Weight):
            raise ValueError(
                "at least one argument of a binary operator must be an expression")

    def _evaluate_argument(self, arg: Union[Weight, "WeightedSum"],
                           X: np.ndarray) -> np.ndarray:
        if isinstance(arg, Weight):
            return np.full(X.shape[0], arg.value)
        return arg.evaluate(X)

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        return self.op(self._evaluate_argument(self.left, X),
                       self._evaluate_argument(self.right, X))

    def edges(self) -> List[Tuple[Edge, Occupant]]:
        return [(("left",), self.left), (("right",), self.right)]

    def render(self, variable_names: Sequence[str]) -> str:
        def render_arg(arg: Union[Weight, WeightedSum]) -> str:
            if isinstance(arg, Weight):
                return arg.render()
            return arg.render(variable_names)

        return self.op.format(render_arg(self.left), render_arg(self.right))


@dataclasses.dataclass
class ConditionalOpTerm(OpTerm):
    """``lte(test, threshold, if_true, if_false)`` conditional expression.

    Evaluates ``if_true`` where ``test <= threshold`` and ``if_false``
    elsewhere; the threshold may be a constant weight (covering the paper's
    ``lte(testExpr, 0, ...)`` variant) or a full expression.  Disabled by
    default in the generator settings because conditionals are the least
    interpretable construct the paper allows.
    """

    op: Operator  # a pseudo-operator record carrying the name "lte"
    test: "WeightedSum"
    threshold: Union[Weight, "WeightedSum"]
    if_true: "WeightedSum"
    if_false: "WeightedSum"

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        test_values = self.test.evaluate(X)
        if isinstance(self.threshold, Weight):
            threshold_values = np.full(X.shape[0], self.threshold.value)
        else:
            threshold_values = self.threshold.evaluate(X)
        return np.where(test_values <= threshold_values,
                        self.if_true.evaluate(X), self.if_false.evaluate(X))

    def edges(self) -> List[Tuple[Edge, Occupant]]:
        return [(("test",), self.test), (("threshold",), self.threshold),
                (("if_true",), self.if_true), (("if_false",), self.if_false)]

    def render(self, variable_names: Sequence[str]) -> str:
        threshold = (self.threshold.render() if isinstance(self.threshold, Weight)
                     else self.threshold.render(variable_names))
        return (f"lte({self.test.render(variable_names)}, {threshold}, "
                f"{self.if_true.render(variable_names)}, "
                f"{self.if_false.render(variable_names)})")


# ----------------------------------------------------------------------
# weighted sums (grammar symbols W + REPADD)
# ----------------------------------------------------------------------
@dataclasses.dataclass
class WeightedTerm:
    """One ``W * REPVC`` term inside a weighted sum."""

    weight: Weight
    term: "ProductTerm"


@dataclasses.dataclass
class WeightedSum(ExpressionNode):
    """``W + sum_k W_k * REPVC_k``: the argument form of every operator."""

    offset: Weight
    terms: List[WeightedTerm] = dataclasses.field(default_factory=list)
    grammar_symbol = "REPADD"

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        result = np.full(X.shape[0], self.offset.value)
        for weighted in self.terms:
            result = result + weighted.weight.value * weighted.term.evaluate(X)
        return result

    def edges(self) -> List[Tuple[Edge, Occupant]]:
        edges: List[Tuple[Edge, Occupant]] = [(("offset",), self.offset)]
        for i, weighted in enumerate(self.terms):
            edges.append((("tweight", i), weighted.weight))
            edges.append((("term", i), weighted.term))
        return edges

    def replace(self, edge: Edge, new: Occupant) -> "WeightedSum":
        terms = list(self.terms)
        if edge[0] == "offset":
            return WeightedSum(offset=new, terms=terms)
        old = terms[edge[1]]
        terms[edge[1]] = (WeightedTerm(weight=new, term=old.term)
                          if edge[0] == "tweight"
                          else WeightedTerm(weight=old.weight, term=new))
        return WeightedSum(offset=self.offset, terms=terms)

    def render(self, variable_names: Sequence[str]) -> str:
        parts = [self.offset.render()]
        for weighted in self.terms:
            parts.append(f"{weighted.weight.render()} * "
                         f"{weighted.term.render(variable_names)}")
        return " + ".join(parts)


# ----------------------------------------------------------------------
# product terms (grammar symbol REPVC) -- the basis functions
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ProductTerm(ExpressionNode):
    """A basis function: product of a variable combo and operator terms.

    Either component may be absent, but not both: ``REPVC`` always derives to
    at least one ``VC`` or one ``REPOP``.
    """

    vc: Optional[VariableCombo] = None
    ops: List[OpTerm] = dataclasses.field(default_factory=list)
    grammar_symbol = "REPVC"

    def __post_init__(self) -> None:
        if self.vc is None and not self.ops:
            raise ValueError(
                "a product term needs a variable combo or at least one operator term")

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        result = np.ones(np.asarray(X).shape[0])
        if self.vc is not None:
            result = result * self.vc.evaluate(X)
        for op_term in self.ops:
            result = result * op_term.evaluate(X)
        return result

    def edges(self) -> List[Tuple[Edge, Occupant]]:
        edges: List[Tuple[Edge, Occupant]] = \
            [] if self.vc is None else [(("vc",), self.vc)]
        for i, op in enumerate(self.ops):
            edges.append((("ops", i), op))
        return edges

    def replace(self, edge: Edge, new: Occupant) -> "ProductTerm":
        ops = list(self.ops)
        if edge[0] == "vc":
            return ProductTerm(vc=new, ops=ops)
        ops[edge[1]] = new
        return ProductTerm(vc=self.vc, ops=ops)

    def render(self, variable_names: Sequence[str]) -> str:
        parts: List[str] = []
        if self.vc is not None and not self.vc.is_constant:
            parts.append(self.vc.render(variable_names))
        for op_term in self.ops:
            parts.append(op_term.render(variable_names))
        if not parts:
            return "1"
        return " * ".join(parts)


# ----------------------------------------------------------------------
# structural hashing
# ----------------------------------------------------------------------
def structural_key(node: Union[ExpressionNode, Weight, VariableCombo,
                               WeightedTerm]) -> Tuple:
    """Canonical hashable key of a subtree's exact structure and parameters.

    Two subtrees have equal keys if and only if they evaluate identically on
    every input *by the same sequence of floating-point operations*: operator
    names, argument order, stored weight values and variable-combo exponents
    are all part of the key, and no algebraic normalization (e.g. reordering
    commutative products) is applied.  That strictness is what lets the
    evaluation cache (:mod:`repro.core.evaluation`) substitute a cached
    column for a fresh evaluation bit-for-bit.

    Crossover and cloning copy subtrees verbatim, so identical keys are
    common across an evolving population even without normalization.

    Operators are identified by name; keys are only meaningful within one
    function set (which holds for any single CAFFEINE run).
    """
    if isinstance(node, Weight):
        return ("w", node.stored, node.exponent_bound)
    if isinstance(node, VariableCombo):
        return ("vc", node.exponents)
    if isinstance(node, WeightedTerm):
        return ("wt", structural_key(node.weight), structural_key(node.term))
    if isinstance(node, ProductTerm):
        vc_key = structural_key(node.vc) if node.vc is not None else None
        return ("pt", vc_key, tuple(structural_key(op) for op in node.ops))
    if isinstance(node, WeightedSum):
        return ("ws", structural_key(node.offset),
                tuple(structural_key(t) for t in node.terms))
    if isinstance(node, UnaryOpTerm):
        return ("op1", node.op.name, structural_key(node.argument))
    if isinstance(node, BinaryOpTerm):
        return ("op2", node.op.name, structural_key(node.left),
                structural_key(node.right))
    if isinstance(node, ConditionalOpTerm):
        return ("lte", structural_key(node.test), structural_key(node.threshold),
                structural_key(node.if_true), structural_key(node.if_false))
    raise TypeError(f"cannot compute a structural key for {type(node).__name__}")


def cached_structural_key(node: Union[ExpressionNode, Weight, VariableCombo,
                                      WeightedTerm]) -> Tuple:
    """:func:`structural_key` memoized on the nodes themselves.

    Safe only under the structure-sharing freshness contract (module
    docstring): a node's memo is written the first time its key is asked
    for, so callers must not query a node that will still be edited in
    place.  The hot paths that use this -- canonicalization's factor sort
    keys, the evaluation backends' basis keys -- all run at or after
    canonicalization, when the subtree is final.  :func:`structural_key`
    itself stays memo-free for callers that inspect trees mid-edit.
    """
    key = getattr(node, "_structural_key", None)
    if key is not None:
        return key
    if isinstance(node, Weight):
        key = ("w", node.stored, node.exponent_bound)
    elif isinstance(node, VariableCombo):
        key = ("vc", node.exponents)
    elif isinstance(node, WeightedTerm):
        key = ("wt", cached_structural_key(node.weight),
               cached_structural_key(node.term))
    elif isinstance(node, ProductTerm):
        vc_key = (cached_structural_key(node.vc)
                  if node.vc is not None else None)
        key = ("pt", vc_key, tuple(cached_structural_key(op)
                                   for op in node.ops))
    elif isinstance(node, WeightedSum):
        key = ("ws", cached_structural_key(node.offset),
               tuple(cached_structural_key(t) for t in node.terms))
    elif isinstance(node, UnaryOpTerm):
        key = ("op1", node.op.name, cached_structural_key(node.argument))
    elif isinstance(node, BinaryOpTerm):
        key = ("op2", node.op.name, cached_structural_key(node.left),
               cached_structural_key(node.right))
    elif isinstance(node, ConditionalOpTerm):
        key = ("lte", cached_structural_key(node.test),
               cached_structural_key(node.threshold),
               cached_structural_key(node.if_true),
               cached_structural_key(node.if_false))
    else:
        raise TypeError(
            f"cannot compute a structural key for {type(node).__name__}")
    node._structural_key = key
    return key


def cached_depth(node: ExpressionNode) -> int:
    """``node.depth`` memoized on the nodes (same freshness contract as
    :func:`cached_structural_key`); shared subtrees answer in O(1)."""
    depth = getattr(node, "_depth", None)
    if depth is None:
        depth = 1
        for _, child in node.edges():
            if isinstance(child, ExpressionNode):
                depth = max(depth, 1 + cached_depth(child))
        node._depth = depth
    return depth


# ----------------------------------------------------------------------
# traversal helpers
# ----------------------------------------------------------------------
def iter_nodes(root: ExpressionNode) -> Iterator[ExpressionNode]:
    """Pre-order iteration over all (non-terminal) nodes of a subtree."""
    stack: List[ExpressionNode] = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def iter_weights(root: ExpressionNode) -> Iterator[Weight]:
    """All :class:`Weight` terminals in a subtree (mutable references)."""
    for node in iter_nodes(root):
        for _, child in node.edges():
            if isinstance(child, Weight):
                yield child


def iter_variable_combos(root: ExpressionNode
                         ) -> Iterator[Tuple[ProductTerm, VariableCombo]]:
    """All variable combos with their owning product term."""
    for node in iter_nodes(root):
        for _, child in node.edges():
            if isinstance(child, VariableCombo):
                yield node, child

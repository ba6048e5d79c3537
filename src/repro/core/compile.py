"""Compiled basis-function evaluation: trees lowered to postorder NumPy tapes.

The interpreter (:meth:`repro.core.expression.ProductTerm.evaluate` driven by
:func:`repro.core.individual.evaluate_basis_column`) walks a tree node by
node, paying per node for method dispatch, a nested ``np.errstate`` context
per operator application, and fresh ``np.ones`` allocations for every
product.  On the offspring stream of an evolutionary run those *misses* --
trees the column cache has never seen -- are the dominant cost (ROADMAP,
follow-on to PR 1/PR 2).

:class:`TreeCompiler` removes that per-node overhead without changing a
single bit of the result.  A :class:`~repro.core.expression.ProductTerm` is
flattened into a postorder tape of NumPy calls executed in one loop under a
single ``errstate`` block, with two *fusions* that are exact by IEEE-754
semantics:

* multiplications by the interpreter's seed ``np.ones`` columns are elided
  (``1.0 * x`` reproduces ``x`` bit for bit, NaN payloads included);
* elementwise accumulations (``np.multiply``/``np.add``) write into dead
  temporaries via ``out=`` instead of allocating -- the ufunc inner loop is
  the same, so the values are identical.

Everything else runs the *same* callables in the *same* order as the
interpreter: operator nodes call ``op.implementation`` directly (the exact
function :class:`~repro.core.functions.Operator.__call__` would invoke),
variable combos call ``np.power`` on the same strided column views of ``X``,
weighted sums seed with the same ``np.full``, and conditionals use
``np.less_equal`` + ``np.where``.  (Stacking several trees into one 2-D
evaluation would amortize more call overhead but is deliberately avoided:
NumPy's SIMD transcendental loops may treat vector lanes and scalar tails
differently, so changing array shapes can change bits.  Per-column tapes
keep every operand shape and stride identical to the interpreter's.)

Tapes are **parameterized**: every ``Weight`` value and every non-zero
variable-combo exponent becomes a runtime parameter instead of a baked-in
constant, and kernels are cached by the parameter-free *skeleton* of the
tree.  This is what makes compilation profitable on the miss stream:
CAFFEINE's parameter mutation is five times likelier than any structural
operator (paper Section 6.1), and variable-combo mutation/crossover only
changes exponent values, so fresh offspring overwhelmingly reuse an
already-compiled skeleton with new parameters -- the tape walk is skipped
and only the NumPy work runs.  Compilation itself is lazy, JIT style: the
first sighting of a skeleton is interpreted (and the skeleton remembered);
a tape is built only when a skeleton recurs, so one-shot trees never pay
compilation, only the cheap skeleton walk.

A node type the compiler does not know falls back *per node*: the tape
embeds a call to that subtree's own ``evaluate``, so exotic extensions still
evaluate exactly as interpreted while the rest of the tree stays compiled
(such trees are compiled fresh per evaluation -- their embedded state cannot
be keyed -- and a node without even an ``evaluate`` method falls back to the
plain interpreter for the whole tree).

Correctness contract: ``TreeCompiler.column(basis)`` is bit-for-bit
identical to ``evaluate_basis_column(basis, X)`` (magnitude clip and NaN
semantics included) for every tree built from the node classes in
:mod:`repro.core.expression`; the hypothesis property tests in
``tests/test_core_compile.py`` enforce this over random trees, including
parameter-perturbed skeleton reuse.  Operator implementations are assumed
not to mutate their input arrays (true of every NumPy-style operation,
including the whole default function set).

Routed through the miss path of
:class:`repro.core.evaluation.PopulationEvaluator`, so the engine, the
experiment drivers and ``simplify_population`` all use it without further
wiring.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.expression import (
    BinaryOpTerm,
    ConditionalOpTerm,
    ProductTerm,
    UnaryOpTerm,
    WeightedSum,
    cached_structural_key,
    structural_key,
)
from repro.core.individual import _MAGNITUDE_LIMIT, evaluate_basis_column
from repro.core.weights import Weight

__all__ = [
    "CompilationError",
    "CompiledKernel",
    "TreeCompiler",
    "canonicalize_factors",
    "canonicalize_fresh_product_term",
    "cached_skeleton_and_params",
    "compile_basis_function",
    "skeleton_and_params",
]

#: A tape operand: a slot index (int, owned temporary), a parameter
#: reference (``("p", i)`` resolved against the per-call parameter vector),
#: or a shared read-only array (an ``X`` column view or the ones column).
Operand = Union[int, Tuple[str, int], np.ndarray]


class CompilationError(ValueError):
    """A tree cannot be lowered to a tape (callers fall back to interpretation)."""


class CompiledKernel:
    """One basis-function skeleton lowered to a postorder tape.

    The tape is a sequence of steps ``(fn, args, out_arg, result_slot)``:
    ``fn`` is called with ``args`` (slot indices resolved against the
    per-call slot table, parameter references against the per-call parameter
    vector; arrays passed through), writing into ``args[out_arg]``'s buffer
    when ``out_arg`` is not None, and the result lands in ``result_slot``.
    Slots are allocated per call, so one kernel may be executed concurrently
    from several threads and re-executed with different parameter vectors.
    """

    __slots__ = ("_steps", "_n_slots", "_result", "n_samples", "n_params",
                 "compiled_params")

    def __init__(self, steps: Sequence[Tuple], n_slots: int, result: Operand,
                 n_samples: int, params: Sequence[float]) -> None:
        self._steps = tuple(steps)
        self._n_slots = n_slots
        self._result = result
        self.n_samples = n_samples
        #: parameter values of the tree the kernel was compiled from, in
        #: tape order -- ``kernel(kernel.compiled_params)`` evaluates it
        self.compiled_params: Tuple[float, ...] = tuple(params)
        self.n_params = len(self.compiled_params)

    @property
    def n_steps(self) -> int:
        return len(self._steps)

    def evaluate_raw(self, params: Sequence[float]) -> np.ndarray:
        """The unclipped column (the tree's ``evaluate`` value), bit for bit.

        The returned array may be one of the kernel's shared read-only
        constants; callers must not write into it.
        """
        slots: List[Optional[np.ndarray]] = [None] * self._n_slots
        for fn, args, out_arg, result_slot in self._steps:
            values = [slots[a] if type(a) is int
                      else (params[a[1]] if type(a) is tuple else a)
                      for a in args]
            if out_arg is None:
                slots[result_slot] = fn(*values)
            else:
                slots[result_slot] = fn(*values, out=values[out_arg])
        result = self._result
        return slots[result] if type(result) is int else result

    def __call__(self, params: Sequence[float]) -> np.ndarray:
        """The evaluated basis column with the interpreter's exact semantics.

        Mirrors :func:`repro.core.individual.evaluate_basis_column` step for
        step: the whole tape runs under one ``errstate(all="ignore")`` block,
        the result is coerced to float, and absurd magnitudes are mapped to
        NaN by the same ``np.where`` expression.
        """
        with np.errstate(all="ignore"):
            values = np.asarray(self.evaluate_raw(params), dtype=float)
            return np.where(np.abs(values) > _MAGNITUDE_LIMIT, np.nan, values)


# ----------------------------------------------------------------------
# canonical factor order
# ----------------------------------------------------------------------
def _comparable(key) -> Tuple:
    """A totally ordered proxy for a structural key.

    Structural keys mix strings, ints, floats, ``None`` and nested tuples,
    which Python refuses to compare across types; tagging every scalar with
    a type rank makes any two proxies comparable while preserving the
    original order within each type.
    """
    if isinstance(key, tuple):
        return (3, tuple(_comparable(part) for part in key))
    if key is None:
        return (0, 0.0)
    if isinstance(key, str):
        return (1, key)
    return (2, float(key))


def canonicalize_factors(node) -> None:
    """Sort every product term's commutative factor list, in place.

    A :class:`~repro.core.expression.ProductTerm` multiplies its operator
    factors left to right, and float multiplication is commutative but not
    associative -- two trees whose factors differ only in order evaluate to
    (last-ulp) different columns and therefore hash to different structural
    keys and compile to different kernels.  Sorting the factor lists into
    one canonical order (by a type-tagged total order over their structural
    keys) at **tree-construction time** merges those variants: the
    generator and the variation operators emit only canonical trees, so the
    interpreter, the compiler, the column cache and the kernel cache all
    agree on one representative per commutative class -- which is what
    lifts the compiled backend's kernel hit rate without touching the
    bit-for-bit compiled == interpreted guarantee (both always see the same,
    already-canonical tree).

    Subtrees whose structural key cannot be computed (exotic node types)
    keep their original order; everything else in the tree is still
    normalized.  Mutating an *evaluated* tree would invalidate cached
    columns, which is why this runs where trees are born, not where they
    are scored.

    The walk is **post-order** -- descendants are canonicalized before
    their parent's factor list is sorted -- because a parent's sort keys
    embed the (structural keys of the) nested subtrees: sorting outer
    factors against not-yet-canonical inner orderings would let nested
    order-variants keep distinct outer orders, and would make the
    normalization non-idempotent.

    Post-order is also what makes the sort keys safe to memoize on the
    nodes (:func:`~repro.core.expression.cached_structural_key`): by the
    time a factor's key is asked for, its whole subtree has already been
    canonicalized and will never change again, so the memo written here is
    the node's final key -- shared subtrees of a path-copied child answer
    from the parent's memo without a walk.
    """
    children = getattr(node, "children", None)
    if children is not None:
        for child in children():
            canonicalize_factors(child)
    if type(node) is ProductTerm and len(node.ops) > 1:
        try:
            node.ops.sort(key=lambda op: _comparable(cached_structural_key(op)))
        except TypeError:
            pass


def canonicalize_fresh_product_term(term: ProductTerm) -> None:
    """Sort one freshly path-copied product term's factor list, in place.

    The structure-sharing operators rebuild only the spine from an edited
    slot to its basis root; every subtree hanging off that spine is shared
    with the parent and therefore already canonical.  Calling this on each
    fresh spine node in deepest-first creation order is exactly the subset
    of :func:`canonicalize_factors`'s post-order work that can actually
    reorder anything -- sorting an untouched, already-sorted factor list is
    a stable no-op -- so path-copied children stay bit-identical to
    clone-and-edit children canonicalized by the full-tree pass.
    """
    if len(term.ops) > 1:
        try:
            term.ops.sort(key=lambda op: _comparable(cached_structural_key(op)))
        except TypeError:
            pass


# ----------------------------------------------------------------------
# skeleton extraction
# ----------------------------------------------------------------------
def skeleton_and_params(basis: ProductTerm) -> Tuple[Tuple, Tuple[float, ...]]:
    """``(skeleton key, parameter vector)`` of a tree, in tape order.

    The skeleton is the tree's exact structure *minus* its parameter values:
    node kinds, operator names, argument shapes and the *pattern* of active
    variable-combo factors, as a flat token tuple.  Weight values and
    non-zero exponents become positional parameters.  Two trees with equal
    skeletons compile to the same tape, so a kernel compiled for one
    evaluates the other bit for bit given its parameter vector -- the walk
    here visits parameters in exactly the order :class:`_Lowering` consumes
    them (enforced by property tests).

    ``(skeleton, params)`` is a complete evaluation-recipe identity: two
    trees sharing both evaluate identically on every input by the same
    floating-point operations, which is why the compiled evaluation backend
    uses the pair as its basis-column cache key.  Like
    :func:`~repro.core.expression.structural_key`, operators are identified
    by name, so keys are only meaningful within one function set (shared
    caches stay isolated across sets via the function-set fingerprint
    prefix).  The key is pure data (strings, ints, floats), so it pickles
    into the persistent column-cache store.

    Raises :class:`CompilationError` for node types the compiler does not
    know (their embedded state cannot be keyed).
    """
    tokens: List = []
    params: List[float] = []
    _skeleton(basis, tokens, params)
    return tuple(tokens), tuple(params)


def cached_skeleton_and_params(basis: ProductTerm
                               ) -> Tuple[Tuple, Tuple[float, ...]]:
    """:func:`skeleton_and_params` memoized on the basis root.

    Same freshness contract as
    :func:`~repro.core.expression.cached_structural_key`: only queried at
    evaluation time, when the tree is canonical and final.  A path-copied
    child shares all-but-one basis with its parent, so all shared bases
    answer without re-walking their trees.
    """
    cached = getattr(basis, "_skeleton_params", None)
    if cached is not None:
        return cached
    pair = skeleton_and_params(basis)
    basis._skeleton_params = pair
    return pair


def _skeleton(node, tokens: List, params: List[float]) -> None:
    kind = type(node)
    if kind is ProductTerm:
        vc = node.vc
        append = tokens.append
        append("pt")
        if vc is None:
            append(-1)
        else:
            # Arity is part of the key: the interpreter validates
            # X.shape[1] against it, and compilation does too -- aliasing
            # combos of different arity would let a cache hit skip that
            # check.
            append(vc.n_variables)
            active = [index for index, exponent in enumerate(vc.exponents)
                      if exponent != 0]
            append(len(active))
            tokens.extend(active)
            params.extend(float(vc.exponents[index]) for index in active)
        append(len(node.ops))
        for op_term in node.ops:
            _skeleton(op_term, tokens, params)
        return
    if kind is WeightedSum:
        tokens.append("ws")
        tokens.append(len(node.terms))
        params.append(node.offset.value)
        for weighted in node.terms:
            _skeleton(weighted.term, tokens, params)
            params.append(weighted.weight.value)
        return
    if kind is UnaryOpTerm:
        tokens.append("u")
        tokens.append(node.op.name)
        _skeleton(node.argument, tokens, params)
        return
    if kind is BinaryOpTerm:
        tokens.append("b")
        tokens.append(node.op.name)
        _skeleton_argument(node.left, tokens, params)
        _skeleton_argument(node.right, tokens, params)
        return
    if kind is ConditionalOpTerm:
        tokens.append("c")
        _skeleton(node.test, tokens, params)
        _skeleton_argument(node.threshold, tokens, params)
        _skeleton(node.if_true, tokens, params)
        _skeleton(node.if_false, tokens, params)
        return
    raise CompilationError(f"cannot build a skeleton for {kind.__name__} nodes")


def _skeleton_argument(arg, tokens: List, params: List[float]) -> None:
    if type(arg) is Weight:
        tokens.append("w")
        params.append(arg.value)
    else:
        _skeleton(arg, tokens, params)


class _Lowering:
    """Single-use helper that walks one tree and emits the tape.

    Consumes parameters (weight values, variable-combo exponents) in exactly
    the order :func:`skeleton_and_params` collects them.
    """

    def __init__(self, compiler: "TreeCompiler") -> None:
        self.compiler = compiler
        self.steps: List[Tuple] = []
        self.params: List[float] = []
        self.n_slots = 0

    # -- tape emission -------------------------------------------------
    def emit(self, fn, args: Tuple[Operand, ...],
             out_arg: Optional[int] = None) -> int:
        """Append one step; returns the slot holding its result."""
        if out_arg is not None:
            result_slot = args[out_arg]
        else:
            result_slot = self.n_slots
            self.n_slots += 1
        self.steps.append((fn, args, out_arg, result_slot))
        return result_slot

    def param(self, value: float) -> Tuple[str, int]:
        """Register one parameter value, returning its tape reference."""
        reference = ("p", len(self.params))
        self.params.append(value)
        return reference

    def _accumulate(self, ufunc, acc: Operand, value: Operand) -> Operand:
        """``ufunc(acc, value)``, writing into a dead temporary when one exists.

        Every temporary is single-use (the tape is a tree flattening), so
        whichever operand is a slot can serve as the ``out=`` buffer; when
        neither operand is a slot a fresh one is allocated -- exactly the
        allocation the interpreter would have made.
        """
        if type(acc) is int:
            return self.emit(ufunc, (acc, value), out_arg=0)
        if type(value) is int:
            return self.emit(ufunc, (acc, value), out_arg=1)
        return self.emit(ufunc, (acc, value))

    # -- node lowering -------------------------------------------------
    def lower(self, node) -> Operand:
        kind = type(node)
        if kind is ProductTerm:
            return self._lower_product_term(node)
        if kind is WeightedSum:
            return self._lower_weighted_sum(node)
        if kind is UnaryOpTerm:
            argument = self.lower(node.argument)
            return self.emit(node.op.implementation, (argument,))
        if kind is BinaryOpTerm:
            left = self._lower_argument(node.left)
            right = self._lower_argument(node.right)
            return self.emit(node.op.implementation, (left, right))
        if kind is ConditionalOpTerm:
            return self._lower_conditional(node)
        # Per-node fallback: embed an interpreted evaluation of this subtree
        # in the tape.  It runs under the kernel's errstate exactly as it
        # would under evaluate_basis_column's, so the value is unchanged.
        evaluate = getattr(node, "evaluate", None)
        if not callable(evaluate):
            raise CompilationError(
                f"cannot lower {kind.__name__} (no evaluate method)")
        return self.emit(evaluate, (self.compiler.X,))

    def _lower_product_term(self, node: ProductTerm) -> Operand:
        """Left-to-right product in the interpreter's association.

        The interpreter seeds every product (and every variable combo) with
        ``np.ones`` and multiplies factors in order; multiplying by 1.0 is
        exact (values, infinities and NaN payloads alike), so the seeds are
        elided and an empty product degenerates to the shared ones column.
        """
        acc: Optional[Operand] = None
        vc = node.vc
        if vc is not None:
            X = self.compiler.X
            if X.shape[1] != vc.n_variables:
                raise ValueError(
                    f"X must have {vc.n_variables} columns, got shape {X.shape}")
            for index, exponent in enumerate(vc.exponents):
                if exponent != 0:
                    # The same strided column view the interpreter indexes,
                    # so even the memory layout seen by np.power matches;
                    # the exponent is a runtime parameter, which is how
                    # vc-mutated offspring share their parent's tape.
                    factor = self.emit(
                        np.power, (self.compiler.variable_column(index),
                                   self.param(float(exponent))))
                    acc = factor if acc is None \
                        else self._accumulate(np.multiply, acc, factor)
        for op_term in node.ops:
            factor = self.lower(op_term)
            acc = factor if acc is None \
                else self._accumulate(np.multiply, acc, factor)
        return acc if acc is not None else self.compiler.ones_column()

    def _lower_weighted_sum(self, node: WeightedSum) -> Operand:
        # The interpreter seeds the sum with np.full(n, offset); emitting the
        # same np.full (with the offset as a runtime parameter) yields an
        # owned buffer the additions below may accumulate into.
        acc: Operand = self.emit(self.compiler.full_column,
                                 (self.param(node.offset.value),))
        for weighted in node.terms:
            term_value = self.lower(weighted.term)
            weight = self.param(weighted.weight.value)
            if type(term_value) is int:
                scaled = self.emit(np.multiply, (weight, term_value), out_arg=1)
            else:
                scaled = self.emit(np.multiply, (weight, term_value))
            acc = self._accumulate(np.add, acc, scaled)
        return acc

    def _lower_argument(self, arg) -> Operand:
        """A ``MAYBEW`` operator argument: a constant column or an expression."""
        if type(arg) is Weight:
            # The interpreter materializes np.full(n, weight) for constant
            # operator arguments; same call, parameterized.
            return self.emit(self.compiler.full_column, (self.param(arg.value),))
        return self.lower(arg)

    def _lower_conditional(self, node: ConditionalOpTerm) -> Operand:
        test = self.lower(node.test)
        threshold = self._lower_argument(node.threshold)
        if_true = self.lower(node.if_true)
        if_false = self.lower(node.if_false)
        condition = self.emit(np.less_equal, (test, threshold))
        return self.emit(np.where, (condition, if_true, if_false))


class TreeCompiler:
    """Compiles basis functions against one fixed sample matrix ``X``.

    The compiler owns the shared read-only operands its kernels reference
    (``X`` column views and the ones column) plus an LRU of compiled kernels
    keyed by parameter-free skeleton, so parameter-perturbed offspring reuse
    their parent's tape.  Compilation is lazy: a skeleton's first sighting
    is interpreted and only a recurring skeleton is compiled (one-shot trees
    pay the skeleton walk, never a tape build).
    """

    def __init__(self, X: np.ndarray, max_kernels: int = 4096) -> None:
        self.X = np.asarray(X, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D (n_samples, n_variables)")
        if max_kernels < 0:
            raise ValueError("max_kernels must be non-negative")
        self.max_kernels = int(max_kernels)
        self.n_samples = self.X.shape[0]
        #: compilation / reuse accounting (benchmarks read these)
        self.n_compiled = 0
        self.n_kernel_requests = 0
        self.n_kernel_hits = 0
        self.n_interpreted = 0
        self._ones: Optional[np.ndarray] = None
        self._columns: dict = {}
        self._kernels: "OrderedDict[Tuple, CompiledKernel]" = OrderedDict()
        #: skeletons seen exactly once (interpreted, not yet compiled)
        self._seen_once: "OrderedDict[Tuple, bool]" = OrderedDict()

    @property
    def kernel_hit_rate(self) -> float:
        """Fraction of requests served by an already-compiled tape."""
        if self.n_kernel_requests == 0:
            return 0.0
        # repro-lint: allow[errstate] -- scalar int hit-rate statistic, no column arrays
        return self.n_kernel_hits / self.n_kernel_requests

    # -- shared operands -----------------------------------------------
    def ones_column(self) -> np.ndarray:
        """The read-only ones column (the interpreter's elided product seed)."""
        if self._ones is None:
            ones = np.ones(self.n_samples)
            ones.flags.writeable = False
            self._ones = ones
        return self._ones

    def full_column(self, value: float) -> np.ndarray:
        """Tape step: the interpreter's ``np.full(n_samples, value)``."""
        return np.full(self.n_samples, value)

    def variable_column(self, index: int) -> np.ndarray:
        """The strided view ``X[:, index]`` (the interpreter's exact operand)."""
        column = self._columns.get(index)
        if column is None:
            column = self.X[:, index]
            self._columns[index] = column
        return column

    # -- compilation ---------------------------------------------------
    def compile(self, basis: ProductTerm) -> CompiledKernel:
        """Lower one tree to a kernel (no caching; unknown nodes embed their
        own ``evaluate`` as a per-node fallback step)."""
        lowering = _Lowering(self)
        result = lowering.lower(basis)
        self.n_compiled += 1
        return CompiledKernel(lowering.steps, lowering.n_slots, result,
                              self.n_samples, lowering.params)

    def column(self, basis: ProductTerm) -> np.ndarray:
        """Drop-in replacement for ``evaluate_basis_column(basis, self.X)``.

        Total: every tree evaluates, bit-for-bit with the interpreter --
        through a skeleton-cached tape when the skeleton has recurred,
        through the interpreter on a skeleton's first sighting, through a
        fresh uncached tape when the tree embeds unknown (opaque) node
        types, and through the interpreter itself when a node cannot be
        lowered at all.
        """
        try:
            skeleton, params = skeleton_and_params(basis)
        except CompilationError:
            self.n_kernel_requests += 1
            try:
                kernel = self.compile(basis)
            except CompilationError:
                return evaluate_basis_column(basis, self.X)
            return kernel(kernel.compiled_params)
        return self.column_from_key(skeleton, params, basis)

    def column_from_key(self, skeleton: Tuple, params: Sequence[float],
                        basis: ProductTerm) -> np.ndarray:
        """:meth:`column` for callers that already hold the skeleton walk.

        The population evaluator keys its basis-column cache by
        ``(skeleton, params)``, so on a cache miss the walk has already been
        paid -- this entry point reuses it instead of re-walking the tree.
        """
        self.n_kernel_requests += 1
        if self.max_kernels == 0:
            return self.compile(basis)(params)
        kernel = self._kernels.get(skeleton)
        if kernel is not None:
            self._kernels.move_to_end(skeleton)
            self.n_kernel_hits += 1
            return kernel(params)
        if skeleton not in self._seen_once:
            self._seen_once[skeleton] = True
            while len(self._seen_once) > 4 * self.max_kernels:
                self._seen_once.popitem(last=False)
            # JIT warmup: one-shot skeletons are interpreted; only recurring
            # ones are worth a tape.
            self.n_interpreted += 1
            return evaluate_basis_column(basis, self.X)
        kernel = self.compile(basis)
        self._kernels[skeleton] = kernel
        self._seen_once.pop(skeleton, None)
        while len(self._kernels) > self.max_kernels:
            self._kernels.popitem(last=False)
        return kernel(params)


def compile_basis_function(basis: ProductTerm, X: np.ndarray) -> CompiledKernel:
    """One-shot convenience: compile ``basis`` against ``X``.

    ``kernel(kernel.compiled_params)`` evaluates ``basis`` itself;
    :func:`skeleton_and_params` extracts the parameter vector of any other
    tree sharing the same skeleton.
    """
    return TreeCompiler(X).compile(basis)

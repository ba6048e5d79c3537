"""The project-invariant rules, as one tuple (PR-provenanced).

Eight PRs of reproduction hardening established invariants that used to
live only in docstrings and regression tests.  Each rule here makes one of
them mechanical.  :data:`RULES` holds every rule in documentation order;
``python -m repro lint --list-rules`` lists them by id.

Every rule carries:

* ``id`` -- the stable kebab-case name used in output, waivers
  (``# repro-lint: allow[<id>] -- reason``) and ``--explain <id>``;
* ``scope`` -- the dotted-module prefixes it applies to (None = every
  linted file);
* ``node_types`` -- the AST node classes it wants to see (the engine walks
  each file once and dispatches per node);
* ``explain`` -- the invariant's rationale and provenance (which PR/docstring
  established it), printed by ``--explain``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.analysis.engine import Finding, FileContext, dotted_name

__all__ = ["Rule", "RULES", "RULES_BY_ID"]


class Rule:
    """One invariant check (see the module docstring)."""

    id: str = ""
    summary: str = ""
    hint: str = ""
    explain: str = ""
    #: dotted-module prefixes this rule applies to; None = everywhere
    scope: Optional[Tuple[str, ...]] = None
    #: AST node classes dispatched to :meth:`visit`
    node_types: Tuple[type, ...] = ()

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------------
    def finding(self, node: ast.AST, ctx: FileContext, message: str,
                hint: Optional[str] = None) -> Finding:
        return Finding(
            rule=self.id, path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            end_line=getattr(node, "end_lineno", None)
            or getattr(node, "lineno", 1),
            message=message, hint=self.hint if hint is None else hint)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
_NP = ("np", "numpy")


def _np_names(*attrs: str) -> frozenset:
    return frozenset(f"{alias}.{attr}" for alias in _NP for attr in attrs)


def _call_keyword(call: ast.Call, name: str) -> Optional[ast.expr]:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _constant_str(node: Optional[ast.expr]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ----------------------------------------------------------------------
# rule 1: bit-identity
# ----------------------------------------------------------------------
class BitIdentityRule(Rule):
    id = "bit-identity"
    summary = ("BLAS reductions (`@`, np.dot/matmul/einsum) in mandatory "
               "canonical-recipe modules")
    hint = ("use pair_dots for normal-equation entries and "
            "predict_linear_batch for predictions "
            "(repro.regression.least_squares), or waive with a reason if "
            "the site is outside the fit/predict bit-identity contract")
    explain = """\
Fit and prediction paths must use the canonical elementwise recipes, never
BLAS matrix products.  BLAS GEMM/matvec entries are *batch-shape-dependent*:
the same dot product computed inside a (3000, k) product and alone can
differ in the last ulp, which breaks every bit-for-bit guarantee the engine
makes (gram-pooled == direct fits, batched == scalar residuals, artifact
round trips).  Established in PR 2 (`pair_dots`, the module docstring of
repro/regression/least_squares.py) and extended to the prediction side in
PR 5 (`predict_linear_batch`).  Sites genuinely outside the contract (the
posynomial baseline and the PRESS/NNLS baselines) carry explicit waivers
saying so."""
    scope = ("repro.core.evaluation", "repro.core.compile",
             "repro.core.engine", "repro.core.model", "repro.core.simplify",
             "repro.regression", "repro.posynomial", "repro.data.metrics")
    node_types = (ast.BinOp, ast.Call)

    _CALLS = _np_names("dot", "matmul", "einsum", "inner", "vdot",
                       "tensordot")

    def visit(self, node, ctx):
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.MatMult):
                yield self.finding(
                    node, ctx,
                    "matrix product `@` reduces in a batch-shape-dependent "
                    "order; the canonical recipes are mandatory here")
            return
        name = dotted_name(node.func)
        if name is None:
            return
        if name in self._CALLS:
            yield self.finding(
                node, ctx,
                f"{name}() reduces in a batch-shape-dependent order; the "
                f"canonical recipes are mandatory here")
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr == "dot"
              and name.split(".")[0] not in _NP):
            yield self.finding(
                node, ctx,
                f"{name}() is a BLAS dot; the canonical recipes are "
                f"mandatory here")


# ----------------------------------------------------------------------
# rule 2: errstate discipline
# ----------------------------------------------------------------------
class ErrstateRule(Rule):
    id = "errstate"
    summary = ("numpy elementwise math outside `with np.errstate(...)` in "
               "kernel-executing modules")
    hint = ("run the operation under `with np.errstate(all=\"ignore\")` "
            "(domain violations must produce inf/nan silently, not "
            "warnings), or keep it in a single-return wrapper invoked "
            "under the caller's errstate")
    explain = """\
Evolved expressions routinely divide by zero, overflow and take logs of
negative numbers -- by design those produce inf/nan and the individual is
scored infeasible (repro/core/functions.py module docstring).  Kernel
execution therefore sits under one `np.errstate(all="ignore")` block: the
compiled tape runs its whole postorder program under a single context
(PR 3, repro/core/compile.py) and Operator.__call__ wraps interpreter
dispatch the same way.  An elementwise op outside errstate either spews
RuntimeWarnings into user code or, worse, diverges between backends when a
warning filter turns them into errors.  Single-`return` wrapper functions
are exempt: they are the operator-implementation shape whose *callers* own
the context."""
    scope = ("repro.core.compile", "repro.core.functions",
             "repro.core.variable_combo", "repro.core.individual",
             "repro.core.evaluation", "repro.gp.nodes",
             "repro.posynomial.template", "repro.data.metrics")
    node_types = (ast.Call, ast.BinOp)

    _RISKY = _np_names("log", "log2", "log10", "log1p", "exp", "expm1",
                       "sqrt", "power", "float_power", "divide",
                       "true_divide", "reciprocal", "arctanh", "arcsin",
                       "arccos", "tan", "square")

    def visit(self, node, ctx):
        if isinstance(node, ast.BinOp):
            if not isinstance(node.op, (ast.Div, ast.Pow)):
                return
            if (isinstance(node.left, ast.Constant)
                    and isinstance(node.right, ast.Constant)):
                return  # a literal like 1/2: no array math involved
            what = "`/`" if isinstance(node.op, ast.Div) else "`**`"
        else:
            name = dotted_name(node.func)
            if name not in self._RISKY:
                return
            what = f"{name}()"
        if ctx.under_errstate(node) or ctx.in_trivial_wrapper(node):
            return
        yield self.finding(
            node, ctx,
            f"elementwise {what} outside `np.errstate` in a "
            f"kernel-executing module")


# ----------------------------------------------------------------------
# rule 3: determinism
# ----------------------------------------------------------------------
class DeterminismRule(Rule):
    id = "determinism"
    summary = ("global-state randomness or wall-clock time on a result "
               "path (thread a seeded Generator / clock instead)")
    hint = ("thread a seeded np.random.Generator (or an injected clock) "
            "from CaffeineSettings through to the draw site; waive with a "
            "reason only for result-neutral uses (jitter, provenance "
            "timestamps, lock staleness)")
    explain = """\
Every engine guarantee since PR 1 is stated for *fixed seeds*: fixed-seed
outputs are bit-identical across backends (PR 5/6), across checkpoint
resume (PR 7, which serializes the RNG bit-generator state), and across
process pools (PR 4).  That only holds if all randomness flows from the
settings-seeded np.random.Generator and no result depends on wall-clock
time.  Stdlib `random.*`, `np.random.*` module-level draws (global RNG) and
seedless `np.random.default_rng()` re-introduce hidden state; `time.time()`
/ `datetime.now()` feeding results make runs unreproducible.  Result-
neutral uses (retry-backoff jitter, provenance timestamps explicitly
excluded from fingerprints, lock staleness ages) are waived where they
occur, with the reason inline.  Scoped to `repro` -- scripts in
benchmarks/ and examples/ may legitimately read wall-clocks."""
    scope = ("repro",)
    node_types = (ast.Call, ast.Import, ast.ImportFrom)

    _STDLIB_FNS = frozenset({
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "seed", "betavariate",
        "expovariate", "triangular", "vonmisesvariate", "getrandbits"})
    _GENERATOR_OK = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64"})
    _WALL_CLOCK = frozenset({
        "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
        "datetime.datetime.now", "datetime.datetime.utcnow", "date.today",
        "datetime.date.today"})

    def visit(self, node, ctx):
        if isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield self.finding(
                    node, ctx,
                    "`from random import ...` pulls global-state draws "
                    "out of sight of call-site review")
            return
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" and alias.asname:
                    yield self.finding(
                        node, ctx,
                        f"`import random as {alias.asname}` hides "
                        f"global-RNG call sites from review")
            return
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        if len(parts) == 2 and parts[0] == "random" \
                and parts[1] in self._STDLIB_FNS:
            yield self.finding(
                node, ctx,
                f"{name}() draws from the process-global stdlib RNG; "
                f"results must come from a seeded Generator")
        elif len(parts) == 3 and parts[0] in _NP and parts[1] == "random":
            attr = parts[2]
            if attr == "default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        node, ctx,
                        "seedless np.random.default_rng() draws fresh OS "
                        "entropy every call")
            elif attr not in self._GENERATOR_OK:
                yield self.finding(
                    node, ctx,
                    f"{name}() uses numpy's process-global RNG; "
                    f"results must come from a seeded Generator")
        elif name in self._WALL_CLOCK:
            yield self.finding(
                node, ctx,
                f"{name}() reads the wall clock; a result that depends on "
                f"it is unreproducible")


# ----------------------------------------------------------------------
# rule 4: spawn-safety
# ----------------------------------------------------------------------
class SpawnSafetyRule(Rule):
    id = "spawn-safety"
    summary = ("lambdas / nested functions / bound methods where a "
               "spawn-picklable module-level callable is required")
    hint = ("define the worker target/initializer as a module-level named "
            "function (pickled by reference, importable by spawn-started "
            "workers)")
    explain = """\
Process targets, executor initializers and everything shipped into a
worker process must survive pickling *by reference*: spawn-started workers
(macOS/Windows defaults) import modules fresh and can only resolve
module-level names (Session's per-problem workers start
`repro.core.session._worker_main` this way, and the default function set
is built from module-level named functions for the same reason).  A lambda, a
function defined inside another function, or a bound method
(`self.work`) either fails to pickle outright or silently resolves to
different code in the child.  This rule moves that failure to lint time."""
    scope = None
    node_types = (ast.Call,)

    def visit(self, node, ctx):
        name = dotted_name(node.func) or ""
        candidates: List[Tuple[str, Optional[ast.expr]]] = []
        if name == "ProcessPoolExecutor" or name.endswith(
                ".ProcessPoolExecutor"):
            candidates.append(
                ("process-pool initializer", _call_keyword(node,
                                                           "initializer")))
        elif name == "Process" or name.endswith(".Process"):
            candidates.append(("process target",
                               _call_keyword(node, "target")))
        for role, value in candidates:
            problem = self._unpicklable(value, ctx)
            if problem is not None:
                yield self.finding(
                    node, ctx,
                    f"{role} is {problem}, which spawn-started worker "
                    f"processes cannot import")

    def _unpicklable(self, value: Optional[ast.expr],
                     ctx: FileContext) -> Optional[str]:
        if value is None:
            return None
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.Name):
            if value.id in ctx.nested_functions:
                return f"the nested function {value.id!r}"
            return None
        if isinstance(value, ast.Attribute):
            name = dotted_name(value)
            if name is None:
                return "a computed attribute"
            root = name.split(".")[0]
            if root == "self" or root not in ctx.imported_modules:
                return f"the bound/instance attribute {name!r}"
        return None


# ----------------------------------------------------------------------
# rule 5: crash-safety
# ----------------------------------------------------------------------
class CrashSafetyRule(Rule):
    id = "crash-safety"
    summary = ("raw writes to store paths bypassing the versioned "
               "envelope; unbounded FileLock waits")
    hint = ("persist run state through the _VersionedFileStore envelope "
            "(ColumnCacheStore / RunCheckpointStore / FrontArtifactStore: "
            "atomic replace + checksum + quarantine), and give every "
            "FileLock a finite timeout")
    explain = """\
All persistent run state goes through one envelope
(repro/core/cache_store.py, PR 3, factored out and hardened in PR 7/8):
magic + format version + SHA-256 checksum, atomic mkstemp + os.replace
writes (SIGKILL mid-save leaves the previous version readable), corrupt
files quarantined to <path>.corrupt-N, and merge-under-lock so concurrent
savers never lose entries.  A bare open(path, "w") / pickle.dump to a
.cache/.ckpt/.front path has none of those properties: a crash tears the
file and the next run silently cold-starts or, worse, reads garbage.
Likewise a FileLock with timeout=None turns a dead/hung peer into an
indefinitely hung sweep -- PR 7's failure semantics assume every lock wait
has a budget that surfaces as a structured TimeoutError."""
    scope = None
    node_types = (ast.Call,)

    _STORE_HINTS = (".cache", ".ckpt", ".checkpoint", ".front")

    def visit(self, node, ctx):
        name = dotted_name(node.func) or ""
        if name == "open" and node.args:
            mode = _constant_str(
                node.args[1] if len(node.args) > 1
                else _call_keyword(node, "mode")) or "r"
            if any(flag in mode for flag in "wax+"):
                target = ast.unparse(node.args[0])
                if any(hint in target for hint in self._STORE_HINTS):
                    yield self.finding(
                        node, ctx,
                        f"raw open({target!r}, {mode!r}) bypasses the "
                        f"versioned store envelope (no atomic replace, no "
                        f"checksum, no quarantine)")
        elif name == "pickle.dump":
            yield self.finding(
                node, ctx,
                "pickle.dump() writes an unversioned, unchecksummed, "
                "non-atomic file; run state must use the store envelope")
        elif name == "FileLock" or name.endswith(".FileLock"):
            timeout = (_call_keyword(node, "timeout")
                       or (node.args[1] if len(node.args) > 1 else None))
            if (isinstance(timeout, ast.Constant)
                    and timeout.value is None):
                yield self.finding(
                    node, ctx,
                    "FileLock(timeout=None) waits forever; a dead or hung "
                    "lock holder then hangs the whole sweep")


# ----------------------------------------------------------------------
# rule 6: fault-spec validity
# ----------------------------------------------------------------------
class FaultSpecRule(Rule):
    id = "fault-spec"
    summary = ("REPRO_FAULTS / faults.install* spec strings that name "
               "unknown fault points or break the grammar")
    hint = ("use `point[:key=value]...` specs over the registered points "
            "(repro.core.faults.KNOWN_FAULT_POINTS); a typo'd point "
            "silently never fires, making the fault test vacuous")
    explain = """\
PR 7's fault harness is deliberate about silence: an armed spec whose
point name matches nothing simply never fires, so a typo like
`worker.kil` turns a crash-recovery test into a test of nothing.  This
rule parses every string literal installed via `faults.install*`,
assigned to the REPRO_FAULTS environment variable or passed to `setenv`
for it, with the real grammar (repro.core.faults.parse_faults) and
checks every point name against the registry of declared fault points
(KNOWN_FAULT_POINTS, each declared at the production call site listed in
the repro/core/faults.py table)."""
    scope = None
    node_types = (ast.Call, ast.Assign)

    def visit(self, node, ctx):
        specs: List[Tuple[ast.AST, str, bool]] = []  # node, text, is_point
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and _constant_str(getattr(target, "slice", None))
                        == "REPRO_FAULTS"):
                    text = _constant_str(node.value)
                    if text is not None:
                        specs.append((node, text, False))
        else:
            name = dotted_name(node.func) or ""
            if name.endswith("install_from_string") and node.args:
                text = _constant_str(node.args[0])
                if text is not None:
                    specs.append((node, text, False))
            elif name.endswith("faults.install") and node.args:
                text = _constant_str(node.args[0])
                if text is not None:
                    specs.append((node, text, True))
            elif (isinstance(node.func, ast.Attribute)
                  and node.func.attr == "setenv"
                  and len(node.args) >= 2
                  and _constant_str(node.args[0]) == "REPRO_FAULTS"):
                text = _constant_str(node.args[1])
                if text is not None:
                    specs.append((node, text, False))
        for spec_node, text, is_point in specs:
            for problem in self._problems(text, is_point):
                yield self.finding(spec_node, ctx, problem)

    def _problems(self, text: str, is_point: bool) -> Iterator[str]:
        try:
            from repro.core import faults
        except ImportError:  # pragma: no cover - linting a foreign tree
            return
        known = getattr(faults, "KNOWN_FAULT_POINTS", ())
        if is_point:
            if known and text not in known:
                yield (f"unknown fault point {text!r} "
                       f"(declared points: {', '.join(known)})")
            return
        try:
            parsed = faults.parse_faults(text)
        except ValueError as error:
            yield f"malformed fault spec: {error}"
            return
        for spec in parsed:
            if known and spec.point not in known:
                yield (f"unknown fault point {spec.point!r} in "
                       f"{text!r} (declared points: {', '.join(known)})")


# ----------------------------------------------------------------------
# rule 7: unordered iteration
# ----------------------------------------------------------------------
class UnorderedIterRule(Rule):
    id = "unordered-iter"
    summary = ("iterating a set in an order that can feed population, "
               "RNG-draw, cache-eviction or output order")
    hint = ("iterate `sorted(the_set)` (or keep a list/dict, which "
            "preserve insertion order); set iteration order depends on "
            "hash seeding and insertion history")
    explain = """\
Set iteration order is hash-order: it varies across processes (string
hash randomization) and across insertion histories, so any set iteration
whose order reaches a result -- population order, which individual a
tournament draws, which cache entry evicts first, the order of an output
table -- silently breaks the fixed-seed bit-identity guarantees
(PR 5/6 equivalence keys, PR 7 bit-identical resume).  Dicts and lists
are insertion-ordered and fine; membership tests on sets are fine; only
*iteration* of a set is flagged.  Wrap in sorted() to fix."""
    scope = None
    node_types = (ast.For, ast.comprehension)

    def visit(self, node, ctx):
        iterable = node.iter
        reason = self._setish(iterable, ctx)
        if reason is not None:
            yield self.finding(
                iterable if hasattr(iterable, "lineno") else node, ctx,
                f"iterating {reason} visits elements in hash order, which "
                f"is not stable across processes")

    def _setish(self, node: ast.expr, ctx: FileContext) -> Optional[str]:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("set", "frozenset"):
                return f"{name}(...)"
            return None
        if isinstance(node, ast.Name):
            function = ctx.enclosing_function(node)
            if function is None or isinstance(function, ast.Lambda):
                return None
            for stmt in ast.walk(function):
                if (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and stmt.targets[0].id == node.id):
                    inner = self._literal_setish(stmt.value)
                    if inner is not None:
                        return f"the set {node.id!r}"
        return None

    @staticmethod
    def _literal_setish(node: ast.expr) -> Optional[str]:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("set", "frozenset"):
                return name
        return None


# ----------------------------------------------------------------------
# rule 8: one production path per layer
# ----------------------------------------------------------------------
class OnePathRule(Rule):
    id = "one-path"
    summary = ("string switches on a settings or backend attribute that "
               "pick between implementations of one layer")
    hint = ("keep one production implementation per layer and move the "
            "alternative into tests/oracles.py as the reference the "
            "production path is tested against")
    explain = """\
Each layer of the engine (column evaluation, linear fits, residual scoring,
Pareto ranking, variation) has exactly one production implementation; the
plainer reference each must match bit for bit lives in tests/oracles.py,
where the equivalence tests and benchmarks use it.  The knobs that once
selected between implementations (`CaffeineSettings.*_backend` strings
resolved through a backend registry) shipped test oracles as user-facing
settings, and were removed.  This rule flags the pattern they dispatched
with -- a `settings.<field>` attribute, or any `*_backend` attribute,
compared against a string literal -- so a new implementation switch cannot
slip back into the library unnoticed."""
    scope = ("repro",)
    node_types = (ast.Compare,)

    def visit(self, node, ctx):
        operands = [node.left, *node.comparators]
        for switch in operands:
            if self._is_switch(switch) and any(
                    self._is_string(other) for other in operands
                    if other is not switch):
                yield self.finding(
                    node, ctx,
                    f"{ast.unparse(switch)} is compared against a string "
                    f"literal, which selects between implementations")
                return

    @staticmethod
    def _is_switch(node: ast.expr) -> bool:
        if not isinstance(node, ast.Attribute):
            return False
        owner = dotted_name(node.value) or ""
        return (node.attr.endswith("_backend") or owner == "settings"
                or owner.endswith(".settings"))

    @staticmethod
    def _is_string(node: ast.expr) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return bool(node.elts) and all(
                _constant_str(element) is not None for element in node.elts)
        return _constant_str(node) is not None


# ----------------------------------------------------------------------
# diagnostic pseudo-rules: never dispatched, listed in RULES so --explain,
# --list-rules and the waiver parser know them
# ----------------------------------------------------------------------
class _PseudoRule(Rule):
    node_types = ()

    def visit(self, node, ctx):  # pragma: no cover - never dispatched
        return ()


class WaiverSyntaxRule(_PseudoRule):
    id = "waiver-syntax"
    summary = "malformed waiver comments (bad grammar, unknown rule, no reason)"
    hint = "write `# repro-lint: allow[rule-id] -- reason`"
    explain = """\
Emitted by the waiver parser (repro.analysis.waivers), not by an AST
visit: a comment mentioning `repro-lint` that does not parse as
`allow[known-rule, ...] -- reason` is reported instead of silently
ignored, because a waiver that never engages is indistinguishable from a
suppressed invariant.  Unwaivable (a broken waiver cannot excuse itself)."""


class WaiverUnusedRule(_PseudoRule):
    id = "waiver-unused"
    summary = "waivers that no longer suppress any finding"
    hint = "delete the stale waiver"
    explain = """\
Emitted by the waiver layer when a well-formed waiver matched no finding.
Keeping the inventory load-bearing is what makes `deleting any single
waiver turns CI red` a meaningful property in both directions: a waiver
exists if and only if the invariant is genuinely violated at that line
for the stated reason.  Unwaivable."""


class ParseErrorRule(_PseudoRule):
    id = "parse-error"
    summary = "files the Python parser rejects"
    hint = "fix the syntax error; nothing else can be checked until it parses"
    explain = """\
Emitted by the engine when a file cannot be read or parsed.  Unwaivable:
a file that does not parse cannot carry trustworthy waiver comments."""


# ----------------------------------------------------------------------
# the rules, in documentation order
# ----------------------------------------------------------------------
RULES: Tuple[Rule, ...] = (
    BitIdentityRule(), ErrstateRule(), DeterminismRule(), SpawnSafetyRule(),
    CrashSafetyRule(), FaultSpecRule(), UnorderedIterRule(), OnePathRule(),
    WaiverSyntaxRule(), WaiverUnusedRule(), ParseErrorRule())

#: ``--explain`` looks rules up by id
RULES_BY_ID: Dict[str, Rule] = {rule.id: rule for rule in RULES}

"""The lint engine: one AST walk per file, rules dispatched per node.

Rules live in a named registry (:mod:`repro.analysis.rules`), each
declaring the AST node types it wants to see, the module scope it applies
to and an ``--explain``-able rationale.
:class:`LintEngine` parses every file once, builds a parent map and a
little per-file context (:class:`FileContext`), then dispatches each node
to the rules registered for its type -- so adding a rule never adds a
file pass.

Findings carry a rule id, a precise location (1-based line and column),
a message and a fix hint.  A finding is suppressed only by an explicit
inline waiver carrying a reason (:mod:`repro.analysis.waivers`); waivers
that suppress nothing are themselves findings, so the waiver inventory
can never silently rot.

Configuration comes from the ``[tool.repro-lint]`` block of the nearest
``pyproject.toml`` (see :class:`LintConfig`): per-rule module scopes can
be widened or narrowed and path patterns excluded without touching code.
"""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "FileContext",
    "LintConfig",
    "LintEngine",
    "LintReport",
    "module_name_for",
]

#: rule id used for files the parser rejects (not waivable: broken files
#: cannot carry trustworthy waiver comments)
PARSE_ERROR_RULE = "parse-error"


@dataclasses.dataclass
class Finding:
    """One rule violation (or waiver problem) at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    #: last line of the offending node -- a waiver anywhere on the
    #: statement's span suppresses the finding, so multi-line calls do not
    #: force the comment onto the first physical line
    end_line: int = 0
    waived: bool = False
    waiver_reason: Optional[str] = None

    def __post_init__(self) -> None:
        if self.end_line < self.line:
            self.end_line = self.line

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> dict:
        """The stable JSON shape (see ``--format json`` schema docs)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "waived": self.waived,
            "waiver_reason": self.waiver_reason,
        }


class FileContext:
    """Everything rules may ask about the file being walked."""

    def __init__(self, path: Path, module: str, tree: ast.AST,
                 source: str) -> None:
        self.path = path
        self.module = module
        self.tree = tree
        self.source = source
        self.lines = source.splitlines()
        self._parents: Dict[ast.AST, ast.AST] = {}
        #: names bound by ``import x`` / ``import x as y`` statements --
        #: how the spawn-safety rule tells ``module.func`` (fine) from
        #: ``obj.method`` (a bound method, not spawn-picklable)
        self.imported_modules: set = set()
        #: module-level function name -> ast.FunctionDef / ast.Lambda
        self.module_functions: Dict[str, ast.AST] = {}
        #: function names defined *nested* inside another function
        self.nested_functions: set = set()
        self._index()

    # ------------------------------------------------------------------
    def _index(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        self.imported_modules.add(
                            alias.asname or alias.name.split(".")[0])
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self.enclosing_function(node) is None:
                    self.module_functions.setdefault(node.name, node)
                else:
                    self.nested_functions.add(node.name)
            elif isinstance(node, ast.Assign):
                # ``name = lambda ...`` counts as a function binding too.
                if (isinstance(node.value, ast.Lambda)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    name = node.targets[0].id
                    if self.enclosing_function(node) is None:
                        self.module_functions.setdefault(name, node.value)
                    else:
                        self.nested_functions.add(name)

    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The nearest enclosing function/lambda def, or None at module level."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                return ancestor
        return None

    def under_errstate(self, node: ast.AST) -> bool:
        """Whether ``node`` sits lexically inside ``with np.errstate(...)``."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)):
                for item in ancestor.items:
                    expr = item.context_expr
                    if (isinstance(expr, ast.Call)
                            and dotted_name(expr.func) is not None
                            and dotted_name(expr.func).endswith("errstate")):
                        return True
        return False

    def in_trivial_wrapper(self, node: ast.AST) -> bool:
        """Whether ``node`` lives in a single-``return`` wrapper function.

        Operator implementations (:mod:`repro.core.functions`) are one-line
        named functions whose *callers* provide the ``errstate`` context
        (``Operator.__call__``, the compiled tape) -- the errstate rule
        exempts that shape instead of demanding a redundant context per
        wrapper.
        """
        function = self.enclosing_function(node)
        if function is None:
            return False
        if isinstance(function, ast.Lambda):
            # A lambda body is a single expression -- the same
            # caller-owns-errstate shape (the GP function table).
            return True
        body = list(function.body)
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            body = body[1:]  # drop the docstring
        return len(body) == 1 and isinstance(body[0], ast.Return)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def module_name_for(path: Path) -> str:
    """The dotted module name a file would import as.

    Resolution is purely path-based (no ``__init__.py`` probing, so fixture
    trees in tests resolve exactly like the real package): everything after
    the last ``src`` component, or from the last ``repro`` component, or the
    path relative to the working directory as a fallback.  ``benchmarks`` /
    ``examples`` scripts therefore resolve to ``benchmarks.bench_x`` -- which
    is what keeps rules scoped to ``repro`` away from them by default.
    """
    resolved = Path(path).resolve()
    parts = list(resolved.parts)
    if "src" in parts:
        index = len(parts) - 1 - parts[::-1].index("src")
        module_parts = parts[index + 1:]
    elif "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        module_parts = parts[index:]
    else:
        try:
            module_parts = resolved.relative_to(Path.cwd()).parts
        except ValueError:
            module_parts = (resolved.name,)
    module_parts = list(module_parts)
    if module_parts and module_parts[-1].endswith(".py"):
        module_parts[-1] = module_parts[-1][:-3]
    if module_parts and module_parts[-1] == "__init__":
        module_parts = module_parts[:-1]
    return ".".join(part for part in module_parts if part)


def _scope_matches(module: str, scope: Optional[Tuple[str, ...]]) -> bool:
    if scope is None:
        return True
    return any(module == prefix or module.startswith(prefix + ".")
               for prefix in scope)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LintConfig:
    """The ``[tool.repro-lint]`` block of ``pyproject.toml``.

    ``exclude``
        posix path glob patterns (matched against the path as given and as
        repo-relative) whose files are skipped entirely.
    ``disable``
        rule ids turned off outright.
    ``rule_scopes``
        per-rule module-scope overrides (``[tool.repro-lint.rules.<id>]``
        with ``scope = ["repro", ...]``); an empty list means "everywhere".
    """

    exclude: Tuple[str, ...] = ()
    disable: Tuple[str, ...] = ()
    rule_scopes: Dict[str, Optional[Tuple[str, ...]]] = dataclasses.field(
        default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, start: Optional[Path] = None) -> "LintConfig":
        """Config from the nearest ``pyproject.toml`` at/above ``start``."""
        base = Path(start) if start is not None else Path.cwd()
        if base.is_file():
            base = base.parent
        for candidate in [base, *base.parents]:
            pyproject = candidate / "pyproject.toml"
            if pyproject.is_file():
                return cls.from_pyproject(pyproject)
        return cls()

    @classmethod
    def from_pyproject(cls, path: Path) -> "LintConfig":
        data = _load_toml(Path(path))
        section = data.get("tool", {}).get("repro-lint", {})
        if not isinstance(section, dict):
            return cls()
        rule_scopes: Dict[str, Optional[Tuple[str, ...]]] = {}
        rules = section.get("rules", {})
        if isinstance(rules, dict):
            for rule_id, options in rules.items():
                if not isinstance(options, dict):
                    continue
                scope = options.get("scope")
                if isinstance(scope, list):
                    rule_scopes[str(rule_id)] = (
                        tuple(str(s) for s in scope) if scope else None)
        return cls(
            exclude=tuple(str(p) for p in section.get("exclude", []) or ()),
            disable=tuple(str(r) for r in section.get("disable", []) or ()),
            rule_scopes=rule_scopes,
        )

    def excludes(self, path: Path) -> bool:
        text = Path(path).as_posix()
        return any(fnmatch.fnmatch(text, pattern)
                   or fnmatch.fnmatch(Path(path).name, pattern)
                   for pattern in self.exclude)


def _load_toml(path: Path) -> dict:
    try:
        import tomllib
    except ImportError:  # pragma: no cover - python 3.10
        tomllib = None
    if tomllib is not None:
        try:
            with open(path, "rb") as handle:
                return tomllib.load(handle)
        except (OSError, ValueError):
            return {}
    return _parse_toml_subset(path)  # pragma: no cover - python 3.10


def _parse_toml_subset(path: Path) -> dict:  # pragma: no cover - py3.10 only
    """A minimal TOML reader for the config subset this tool documents.

    Python 3.10 (the oldest supported interpreter) has no ``tomllib`` and
    the repo vendors no TOML parser, so on that interpreter the config is
    read by this fallback: ``[table]`` headers plus ``key = "string"`` /
    ``key = ["array", "of", "strings"]`` / ``key = true|false`` pairs --
    exactly the grammar the ``[tool.repro-lint]`` docs promise.  Anything
    fancier is ignored rather than misread.
    """
    import re

    try:
        text = path.read_text()
    except OSError:
        return {}
    root: dict = {}
    current = root
    pending_key: Optional[str] = None
    pending_chunks: List[str] = []

    def assign(table: dict, key: str, raw: str) -> None:
        raw = raw.strip()
        value: object
        if raw.startswith("["):
            value = re.findall(r'"((?:[^"\\]|\\.)*)"', raw)
        elif raw.startswith('"'):
            match = re.match(r'"((?:[^"\\]|\\.)*)"', raw)
            value = match.group(1) if match else raw
        elif raw in ("true", "false"):
            value = raw == "true"
        else:
            return  # numbers/dates: not part of the documented subset
        table[key] = value

    for line in text.splitlines():
        stripped = line.strip()
        if pending_key is not None:
            pending_chunks.append(stripped)
            if "]" in stripped:
                assign(current, pending_key, " ".join(pending_chunks))
                pending_key, pending_chunks = None, []
            continue
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            names = stripped.strip("[]").strip()
            current = root
            for part in names.split("."):
                part = part.strip().strip('"')
                current = current.setdefault(part, {})
                if not isinstance(current, dict):
                    current = {}
            continue
        if "=" in stripped:
            key, _, raw = stripped.partition("=")
            key = key.strip().strip('"')
            raw = raw.split("#")[0].strip() if not raw.strip().startswith(
                '"') else raw.strip()
            if raw.startswith("[") and "]" not in raw:
                pending_key, pending_chunks = key, [raw]
                continue
            assign(current, key, raw)
    return root


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
@dataclasses.dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding]
    waived: List[Finding]
    n_files: int

    @property
    def clean(self) -> bool:
        return not self.findings

    def rule_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def as_dict(self) -> dict:
        """The stable ``--format json`` document (schema version 1)."""
        return {
            "schema": 1,
            "tool": "repro-lint",
            "n_files": self.n_files,
            "n_findings": len(self.findings),
            "n_waived": len(self.waived),
            "rule_counts": self.rule_counts(),
            "findings": [finding.as_dict() for finding in self.findings],
            "waived": [finding.as_dict() for finding in self.waived],
        }


class LintEngine:
    """Walk files once; dispatch each AST node to the registered rules."""

    def __init__(self, rules: Optional[Sequence] = None,
                 config: Optional[LintConfig] = None) -> None:
        if rules is None:
            from repro.analysis.rules import active_rules

            rules = active_rules()
        self.config = config if config is not None else LintConfig()
        self.rules = [rule for rule in rules
                      if rule.id not in self.config.disable]
        self._by_type: Dict[type, List] = {}
        for rule in self.rules:
            for node_type in rule.node_types:
                self._by_type.setdefault(node_type, []).append(rule)

    # ------------------------------------------------------------------
    def effective_scope(self, rule) -> Optional[Tuple[str, ...]]:
        if rule.id in self.config.rule_scopes:
            return self.config.rule_scopes[rule.id]
        return rule.scope

    # ------------------------------------------------------------------
    def lint_file(self, path) -> List[Finding]:
        """Every finding in one file, waivers applied (waived ones included)."""
        from repro.analysis import waivers as waivers_module

        path = Path(path)
        try:
            source = path.read_text()
        except (OSError, UnicodeDecodeError) as error:
            return [Finding(rule=PARSE_ERROR_RULE, path=str(path), line=1,
                            col=1, message=f"unreadable file: {error}")]
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as error:
            return [Finding(rule=PARSE_ERROR_RULE, path=str(path),
                            line=error.lineno or 1, col=(error.offset or 1),
                            message=f"syntax error: {error.msg}")]
        context = FileContext(path, module_name_for(path), tree, source)
        findings: List[Finding] = []
        scoped = {rule.id: _scope_matches(context.module,
                                          self.effective_scope(rule))
                  for rule in self.rules}
        for node in ast.walk(tree):
            for rule in self._by_type.get(type(node), ()):
                if not scoped[rule.id]:
                    continue
                findings.extend(rule.visit(node, context))
        waivers = waivers_module.collect_waivers(
            source, str(path), known_rules={rule.id for rule in self.rules})
        findings.extend(waivers_module.apply_waivers(findings, waivers,
                                                     str(path)))
        findings.sort(key=lambda f: (f.line, f.col, f.rule))
        return findings

    # ------------------------------------------------------------------
    def lint_paths(self, paths: Sequence) -> LintReport:
        files: List[Path] = []
        for entry in paths:
            entry = Path(entry)
            if entry.is_dir():
                files.extend(sorted(
                    p for p in entry.rglob("*.py")
                    if "__pycache__" not in p.parts))
            elif entry.suffix == ".py" or entry.is_file():
                files.append(entry)
            else:
                files.append(entry)  # surfaces as unreadable-file finding
        active: List[Finding] = []
        waived: List[Finding] = []
        n_files = 0
        for path in files:
            if self.config.excludes(path):
                continue
            n_files += 1
            for finding in self.lint_file(path):
                (waived if finding.waived else active).append(finding)
        active.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        waived.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return LintReport(findings=active, waived=waived, n_files=n_files)

"""The advertised API cannot rot: doctest the package quickstart.

The package docstring of :mod:`repro` *is* the documentation users see
first; its examples run here (and in CI's examples-smoke job) so a
refactor that breaks the quickstart breaks the build.  The code blocks of
``benchmarks/README.md`` are not executed, so their ``from repro...
import ...`` lines are at least resolved against the package.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
from pathlib import Path

import repro

README = Path(__file__).resolve().parents[1] / "benchmarks" / "README.md"
_FENCE = re.compile(r"^```")
_REPRO_IMPORT = re.compile(r"^\s*from\s+repro(\.\w+)*\s+import\b")


def _fenced_repro_imports(text: str):
    """Each ``from repro... import ...`` statement inside a fenced block,
    parsed (a parenthesized import may span several lines)."""
    inside, pending = False, ""
    for line in text.splitlines():
        if _FENCE.match(line):
            inside, pending = not inside, ""
            continue
        if not inside or not (pending or _REPRO_IMPORT.match(line)):
            continue
        pending += line.split("#", 1)[0] + "\n"
        if pending.count("(") == pending.count(")"):
            yield ast.parse(pending.strip()).body[0]
            pending = ""


def test_package_docstring_examples_run():
    results = doctest.testmod(repro, verbose=False)
    assert results.attempted > 0, "the quickstart lost its examples"
    assert results.failed == 0


def test_advertised_names_exist():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ advertises missing {name}"


def test_readme_code_blocks_import_existing_names():
    statements = list(_fenced_repro_imports(README.read_text()))
    assert statements, "benchmarks/README.md lost its code examples"
    for statement in statements:
        module = importlib.import_module(statement.module)
        for alias in statement.names:
            assert hasattr(module, alias.name), (
                f"benchmarks/README.md imports {alias.name} from "
                f"{statement.module}, which has no such name")

"""The advertised API cannot rot: doctest the package quickstart.

The package docstring of :mod:`repro` *is* the documentation users see
first; its examples run here (and in CI's examples-smoke job) so a
refactor that breaks the quickstart breaks the build.  The code blocks of
``benchmarks/README.md`` are not executed, so their ``from repro...
import ...`` lines are at least resolved against the package, and every
``python -m repro <subcommand> ...`` command the CLI docstring, the README
and the verification notes show must parse with the real CLI parser.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
import shlex
from pathlib import Path

import pytest

import repro
import repro.__main__ as cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "benchmarks" / "README.md"
VERIFY_NOTES = ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
_FENCE = re.compile(r"^\s*```")
_INLINE_CODE = re.compile(r"`([^`]+)`")
_CLI_COMMAND = re.compile(r"python -m repro\s+(.*)", re.DOTALL)
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


def _markdown_code(text: str):
    """Every fenced code line (backslash continuations joined) and every
    inline code span (which may wrap across lines) of a markdown text."""
    prose, inside, pending = [], False, ""
    for line in text.splitlines():
        if _FENCE.match(line):
            inside, pending = not inside, ""
        elif not inside:
            prose.append(line)
        elif line.endswith("\\"):
            pending += line[:-1] + " "
        else:
            yield pending + line
            pending = ""
    yield from _INLINE_CODE.findall("\n".join(prose))


def _documented_commands():
    """``(source, argv)`` of each documented ``python -m repro`` command,
    except ``lint``'s, which owns its own argv (``main`` hands it off
    before the parser)."""
    sources = [("repro.__main__", cli.__doc__.splitlines())]
    sources += [(path.name, _markdown_code(path.read_text()))
                for path in (README, VERIFY_NOTES)]
    for source, snippets in sources:
        for snippet in snippets:
            match = _CLI_COMMAND.search(snippet)
            if match:
                argv = shlex.split(match.group(1), comments=True)
                if argv[0] != "lint":
                    yield source, argv


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


@pytest.mark.parametrize("source, argv", list(_documented_commands()))
def test_documented_commands_parse(source, argv, capsys):
    parser = cli.build_parser()
    if len(argv) == 1:
        # A bare mention in prose ("`python -m repro run` under ...") only
        # names the subcommand: it must exist.
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(argv + ["--help"])
        assert excinfo.value.code == 0, (
            f"{source} names an unknown subcommand: {argv[0]}")
        return
    try:
        parser.parse_args(argv)
    except SystemExit:
        pytest.fail(f"{source} documents a command the CLI rejects: "
                    f"python -m repro {' '.join(argv)}\n"
                    f"{capsys.readouterr().err}")

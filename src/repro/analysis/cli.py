"""``python -m repro lint`` -- the command-line face of the linter.

Exit codes: 0 clean, 1 unwaived findings, 2 usage error (unknown rule id,
no such path).  ``--format github`` emits workflow-command annotations so
findings land on the PR diff; ``--format json`` emits the stable schema-1
document (``LintReport.as_dict``).
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.engine import LintEngine, LintReport
from repro.analysis.rules import RULES, RULES_BY_ID

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Check project invariants (bit-identity, determinism, "
                    "spawn/crash-safety, fault specs) with AST rules.")
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to lint (default: src/)")
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="output format (github = workflow-command annotations)")
    parser.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print a rule's rationale and provenance, then exit")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list registered rule ids with one-line summaries, then exit")
    parser.add_argument(
        "--show-waived", action="store_true",
        help="also print findings suppressed by waivers (text format)")
    return parser


def _explain(rule_id: str, stream) -> int:
    rule = RULES_BY_ID.get(rule_id)
    if rule is None:
        print(f"error: no lint rule named {rule_id!r}; "
              f"registered rules: {', '.join(sorted(RULES_BY_ID))}",
              file=sys.stderr)
        return 2
    scope = ("everywhere" if rule.scope is None
             else ", ".join(rule.scope))
    print(f"{rule.id}: {rule.summary}", file=stream)
    print(f"  default scope: {scope}", file=stream)
    print(f"  fix hint: {rule.hint}", file=stream)
    print(file=stream)
    print(textwrap.indent(rule.explain, "  "), file=stream)
    return 0


def _list_rules(stream) -> int:
    for rule in sorted(RULES, key=lambda r: r.id):
        marker = " (diagnostic)" if not rule.node_types else ""
        print(f"{rule.id:<18} {rule.summary}{marker}", file=stream)
    return 0


def _print_text(report: LintReport, show_waived: bool, stream) -> None:
    for finding in report.findings:
        print(f"{finding.location()}: [{finding.rule}] {finding.message}",
              file=stream)
        if finding.hint:
            print(f"    hint: {finding.hint}", file=stream)
    if show_waived:
        for finding in report.waived:
            print(f"{finding.location()}: [{finding.rule}] waived "
                  f"({finding.waiver_reason}): {finding.message}",
                  file=stream)
    summary = (f"{len(report.findings)} finding(s), "
               f"{len(report.waived)} waived, "
               f"{report.n_files} file(s) checked")
    print(("FAIL: " if report.findings else "OK: ") + summary, file=stream)


def _github_escape(text: str) -> str:
    """Escape per the workflow-command property/data rules."""
    return (text.replace("%", "%25").replace("\r", "%0D")
            .replace("\n", "%0A"))


def _print_github(report: LintReport, stream) -> None:
    for finding in report.findings:
        message = finding.message
        if finding.hint:
            message = f"{message} -- hint: {finding.hint}"
        print(f"::error file={finding.path},line={finding.line},"
              f"col={finding.col},title=repro-lint {finding.rule}::"
              f"{_github_escape(message)}", file=stream)
    print(f"repro-lint: {len(report.findings)} finding(s), "
          f"{len(report.waived)} waived, {report.n_files} file(s)",
          file=stream)


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(
        list(argv) if argv is not None else None)
    if args.explain:
        return _explain(args.explain, stream)
    if args.list_rules:
        return _list_rules(stream)

    paths: List[Path] = [Path(p) for p in (args.paths or ["src"])]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    report = LintEngine().lint_paths(paths)
    if args.format == "json":
        json.dump(report.as_dict(), stream, indent=2, sort_keys=False)
        stream.write("\n")
    elif args.format == "github":
        _print_github(report, stream)
    else:
        _print_text(report, args.show_waived, stream)
    return 0 if report.clean else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

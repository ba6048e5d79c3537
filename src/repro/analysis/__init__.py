"""repro.analysis -- AST-based enforcement of the project's invariants.

Eight PRs of reproduction hardening established invariants (canonical
bit-identity recipes, errstate discipline, seeded-Generator determinism,
spawn-picklable worker entry points, versioned-envelope persistence, valid
fault specs, one production path per layer) that this package makes
mechanical: one AST walk per file, rules in a named registry, inline waivers
with mandatory reasons, and a CLI (``python -m repro lint``) that CI
gates on.  See ``python -m repro lint --list-rules`` / ``--explain RULE``
and the "Project invariants" section of ``benchmarks/README.md``.
"""

from repro.analysis.engine import (
    Finding,
    FileContext,
    LintConfig,
    LintEngine,
    LintReport,
    module_name_for,
)
from repro.analysis.rules import (
    Rule,
    active_rules,
    all_rules,
    get_rule,
    register_rule,
    rule_ids,
    unregister_rule,
)
from repro.analysis.waivers import Waiver, apply_waivers, collect_waivers

__all__ = [
    "Finding",
    "FileContext",
    "LintConfig",
    "LintEngine",
    "LintReport",
    "module_name_for",
    "Rule",
    "active_rules",
    "all_rules",
    "get_rule",
    "register_rule",
    "rule_ids",
    "unregister_rule",
    "Waiver",
    "apply_waivers",
    "collect_waivers",
    "lint_paths",
]


def lint_paths(paths, config=None):
    """Lint ``paths`` with the registered rules; returns a LintReport."""
    if config is None:
        config = LintConfig.load(next(iter(paths), None))
    return LintEngine(config=config).lint_paths(list(paths))

"""repro.analysis -- AST-based enforcement of the project's invariants.

Eight PRs of reproduction hardening established invariants (canonical
bit-identity recipes, errstate discipline, seeded-Generator determinism,
spawn-picklable worker entry points, versioned-envelope persistence, valid
fault specs, one production path per layer) that this package makes
mechanical: one AST walk per file, one tuple of rules each scoped by its
own class, inline waivers with mandatory reasons, and a CLI
(``python -m repro lint``) that CI gates on.  See
``python -m repro lint --list-rules`` / ``--explain RULE`` and the
"Project invariants" section of ``benchmarks/README.md``.
"""

from repro.analysis.engine import (
    Finding,
    FileContext,
    LintEngine,
    LintReport,
    module_name_for,
)
from repro.analysis.rules import RULES, Rule
from repro.analysis.waivers import Waiver, apply_waivers, collect_waivers

__all__ = [
    "Finding",
    "FileContext",
    "LintEngine",
    "LintReport",
    "module_name_for",
    "Rule",
    "RULES",
    "Waiver",
    "apply_waivers",
    "collect_waivers",
]

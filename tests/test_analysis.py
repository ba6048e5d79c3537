"""The invariant linter: every rule, the waiver layer, config, CLI, self-check.

Each rule gets a paired trigger / non-trigger fixture (written into a
``src/repro/...``-shaped tmp tree so module scoping resolves exactly like
the real package).  The waiver grammar is exercised in all its failure
modes, the ``--format json`` schema is pinned, and the repo lints itself
clean -- including the property that deleting any single waiver in the
tree resurfaces at least one finding.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintConfig,
    LintEngine,
    Rule,
    active_rules,
    get_rule,
    module_name_for,
    register_rule,
    rule_ids,
    unregister_rule,
)
from repro.analysis.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src"


def lint_source(tmp_path, relative, source, config=None):
    """Lint ``source`` placed at ``tmp_path/relative``; return all findings."""
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    engine = LintEngine(config=config if config is not None else LintConfig())
    return engine.lint_file(path)


def rules_hit(findings, *, include_waived=False):
    return {f.rule for f in findings if include_waived or not f.waived}


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestRuleRegistry:
    def test_at_least_eight_active_rules(self):
        dispatched = [r for r in active_rules() if r.node_types]
        assert len(dispatched) >= 8

    def test_ids_and_metadata_present(self):
        expected = {"bit-identity", "errstate", "determinism",
                    "spawn-safety", "crash-safety", "fault-spec",
                    "unordered-iter", "one-path"}
        assert expected <= set(rule_ids())
        for rule_id in sorted(expected):
            rule = get_rule(rule_id)
            assert rule.summary and rule.hint and rule.explain

    def test_register_round_trip_and_shadow_guard(self):
        class Custom(Rule):
            id = "x-custom"
            summary = "test rule"
            node_types = ()

            def visit(self, node, ctx):
                return ()

        register_rule(Custom())
        try:
            assert "x-custom" in rule_ids()
            with pytest.raises(ValueError):
                register_rule(Custom())
            register_rule(Custom(), replace=True)
        finally:
            unregister_rule("x-custom")
        assert "x-custom" not in rule_ids()
        with pytest.raises(KeyError):
            get_rule("x-custom")


# ----------------------------------------------------------------------
# module scoping
# ----------------------------------------------------------------------
class TestModuleScoping:
    def test_src_layout_resolution(self, tmp_path):
        path = tmp_path / "src" / "repro" / "core" / "engine.py"
        path.parent.mkdir(parents=True)
        path.write_text("")
        assert module_name_for(path) == "repro.core.engine"

    def test_package_init_resolution(self, tmp_path):
        path = tmp_path / "src" / "repro" / "gp" / "__init__.py"
        path.parent.mkdir(parents=True)
        path.write_text("")
        assert module_name_for(path) == "repro.gp"

    def test_real_repo_paths(self):
        assert module_name_for(
            REPO_SRC / "repro" / "core" / "compile.py") == "repro.core.compile"


# ----------------------------------------------------------------------
# rule 1: bit-identity
# ----------------------------------------------------------------------
class TestBitIdentityRule:
    TRIGGER = ("import numpy as np\n"
               "def f(a, b):\n"
               "    return a @ b\n")

    def test_matmul_in_scope_triggers(self, tmp_path):
        findings = lint_source(
            tmp_path, "src/repro/regression/custom.py", self.TRIGGER)
        assert "bit-identity" in rules_hit(findings)

    def test_np_dot_and_einsum_trigger(self, tmp_path):
        source = ("import numpy as np\n"
                  "def f(a, b):\n"
                  "    x = np.dot(a, b)\n"
                  "    return np.einsum('ij,j->i', a, b) + x\n")
        findings = lint_source(
            tmp_path, "src/repro/core/evaluation.py", source)
        hits = [f for f in findings if f.rule == "bit-identity"]
        assert len(hits) == 2

    def test_method_style_dot_triggers(self, tmp_path):
        source = "def f(a, b):\n    return a.dot(b)\n"
        findings = lint_source(
            tmp_path, "src/repro/regression/custom.py", source)
        assert "bit-identity" in rules_hit(findings)

    def test_out_of_scope_module_ignored(self, tmp_path):
        findings = lint_source(
            tmp_path, "src/repro/serve/custom.py", self.TRIGGER)
        assert "bit-identity" not in rules_hit(findings)

    def test_canonical_recipe_is_clean(self, tmp_path):
        source = ("from repro.regression.least_squares import pair_dots\n"
                  "def f(rows):\n"
                  "    return pair_dots(rows, rows)\n")
        findings = lint_source(
            tmp_path, "src/repro/regression/custom.py", source)
        assert "bit-identity" not in rules_hit(findings)


# ----------------------------------------------------------------------
# rule 2: errstate
# ----------------------------------------------------------------------
class TestErrstateRule:
    def test_bare_elementwise_in_kernel_module_triggers(self, tmp_path):
        source = ("import numpy as np\n"
                  "def f(x):\n"
                  "    y = np.log(x)\n"
                  "    return y / (x - 1.0)\n")
        findings = lint_source(tmp_path, "src/repro/core/compile.py", source)
        assert "errstate" in rules_hit(findings)

    def test_under_errstate_is_clean(self, tmp_path):
        source = ("import numpy as np\n"
                  "def f(x):\n"
                  "    with np.errstate(all='ignore'):\n"
                  "        y = np.log(x)\n"
                  "        return y / (x - 1.0)\n")
        findings = lint_source(tmp_path, "src/repro/core/compile.py", source)
        assert "errstate" not in rules_hit(findings)

    def test_single_return_wrapper_exempt(self, tmp_path):
        source = ("import numpy as np\n"
                  "def _sqrt(x):\n"
                  "    return np.sqrt(x)\n")
        findings = lint_source(
            tmp_path, "src/repro/core/functions.py", source)
        assert "errstate" not in rules_hit(findings)

    def test_lambda_table_exempt(self, tmp_path):
        source = ("import numpy as np\n"
                  "TABLE = {'inv': lambda a: 1.0 / a}\n")
        findings = lint_source(tmp_path, "src/repro/gp/nodes.py", source)
        assert "errstate" not in rules_hit(findings)

    def test_out_of_scope_module_ignored(self, tmp_path):
        source = ("import numpy as np\n"
                  "def f(x):\n"
                  "    y = np.log(x)\n"
                  "    return y + 1\n")
        findings = lint_source(tmp_path, "src/repro/core/report.py", source)
        assert "errstate" not in rules_hit(findings)


# ----------------------------------------------------------------------
# rule 3: determinism
# ----------------------------------------------------------------------
class TestDeterminismRule:
    def test_stdlib_random_triggers(self, tmp_path):
        source = ("import random\n"
                  "def f():\n"
                  "    return random.random()\n")
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        assert "determinism" in rules_hit(findings)

    def test_numpy_global_rng_triggers(self, tmp_path):
        source = ("import numpy as np\n"
                  "def f():\n"
                  "    return np.random.rand(3)\n")
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        assert "determinism" in rules_hit(findings)

    def test_seedless_default_rng_triggers(self, tmp_path):
        source = ("import numpy as np\n"
                  "def f():\n"
                  "    return np.random.default_rng()\n")
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        assert "determinism" in rules_hit(findings)

    def test_wall_clock_triggers(self, tmp_path):
        source = ("import time\n"
                  "def f():\n"
                  "    return time.time()\n")
        findings = lint_source(tmp_path, "src/repro/core/custom.py", source)
        assert "determinism" in rules_hit(findings)

    def test_from_random_import_triggers(self, tmp_path):
        source = "from random import choice\n"
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        assert "determinism" in rules_hit(findings)

    def test_seeded_generator_is_clean(self, tmp_path):
        source = ("import numpy as np\n"
                  "def f(seed):\n"
                  "    return np.random.default_rng(seed).random()\n")
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        assert "determinism" not in rules_hit(findings)

    def test_scripts_outside_repro_scope_ignored(self, tmp_path):
        source = ("import time\n"
                  "def f():\n"
                  "    return time.time()\n")
        findings = lint_source(tmp_path, "benchmarks/bench_custom.py", source)
        assert "determinism" not in rules_hit(findings)


# ----------------------------------------------------------------------
# rule 4: spawn-safety
# ----------------------------------------------------------------------
class TestSpawnSafetyRule:
    def test_lambda_factory_triggers(self, tmp_path):
        source = ("import multiprocessing\n"
                  "multiprocessing.Process(target=lambda: None).start()\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "spawn-safety" in rules_hit(findings)

    def test_nested_function_factory_triggers(self, tmp_path):
        source = ("import multiprocessing\n"
                  "def install():\n"
                  "    def factory():\n"
                  "        return None\n"
                  "    ctx = multiprocessing.get_context()\n"
                  "    ctx.Process(target=factory).start()\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "spawn-safety" in rules_hit(findings)

    def test_bound_method_initializer_triggers(self, tmp_path):
        source = ("from concurrent.futures import ProcessPoolExecutor\n"
                  "class Runner:\n"
                  "    def start(self):\n"
                  "        return ProcessPoolExecutor(\n"
                  "            2, initializer=self.setup)\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "spawn-safety" in rules_hit(findings)

    def test_module_level_factory_is_clean(self, tmp_path):
        source = ("import multiprocessing\n"
                  "def factory():\n"
                  "    return None\n"
                  "multiprocessing.Process(target=factory).start()\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "spawn-safety" not in rules_hit(findings)

    def test_imported_module_function_is_clean(self, tmp_path):
        source = ("import multiprocessing\n"
                  "import repro.ext_impl\n"
                  "multiprocessing.Process("
                  "target=repro.ext_impl.factory).start()\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "spawn-safety" not in rules_hit(findings)


# ----------------------------------------------------------------------
# rule 5: crash-safety
# ----------------------------------------------------------------------
class TestCrashSafetyRule:
    def test_raw_write_to_store_path_triggers(self, tmp_path):
        source = ("def save(path):\n"
                  "    with open(path + '.ckpt', 'w') as fh:\n"
                  "        fh.write('data')\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "crash-safety" in rules_hit(findings)

    def test_pickle_dump_triggers(self, tmp_path):
        source = ("import pickle\n"
                  "def save(obj, fh):\n"
                  "    pickle.dump(obj, fh)\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "crash-safety" in rules_hit(findings)

    def test_unbounded_filelock_triggers(self, tmp_path):
        source = ("from repro.core.cache_store import FileLock\n"
                  "lock = FileLock('x.cache.lock', timeout=None)\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "crash-safety" in rules_hit(findings)

    def test_read_and_non_store_write_are_clean(self, tmp_path):
        source = ("def load(path):\n"
                  "    with open(path + '.ckpt') as fh:\n"
                  "        data = fh.read()\n"
                  "    with open('notes.txt', 'w') as fh:\n"
                  "        fh.write(data)\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "crash-safety" not in rules_hit(findings)

    def test_bounded_filelock_is_clean(self, tmp_path):
        source = ("from repro.core.cache_store import FileLock\n"
                  "lock = FileLock('x.cache.lock', timeout=5.0)\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "crash-safety" not in rules_hit(findings)


# ----------------------------------------------------------------------
# rule 6: fault-spec
# ----------------------------------------------------------------------
class TestFaultSpecRule:
    def test_unknown_point_triggers(self, tmp_path):
        source = ("import os\n"
                  "os.environ['REPRO_FAULTS'] = 'worker.kil:times=1'\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "fault-spec" in rules_hit(findings)

    def test_malformed_spec_triggers(self, tmp_path):
        source = ("def run(make):\n"
                  "    return make(fault_injection='worker.kill:delay')\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "fault-spec" in rules_hit(findings)

    def test_monkeypatch_setenv_checked(self, tmp_path):
        source = ("def test_x(monkeypatch):\n"
                  "    monkeypatch.setenv('REPRO_FAULTS', 'store.corupt')\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "fault-spec" in rules_hit(findings)

    def test_valid_spec_is_clean(self, tmp_path):
        source = ("import os\n"
                  "os.environ['REPRO_FAULTS'] = "
                  "'worker.kill:problem=PM:times=1, problem.stall:delay=2'\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "fault-spec" not in rules_hit(findings)

    def test_registry_matches_docstring_table(self):
        from repro.core import faults

        assert set(faults.KNOWN_FAULT_POINTS) == {
            "worker.kill", "worker.exception", "problem.stall",
            "fit.exception", "lock.timeout", "store.kill-mid-save",
            "store.corrupt"}
        for point in faults.KNOWN_FAULT_POINTS:
            assert f"``{point}``" in faults.__doc__


# ----------------------------------------------------------------------
# rule 7: unordered-iter
# ----------------------------------------------------------------------
class TestUnorderedIterRule:
    def test_set_literal_iteration_triggers(self, tmp_path):
        source = ("def f(acc):\n"
                  "    for x in {1, 2, 3}:\n"
                  "        acc.append(x)\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "unordered-iter" in rules_hit(findings)

    def test_set_call_and_comprehension_trigger(self, tmp_path):
        source = ("def f(items):\n"
                  "    return [x for x in set(items)]\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "unordered-iter" in rules_hit(findings)

    def test_local_set_variable_triggers(self, tmp_path):
        source = ("def f(items, acc):\n"
                  "    seen = set(items)\n"
                  "    for x in seen:\n"
                  "        acc.append(x)\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "unordered-iter" in rules_hit(findings)

    def test_sorted_set_is_clean(self, tmp_path):
        source = ("def f(items, acc):\n"
                  "    for x in sorted(set(items)):\n"
                  "        acc.append(x)\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "unordered-iter" not in rules_hit(findings)

    def test_dict_iteration_is_clean(self, tmp_path):
        source = ("def f(mapping, acc):\n"
                  "    for key in mapping:\n"
                  "        acc.append(key)\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "unordered-iter" not in rules_hit(findings)


# ----------------------------------------------------------------------
# rule 8: one-path
# ----------------------------------------------------------------------
class TestOnePathRule:
    def test_settings_string_switch_triggers(self, tmp_path):
        source = ("def pick(settings):\n"
                  "    if settings.fit_method == 'direct':\n"
                  "        return 1\n"
                  "    return 2\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "one-path" in rules_hit(findings)

    def test_backend_attribute_membership_triggers(self, tmp_path):
        source = ("class Evaluator:\n"
                  "    def run(self):\n"
                  "        return self._column_backend in ('interp', 'jit')\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "one-path" in rules_hit(findings)

    def test_numeric_settings_comparison_is_clean(self, tmp_path):
        source = ("def big(settings, by):\n"
                  "    return settings.population_size >= 1000 \\\n"
                  "        and by == 'test'\n")
        findings = lint_source(tmp_path, "src/repro/ext.py", source)
        assert "one-path" not in rules_hit(findings)

    def test_out_of_scope_module_is_clean(self, tmp_path):
        source = ("def pick(settings):\n"
                  "    return settings.fit_method == 'direct'\n")
        findings = lint_source(tmp_path, "benchmarks/bench_x.py", source)
        assert "one-path" not in rules_hit(findings)


# ----------------------------------------------------------------------
# waivers
# ----------------------------------------------------------------------
WAIVER_TRIGGER = ("import random\n"
                  "def f():\n"
                  "    # repro-lint: allow[determinism] -- test fixture\n"
                  "    return random.random()\n")


class TestWaivers:
    def test_valid_waiver_suppresses_and_carries_reason(self, tmp_path):
        findings = lint_source(
            tmp_path, "src/repro/gp/custom.py", WAIVER_TRIGGER)
        waived = [f for f in findings if f.waived]
        assert len(waived) == 1
        assert waived[0].rule == "determinism"
        assert waived[0].waiver_reason == "test fixture"
        assert not [f for f in findings if not f.waived]

    def test_same_line_waiver_works(self, tmp_path):
        source = ("import random\n"
                  "def f():\n"
                  "    return random.random()  "
                  "# repro-lint: allow[determinism] -- test fixture\n")
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        assert all(f.waived for f in findings)

    def test_waiver_without_reason_is_a_finding(self, tmp_path):
        source = ("import random\n"
                  "def f():\n"
                  "    # repro-lint: allow[determinism]\n"
                  "    return random.random()\n")
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        hit = rules_hit(findings)
        assert "waiver-syntax" in hit
        assert "determinism" in hit  # the broken waiver suppresses nothing

    def test_unknown_rule_in_waiver_is_a_finding(self, tmp_path):
        source = ("import random\n"
                  "def f():\n"
                  "    # repro-lint: allow[no-such-rule] -- because\n"
                  "    return random.random()\n")
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        assert "waiver-syntax" in rules_hit(findings)

    def test_wrong_rule_waiver_does_not_suppress(self, tmp_path):
        source = ("import random\n"
                  "def f():\n"
                  "    # repro-lint: allow[bit-identity] -- wrong rule\n"
                  "    return random.random()\n")
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        hit = rules_hit(findings)
        assert "determinism" in hit
        assert "waiver-unused" in hit

    def test_unknown_directive_is_a_finding(self, tmp_path):
        source = "# repro-lint: silence[determinism] -- nope\n"
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        assert "waiver-syntax" in rules_hit(findings)

    def test_stale_waiver_is_a_finding(self, tmp_path):
        source = ("def f():\n"
                  "    # repro-lint: allow[determinism] -- nothing here\n"
                  "    return 1\n")
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        assert "waiver-unused" in rules_hit(findings)

    def test_unwaivable_rules_cannot_be_waived(self, tmp_path):
        source = "# repro-lint: allow[waiver-unused] -- meta\n"
        findings = lint_source(tmp_path, "src/repro/gp/custom.py", source)
        assert "waiver-syntax" in rules_hit(findings)

    def test_multi_rule_waiver(self, tmp_path):
        source = ("import numpy as np\n"
                  "import random\n"
                  "def f(a, b):\n"
                  "    # repro-lint: allow[bit-identity, determinism] "
                  "-- fixture exercising a two-rule waiver\n"
                  "    return (a @ b) + random.random()\n")
        findings = lint_source(
            tmp_path, "src/repro/regression/custom.py", source)
        assert not [f for f in findings if not f.waived]
        assert len([f for f in findings if f.waived]) == 2


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
class TestLintConfig:
    def test_pyproject_round_trip(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\n'
            'exclude = ["*/generated/*"]\n'
            'disable = ["unordered-iter"]\n'
            '[tool.repro-lint.rules.determinism]\n'
            'scope = ["repro.core"]\n')
        config = LintConfig.load(tmp_path)
        assert config.exclude == ("*/generated/*",)
        assert config.disable == ("unordered-iter",)
        assert config.rule_scopes["determinism"] == ("repro.core",)

    def test_disable_turns_rule_off(self, tmp_path):
        source = ("def f(acc):\n"
                  "    for x in {1, 2}:\n"
                  "        acc.append(x)\n")
        config = LintConfig(disable=("unordered-iter",))
        findings = lint_source(tmp_path, "src/repro/ext.py", source,
                               config=config)
        assert "unordered-iter" not in rules_hit(findings)

    def test_scope_override_widens_rule(self, tmp_path):
        source = ("import time\n"
                  "def f():\n"
                  "    return time.time()\n")
        config = LintConfig(rule_scopes={"determinism": None})
        findings = lint_source(tmp_path, "scripts_dir/tool.py", source,
                               config=config)
        assert "determinism" in rules_hit(findings)

    def test_repo_pyproject_parses(self):
        config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
        assert config.rule_scopes.get("determinism") == ("repro",)


# ----------------------------------------------------------------------
# the CLI and the JSON schema
# ----------------------------------------------------------------------
class TestCli:
    def test_json_schema_stability(self, tmp_path):
        target = tmp_path / "src" / "repro" / "gp" / "custom.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\n"
                          "def f():\n"
                          "    return random.random()\n")
        stream = io.StringIO()
        code = lint_main([str(target), "--format", "json"], stream=stream)
        assert code == 1
        document = json.loads(stream.getvalue())
        assert set(document) == {"schema", "tool", "n_files", "n_findings",
                                 "n_waived", "rule_counts", "findings",
                                 "waived"}
        assert document["schema"] == 1
        assert document["tool"] == "repro-lint"
        assert document["n_files"] == 1
        assert document["rule_counts"] == {"determinism": 1}
        (finding,) = document["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message",
                                "hint", "waived", "waiver_reason"}
        assert finding["rule"] == "determinism"
        assert finding["line"] == 3

    def test_github_format_emits_annotations(self, tmp_path):
        target = tmp_path / "src" / "repro" / "gp" / "custom.py"
        target.parent.mkdir(parents=True)
        target.write_text("import random\nx = random.random()\n")
        stream = io.StringIO()
        code = lint_main([str(target), "--format", "github"], stream=stream)
        assert code == 1
        assert "::error file=" in stream.getvalue()
        assert "title=repro-lint determinism" in stream.getvalue()

    def test_clean_tree_exits_zero(self, tmp_path):
        target = tmp_path / "src" / "repro" / "gp" / "custom.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f():\n    return 1\n")
        stream = io.StringIO()
        assert lint_main([str(target)], stream=stream) == 0
        assert "OK:" in stream.getvalue()

    def test_unknown_explain_exits_two(self):
        assert lint_main(["--explain", "no-such-rule"],
                         stream=io.StringIO()) == 2

    def test_explain_prints_provenance(self):
        stream = io.StringIO()
        assert lint_main(["--explain", "bit-identity"], stream=stream) == 0
        text = stream.getvalue()
        assert "pair_dots" in text
        assert "PR 2" in text

    def test_list_rules(self):
        stream = io.StringIO()
        assert lint_main(["--list-rules"], stream=stream) == 0
        for rule_id in ("bit-identity", "errstate", "determinism",
                        "spawn-safety", "crash-safety", "fault-spec",
                        "unordered-iter", "one-path"):
            assert rule_id in stream.getvalue()

    def test_missing_path_exits_two(self, tmp_path):
        assert lint_main([str(tmp_path / "nope.py")],
                         stream=io.StringIO()) == 2

    def test_parse_error_reported(self, tmp_path):
        target = tmp_path / "src" / "repro" / "broken.py"
        target.parent.mkdir(parents=True)
        target.write_text("def f(:\n")
        stream = io.StringIO()
        assert lint_main([str(target)], stream=stream) == 1
        assert "parse-error" in stream.getvalue()


# ----------------------------------------------------------------------
# the repo lints itself
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_repo_src_is_clean(self):
        config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
        report = LintEngine(config=config).lint_paths([REPO_SRC])
        assert report.findings == [], [f.location() for f in report.findings]
        assert report.n_files > 50
        assert len(report.waived) > 0
        assert all(f.waiver_reason for f in report.waived)

    def test_cli_entry_point_is_clean(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src/"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
                 "HOME": "/tmp"})
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK:" in result.stdout

    def test_deleting_any_waiver_resurfaces_a_finding(self, tmp_path):
        from repro.analysis.waivers import collect_waivers

        config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
        engine = LintEngine(config=config)
        known = set(rule_ids())
        waiver_sites = []
        for path in sorted(REPO_SRC.rglob("*.py")):
            waivers, _ = collect_waivers(path.read_text(), str(path), known)
            waiver_sites.extend((path, w.line - 1) for w in waivers)
        assert len(waiver_sites) >= 10  # the burned-down inventory
        for path, index in waiver_sites:
            lines = path.read_text().splitlines(keepends=True)
            del lines[index]
            mirror = tmp_path / path.relative_to(REPO_ROOT)
            mirror.parent.mkdir(parents=True, exist_ok=True)
            mirror.write_text("".join(lines))
            findings = [f for f in engine.lint_file(mirror) if not f.waived]
            assert findings, (f"deleting the waiver at {path}:{index + 1} "
                              f"surfaced no finding")
            mirror.unlink()

"""Tests for the file-local rules R001–R009 (repro.analysis.rules).

Every rule gets at least one seeded-violation fixture that must fire
and one clean fixture that must not, plus coverage for the noqa
suppression convention, plus the R-codes through the analysis command
(``python -m repro.analysis``): exit codes, select/ignore, JSON and
GitHub output, and the baseline file.
"""

import ast
import json
import os
import textwrap

import pytest

from repro.analysis import rules as rules_mod
from repro.analysis.__main__ import catalog, main
from repro.analysis.lifecycle import SHARED_ATTRS, attr_mutations
from repro.analysis.program import build_symbol_table, summarize
from repro.analysis.lint import lint_file, lint_paths
from repro.analysis.report import (
    apply_baseline,
    github_annotation,
    iter_python_files,
    load_baseline,
)
from repro.analysis.rules import RULE_REGISTRY, Finding, all_rules

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``--select`` value that runs the file-local rules only.
LINT_CODES = ",".join(sorted(RULE_REGISTRY))


def run_lint(source, path="src/repro/example.py"):
    """Lint an in-memory snippet as if it lived at ``path``."""
    return lint_file(path, source=textwrap.dedent(source))


def codes(findings):
    return [f.code for f in findings]


@pytest.fixture
def outside_repo(tmp_path, monkeypatch):
    """Run the command from ``tmp_path`` so the repo's committed
    baseline and budget stay out of scope."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_bad_file(root, source="import time\nt = time.time()\n"):
    bad = root / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text(source)
    return bad


class TestRegistry:
    def test_all_rules_registered(self):
        assert set(RULE_REGISTRY) == {
            "R001", "R002", "R003", "R004", "R005", "R006", "R007",
            "R008", "R009",
        }

    def test_all_rules_instantiates_in_code_order(self):
        assert [r.code for r in all_rules()] == sorted(RULE_REGISTRY)

    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError):
            @rules_mod.register_rule
            class Duplicate(rules_mod.Rule):
                code = "R001"

    def test_rules_are_pluggable(self):
        class Custom(rules_mod.Rule):
            code = "R999"
            name = "custom"

            def check(self, ctx):
                yield self.finding(ctx, ctx.tree, "always fires")

        findings = lint_file(
            "src/repro/x.py", rules=[Custom()], source="x = 1\n"
        )
        assert codes(findings) == ["R999"]


class TestWallClockR001:
    def test_fires_on_time_time(self):
        findings = run_lint(
            """
            import time
            def stamp():
                return time.time()
            """
        )
        assert "R001" in codes(findings)

    def test_fires_on_datetime_now(self):
        findings = run_lint(
            """
            import datetime
            def stamp():
                return datetime.datetime.now()
            """
        )
        assert "R001" in codes(findings)

    def test_fires_on_perf_counter_outside_benchmarks(self):
        findings = run_lint(
            """
            import time
            begin = time.perf_counter()
            """,
            path="src/repro/sim/engine_extra.py",
        )
        assert "R001" in codes(findings)

    def test_perf_counter_allowed_in_experiments(self):
        findings = run_lint(
            """
            import time
            begin = time.perf_counter()
            """,
            path="src/repro/experiments/figXX.py",
        )
        assert "R001" not in codes(findings)

    def test_clean_env_now_does_not_fire(self):
        findings = run_lint(
            """
            def stamp(env):
                return env.now
            """
        )
        assert "R001" not in codes(findings)


class TestUnseededRandomR002:
    def test_fires_on_module_level_random(self):
        findings = run_lint(
            """
            import random
            def jitter():
                return random.random()
            """
        )
        assert "R002" in codes(findings)

    def test_fires_on_seedless_random_instance(self):
        findings = run_lint(
            """
            import random
            rng = random.Random()
            """
        )
        assert "R002" in codes(findings)

    def test_seeded_random_instance_allowed(self):
        findings = run_lint(
            """
            import random
            rng = random.Random(42)
            """
        )
        assert "R002" not in codes(findings)

    def test_stream_rng_usage_allowed(self):
        findings = run_lint(
            """
            from repro.sim.rng import StreamRNG
            rng = StreamRNG(7).stream("arrivals")
            value = rng.random()
            """
        )
        assert "R002" not in codes(findings)


class TestBlockingSleepR003:
    def test_fires_on_time_sleep(self):
        findings = run_lint(
            """
            import time
            def handler(message, bus):
                time.sleep(0.1)
            """
        )
        assert "R003" in codes(findings)

    def test_fires_on_imported_sleep_alias(self):
        findings = run_lint(
            """
            from time import sleep as snooze
            def proc(env):
                snooze(1)
            """
        )
        assert "R003" in codes(findings)

    def test_env_timeout_allowed(self):
        findings = run_lint(
            """
            def proc(env):
                yield env.timeout(0.1)
            """
        )
        assert "R003" not in codes(findings)


class TestFrozenMessageR004:
    def test_fires_on_unfrozen_dataclass_in_message_module(self):
        findings = run_lint(
            """
            from dataclasses import dataclass

            @dataclass
            class SomeRequest:
                supi: str = "imsi-1"
            """,
            path="src/repro/sbi/messages.py",
        )
        assert "R004" in codes(findings)

    def test_fires_on_dataclass_call_without_frozen(self):
        findings = run_lint(
            """
            from dataclasses import dataclass

            @dataclass(eq=True)
            class SomeIE:
                value: int = 0
            """,
            path="src/repro/pfcp/ies.py",
        )
        assert "R004" in codes(findings)

    def test_frozen_dataclass_passes(self):
        findings = run_lint(
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class SomeRequest:
                supi: str = "imsi-1"
            """,
            path="src/repro/sbi/messages.py",
        )
        assert "R004" not in codes(findings)

    def test_non_message_module_not_checked(self):
        findings = run_lint(
            """
            from dataclasses import dataclass

            @dataclass
            class RuntimeState:
                counter: int = 0
            """,
            path="src/repro/up/session.py",
        )
        assert "R004" not in codes(findings)


class TestNowEqualityR005:
    def test_fires_on_exact_equality(self):
        findings = run_lint("ok = env.now == 1.5\n")
        assert "R005" in codes(findings)

    def test_fires_on_not_equal(self):
        findings = run_lint("ok = 2.0 != env.now\n")
        assert "R005" in codes(findings)

    def test_approx_comparison_allowed(self):
        findings = run_lint(
            """
            import pytest
            ok = env.now == pytest.approx(1.5)
            """
        )
        assert "R005" not in codes(findings)

    def test_inequality_allowed(self):
        findings = run_lint("ok = env.now >= 1.5\n")
        assert "R005" not in codes(findings)


class TestMutableDefaultR006:
    def test_fires_on_list_default(self):
        findings = run_lint(
            """
            def collect(items=[]):
                return items
            """
        )
        assert "R006" in codes(findings)

    def test_fires_on_dict_kwonly_default(self):
        findings = run_lint(
            """
            def configure(*, options={}):
                return options
            """
        )
        assert "R006" in codes(findings)

    def test_none_default_allowed(self):
        findings = run_lint(
            """
            def collect(items=None):
                return items or []
            """
        )
        assert "R006" not in codes(findings)

    def test_dataclass_field_factory_allowed(self):
        findings = run_lint(
            """
            from dataclasses import dataclass, field

            @dataclass
            class Holder:
                items: list = field(default_factory=list)
            """
        )
        assert "R006" not in codes(findings)


class TestPrintInLibraryR007:
    SNIPPET = """
        def report(value):
            print("value:", value)
        """

    def test_fires_in_library_code(self):
        findings = run_lint(self.SNIPPET, path="src/repro/core/rings.py")
        assert "R007" in codes(findings)

    def test_exempt_in_main_modules(self):
        findings = run_lint(self.SNIPPET, path="src/repro/obs/__main__.py")
        assert "R007" not in codes(findings)

    def test_exempt_in_experiments(self):
        findings = run_lint(
            self.SNIPPET, path="src/repro/experiments/fig08.py"
        )
        assert "R007" not in codes(findings)

    def test_exempt_lint_runner(self):
        findings = run_lint(
            self.SNIPPET, path="src/repro/analysis/lint.py"
        )
        assert "R007" not in codes(findings)

    def test_not_applied_outside_src(self):
        findings = run_lint(self.SNIPPET, path="tests/test_example.py")
        assert "R007" not in codes(findings)

    def test_shadowed_print_method_allowed(self):
        findings = run_lint(
            """
            def emit(writer):
                writer.print("ok")
            """,
            path="src/repro/core/nf.py",
        )
        assert "R007" not in codes(findings)

    def test_noqa_suppresses(self):
        findings = run_lint(
            """
            def debug(value):
                print(value)  # repro: noqa[R007]
            """,
            path="src/repro/core/nf.py",
        )
        assert "R007" not in codes(findings)


class TestNonOwnerMutationR008:
    def test_fires_on_rule_map_write_outside_up(self):
        findings = run_lint(
            """
            def hack(session):
                session.pdrs[1] = "pdr"
            """,
            path="src/repro/cp/smf_extra.py",
        )
        assert "R008" in codes(findings)

    def test_fires_on_report_pending_write_outside_up(self):
        findings = run_lint(
            """
            def clear(session):
                session.report_pending = False
            """,
            path="src/repro/cp/smf_extra.py",
        )
        assert "R008" in codes(findings)

    def test_fires_on_mutating_method_call(self):
        findings = run_lint(
            """
            def purge(table):
                table._by_seid.clear()
            """,
            path="tests/test_fixture_example.py",
        )
        assert "R008" in codes(findings)

    def test_fires_on_del_subscript(self):
        findings = run_lint(
            """
            def drop(session, far_id):
                del session.fars[far_id]
            """,
            path="src/repro/resiliency/helper.py",
        )
        assert "R008" in codes(findings)

    def test_exempt_inside_up_package(self):
        findings = run_lint(
            """
            def install(session):
                session.pdrs[1] = "pdr"
            """,
            path="src/repro/up/session_extra.py",
        )
        assert "R008" not in codes(findings)

    def test_reads_do_not_fire(self):
        findings = run_lint(
            """
            def inspect(session):
                return list(session.pdrs.values())
            """,
            path="src/repro/cp/smf_extra.py",
        )
        assert "R008" not in codes(findings)

    def test_self_attribute_of_other_class_exempt(self):
        findings = run_lint(
            """
            class Unrelated:
                def reset(self):
                    self.pdrs = {}
            """,
            path="src/repro/obs/metrics_extra.py",
        )
        assert "R008" not in codes(findings)

    def test_noqa_suppresses(self):
        findings = run_lint(
            """
            def hack(session):
                session.pdrs[1] = "pdr"  # repro: noqa[R008]
            """,
            path="src/repro/cp/smf_extra.py",
        )
        assert "R008" not in codes(findings)


class TestMissingEpochBumpR009:
    def test_fires_on_unbumped_rule_mutation(self):
        findings = run_lint(
            """
            def install_pdr(self, pdr):
                self.pdrs[pdr.pdr_id] = pdr
            """,
            path="src/repro/up/session_extra.py",
        )
        assert "R009" in codes(findings)

    def test_fires_on_unbumped_pop(self):
        findings = run_lint(
            """
            def remove_far(self, far_id):
                self.fars.pop(far_id, None)
            """,
            path="src/repro/up/session_extra.py",
        )
        assert "R009" in codes(findings)

    def test_bump_in_same_function_passes(self):
        findings = run_lint(
            """
            def install_pdr(self, pdr):
                self.pdrs[pdr.pdr_id] = pdr
                self.epoch.bump()
            """,
            path="src/repro/up/session_extra.py",
        )
        assert "R009" not in codes(findings)

    def test_init_exempt(self):
        findings = run_lint(
            """
            class Session:
                def __init__(self):
                    self.pdrs = {}
                    self.fars = {}
            """,
            path="src/repro/up/session_extra.py",
        )
        assert "R009" not in codes(findings)

    def test_noqa_suppresses(self):
        findings = run_lint(
            """
            def install_pdr(self, pdr):
                self.pdrs[pdr.pdr_id] = pdr  # repro: noqa[R009]
            """,
            path="src/repro/up/session_extra.py",
        )
        assert "R009" not in codes(findings)


class TestSharedMutationMatcher:
    """``lifecycle.attr_mutations`` is the one matcher behind R008, R009
    and the W002 summaries; every write form must be seen the same way
    by the file-local rule and the whole-program summary."""

    @pytest.mark.parametrize("stmt, attr, receiver", [
        ("s.pdrs = {}", "pdrs", "s"),
        ("s.pdrs += x", "pdrs", "s"),
        ("s.pdrs[k] = v", "pdrs", "s"),
        ("s.qers[k] += 1", "qers", "s"),
        ("del s.fars[k]", "fars", "s"),
        ("s.pdrs.pop(k)", "pdrs", "s"),
        ("s.usage_counters.setdefault(k, v)", "usage_counters", "s"),
        ("make().qer_enforcers.clear()", "qer_enforcers", None),
    ])
    def test_write_forms_match(self, tmp_path, stmt, attr, receiver):
        source = f"def edit(s, k, v, x, make):\n    {stmt}\n"
        tree = ast.parse(source)
        assert [
            (a, r) for _, a, r in attr_mutations(tree, SHARED_ATTRS)
        ] == [(attr, receiver)]
        assert sorted(codes(run_lint(source))) == ["R008", "R009"]
        path = tmp_path / "mod.py"
        path.write_text(source)
        summary = summarize(build_symbol_table([(str(path), source)]))
        sites = summary["mod.edit"].rule_mutations
        assert [(m.attr, m.lineno) for m in sites] == [(attr, 2)]

    @pytest.mark.parametrize("stmt", [
        "x = s.pdrs[k]",
        "s.pdrs.get(k)",
        "del s.pdrs",
        "s.other[k] = v",
    ])
    def test_reads_and_other_names_do_not_match(self, stmt):
        tree = ast.parse(f"def edit(s, k, v):\n    {stmt}\n")
        assert list(attr_mutations(tree, SHARED_ATTRS)) == []


class TestSuppression:
    def test_bare_noqa_suppresses_all_codes(self):
        findings = run_lint(
            """
            import time
            t = time.time()  # repro: noqa
            """
        )
        assert findings == []

    def test_coded_noqa_suppresses_only_listed(self):
        findings = run_lint(
            """
            import time
            t = time.time()  # repro: noqa[R002]
            """
        )
        assert "R001" in codes(findings)

    def test_coded_noqa_matching_code(self):
        findings = run_lint(
            """
            import time
            t = time.time()  # repro: noqa[R001]
            """
        )
        assert findings == []


class TestRunnerAndCli:
    def test_repo_is_clean(self):
        """The acceptance gate: no findings beyond the committed
        baseline (which holds only the race-detector test fixtures'
        deliberate ownership violations)."""
        findings = lint_paths(["src", "tests"])
        baseline = load_baseline("analysis-baseline.json")
        fresh, _suppressed = apply_baseline(findings, baseline)
        assert fresh == []

    def test_cli_exit_zero_on_repo(self, monkeypatch, capsys):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["--select", LINT_CODES, "src", "tests"]) == 0

    def test_cli_exit_nonzero_on_violation(self, outside_repo, capsys):
        bad = write_bad_file(outside_repo)
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        assert "bad.py:2:" in out

    def test_cli_json_output(self, outside_repo, capsys):
        bad = write_bad_file(outside_repo, "def f(x=[]):\n    return x\n")
        assert main(["--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)["findings"]
        assert payload[0]["code"] == "R006"
        assert payload[0]["line"] == 1
        assert payload[0]["severity"] == "error"

    def test_cli_select_filters_rules(self, outside_repo, capsys):
        bad = write_bad_file(
            outside_repo,
            "import time\nt = time.time()\ndef f(x=[]):\n    pass\n",
        )
        assert main(["--select", "R006", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R006" in out and "R001" not in out

    def test_cli_ignore_filters_rules(self, outside_repo, capsys):
        bad = write_bad_file(outside_repo)
        assert main(["--ignore", "R001", str(bad)]) == 0

    def test_cli_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in sorted(RULE_REGISTRY):
            assert code in out
        for code in ("W001", "W002", "W003", "W004",
                     "W005", "W006", "W007", "W008"):
            assert f"{code}  " in out
        assert len(catalog()) == len(RULE_REGISTRY) + 8

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = lint_file(str(bad))
        assert codes(findings) == ["R000"]

    def test_iter_python_files_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "x.py").write_text("")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "y.py").write_text("")
        (tmp_path / "ok.py").write_text("")
        files = list(iter_python_files([str(tmp_path)]))
        assert [f for f in files if f.endswith("ok.py")] == files

    def test_finding_format(self):
        finding = Finding(
            path="src/x.py", line=3, col=7, code="R001",
            severity="error", message="boom",
        )
        assert finding.format() == "src/x.py:3:7: R001 [error] boom"


class TestBaseline:
    BAD = "import time\nt = time.time()\n"

    def test_write_baseline_then_gate_passes(self, outside_repo, capsys):
        bad = write_bad_file(outside_repo, self.BAD)
        baseline = outside_repo / "baseline.json"
        assert main(["--write-baseline", str(baseline), str(bad)]) == 0
        assert main(["--baseline", str(baseline), str(bad)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined finding(s) suppressed" in out

    def test_new_finding_fails_despite_baseline(self, outside_repo, capsys):
        bad = write_bad_file(outside_repo, self.BAD)
        baseline = outside_repo / "baseline.json"
        assert main(["--write-baseline", str(baseline), str(bad)]) == 0
        bad.write_text(self.BAD + "def f(x=[]):\n    return x\n")
        capsys.readouterr()
        assert main(["--baseline", str(baseline), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R006" in out and "R001" not in out

    def test_second_instance_of_baselined_violation_fails(
        self, outside_repo, capsys
    ):
        bad = write_bad_file(outside_repo, self.BAD)
        baseline = outside_repo / "baseline.json"
        assert main(["--write-baseline", str(baseline), str(bad)]) == 0
        # Same (path, code, message) a second time exceeds the budget.
        bad.write_text(self.BAD + "u = time.time()\n")
        capsys.readouterr()
        assert main(["--baseline", str(baseline), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out

    def test_baseline_survives_line_shift(self, outside_repo, capsys):
        bad = write_bad_file(outside_repo, self.BAD)
        baseline = outside_repo / "baseline.json"
        assert main(["--write-baseline", str(baseline), str(bad)]) == 0
        # Pad with comments: same finding, different line number.
        bad.write_text("# padding\n# more padding\n" + self.BAD)
        assert main(["--baseline", str(baseline), str(bad)]) == 0

    def test_fixed_finding_makes_baseline_stale(self, outside_repo, capsys):
        # Paying off the debt without regenerating the baseline fails
        # with exit 2: a stale entry would silently absorb the next
        # regression of the same (path, code, message).
        bad = write_bad_file(outside_repo, self.BAD)
        baseline = outside_repo / "baseline.json"
        assert main(["--write-baseline", str(baseline), str(bad)]) == 0
        bad.write_text("t = 0\n")
        assert main(["--baseline", str(baseline), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "stale baseline entry" in err
        assert "regenerate with --write-baseline" in err
        # Regenerating clears the failure.
        assert main(["--write-baseline", str(baseline), str(bad)]) == 0
        assert main(["--baseline", str(baseline), str(bad)]) == 0

    def test_missing_baseline_file_is_error(self, outside_repo, capsys):
        bad = write_bad_file(outside_repo, self.BAD)
        missing = outside_repo / "nope.json"
        assert main(["--baseline", str(missing), str(bad)]) == 2

    def test_baseline_file_format(self, outside_repo):
        bad = write_bad_file(outside_repo, self.BAD)
        baseline = outside_repo / "baseline.json"
        assert main(["--write-baseline", str(baseline), str(bad)]) == 0
        payload = json.loads(baseline.read_text())
        assert payload["version"] == 1
        entry = payload["entries"][0]
        assert entry["path"] == str(bad)
        assert entry["code"] == "R001"
        assert entry["count"] == 1
        assert "line" not in entry

    def test_committed_repo_baseline_gates_clean(self, monkeypatch, capsys):
        """The committed baseline must keep the repo gate green."""
        monkeypatch.chdir(REPO_ROOT)
        assert main(["--baseline", "analysis-baseline.json",
                     "--select", LINT_CODES, "src", "tests"]) == 0
        # The race-detector tests' deliberate R008 ownership writes.
        assert "16 baselined finding(s) suppressed" in (
            capsys.readouterr().out
        )


class TestGithubFormat:
    def test_findings_render_as_workflow_annotations(
        self, outside_repo, capsys
    ):
        bad = write_bad_file(outside_repo)
        assert main(["--format", "github", str(bad)]) == 1
        out = capsys.readouterr().out
        line = out.strip().splitlines()[0]
        assert line.startswith("::error file=")
        assert f"file={bad}" in line
        assert "line=2" in line
        assert "title=R001::" in line

    def test_annotation_escapes_newlines_and_percent(self):
        finding = Finding(
            path="src/x.py", line=3, col=7, code="R001",
            severity="warning", message="50% broken\nsecond line",
        )
        rendered = github_annotation(finding)
        assert rendered.startswith("::warning file=src/x.py,line=3,col=7")
        assert "\n" not in rendered
        assert "50%25 broken%0Asecond line" in rendered

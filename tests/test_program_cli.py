"""The whole-program checks (W001–W004) through ``python -m repro.analysis``.

Without ``--entry``, the W001 packet entry points come from the budget
file, so the fixture tree carries an ``analysis-budget.json`` naming
``ENTRY``.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.__main__ import DEFAULT_BUDGET_FILE, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ENTRY = "pkg.up.mod.UPF.process"

FIXTURE = {
    "pkg/__init__.py": "",
    "pkg/up/__init__.py": "",
    "pkg/up/mod.py": """
        class UPF:
            def process(self, pkt):
                return self._helper(pkt)

            def _helper(self, pkt):
                return [pkt]
    """,
    "pkg/sim/__init__.py": "",
    "pkg/sim/engine.py": "from ..up import mod\n",
    DEFAULT_BUDGET_FILE: json.dumps({"version": 1, "entry_points": [ENTRY]}),
}

#: A file-local finding beside the fixture package: R001 on line 2.
LINT_PATH = "src/repro/bad.py"
LINT_BAD = "import time\nt = time.time()\n"

HELPER_BUDGET = {
    "version": 1,
    "entry_points": [ENTRY],
    "budgets": {
        "pkg.up.mod.UPF._helper": {"allocations": 1, "reason": "fixture"},
    },
}


@pytest.fixture
def fixture_dir(tmp_path, monkeypatch):
    for relpath, source in sorted(FIXTURE.items()):
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    # Keep the repo's committed default budget/baseline out of scope.
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_lint_file(root):
    path = root / LINT_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(LINT_BAD)


class TestFindingsAndFilters:
    def test_findings_fail_the_run(self, fixture_dir, capsys):
        code = main(["pkg"])
        out = capsys.readouterr().out
        assert code == 1
        assert "W001" in out and "W004" in out
        assert "call chain:" in out

    def test_select_restricts_codes(self, fixture_dir, capsys):
        code = main(["pkg", "--select", "W004"])
        out = capsys.readouterr().out
        assert code == 1
        assert "W004" in out and "W001" not in out

    def test_ignore_drops_codes(self, fixture_dir, capsys):
        code = main(["pkg", "--ignore", "W001,W004"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_unknown_code_rejected(self, fixture_dir, capsys):
        # One unknown code in a list rejects the run before any check.
        assert main(["pkg", "--select", "W001,R999"]) == 2
        captured = capsys.readouterr()
        assert "unknown check code(s): R999" in captured.err
        assert captured.out == ""


class TestOutputs:
    def test_json_report_carries_chains_and_stats(self, fixture_dir, capsys):
        assert main(["pkg", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        by_code = {f["code"]: f for f in data["findings"]}
        assert set(by_code) == {"W001", "W004"}
        assert by_code["W001"]["chain"] == [
            "-> pkg.up.mod.UPF.process",
            "-> pkg.up.mod.UPF._helper",
        ]
        assert data["stats"]["functions"] > 0
        assert ENTRY in data["hot_path"]

    def test_github_format_annotates_lines(self, fixture_dir, capsys):
        write_lint_file(fixture_dir)
        assert main(["pkg", LINT_PATH, "--format", "github"]) == 1
        out = capsys.readouterr().out
        # Annotations are one line per finding, no chain spill.
        lines = out.strip().splitlines()
        assert all(line.startswith("::error file=") for line in lines)
        assert "title=W001::" in out
        lint = [line for line in lines if "title=R001::" in line]
        assert len(lint) == 1
        assert f"file={LINT_PATH}," in lint[0]
        assert "line=2," in lint[0]

    def test_graph_json_dump(self, fixture_dir, capsys):
        code = main(["pkg", "--graph", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        pairs = {(e["caller"], e["callee"]) for e in data["edges"]}
        assert ("pkg.up.mod.UPF.process", "pkg.up.mod.UPF._helper") in pairs

    def test_graph_json_is_stable_across_hash_seeds(self, fixture_dir):
        # Virtual dispatch fans out over the subclasses, which the
        # symbol table keeps in sets; string-hash order must not leak.
        source = ["class Handler:\n    def handle(self):\n        pass\n"]
        source += [
            f"class H{i}(Handler):\n    def handle(self):\n        pass\n"
            for i in range(12)
        ]
        source.append(
            "def dispatch(handler: Handler):\n    handler.handle()\n"
        )
        (fixture_dir / "pkg" / "up" / "handlers.py").write_text(
            "\n".join(source)
        )
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
            env["PYTHONHASHSEED"] = seed
            result = subprocess.run(
                [sys.executable, "-m", "repro.analysis", "pkg",
                 "--graph", "json"],
                capture_output=True, env=env, cwd=fixture_dir, check=True,
            )
            outputs.append(result.stdout)
        callees = [
            edge["callee"]
            for edge in json.loads(outputs[0])["edges"]
            if edge["caller"] == "pkg.up.handlers.dispatch"
        ]
        assert len(callees) == 13
        assert outputs[0] == outputs[1]

    def test_graph_dot_focused_on_entries(self, fixture_dir, capsys):
        code = main(["pkg", "--graph", "dot", "--graph-focus", ENTRY])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph callgraph {")
        assert '"UPF.process" -> "UPF._helper"' in out


class TestBaselineAndBudget:
    def test_write_then_apply_baseline(self, fixture_dir, capsys):
        # One baseline file holds file-local and whole-program findings.
        write_lint_file(fixture_dir)
        assert main(["pkg", LINT_PATH, "--write-baseline", "base.json"]) == 0
        capsys.readouterr()
        code = main(["pkg", LINT_PATH, "--baseline", "base.json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3 baselined finding(s) suppressed" in out

    def test_budget_grants_intentional_allocations(self, fixture_dir, capsys):
        (fixture_dir / "budget.json").write_text(json.dumps(HELPER_BUDGET))
        code = main(["pkg", "--budget", "budget.json", "--select", "W001"])
        assert code == 0

    def test_stale_budget_entry_fails_hard(self, fixture_dir, capsys):
        (fixture_dir / "budget.json").write_text(json.dumps({
            "version": 1,
            "budgets": {
                "pkg.up.mod.UPF.gone": {"allocations": 1, "reason": "x"},
            },
        }))
        code = main(["pkg", "--budget", "budget.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "stale budget entry" in err
        assert "pkg.up.mod.UPF.gone" in err

    def test_default_config_picked_up_from_cwd(self, fixture_dir, capsys):
        assert main(["pkg", "--select", "W001"]) == 1
        (fixture_dir / DEFAULT_BUDGET_FILE).write_text(
            json.dumps(HELPER_BUDGET)
        )
        code = main(["pkg", "--select", "W001"])
        assert code == 0


class TestRepoIntegration:
    def test_repo_tree_runs_clean_with_committed_config(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO_ROOT)
        code = main([
            os.path.join("src", "repro"),
            "--select", "W001,W002,W003,W004",
            "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["findings"] == []
        assert data["suppressed"] == 1  # sim's baselined races import

    def test_analyzer_is_not_imported_by_runtime_code(self):
        # Acceptance: disabled, the analyzers add zero import-time cost.
        script = (
            "import sys; import repro.up, repro.cp, repro.sim; "
            "assert not any(m.startswith(('repro.analysis.program', "
            "'repro.analysis.dataflow', 'repro.analysis.__main__', "
            "'repro.analysis.lint')) "
            "for m in sys.modules), sorted(sys.modules)"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env=env,
            cwd=REPO_ROOT,
        )

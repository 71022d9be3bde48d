"""Tests of the analysis command, ``python -m repro.analysis``, that
span every kind of check: one JSON schema, one parse per file, one
call graph and one CFG per function, path normalisation, the
``tests/`` exclusion of the whole-program checks, unknown codes, and
how a run scopes the baseline and budget files.

Each kind of check through the command is tested beside its other
tests: the file-local rules in ``test_analysis_lint.py``, W001–W004 in
``test_program_cli.py`` and W005–W008 in ``test_dataflow_cli.py``.
"""

import json
import os
import sys
import textwrap

import pytest

from repro.analysis import report
from repro.analysis.__main__ import main
from repro.analysis.program import callgraph
from repro.analysis.rules import FileContext, Finding

#: File-local fixture: R001 on line 2 (R006 and friends only fire
#: under a ``src``/``repro`` path).
LINT_BAD = "import time\nt = time.time()\n"
LINT_PATH = "src/repro/bad.py"

#: Whole-program fixture: a W001 allocation on the packet path and a
#: W004 upward import.
ENTRY = "pkg.up.mod.UPF.process"
PROGRAM = {
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
    "analysis-budget.json": json.dumps({
        "version": 1, "entry_points": [ENTRY],
    }),
}

#: Typestate fixture: W005 mutate-after-send.
DIRTY = {
    "pkg/__init__.py": "",
    "pkg/up.py": """
        def emit(chan, desc):
            chan.send(desc)
            desc.seq = 2
    """,
}


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """Write ``{relpath: source}`` files into a fresh working directory
    (so the repo's committed baseline and budget stay out of scope)."""
    monkeypatch.chdir(tmp_path)

    def write(files):
        for relpath, source in sorted(files.items()):
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        return tmp_path

    return write


def _counting(function, seen):
    """``function``, recording the arguments of every call in ``seen``."""

    def wrapper(*args, **kwargs):
        seen.append(args)
        return function(*args, **kwargs)

    return wrapper


def json_run(args, capsys):
    code = main(args + ["--json"])
    return code, json.loads(capsys.readouterr().out)


class TestExitCodes:
    @pytest.mark.parametrize("flag", ["--select", "--ignore"])
    def test_unknown_code_exits_two(self, tree, capsys, flag):
        tree(DIRTY)
        assert main(["pkg", flag, "W999"]) == 2
        captured = capsys.readouterr()
        assert "unknown check code(s): W999" in captured.err
        assert captured.out == ""


class TestOutputs:
    def test_json_report_is_one_schema_for_all_checks(self, tree, capsys):
        tree({**PROGRAM, "pkg/up/emit.py": DIRTY["pkg/up.py"],
              LINT_PATH: "def f(x=[]):\n    return x\n"})
        code, data = json_run(["pkg", LINT_PATH], capsys)
        assert code == 1
        assert set(data) == {"findings", "suppressed", "hot_path", "stats"}
        by_code = {f["code"]: f for f in data["findings"]}
        assert set(by_code) == {"R006", "W001", "W004", "W005"}
        assert by_code["R006"]["line"] == 1
        assert by_code["R006"]["severity"] == "error"
        assert by_code["W001"]["chain"] == [
            "-> pkg.up.mod.UPF.process",
            "-> pkg.up.mod.UPF._helper",
        ]
        assert by_code["W005"]["chain"]
        assert data["stats"]["files"] == 7
        assert data["stats"]["functions"] > 0
        assert data["stats"]["cfgs"] > 0
        assert ENTRY in data["hot_path"]

class TestBaseline:
    def test_selected_write_keeps_other_codes_and_paths(self, tree, capsys):
        root = tree({**DIRTY, LINT_PATH: LINT_BAD})
        assert main(["pkg", LINT_PATH, "--write-baseline", "base.json"]) == 0
        before = json.loads((root / "base.json").read_text())["entries"]
        assert {e["code"] for e in before} == {"R001", "W005"}
        # Neither a --select run nor a subtree run drops the debt it
        # did not look at.
        assert main(
            ["pkg", LINT_PATH, "--select", "W006",
             "--write-baseline", "base.json"]
        ) == 0
        assert main(["pkg", "--write-baseline", "base.json"]) == 0
        after = json.loads((root / "base.json").read_text())["entries"]
        assert after == before
        capsys.readouterr()
        assert main(["pkg", LINT_PATH, "--baseline", "base.json"]) == 0

    def test_write_baseline_keeps_reasons(self, tmp_path):
        path = tmp_path / "base.json"
        finding = Finding(
            path="src/x.py", line=3, col=1, code="W004",
            severity="error", message="layering",
        )
        path.write_text(json.dumps({"version": 1, "entries": [{
            "path": "src/x.py", "code": "W004", "message": "layering",
            "count": 1, "reason": "reviewed: intentional",
        }, {
            "path": "src/gone.py", "code": "W004", "message": "layering",
            "count": 1, "reason": "fixed since",
        }]}))
        report.write_baseline(str(path), [finding, finding])
        entries = json.loads(path.read_text())["entries"]
        assert entries == [{
            "path": "src/x.py", "code": "W004", "message": "layering",
            "count": 2, "reason": "reviewed: intentional",
        }]


class TestBudget:
    def test_budget_judged_only_for_analyzed_modules(self, tree):
        # A subtree run cannot tell whether another package's budgeted
        # function still exists.
        root = tree(PROGRAM)
        (root / "budget.json").write_text(json.dumps({
            "version": 1,
            "budgets": {"pkg.up.mod.UPF.gone": {"allocations": 1}},
        }))
        assert main(
            ["pkg/sim", "--budget", "budget.json", "--select", "W001"]
        ) == 0


class TestOneRun:
    def test_each_file_is_parsed_once(self, tree, capsys, monkeypatch):
        tree({**PROGRAM, **{"pkg/up/emit.py": DIRTY["pkg/up.py"]},
              LINT_PATH: LINT_BAD})
        parsed = []
        original = FileContext.parse.__func__

        def counting(cls, path, source):
            parsed.append(path)
            return original(cls, path, source)

        monkeypatch.setattr(FileContext, "parse", classmethod(counting))
        assert main(["pkg", "src", "pkg/up", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["stats"]["cfgs"] > 0 and data["hot_path"]
        assert sorted(parsed) == sorted(set(parsed))
        assert len(parsed) == 7

    def test_one_call_graph_and_one_cfg_per_function(
        self, tree, capsys, monkeypatch
    ):
        tree({**PROGRAM, **{"pkg/up/emit.py": DIRTY["pkg/up.py"]}})
        calls = {"build_call_graph": [], "build_cfg": []}
        # Count through every module-level binding of the two builders.
        for name, seen in calls.items():
            original = getattr(callgraph, name)
            counting = _counting(original, seen)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith(
                    "repro.analysis"
                ) and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        assert main(["pkg", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert {f["code"] for f in data["findings"]} >= {"W001", "W005"}
        assert len(calls["build_call_graph"]) == 1
        built = [args[1] for args in calls["build_cfg"]]
        assert built and len(built) == len(set(built))

    def test_overlapping_paths_report_each_file_once(self, tree, capsys):
        tree({LINT_PATH: LINT_BAD})
        assert main(["./" + LINT_PATH, ".", "src"]) == 1
        out = capsys.readouterr().out
        assert out.count("R001") == 1
        assert f"{LINT_PATH}:2:" in out
        # Baseline keys do not depend on how a path was spelled.
        assert main(["./src", "--write-baseline", "base.json"]) == 0
        assert main(["src", "--baseline", "base.json"]) == 0
        files = report.iter_python_files(["./src", "src", "./" + LINT_PATH])
        assert files == [os.path.normpath(LINT_PATH)]

    def test_whole_program_checks_skip_tests_directories(self, tree, capsys):
        tree({
            **DIRTY,
            "tests/__init__.py": "",
            "tests/test_up.py": textwrap.dedent(DIRTY["pkg/up.py"])
            + "import time\nt = time.time()\n",
        })
        code, data = json_run(["pkg", "tests"], capsys)
        assert code == 1
        found = {(f["path"], f["code"]) for f in data["findings"]}
        assert found == {
            (os.path.join("pkg", "up.py"), "W005"),
            (os.path.join("tests", "test_up.py"), "R001"),
        }

"""The typestate checks (W005–W008) through ``python -m repro.analysis``,
and the one default run that covers all three kinds of check."""

import json
import os
import textwrap

import pytest

from repro.analysis.__main__ import DEFAULT_BASELINE_FILE, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DIRTY = {
    "pkg/__init__.py": "",
    "pkg/up.py": """
        def emit(chan, desc):
            chan.send(desc)
            desc.seq = 2
    """,
}

CLEAN = {
    "pkg/__init__.py": "",
    "pkg/up.py": """
        def emit(chan, desc):
            chan.send(desc)
    """,
}


@pytest.fixture
def write_tree(tmp_path, monkeypatch):
    def _write(tree):
        for relpath, source in sorted(tree.items()):
            path = tmp_path / relpath
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        monkeypatch.chdir(tmp_path)
        return tmp_path
    return _write


class TestExitCodes:
    def test_clean_tree_exits_zero(self, write_tree, capsys):
        write_tree(CLEAN)
        assert main(["pkg"]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one(self, write_tree, capsys):
        write_tree(DIRTY)
        assert main(["pkg"]) == 1
        out = capsys.readouterr().out
        assert "W005" in out
        assert "call chain:" in out

    def test_missing_path_exits_two(self, write_tree, capsys):
        write_tree(CLEAN)
        assert main(["nonexistent"]) == 2

    def test_missing_baseline_exits_two(self, write_tree, capsys):
        write_tree(DIRTY)
        assert main(["pkg", "--baseline", "missing.json"]) == 2


class TestSelection:
    def test_select_other_code_skips_finding(self, write_tree):
        write_tree(DIRTY)
        assert main(["pkg", "--select", "W006"]) == 0

    def test_ignore_silences_finding(self, write_tree):
        write_tree(DIRTY)
        assert main(["pkg", "--ignore", "W005"]) == 0


class TestFormats:
    def test_github_annotations(self, write_tree, capsys):
        write_tree(DIRTY)
        assert main(["pkg", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert "W005" in out

    def test_json_payload(self, write_tree, capsys):
        write_tree(DIRTY)
        assert main(["pkg", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["findings"][0]["code"] == "W005"
        assert data["findings"][0]["chain"]
        assert data["stats"]["functions"] >= 1


class TestBaseline:
    def test_baseline_suppresses_and_exits_zero(
        self, write_tree, capsys
    ):
        write_tree(DIRTY)
        assert main(["pkg", "--write-baseline", "base.json"]) == 0
        capsys.readouterr()
        assert main(["pkg", "--baseline", "base.json"]) == 0
        assert "suppressed" in capsys.readouterr().out

    def test_line_shift_keeps_baseline_valid(
        self, tmp_path, write_tree, capsys
    ):
        write_tree(DIRTY)
        assert main(["pkg", "--write-baseline", "base.json"]) == 0
        shifted = "# leading comment\n\n" + textwrap.dedent(
            DIRTY["pkg/up.py"]
        )
        (tmp_path / "pkg" / "up.py").write_text(shifted)
        capsys.readouterr()
        assert main(["pkg", "--baseline", "base.json"]) == 0

    def test_fixed_finding_makes_baseline_stale(
        self, tmp_path, write_tree, capsys
    ):
        write_tree(DIRTY)
        assert main(["pkg", "--write-baseline", "base.json"]) == 0
        (tmp_path / "pkg" / "up.py").write_text(
            textwrap.dedent(CLEAN["pkg/up.py"])
        )
        capsys.readouterr()
        assert main(["pkg", "--baseline", "base.json"]) == 2
        err = capsys.readouterr().err
        assert "stale baseline entry" in err
        assert "regenerate with --write-baseline" in err

    def test_stale_gate_scoped_to_selected_codes(
        self, tmp_path, write_tree, capsys
    ):
        # A baselined W005 must not count as stale when only W006 runs.
        write_tree(DIRTY)
        assert main(["pkg", "--write-baseline", "base.json"]) == 0
        capsys.readouterr()
        assert main(
            ["pkg", "--select", "W006", "--baseline", "base.json"]
        ) == 0

    def test_default_baseline_picked_up_from_cwd(
        self, write_tree, capsys
    ):
        write_tree(DIRTY)
        assert main(["pkg", "--write-baseline", DEFAULT_BASELINE_FILE]) == 0
        capsys.readouterr()
        assert main(["pkg"]) == 0
        assert "1 baselined finding(s) suppressed" in capsys.readouterr().out


class TestRepoIntegration:
    def test_repo_tree_runs_clean_with_committed_baseline(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO_ROOT)
        code = main([
            os.path.join("src", "repro"),
            "--select", "W005,W006,W007,W008",
            "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["findings"] == []


class TestUmbrella:
    def test_all_runs_three_stages_clean_on_repo(
        self, monkeypatch, capsys
    ):
        # The default run is what ``all`` used to be: the file-local
        # rules, the whole-program checks and the typestate checks.
        monkeypatch.chdir(REPO_ROOT)
        code = main(["--json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["findings"] == []
        assert data["stats"]["files"] > 0
        assert data["stats"]["functions"] > 0
        assert data["stats"]["cfgs"] > 0
        assert data["hot_path"]
        # The race-detector tests' deliberate R008 ownership writes and
        # sim's reviewed W004 import of the race hook.
        assert data["suppressed"] == 17

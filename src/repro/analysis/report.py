"""Finding emission, the baseline file, and exit-code semantics of
the analysis command (``python -m repro.analysis``).

Exit codes
----------
======  ====================================================================
0       Clean: no unsuppressed findings.
1       Findings: at least one unsuppressed finding was reported.
2       Bad configuration: a committed baseline entry counts more
        occurrences than the tree actually has (debt was paid off but
        the baseline was not regenerated), a budget entry names a
        function that no longer exists, an input path or config file
        is missing, or ``--select``/``--ignore`` names an unknown code.
======  ====================================================================

Baseline entries are keyed ``(path, code, message)`` with an occurrence
count, **not** line numbers, so unrelated edits that shift lines do not
invalidate the baseline; adding a second instance of a baselined
violation in the same file still fails, and *removing* the violation
without regenerating the baseline fails with exit 2 — baselines cannot
quietly outlive the debt they were recording.
"""

from __future__ import annotations

import collections
import json
import os
import sys
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    TextIO,
    Tuple,
)

from .rules import Finding

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_STALE",
    "BaselineKey",
    "iter_python_files",
    "baseline_scope",
    "load_baseline",
    "write_baseline",
    "apply_baseline",
    "stale_baseline_entries",
    "report_stale_entries",
    "github_annotation",
    "emit_findings",
    "resolve_exit",
]

#: No unsuppressed findings.
EXIT_CLEAN = 0
#: At least one unsuppressed finding.
EXIT_FINDINGS = 1
#: Stale baseline/budget entry or unreadable input.
EXIT_STALE = 2


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into ``.py`` files, each path
    normalised (``./src/x.py`` is ``src/x.py``) and listed once even
    when the arguments overlap; directories are walked in sorted
    order."""
    out: Dict[str, None] = {}
    for path in map(os.path.normpath, paths):
        if os.path.isfile(path):
            out[path] = None
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if not d.startswith(".") and d != "__pycache__"
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out[os.path.normpath(os.path.join(root, name))] = None
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return list(out)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

#: Baseline key: stable across line-number churn.
BaselineKey = Tuple[str, str, str]


def _baseline_key(finding: Finding) -> BaselineKey:
    return (finding.path.replace("\\", "/"), finding.code, finding.message)


#: Which baseline keys a run can judge (see :func:`baseline_scope`).
Scope = Callable[[BaselineKey], bool]


def baseline_scope(codes: Set[str], paths: Sequence[str]) -> Scope:
    """Keys a run can judge: a code it ran, on a file under one of the
    paths it analyzed.  Entries outside the scope are neither stale nor
    rewritten, so ``--select`` or a subtree run leaves them alone."""
    roots = [os.path.normpath(p).replace("\\", "/") for p in paths]

    def covers(key: BaselineKey) -> bool:
        path, code, _ = key
        return code in codes and any(
            root == "." or path == root or path.startswith(root + "/")
            for root in roots
        )

    return covers


def _read_entries(path: str) -> Dict[BaselineKey, Dict[str, object]]:
    """Baseline entries by key, duplicate keys merged (counts summed)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    entries: Dict[BaselineKey, Dict[str, object]] = {}
    for raw in data.get("entries", []):
        key = (raw["path"], raw["code"], raw["message"])
        entry = entries.setdefault(key, {**raw, "count": 0})
        entry["count"] = int(entry["count"]) + int(raw.get("count", 1))
    return entries


def write_baseline(
    path: str, findings: Sequence[Finding], keep: Optional[Scope] = None
) -> int:
    """Record the findings as the baseline at ``path``; returns the
    entry count.

    An existing file's entries for which ``keep(key)`` is true are
    carried over as they are (a ``--select`` run keeps the debt of the
    codes it did not run), and every surviving key keeps its reviewed
    ``reason``.
    """
    previous = _read_entries(path) if os.path.exists(path) else {}
    counts: Dict[BaselineKey, int] = collections.Counter(
        _baseline_key(f) for f in findings
    )
    if keep is not None:
        for key, entry in previous.items():
            if keep(key):
                counts[key] = int(entry["count"])
    entries = []
    for (p, c, m), n in sorted(counts.items()):
        entry: Dict[str, object] = {
            "path": p, "code": c, "message": m, "count": n,
        }
        reason = previous.get((p, c, m), {}).get("reason")
        if reason:
            entry["reason"] = reason
        entries.append(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": 1, "entries": entries}, handle, indent=2)
        handle.write("\n")
    return len(entries)


def load_baseline(path: str) -> Dict[BaselineKey, int]:
    return {
        key: int(entry["count"])
        for key, entry in _read_entries(path).items()
    }


def apply_baseline(
    findings: Sequence[Finding], baseline: Dict[BaselineKey, int]
) -> Tuple[List[Finding], int]:
    """Split findings into (new, suppressed-count) against a baseline.

    Each baseline entry absorbs up to ``count`` occurrences of the same
    (path, code, message); any excess is reported as new.
    """
    budget = collections.Counter(baseline)
    fresh: List[Finding] = []
    suppressed = 0
    for finding in findings:
        key = _baseline_key(finding)
        if budget[key] > 0:
            budget[key] -= 1
            suppressed += 1
        else:
            fresh.append(finding)
    return fresh, suppressed


def stale_baseline_entries(
    findings: Sequence[Finding],
    baseline: Dict[BaselineKey, int],
    scope: Optional[Scope] = None,
) -> List[Tuple[BaselineKey, int, int]]:
    """Baseline entries counting more debt than the tree still has.

    Returns ``(key, expected, actual)`` for every entry whose recorded
    ``count`` exceeds the number of matching findings in this run.  A
    stale entry means a violation was fixed without regenerating the
    baseline — left alone it would silently absorb the *next*
    regression, so it fails the run (exit 2), like a stale budget
    entry.

    ``scope`` restricts the check to entries the run could have
    reproduced (``--select``/``--ignore`` or a subtree run must not
    make unrelated entries look stale).
    """
    actual: Dict[BaselineKey, int] = collections.Counter(
        _baseline_key(f) for f in findings
    )
    stale: List[Tuple[BaselineKey, int, int]] = []
    for key, expected in sorted(baseline.items()):
        if scope is not None and not scope(key):
            continue
        if actual[key] < expected:
            stale.append((key, expected, actual[key]))
    return stale


def report_stale_entries(
    stale: Sequence[Tuple[BaselineKey, int, int]],
    stream: Optional[TextIO] = None,
) -> None:
    """Print stale-baseline diagnostics (one line per entry)."""
    stream = stream if stream is not None else sys.stderr
    for (path, code, message), expected, actual in stale:
        print(
            f"error: stale baseline entry: {path}: {code} {message!r} "
            f"records {expected} occurrence(s) but the tree has {actual} "
            "(regenerate with --write-baseline)",
            file=stream,
        )


def github_annotation(finding: Finding) -> str:
    """Render a finding as a GitHub Actions workflow command so CI
    findings annotate the offending PR line."""
    level = "error" if finding.severity == "error" else "warning"
    # The message payload must be single-line; %0A encodes newlines.
    message = f"{finding.code} {finding.message}".replace(
        "%", "%25"
    ).replace("\r", "").replace("\n", "%0A")
    return (
        f"::{level} file={finding.path},line={finding.line},"
        f"col={finding.col},title={finding.code}::{message}"
    )


def emit_findings(
    findings: Sequence[Finding],
    fmt: str = "text",
    suppressed: int = 0,
    stream: Optional[TextIO] = None,
) -> None:
    """Print findings in ``text`` or ``github`` format."""
    stream = stream if stream is not None else sys.stdout
    if fmt == "github":
        for finding in findings:
            print(github_annotation(finding), file=stream)
        return
    for finding in findings:
        print(finding.format(), file=stream)
    if findings:
        print(f"{len(findings)} finding(s)", file=stream)
    if suppressed:
        print(f"{suppressed} baselined finding(s) suppressed", file=stream)


def resolve_exit(findings: Sequence[Finding]) -> int:
    """The uniform exit code for a completed run (0 clean, 1 findings)."""
    return EXIT_FINDINGS if findings else EXIT_CLEAN

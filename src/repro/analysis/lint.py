"""File-local rule runner: R001–R009 over one parsed file.

The analysis command (``python -m repro.analysis``) parses every file
once with :func:`parse_file` and hands the same
:class:`~repro.analysis.rules.FileContext` to :func:`check_file` and to
the whole-program symbol table.  :func:`lint_file` and
:func:`lint_paths` are the library entry points for linting a snippet
or a tree without the command.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .report import iter_python_files
from .rules import FileContext, Finding, Rule, all_rules

__all__ = [
    "parse_file",
    "check_file",
    "lint_file",
    "lint_paths",
]


def parse_file(
    path: str, source: Optional[str] = None
) -> Tuple[Optional[FileContext], List[Finding]]:
    """Parse one file: ``(context, [])``, or ``(None, [R000])`` when the
    file has a syntax error (reported as a finding, not raised)."""
    if source is None:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    try:
        return FileContext.parse(path, source), []
    except SyntaxError as exc:
        return None, [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                code="R000",
                severity="error",
                message=f"syntax error: {exc.msg}",
            )
        ]


def check_file(ctx: FileContext, rules: Sequence[Rule]) -> List[Finding]:
    """Run ``rules`` over one parsed file; returns unsuppressed findings."""
    return [
        finding
        for rule in rules
        for finding in rule.check(ctx)
        if not ctx.is_suppressed(finding)
    ]


def lint_file(
    path: str,
    rules: Optional[Sequence[Rule]] = None,
    source: Optional[str] = None,
) -> List[Finding]:
    """Run the rule set over one file; returns unsuppressed findings."""
    ctx, findings = parse_file(path, source)
    if ctx is not None:
        findings = check_file(ctx, rules if rules is not None else all_rules())
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_paths(
    paths: Sequence[str], rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Lint every python file under ``paths``."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, rules=rules))
    return findings

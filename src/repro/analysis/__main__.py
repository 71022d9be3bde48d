"""The analysis command: ``python -m repro.analysis [paths]``.

One run parses every ``*.py`` file under ``paths`` (default ``src
tests``) once into a :class:`~repro.analysis.rules.FileContext`, then

1. runs the file-local rules R001–R009 (:mod:`.rules`) on every file;
2. builds one :class:`~repro.analysis.program.SymbolTable` from the
   same trees of the non-test files (any path with a ``tests``
   component: their seeded analyzer fixtures are deliberate
   violations) and runs the whole-program checks W001–W004
   (:mod:`.program`) and the typestate checks W005–W008
   (:mod:`.dataflow`) over it.

Options
-------
``--json``
    One JSON document: ``findings`` (W-findings carry their call
    chain), the ``suppressed`` count, the W001 ``hot_path`` map and
    run ``stats``.
``--format github``
    Findings as GitHub Actions annotations on the offending lines.
``--select R001,W002`` / ``--ignore W008``
    Run only / skip the listed codes; an unknown code exits 2.
``--list-rules``
    Print every code with a one-line description and exit.
``--baseline PATH``
    Suppress the findings recorded in a baseline file (default:
    ``analysis-baseline.json`` when the working directory has one).
``--write-baseline PATH``
    Record the current findings as the baseline and exit 0.  Entries
    the run could not reproduce (codes it did not run, files outside
    its paths) are kept, and every surviving entry keeps its
    ``reason``.
``--budget PATH``
    The reviewed W001 per-function allocation budget and packet entry
    points (default: ``analysis-budget.json`` when present; without a
    file, the entries are ``DEFAULT_PACKET_ENTRIES``).  A budget entry
    naming a function that no longer exists exits 2.
``--graph json|dot`` / ``--graph-focus ENTRIES``
    Dump the call graph and exit; the focus restricts the DOT
    rendering to what the given comma-separated qualnames reach.

Exit codes are those of :mod:`.report`: 0 clean, 1 findings, 2 stale
baseline or budget entry, missing input, or unknown code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .dataflow.checks import CHECKS as DATAFLOW_CHECKS
from .dataflow.checks import analyze_dataflow
from .lint import check_file, parse_file
from .program.checks import CHECKS as PROGRAM_CHECKS
from .program.checks import Budget, _stop_modules, analyze_program
from .program.symbols import build_symbol_table
from .report import (
    EXIT_CLEAN,
    EXIT_STALE,
    apply_baseline,
    baseline_scope,
    emit_findings,
    iter_python_files,
    load_baseline,
    report_stale_entries,
    resolve_exit,
    stale_baseline_entries,
    write_baseline,
)
from .rules import FileContext, Finding, all_rules

__all__ = ["main", "catalog"]

DEFAULT_PATHS = ["src", "tests"]
DEFAULT_BASELINE_FILE = "analysis-baseline.json"
DEFAULT_BUDGET_FILE = "analysis-budget.json"


def catalog() -> Dict[str, str]:
    """Every code the command runs -> one-line description."""
    codes = {
        rule.code: f"{rule.name:<22} "
        + (type(rule).__doc__ or "").strip().split("\n")[0]
        for rule in all_rules()
    }
    codes.update(PROGRAM_CHECKS)
    codes.update(DATAFLOW_CHECKS)
    return codes


def _is_test_path(path: str) -> bool:
    """Files under a ``tests`` directory get the file-local rules only."""
    return "tests" in os.path.normpath(path).split(os.sep)


def _codes(raw: Optional[str], known: Dict[str, str]) -> Set[str]:
    codes = {c.strip().upper() for c in (raw or "").split(",") if c.strip()}
    unknown = codes - set(known)
    if unknown:
        raise ValueError(
            f"unknown check code(s): {', '.join(sorted(unknown))}"
        )
    return codes


def _existing(path: str) -> Optional[str]:
    return path if os.path.exists(path) else None


def _error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_STALE


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Determinism lint (R001-R009), whole-program checks "
            "(W001-W004) and typestate checks (W005-W008) in one run."
        ),
    )
    parser.add_argument("paths", nargs="*", default=DEFAULT_PATHS)
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument(
        "--format", choices=("text", "github"), default="text"
    )
    parser.add_argument("--select", metavar="CODES")
    parser.add_argument("--ignore", metavar="CODES")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--baseline", metavar="PATH")
    parser.add_argument("--write-baseline", metavar="PATH", dest="write_to")
    parser.add_argument("--budget", metavar="PATH")
    parser.add_argument("--graph", choices=("json", "dot"))
    parser.add_argument("--graph-focus", metavar="ENTRIES")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    known = catalog()
    if args.list_rules:
        for code, description in known.items():
            print(f"{code}  {description}")
        return EXIT_CLEAN

    try:
        active = _codes(args.select, known) or set(known)
        # R000 (syntax error) is always live.
        active = (active - _codes(args.ignore, known)) | {"R000"}
        paths = iter_python_files(args.paths)
        budget_path = args.budget or _existing(DEFAULT_BUDGET_FILE)
        budget = Budget.load(budget_path) if budget_path else Budget()
        baseline_path = args.baseline or _existing(DEFAULT_BASELINE_FILE)
        baseline = (
            load_baseline(baseline_path)
            if baseline_path and not args.write_to
            else None
        )
    except (OSError, ValueError) as exc:
        return _error(exc)

    rules = [rule for rule in all_rules() if rule.code in active]
    contexts: List[FileContext] = []
    findings: List[Finding] = []
    for path in paths:
        ctx, errors = parse_file(path)
        findings.extend(errors)
        if ctx is not None:
            contexts.append(ctx)
            findings.extend(check_file(ctx, rules))

    program_files = [c for c in contexts if not _is_test_path(c.path)]
    run_program = args.graph or active & set(PROGRAM_CHECKS)
    run_dataflow = not args.graph and active & set(DATAFLOW_CHECKS)
    table = (
        build_symbol_table(program_files)
        if run_program or run_dataflow
        else None
    )
    stats: Dict[str, int] = {"files": len(contexts)}
    hot_path: Dict[str, Tuple[str, ...]] = {}
    if run_program:
        program = analyze_program(program_files, budget=budget, table=table)
        if program.stale_budget_entries:
            for qualname in program.stale_budget_entries:
                print(
                    f"error: stale budget entry: {qualname} no longer "
                    "exists (remove it from the budget file)",
                    file=sys.stderr,
                )
            return EXIT_STALE
        if args.graph == "json":
            print(program.graph.to_json())
            return EXIT_CLEAN
        if args.graph == "dot":
            focus = None
            if args.graph_focus:
                focus = [e.strip() for e in args.graph_focus.split(",")]
            print(
                program.graph.to_dot(
                    entries=focus, stop_modules=_stop_modules(program.table)
                ),
                end="",
            )
            return EXIT_CLEAN
        findings.extend(program.findings)
        hot_path = dict(sorted(program.hot_path.items()))
        stats.update(program.stats)
    if run_dataflow:
        dataflow = analyze_dataflow(
            program_files,
            checks=sorted(active & set(DATAFLOW_CHECKS)),
            table=table,
        )
        findings.extend(dataflow.findings)
        stats.update(dataflow.stats)

    findings = sorted(
        (f for f in findings if f.code in active),
        key=lambda f: (f.path, f.line, f.col, f.code, f.message),
    )
    scope = baseline_scope(active, args.paths)

    if args.write_to:
        count = write_baseline(
            args.write_to, findings, keep=lambda key: not scope(key)
        )
        print(
            f"wrote baseline {args.write_to}: {count} entr"
            f"{'y' if count == 1 else 'ies'} "
            f"({len(findings)} finding(s))"
        )
        return EXIT_CLEAN

    suppressed = 0
    if baseline is not None:
        stale = stale_baseline_entries(findings, baseline, scope)
        if stale:
            report_stale_entries(stale)
            return EXIT_STALE
        findings, suppressed = apply_baseline(findings, baseline)

    if args.as_json:
        print(json.dumps({
            "findings": [f.to_dict() for f in findings],
            "suppressed": suppressed,
            "hot_path": hot_path,
            "stats": stats,
        }, indent=2))
    else:
        emit_findings(findings, fmt=args.format, suppressed=suppressed)
    return resolve_exit(findings)


if __name__ == "__main__":
    sys.exit(main())

"""The four whole-program checks over the call graph.

========  ==================================================================
W001      Hot-path cost budget: any function reachable from the UPF-U
          per-packet entry points may allocate (objects, containers,
          strings, generators) only what the committed budget file
          grants it.  Intentional costs are explicit entries with a
          reason; everything else is a regression.
W002      Interprocedural epoch bump: a rule-container mutation must be
          published by ``RuleEpoch.bump()`` on every path before
          control returns to the event loop — through calls, so a
          helper's mutation may be discharged by its caller, and a
          ``yield`` with an unpublished mutation is flagged where it
          happens.
W003      Yield in atomic section: no ``yield`` may be reachable (via
          the call graph) from inside a ``with detector.role(...)``
          block — the sections the race detector treats as atomic must
          actually be atomic.
W004      Layering conformance: import edges may not point up the
          stack (``sim`` imports nothing from the project; ``up`` and
          ``cp`` may not import each other's internals; the
          instrumentation packages ``analysis``/``obs`` are never
          imported from the hot-path package).
========  ==================================================================

Findings carry call-chain evidence and flow through the same
``Finding`` / ``# repro: noqa[...]`` / ``--baseline`` machinery as the
file-local lint.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..rules import FileContext, Finding, SourceFile, as_contexts, in_modules
from .callgraph import CallGraph, build_call_graph
from .summaries import (
    FunctionSummary,
    analyze_epoch_flow,
    summarize,
)
from .symbols import SymbolTable, build_symbol_table

__all__ = [
    "CHECKS",
    "ProgramFinding",
    "Budget",
    "ProgramReport",
    "DEFAULT_PACKET_ENTRIES",
    "analyze_program",
]

#: Check code -> one-line title (``python -m repro.analysis --list-rules``).
CHECKS = {
    "W001": "hot-path allocation budget",
    "W002": "interprocedural epoch bump",
    "W003": "yield in atomic section",
    "W004": "layering conformance",
}

#: The UPF-U per-packet entry points (direct API + platform ring path,
#: singleton and burst variants).
DEFAULT_PACKET_ENTRIES = (
    "repro.up.upf_u.UPFUserPlane.process",
    "repro.up.upf_u.UPFUserPlane.handle",
    "repro.up.upf_u.UPFUserPlane.process_burst",
    "repro.up.upf_u.UPFUserPlane.handle_burst",
)

#: Instrumentation packages: calls into them are gated behind
#: ``is None`` checks on the fast path, so W001/W003 reachability stops
#: at their boundary (W004 polices their imports instead).
_INSTRUMENTATION = ("analysis", "obs")


@dataclass(frozen=True)
class ProgramFinding(Finding):
    """A lint finding plus its interprocedural evidence chain."""

    chain: Tuple[str, ...] = ()

    def format(self) -> str:
        base = super().format()
        if not self.chain:
            return base
        steps = "\n".join(f"    {step}" for step in self.chain)
        return f"{base}\n  call chain:\n{steps}"

    def to_dict(self) -> Dict[str, object]:
        data = super().to_dict()
        data["chain"] = list(self.chain)
        return data


class Budget:
    """The committed per-function allocation budget file.

    Format::

        {
          "version": 1,
          "entry_points": ["pkg.mod.Class.method", ...],
          "budgets": {
            "pkg.mod.func": {"allocations": 2, "reason": "..."},
            ...
          }
        }

    Every entry is an *explicit, reviewed* cost on the per-packet path;
    a budget naming a function that no longer exists is stale and fails
    the run (so budgets cannot quietly outlive refactors).
    """

    def __init__(
        self,
        budgets: Optional[Dict[str, int]] = None,
        reasons: Optional[Dict[str, str]] = None,
        entry_points: Optional[Sequence[str]] = None,
    ) -> None:
        self.budgets: Dict[str, int] = dict(budgets or {})
        self.reasons: Dict[str, str] = dict(reasons or {})
        self.entry_points: Optional[Tuple[str, ...]] = (
            tuple(entry_points) if entry_points else None
        )

    @classmethod
    def load(cls, path: str) -> "Budget":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        budgets: Dict[str, int] = {}
        reasons: Dict[str, str] = {}
        for qualname, entry in (data.get("budgets") or {}).items():
            if isinstance(entry, dict):
                budgets[qualname] = int(entry.get("allocations", 0))
                reasons[qualname] = str(entry.get("reason", ""))
            else:
                budgets[qualname] = int(entry)
        return cls(budgets, reasons, data.get("entry_points"))

    def allowance(self, qualname: str) -> int:
        return self.budgets.get(qualname, 0)

    def stale_entries(self, table: SymbolTable) -> List[str]:
        """Entries naming a function the analyzed modules no longer
        define.  An entry is judged only when one of its dotted
        prefixes is an analyzed module, so a run over a subtree does
        not condemn the budgets of code it never read."""
        return sorted(
            qualname
            for qualname in self.budgets
            if qualname not in table.functions
            and _under_analyzed_module(qualname, table)
        )


def _under_analyzed_module(qualname: str, table: SymbolTable) -> bool:
    parts = qualname.split(".")
    return any(
        ".".join(parts[:n]) in table.modules for n in range(1, len(parts))
    )


@dataclass
class ProgramReport:
    """Everything one analysis run produced."""

    table: SymbolTable
    graph: CallGraph
    summaries: Dict[str, FunctionSummary]
    findings: List[ProgramFinding]
    #: qualname -> witness chain from a packet entry point.
    hot_path: Dict[str, Tuple[str, ...]]
    stale_budget_entries: List[str]

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "modules": len(self.table.modules),
            "functions": len(self.table.functions),
            "classes": len(self.table.classes),
            "call_edges": len(self.graph.edges),
            "unknown_edges": len(self.graph.unknown),
        }


def _root_packages(table: SymbolTable) -> Set[str]:
    return {name.split(".")[0] for name in table.modules}


def _stop_modules(table: SymbolTable) -> List[str]:
    """Instrumentation sub-packages of every analyzed root package."""
    stops: List[str] = []
    for root in _root_packages(table):
        for sub in _INSTRUMENTATION:
            stops.append(f"{root}.{sub}")
    return stops


def analyze_program(
    files: Sequence[SourceFile],
    budget: Optional[Budget] = None,
    entry_points: Optional[Sequence[str]] = None,
    graph: Optional[CallGraph] = None,
) -> ProgramReport:
    """Run the engine and all four checks over ``(path, source)`` pairs
    or parsed contexts.  ``graph``, when given, must be the call graph
    of exactly these files; the analysis command shares one (with its
    symbol table and CFGs) between this and the typestate checks."""
    contexts = as_contexts(files)
    if graph is None:
        graph = build_call_graph(build_symbol_table(contexts))
    table = graph.table
    summaries = summarize(table)
    budget = budget or Budget()

    entries = list(
        entry_points
        if entry_points is not None
        else (budget.entry_points or DEFAULT_PACKET_ENTRIES)
    )
    entries = [e for e in entries if e in table.functions]
    stop = _stop_modules(table)
    hot_path = graph.reachable(entries, stop_modules=stop)

    findings: List[ProgramFinding] = []
    findings.extend(_check_w001(table, summaries, hot_path, budget))
    findings.extend(_check_w002(table, graph))
    findings.extend(_check_w003(table, graph, stop))
    findings.extend(_check_w004(table))

    findings = _apply_noqa(contexts, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return ProgramReport(
        table=table,
        graph=graph,
        summaries=summaries,
        findings=findings,
        hot_path=hot_path,
        stale_budget_entries=budget.stale_entries(table),
    )


def _apply_noqa(
    contexts: Sequence[FileContext], findings: List[ProgramFinding]
) -> List[ProgramFinding]:
    by_path = {ctx.path: ctx for ctx in contexts}
    return [
        finding
        for finding in findings
        if finding.path not in by_path
        or not by_path[finding.path].is_suppressed(finding)
    ]


def _mk(
    table: SymbolTable,
    qualname: str,
    lineno: int,
    code: str,
    message: str,
    chain: Tuple[str, ...] = (),
    severity: str = "error",
) -> ProgramFinding:
    func = table.functions[qualname]
    return ProgramFinding(
        path=func.path,
        line=lineno,
        col=1,
        code=code,
        severity=severity,
        message=message,
        chain=chain,
    )


# ---------------------------------------------------------------------------
# W001 — hot-path cost budget
# ---------------------------------------------------------------------------
def _check_w001(
    table: SymbolTable,
    summaries: Dict[str, FunctionSummary],
    hot_path: Dict[str, Tuple[str, ...]],
    budget: Budget,
) -> List[ProgramFinding]:
    findings: List[ProgramFinding] = []
    for qualname, chain in sorted(hot_path.items()):
        summary = summaries.get(qualname)
        if summary is None or not summary.allocations:
            continue
        count = len(summary.allocations)
        allowed = budget.allowance(qualname)
        if count <= allowed:
            continue
        kinds = ", ".join(
            f"{site.kind}@{site.lineno}"
            + (f" ({site.detail})" if site.detail else "")
            for site in summary.allocations[:6]
        )
        if count > 6:
            kinds += ", ..."
        findings.append(
            _mk(
                table,
                qualname,
                table.functions[qualname].lineno,
                "W001",
                f"{qualname.split('.')[-1]}() is on the UPF-U per-packet "
                f"path and has {count} allocation site(s) over its budget "
                f"of {allowed}: {kinds}; grant an explicit budget entry "
                "with a reason, or hoist the allocation off the hot path",
                chain=tuple(f"-> {step}" for step in chain),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# W002 — interprocedural epoch bump
# ---------------------------------------------------------------------------
def _check_w002(
    table: SymbolTable, graph: CallGraph
) -> List[ProgramFinding]:
    flow = analyze_epoch_flow(graph)
    findings: List[ProgramFinding] = []
    reported: Set[Tuple[str, str, int]] = set()

    for qualname, yield_line, (site, chain) in flow.yield_violations:
        key = (site.qualname, site.attr, site.lineno)
        if key in reported:
            continue
        reported.add(key)
        findings.append(
            _mk(
                table,
                site.qualname,
                site.lineno,
                "W002",
                f"rule container .{site.attr} mutated in "
                f"{site.qualname.split('.')[-1]}() is not published by "
                f"RuleEpoch.bump() before the yield at "
                f"{qualname.split('.')[-1]}():{yield_line}; the flow "
                "cache serves stale decisions once control returns to "
                "the event loop",
                chain=_w002_chain(qualname, chain, site),
            )
        )

    for root in graph.roots():
        for site, chain in flow.pending_at_exit.get(root, ()):
            key = (site.qualname, site.attr, site.lineno)
            if key in reported:
                continue
            reported.add(key)
            findings.append(
                _mk(
                    table,
                    site.qualname,
                    site.lineno,
                    "W002",
                    f"rule container .{site.attr} mutated in "
                    f"{site.qualname.split('.')[-1]}() is not published "
                    "by RuleEpoch.bump() on every path before control "
                    f"returns to the event loop (entered via "
                    f"{root.split('.')[-1]}()); flow-cache readers keep "
                    "serving the old rules",
                    chain=_w002_chain(root, chain, site),
                )
            )
    return findings


def _w002_chain(
    origin: str, chain: Tuple[str, ...], site
) -> Tuple[str, ...]:
    steps = [f"-> {origin}"]
    for hop in chain:
        steps.append(f"-> {hop}")
    steps.append(f"-> mutation of .{site.attr} at {site.qualname}:{site.lineno}")
    return tuple(steps)


# ---------------------------------------------------------------------------
# W003 — yield reachable inside an atomic section
# ---------------------------------------------------------------------------
def _check_w003(
    table: SymbolTable, graph: CallGraph, stop: Sequence[str]
) -> List[ProgramFinding]:
    findings: List[ProgramFinding] = []
    for qualname, func in sorted(table.functions.items()):
        for stmt in ast.walk(func.node):
            if not isinstance(stmt, (ast.With, ast.AsyncWith)):
                continue
            if not _is_role_with(stmt):
                continue
            findings.extend(
                _atomic_section_findings(table, graph, stop, qualname, stmt)
            )
    return findings


def _is_role_with(stmt: ast.AST) -> bool:
    for item in stmt.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "role"
        ):
            return True
    return False


def _atomic_section_findings(
    table: SymbolTable,
    graph: CallGraph,
    stop: Sequence[str],
    qualname: str,
    stmt: ast.AST,
) -> List[ProgramFinding]:
    findings: List[ProgramFinding] = []
    body_lines = _body_line_range(stmt)
    # Direct yield inside the atomic block body.
    for node in ast.walk(stmt):
        if isinstance(node, (ast.Yield, ast.YieldFrom)) and (
            body_lines[0] <= node.lineno <= body_lines[1]
        ):
            findings.append(
                _mk(
                    table,
                    qualname,
                    stmt.lineno,
                    "W003",
                    f"atomic section in {qualname.split('.')[-1]}() "
                    f"yields at line {node.lineno}: a role-scoped block "
                    "is one yield-to-yield atomic section and must not "
                    "suspend",
                    chain=(f"-> {qualname}:{node.lineno} (yield)",),
                )
            )
    # Yields smuggled in through callees.
    seeds = [
        edge.callee
        for edge in graph.callees(qualname)
        if body_lines[0] <= edge.lineno <= body_lines[1]
        and not in_modules(table.functions[edge.callee].module, stop)
    ]
    chains = graph.reachable(seeds, stop_modules=stop)
    for callee, chain in sorted(chains.items()):
        info = table.functions.get(callee)
        if info is not None and info.is_generator:
            findings.append(
                _mk(
                    table,
                    qualname,
                    stmt.lineno,
                    "W003",
                    f"generator {callee.split('.')[-1]}() is reachable "
                    f"from the atomic section in "
                    f"{qualname.split('.')[-1]}(); a helper that yields "
                    "breaks the section the race detector treats as "
                    "atomic",
                    chain=(f"-> {qualname}:{stmt.lineno} (with .role(...))",)
                    + tuple(f"-> {step}" for step in chain),
                )
            )
    return findings


def _body_line_range(stmt: ast.AST) -> Tuple[int, int]:
    first = stmt.body[0].lineno if stmt.body else stmt.lineno
    last = stmt.lineno
    for node in ast.walk(stmt):
        lineno = getattr(node, "end_lineno", None) or getattr(
            node, "lineno", None
        )
        if lineno is not None:
            last = max(last, lineno)
    return first, last


# ---------------------------------------------------------------------------
# W004 — layering conformance
# ---------------------------------------------------------------------------
def _check_w004(table: SymbolTable) -> List[ProgramFinding]:
    findings: List[ProgramFinding] = []
    for name, module in sorted(table.modules.items()):
        root = name.split(".")[0]
        sim_pkg = f"{root}.sim"
        up_pkg = f"{root}.up"
        cp_pkg = f"{root}.cp"
        in_sim = in_modules(name, [sim_pkg])
        in_up = in_modules(name, [up_pkg])
        in_cp = in_modules(name, [cp_pkg])
        for target, lineno in module.import_edges:
            if target.split(".")[0] != root:
                continue
            if in_sim and not in_modules(target, [sim_pkg]):
                findings.append(
                    ProgramFinding(
                        path=module.path,
                        line=lineno,
                        col=1,
                        code="W004",
                        severity="error",
                        message=(
                            f"layering: sim module {name} imports "
                            f"{target}; the simulation kernel sits at "
                            "the bottom of the stack and imports "
                            "nothing above it"
                        ),
                    )
                )
            if in_up and target.startswith(cp_pkg + "."):
                findings.append(
                    _layer_finding(module, lineno, name, target, "up", "cp")
                )
            if in_cp and target.startswith(up_pkg + "."):
                findings.append(
                    _layer_finding(module, lineno, name, target, "cp", "up")
                )
            if in_up and in_modules(
                target, [f"{root}.{sub}" for sub in _INSTRUMENTATION]
            ):
                findings.append(
                    ProgramFinding(
                        path=module.path,
                        line=lineno,
                        col=1,
                        code="W004",
                        severity="error",
                        message=(
                            f"layering: hot-path module {name} imports "
                            f"instrumentation package {target}; "
                            "analysis/obs must never be imported from "
                            "the per-packet forwarding path"
                        ),
                    )
                )
    return findings


def _layer_finding(
    module, lineno: int, name: str, target: str, side: str, other: str
) -> ProgramFinding:
    return ProgramFinding(
        path=module.path,
        line=lineno,
        col=1,
        code="W004",
        severity="error",
        message=(
            f"layering: {side} module {name} imports {other} internals "
            f"({target}); cross-plane access goes through the package "
            f"facade (import the {other} package, not its submodules)"
        ),
    )

"""Per-function CFG summaries for the semantic checks.

For every function the analysis records:

* **allocation sites** — object construction, dict/list/set/tuple/str
  building, comprehensions, generator creation: the costs W001 budgets
  on the per-packet path;
* **rule-container mutations** and **epoch bumps**, fed through a
  path-sensitive walk (below) so W002 can tell "mutated then bumped on
  every path" from "bumped only on the happy path";
* **yield points**, for W003's atomic-section check.

The W002 walk is a small abstract interpretation over the statement
structure: the state is the set of not-yet-published mutations; ``if``
joins branches by union (pending on *some* path is pending), loops are
approximated by zero-or-one iterations, a ``bump()`` (direct, or a call
to a function that bumps on all its paths) discharges everything, and a
``yield`` is an event-loop boundary where pending mutations become
violations.  Function summaries propagate through the call graph to a
fixpoint, so a mutation in a helper three frames down is charged to the
public operation that fails to publish it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..lifecycle import RULE_ATTRS, SHARED_ATTRS, attr_mutations
from .callgraph import CallGraph
from .symbols import FunctionInfo, SymbolTable, _dotted_name

__all__ = [
    "AllocationSite",
    "MutationSite",
    "FunctionSummary",
    "summarize",
    "EpochFlow",
    "analyze_epoch_flow",
]


@dataclass(frozen=True)
class AllocationSite:
    """One statically visible allocation in a function body."""

    lineno: int
    kind: str  # "list-display", "object-construction", ...
    detail: str = ""


@dataclass(frozen=True)
class MutationSite:
    """One rule-container mutation (function, attr, line)."""

    qualname: str
    attr: str
    lineno: int

    def label(self) -> str:
        return f"{self.qualname}:{self.lineno} (.{self.attr})"


@dataclass
class FunctionSummary:
    """Everything the W-checks need to know about one function."""

    qualname: str
    allocations: List[AllocationSite] = field(default_factory=list)
    yields: List[int] = field(default_factory=list)  # line numbers
    shared_reads: Set[str] = field(default_factory=set)
    shared_writes: Set[str] = field(default_factory=set)
    rule_mutations: List[MutationSite] = field(default_factory=list)
    has_direct_bump: bool = False


def _own_nodes(func_node: ast.AST):
    """Nodes of the function body, excluding nested function bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_bump_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "bump"
    )


_DISPLAY_KINDS = (
    (ast.List, "list-display"),
    (ast.Dict, "dict-display"),
    (ast.Set, "set-display"),
    (ast.ListComp, "list-comprehension"),
    (ast.SetComp, "set-comprehension"),
    (ast.DictComp, "dict-comprehension"),
    (ast.GeneratorExp, "generator-expression"),
    (ast.JoinedStr, "f-string"),
    (ast.Lambda, "closure"),
)

_CONSTRUCTOR_BUILTINS = frozenset(
    {"list", "dict", "set", "bytearray", "frozenset"}
)


def _collect_allocations(
    table: SymbolTable, func: FunctionInfo
) -> List[AllocationSite]:
    sites: List[AllocationSite] = []
    swap_values: Set[int] = set()
    for node in _own_nodes(func.node):
        # ``a, b = x, y`` compiles to register moves, not a tuple build.
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Tuple
        ) and any(isinstance(t, ast.Tuple) for t in node.targets):
            swap_values.add(id(node.value))
    for node in _own_nodes(func.node):
        for node_type, kind in _DISPLAY_KINDS:
            if isinstance(node, node_type):
                sites.append(AllocationSite(node.lineno, kind))
                break
        else:
            if isinstance(node, ast.Tuple) and isinstance(
                node.ctx, ast.Load
            ):
                if node.elts and id(node) not in swap_values:
                    sites.append(
                        AllocationSite(node.lineno, "tuple-display")
                    )
            elif isinstance(node, ast.Call):
                dotted = _dotted_name(node.func)
                if dotted is None:
                    continue
                if dotted in _CONSTRUCTOR_BUILTINS:
                    sites.append(
                        AllocationSite(
                            node.lineno, "container-constructor", dotted
                        )
                    )
                    continue
                resolved = table.resolve_dotted(func.module, dotted)
                if resolved in table.classes:
                    sites.append(
                        AllocationSite(
                            node.lineno,
                            "object-construction",
                            resolved.split(".")[-1],
                        )
                    )
                elif resolved in table.functions and table.functions[
                    resolved
                ].is_generator:
                    sites.append(
                        AllocationSite(
                            node.lineno,
                            "generator-creation",
                            resolved.split(".")[-1],
                        )
                    )
    sites.sort(key=lambda site: site.lineno)
    return sites


def summarize(
    table: SymbolTable,
) -> Dict[str, FunctionSummary]:
    """One pass building the flat (path-insensitive) facts."""
    summaries: Dict[str, FunctionSummary] = {}
    for qualname, func in table.functions.items():
        summary = FunctionSummary(qualname=qualname)
        summary.allocations = _collect_allocations(table, func)
        for node in _own_nodes(func.node):
            if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
                summary.yields.append(node.lineno)
            elif _is_bump_call(node):
                summary.has_direct_bump = True
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ) and node.attr in SHARED_ATTRS:
                summary.shared_reads.add(node.attr)
        for node, attr, _ in attr_mutations(func.node, SHARED_ATTRS):
            summary.shared_writes.add(attr)
            if attr in RULE_ATTRS:
                summary.rule_mutations.append(
                    MutationSite(qualname, attr, node.lineno)
                )
        summaries[qualname] = summary
    return summaries


# ---------------------------------------------------------------------------
# W002 — interprocedural epoch-bump flow
# ---------------------------------------------------------------------------

#: A pending mutation: the site plus the call chain that reached it
#: (innermost first), used as the finding's evidence.
Pending = Tuple[MutationSite, Tuple[str, ...]]


@dataclass
class _FuncEpochSummary:
    """Fixpoint state of one function for the epoch-flow analysis."""

    #: Mutations possibly unpublished when the function returns.
    pending_at_exit: Tuple[Pending, ...] = ()
    #: True when every path through the function executes a bump.
    bumps_all_paths: bool = False


@dataclass
class EpochFlow:
    """Result of the interprocedural epoch-bump analysis."""

    #: (function, pending) at a yield — published too late no matter
    #: what the caller does.
    yield_violations: List[Tuple[str, int, Pending]] = field(
        default_factory=list
    )
    #: function -> pendings still open when it returns.
    pending_at_exit: Dict[str, Tuple[Pending, ...]] = field(
        default_factory=dict
    )
    #: function -> True when it bumps on every path.
    bumps_all_paths: Dict[str, bool] = field(default_factory=dict)


@dataclass
class _PathState:
    pending: Tuple[Pending, ...]
    bumped: bool  # a bump happened on this path


def _join(states: Sequence[_PathState]) -> _PathState:
    pendings: List[Pending] = []
    seen: Set[Tuple[str, str, int]] = set()
    for state in states:
        for site, chain in state.pending:
            key = (site.qualname, site.attr, site.lineno)
            if key not in seen:
                seen.add(key)
                pendings.append((site, chain))
    return _PathState(
        pending=tuple(pendings),
        bumped=all(state.bumped for state in states) if states else False,
    )


class _EpochWalker:
    """Path-approximating walk of one function body."""

    def __init__(
        self,
        func: FunctionInfo,
        graph: CallGraph,
        summaries: Dict[str, _FuncEpochSummary],
        record_yields: Optional[List[Tuple[str, int, Pending]]] = None,
    ) -> None:
        self.func = func
        self.graph = graph
        self.summaries = summaries
        self.record_yields = record_yields
        self.exits: List[_PathState] = []
        #: callee edges indexed by line for the statement transfer.
        self.calls_by_line: Dict[int, List[str]] = {}
        for edge in graph.callees(func.qualname):
            self.calls_by_line.setdefault(edge.lineno, []).append(edge.callee)

    def run(self) -> _FuncEpochSummary:
        state = self.flow(self.func.node.body, _PathState((), False))
        if state is not None:
            self.exits.append(state)
        final = _join(self.exits)
        return _FuncEpochSummary(
            pending_at_exit=final.pending,
            bumps_all_paths=final.bumped,
        )

    # -- statement dispatch ---------------------------------------------
    def flow(
        self, stmts: Sequence[ast.stmt], state: _PathState
    ) -> Optional[_PathState]:
        """Run the statements; None when every path exited."""
        current: Optional[_PathState] = state
        for stmt in stmts:
            if current is None:
                return None
            current = self.step(stmt, current)
        return current

    def step(self, stmt: ast.stmt, state: _PathState) -> Optional[_PathState]:
        if isinstance(stmt, (ast.Return, ast.Raise)):
            state = self.transfer(stmt, state)
            self.exits.append(state)
            return None
        if isinstance(stmt, ast.If):
            entry = self.transfer(stmt.test, state)
            branches = [
                self.flow(stmt.body, entry),
                self.flow(stmt.orelse, entry),
            ]
            live = [b for b in branches if b is not None]
            return _join(live) if live else None
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            entry = self.transfer(stmt.iter, state)
            once = self.flow(stmt.body, entry)
            after = [entry] + ([once] if once is not None else [])
            joined = _join(after)
            tail = self.flow(stmt.orelse, joined)
            return tail
        if isinstance(stmt, ast.While):
            entry = self.transfer(stmt.test, state)
            once = self.flow(stmt.body, entry)
            after = [entry] + ([once] if once is not None else [])
            joined = _join(after)
            return self.flow(stmt.orelse, joined)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            entry = state
            for item in stmt.items:
                entry = self.transfer(item.context_expr, entry)
            return self.flow(stmt.body, entry)
        if isinstance(stmt, ast.Try):
            body_out = self.flow(stmt.body, state)
            outs: List[_PathState] = []
            if body_out is not None:
                outs.append(body_out)
            # A handler may run after an arbitrary prefix of the body:
            # approximate its entry as entry-state ∪ after-body.
            handler_entry = _join(
                [state] + ([body_out] if body_out is not None else [])
            )
            for handler in stmt.handlers:
                handler_out = self.flow(handler.body, handler_entry)
                if handler_out is not None:
                    outs.append(handler_out)
            merged: Optional[_PathState] = _join(outs) if outs else None
            if stmt.finalbody:
                if merged is None:
                    merged = handler_entry
                merged = self.flow(stmt.finalbody, merged)
            return merged
        return self.transfer(stmt, state)

    # -- expression/statement transfer -----------------------------------
    def transfer(self, node: ast.AST, state: _PathState) -> _PathState:
        pending = list(state.pending)
        bumped = state.bumped
        exempt = self.func.name == "__init__"
        for child in ast.walk(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if _is_bump_call(child):
                pending = []
                bumped = True
            elif isinstance(child, ast.Call):
                lineno = child.lineno
                for callee in self.calls_by_line.get(lineno, ()):
                    summary = self.summaries.get(callee)
                    if summary is None:
                        continue
                    if summary.bumps_all_paths:
                        pending = []
                        bumped = True
                    for site, chain in summary.pending_at_exit:
                        pending.append(
                            (site, (f"{self.func.qualname}:{lineno}",) + chain)
                        )
            elif isinstance(child, (ast.Yield, ast.YieldFrom, ast.Await)):
                if pending and self.record_yields is not None:
                    for entry in pending:
                        self.record_yields.append(
                            (self.func.qualname, child.lineno, entry)
                        )
                # Reported here; do not double-report at the caller.
                pending = []
        if not exempt:
            for child, attr, _ in attr_mutations(node, RULE_ATTRS):
                pending.append(
                    (MutationSite(self.func.qualname, attr, child.lineno), ())
                )
        return _PathState(pending=tuple(pending), bumped=bumped)


def analyze_epoch_flow(graph: CallGraph) -> EpochFlow:
    """Fixpoint of the per-function epoch summaries over the graph."""
    table = graph.table
    summaries: Dict[str, _FuncEpochSummary] = {
        qualname: _FuncEpochSummary() for qualname in table.functions
    }
    # Iterate to a fixpoint (monotone: pendings only grow, bump flags
    # only flip once), bounded for safety on pathological recursion.
    for _ in range(10):
        changed = False
        for qualname, func in table.functions.items():
            walker = _EpochWalker(func, graph, summaries)
            updated = walker.run()
            previous = summaries[qualname]
            if (
                _pending_keys(updated.pending_at_exit)
                != _pending_keys(previous.pending_at_exit)
                or updated.bumps_all_paths != previous.bumps_all_paths
            ):
                summaries[qualname] = updated
                changed = True
        if not changed:
            break

    flow = EpochFlow()
    for qualname, func in table.functions.items():
        walker = _EpochWalker(
            func, graph, summaries, record_yields=flow.yield_violations
        )
        final = walker.run()
        flow.pending_at_exit[qualname] = final.pending_at_exit
        flow.bumps_all_paths[qualname] = final.bumps_all_paths
    return flow


def _pending_keys(
    pendings: Tuple[Pending, ...]
) -> FrozenSet[Tuple[str, str, int]]:
    return frozenset(
        (site.qualname, site.attr, site.lineno) for site, _ in pendings
    )

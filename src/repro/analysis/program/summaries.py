"""Per-function facts for the whole-program checks.

* **Allocation sites** — object construction, dict/list/set/tuple/str
  building, comprehensions, generator creation: the costs W001 budgets
  on the per-packet path (:func:`summarize`).
* **The W002 epoch-bump flow** (:func:`analyze_epoch_flow`) — an
  :class:`~.cfg.Analysis` solved by :func:`~.cfg.solve` over each
  function's CFG.  The state is the set of not-yet-published
  rule-container mutations plus whether every path so far bumped.
  Joins take the union of the pending mutations and the AND of
  "bumped"; loops iterate to the fixpoint.  A ``bump()`` (direct, or
  a call to a function that bumps on all its paths) discharges
  everything, and a ``yield`` is an event-loop boundary where pending
  mutations become violations.  A function exits by ``return``, by
  falling off its end, or by an explicit ``raise``; the exception
  edges of calls feed only ``except`` handlers.  Nested def/lambda
  bodies are opaque, ``__init__`` mutations are exempt, and call
  targets come from the call graph.  Function summaries propagate
  through the call graph to a fixpoint, so a mutation in a helper
  three frames down is charged to the public operation that fails to
  publish it.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..lifecycle import RULE_ATTRS, attr_mutations
from ..rules import NESTED_SCOPES, dotted_name, walk_own
from .callgraph import CallGraph
from .cfg import CFG, Analysis, CFGNode, solve
from .symbols import FunctionInfo, SymbolTable

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
    """What W001 needs to know about one function."""

    qualname: str
    allocations: List[AllocationSite] = field(default_factory=list)


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
    for node in walk_own(func.node):
        # ``a, b = x, y`` compiles to register moves, not a tuple build.
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Tuple
        ) and any(isinstance(t, ast.Tuple) for t in node.targets):
            swap_values.add(id(node.value))
    for node in walk_own(func.node):
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
                dotted = dotted_name(node.func)
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
    """The allocation sites of every function."""
    return {
        qualname: FunctionSummary(
            qualname, _collect_allocations(table, func)
        )
        for qualname, func in table.functions.items()
    }


# ---------------------------------------------------------------------------
# W002 — interprocedural epoch-bump flow
# ---------------------------------------------------------------------------

#: A pending mutation: the site plus the call chain that reached it
#: (innermost first), used as the finding's evidence.
Pending = Tuple[MutationSite, Tuple[str, ...]]

#: Flow state at a program point: (pending mutations, bumped on every
#: path so far).
_State = Tuple[FrozenSet[Pending], bool]

#: What one CFG node does to the flow, in evaluation order:
#: ``("bump", line, ())``, ``("call", line, callees)`` or
#: ``("yield", line, ())``; its own mutations apply after them.
_Event = Tuple[str, int, Sequence[str]]

#: CFG node index -> (events, own mutations), for nodes that have any.
_Steps = Dict[int, Tuple[Tuple[_Event, ...], Tuple[MutationSite, ...]]]


@dataclass
class EpochFlow:
    """Result of the interprocedural epoch-bump analysis."""

    #: (function, yield line, pending) — published too late no matter
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


def _evaluated(node: CFGNode) -> Tuple[ast.AST, ...]:
    """The code a CFG node runs itself: a header's test, iterator or
    context managers, a simple statement whole, a nested def nothing."""
    stmt = node.stmt
    if isinstance(stmt, (ast.If, ast.While)):
        return (stmt.test,)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return (stmt.iter,)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return tuple(item.context_expr for item in stmt.items)
    if stmt is None or isinstance(stmt, NESTED_SCOPES):
        return ()
    return (stmt,)


def _node_steps(graph: CallGraph, func: FunctionInfo, cfg: CFG) -> _Steps:
    """Events and mutations of every CFG node that has any."""
    exempt = func.name == "__init__"
    steps: _Steps = {}
    for node in cfg.nodes:
        events: List[_Event] = []
        mutations: List[MutationSite] = []
        for root in _evaluated(node):
            for sub in walk_own(root):
                if isinstance(sub, ast.Call):
                    if (
                        isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "bump"
                    ):
                        events.append(("bump", sub.lineno, ()))
                    elif graph.targets(sub):
                        events.append(
                            ("call", sub.lineno, graph.targets(sub))
                        )
                elif isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await)):
                    events.append(("yield", sub.lineno, ()))
            if not exempt:
                mutations.extend(
                    MutationSite(func.qualname, attr, sub.lineno)
                    for sub, attr, _ in attr_mutations(
                        root, RULE_ATTRS, walk=walk_own
                    )
                )
        if events or mutations:
            steps[node.index] = (tuple(events), tuple(mutations))
    return steps


class _EpochAnalysis(Analysis):
    """The W002 flow through one function, given callee summaries."""

    def __init__(self, qualname: str, steps: _Steps, flow: EpochFlow) -> None:
        self.qualname = qualname
        self.steps = steps
        self.flow = flow
        #: Where :meth:`transfer` reports pendings met at a yield.
        self.record: Optional[List[Tuple[str, int, Pending]]] = None

    def initial(self, cfg: CFG) -> _State:
        return frozenset(), False

    def join(self, states: Sequence[_State]) -> _State:
        return (
            frozenset().union(*(pending for pending, _ in states)),
            all(bumped for _, bumped in states),
        )

    def transfer(self, node: CFGNode, state: _State):
        step = self.steps.get(node.index)
        if step is None:
            return state, state
        events, mutations = step
        pending, bumped = state
        for kind, lineno, callees in events:
            if kind == "bump":
                pending, bumped = frozenset(), True
            elif kind == "yield":
                if self.record is not None:
                    self.record.extend(
                        (self.qualname, lineno, entry)
                        for entry in _dedupe(pending)
                    )
                # Reported here; do not double-report at the caller.
                pending = frozenset()
            else:
                for callee in callees:
                    if self.flow.bumps_all_paths.get(callee):
                        pending, bumped = frozenset(), True
                    pending = pending.union(
                        (site, (f"{self.qualname}:{lineno}",) + chain)
                        for site, chain in self.flow.pending_at_exit.get(
                            callee, ()
                        )
                    )
        if mutations:
            pending = pending.union((site, ()) for site in mutations)
        out = (pending, bumped)
        return out, out

    def at_exit(
        self, cfg: CFG, states: Dict[int, _State]
    ) -> Tuple[Tuple[Pending, ...], bool]:
        """Pendings open on some exit, and whether every exit bumped."""
        exits = [states[cfg.exit]] if cfg.exit in states else []
        exits.extend(
            self.transfer(node, states[node.index])[0]
            for node in cfg.nodes
            if isinstance(node.stmt, ast.Raise) and node.index in states
        )
        if not exits:
            return (), False
        pending, bumped = self.join(exits)
        return _dedupe(pending), bumped


def _key(pending: Pending) -> Tuple[str, str, int]:
    site = pending[0]
    return (site.qualname, site.attr, site.lineno)


def _dedupe(pending: FrozenSet[Pending]) -> Tuple[Pending, ...]:
    """One pending per site, with its shortest chain."""
    best: Dict[Tuple[str, str, int], Pending] = {}
    for entry in sorted(pending, key=lambda p: (_key(p), len(p[1]), p[1])):
        best.setdefault(_key(entry), entry)
    return tuple(best.values())


def analyze_epoch_flow(graph: CallGraph) -> EpochFlow:
    """Fixpoint of the per-function epoch summaries over the graph.

    A function is solved again when a callee's summary changes.  Bump
    flags only flip once, and between flips the pendings only grow, so
    the worklist drains; the budget bounds pathological recursion.
    """
    table = graph.table
    flow = EpochFlow()
    steps: Dict[str, _Steps] = {}
    for qualname, func in table.functions.items():
        own = _node_steps(graph, func, graph.cfg(qualname))
        if own:
            steps[qualname] = own
    solved: Dict[str, Tuple[_EpochAnalysis, Dict[int, _State]]] = {}
    work = deque(steps)
    queued: Set[str] = set(work)
    budget = 10 * len(table.functions)
    while work and budget:
        budget -= 1
        qualname = work.popleft()
        queued.discard(qualname)
        cfg = graph.cfg(qualname)
        analysis = _EpochAnalysis(qualname, steps[qualname], flow)
        states = solve(cfg, analysis)
        solved[qualname] = (analysis, states)
        pending, bumped = analysis.at_exit(cfg, states)
        if {_key(p) for p in pending} == {
            _key(p) for p in flow.pending_at_exit.get(qualname, ())
        } and bumped == flow.bumps_all_paths.get(qualname, False):
            continue
        flow.pending_at_exit[qualname] = pending
        flow.bumps_all_paths[qualname] = bumped
        for edge in graph.callers(qualname):
            if edge.caller in steps and edge.caller not in queued:
                queued.add(edge.caller)
                work.append(edge.caller)

    # Yields are judged once, on the final states.
    for qualname, (analysis, states) in solved.items():
        analysis.record = flow.yield_violations
        nodes = graph.cfg(qualname).nodes
        for index, (events, _) in analysis.steps.items():
            if index in states and any(e[0] == "yield" for e in events):
                analysis.transfer(nodes[index], states[index])
    return flow

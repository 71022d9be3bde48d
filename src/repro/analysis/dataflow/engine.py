"""Interprocedural effect summaries for the typestate checks.

The checks W005–W007 solve one CFG at a time with the worklist solver
(:func:`repro.analysis.program.cfg.solve`, re-exported by this
package) and consult :class:`FunctionEffects` summaries at call sites
instead of inlining callees.  :func:`compute_effects` builds them with
a bounded fixpoint over the call graph, which is also where every call
site's targets come from (``self`` calls included), so mutate / send /
raise behaviour propagates through helpers while the analysis stays
one CFG at a time.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..lifecycle import DESCRIPTOR_HANDOFF_METHODS, SEND_METHODS
from ..program.callgraph import CallGraph, build_call_graph
from ..program.checks import _stop_modules
from ..program.symbols import SymbolTable
from ..rules import in_modules, walk_own

__all__ = [
    "FunctionEffects",
    "compute_effects",
    "handoff_arg",
    "MAX_CHAIN_DEPTH",
]

#: Bounded interprocedural context: effect chains stop growing past
#: this many call steps.
MAX_CHAIN_DEPTH = 4


@dataclass
class FunctionEffects:
    """What calling a function may do to its arguments / control flow.

    ``mutates_params`` / ``sends_params`` map *parameter index* (0 is
    ``self`` for methods) to the evidence chain of the deepest-known
    site; ``may_raise`` carries a witness chain when any path through
    the function (or a callee, up to :data:`MAX_CHAIN_DEPTH`) contains
    an explicit ``raise``/``assert``.
    """

    qualname: str
    mutates_params: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    sends_params: Dict[int, Tuple[str, ...]] = field(default_factory=dict)
    may_raise: Optional[Tuple[str, ...]] = None


def handoff_arg(call: ast.Call) -> Optional[ast.Name]:
    """The descriptor a call hands to a transport, if any.

    ``enqueue``/``send_to_nf``/``send_out`` always hand over their
    first positional argument; plain ``send`` only in its unary form
    (the bus's ``send(source, destination, message, ...)`` carries NF
    names, not descriptors).
    """
    if not isinstance(call.func, ast.Attribute) or not call.args:
        return None
    first = call.args[0]
    if not isinstance(first, ast.Name):
        return None
    name = call.func.attr
    if name in DESCRIPTOR_HANDOFF_METHODS or (
        name in SEND_METHODS and len(call.args) == 1
    ):
        return first
    return None


def compute_effects(
    table: SymbolTable, graph: Optional[CallGraph] = None
) -> Dict[str, FunctionEffects]:
    """Bounded-context interprocedural effect summaries for every
    function in the table.

    Runs a fixpoint: direct effects (own attribute writes on
    parameters, own sends of parameters, own raise/assert) seed the
    summaries, then call sites propagate callee effects onto the
    caller's parameters until nothing changes or the evidence chains
    hit :data:`MAX_CHAIN_DEPTH`.  Call targets are the call graph's
    (``graph``, built from ``table`` when not given).  Functions in the
    instrumentation packages (``analysis``/``obs``) contribute no
    effects — their calls are ``is None``-gated no-ops on the hot path,
    and counting their strict-mode raises would poison every
    instrumented function.
    """
    if graph is None:
        graph = build_call_graph(table)
    stops = _stop_modules(table)
    effects: Dict[str, FunctionEffects] = {}
    param_index: Dict[str, Dict[str, int]] = {}
    resolved_calls: Dict[str, List[ast.Call]] = {}

    # Pass 1: direct effects.
    for qualname, func in table.functions.items():
        eff = FunctionEffects(qualname)
        effects[qualname] = eff
        if in_modules(func.module, stops):
            continue
        args = func.node.args
        index = {
            a.arg: i for i, a in enumerate(
                args.posonlyargs + args.args + args.kwonlyargs
            )
        }
        param_index[qualname] = index
        calls = resolved_calls[qualname] = []
        for stmt in walk_own(func.node):
            if isinstance(stmt, (ast.Raise, ast.Assert)):
                if eff.may_raise is None:
                    kind = "raise" if isinstance(stmt, ast.Raise) else "assert"
                    eff.may_raise = (f"{qualname}:{stmt.lineno} {kind}",)
            elif isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Attribute, ast.Subscript)):
                        base = base.value
                    if (
                        base is not target
                        and isinstance(base, ast.Name)
                        and base.id in index
                    ):
                        attr = (
                            target.attr
                            if isinstance(target, ast.Attribute) else "[]"
                        )
                        eff.mutates_params.setdefault(
                            index[base.id],
                            (f"{qualname}:{stmt.lineno} writes .{attr}",),
                        )
            elif isinstance(stmt, ast.Call):
                if graph.targets(stmt):
                    calls.append(stmt)
                arg = handoff_arg(stmt)
                if arg is not None and arg.id in index:
                    eff.sends_params.setdefault(
                        index[arg.id],
                        (
                            f"{qualname}:{stmt.lineno} "
                            f"{stmt.func.attr}() hands over '{arg.id}'",
                        ),
                    )

    # Pass 2: propagate through calls to fixpoint (bounded chains).
    changed = True
    while changed:
        changed = False
        for qualname, calls in resolved_calls.items():
            eff = effects[qualname]
            index = param_index[qualname]
            for call in calls:
                for target in graph.targets(call):
                    callee = effects[target]
                    if callee is eff:
                        continue
                    changed |= _absorb(eff, callee, call, index, qualname)
    return effects


def _absorb(
    eff: FunctionEffects,
    callee: FunctionEffects,
    call: ast.Call,
    index: Dict[str, int],
    qualname: str,
) -> bool:
    """Fold one callee's effects into the caller's summary."""
    changed = False
    step = f"{qualname}:{call.lineno} calls {callee.qualname}"
    if callee.may_raise and eff.may_raise is None:
        chain = (step,) + callee.may_raise
        if len(chain) <= MAX_CHAIN_DEPTH + 1:
            eff.may_raise = chain
            changed = True
    # Map caller arguments onto callee parameters.  Method calls have
    # an implicit self at callee index 0, so positional arg i lands on
    # callee parameter i + 1; plain calls map 1:1.
    shift = 1 if isinstance(call.func, ast.Attribute) else 0
    for arg_pos, arg in enumerate(call.args):
        if not isinstance(arg, ast.Name) or arg.id not in index:
            continue
        callee_pos = arg_pos + shift
        own_pos = index[arg.id]
        for table_name in ("mutates_params", "sends_params"):
            callee_map = getattr(callee, table_name)
            own_map = getattr(eff, table_name)
            if callee_pos in callee_map and own_pos not in own_map:
                chain = (step,) + callee_map[callee_pos]
                if len(chain) <= MAX_CHAIN_DEPTH + 1:
                    own_map[own_pos] = chain
                    changed = True
    return changed

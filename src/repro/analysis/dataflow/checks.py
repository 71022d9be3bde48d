"""The four typestate checks W005–W008 over the dataflow engine.

========  ==================================================================
W005      Descriptor typestate (``allocated -> filled -> sent ->
          consumed``): a field write, mutating container method, or
          re-send/re-enqueue reachable after a ``send``/``enqueue``
          site — through helpers, via the interprocedural effect
          summaries — is flagged.  The static twin of the runtime
          sanitizer's mutate-after-send / double-enqueue, citing the
          same :mod:`repro.analysis.lifecycle` vocabulary.
W006      Session/rule lifecycle (``created -> installed -> removed``):
          use of a session after ``remove`` on any path, establishing a
          session twice, removing a never-established session, and a
          PDR whose constant ``far_id`` references a FAR that is not
          installed on some path through the handler.
W007      Exception-safety resource leaks: a function acquires a slab
          slot (``adopt``), shard pin (``pin``), pool entry
          (``acquire``), or holds a removed session, and a raising edge
          exists on which the release/re-install is not post-dominant.
          One release attempt on the recovery path discharges the
          obligation (bounded recovery).
W008      Dead config: a ``*Config`` dataclass field no expression in
          the analyzed tree ever reads, and metric instruments created
          and immediately discarded — configuration no reachable path
          can observe.
========  ==================================================================

Findings carry path/call-chain evidence and flow through the same
``Finding`` / ``# repro: noqa[...]`` / ``--baseline`` machinery as the
file-local lint and the whole-program checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..lifecycle import (
    ACQUIRE_METHODS,
    DANGLING_RULE_REF,
    DEAD_CONFIG,
    DESCRIPTOR_HANDOFF_METHODS,
    DOUBLE_ENQUEUE,
    DOUBLE_ESTABLISH,
    LEAK_ON_RAISE,
    MAY_FAIL_TRANSITIONS,
    MUTATE_AFTER_SEND,
    MUTATING_METHODS,
    REMOVE_BEFORE_ESTABLISH,
    SEND_METHODS,
    SESSION_CLASS_SUFFIX,
    SESSION_ESTABLISH_METHODS,
    SESSION_INSTALL_METHODS,
    SESSION_REMOVE_METHODS,
    USE_AFTER_REMOVE,
)
from ..program.cfg import CFG, CFGNode, CallSite, build_cfg
from ..program.checks import ProgramFinding, _apply_noqa, _stop_modules
from ..program.symbols import (
    FunctionInfo,
    SymbolTable,
    build_symbol_table,
)
from ..rules import SourceFile, as_contexts
from .engine import (
    Analysis,
    FunctionEffects,
    compute_effects,
    solve,
    _resolve_call_targets,
)

__all__ = [
    "CHECKS",
    "CHECK_CODES",
    "DataflowReport",
    "analyze_dataflow",
]

#: Check code -> one-line title (``python -m repro.analysis --list-rules``).
CHECKS = {
    "W005": "descriptor typestate",
    "W006": "session/rule lifecycle",
    "W007": "resource leak on raise",
    "W008": "dead config",
}

CHECK_CODES = tuple(CHECKS)


@dataclass
class DataflowReport:
    """Result of one typestate analysis run."""

    table: SymbolTable
    findings: List[ProgramFinding]
    stats: Dict[str, int] = field(default_factory=dict)


def analyze_dataflow(
    files: Sequence[SourceFile],
    checks: Optional[Sequence[str]] = None,
    table: Optional[SymbolTable] = None,
) -> DataflowReport:
    """Run the typestate checks over (path, source) pairs or parsed
    contexts; ``table``, when given, is their prebuilt symbol table."""
    wanted = set(checks if checks is not None else CHECK_CODES)
    contexts = as_contexts(files)
    if table is None:
        table = build_symbol_table(contexts)
    effects = compute_effects(
        table,
        send_methods=tuple(SEND_METHODS),
        handoff_methods=tuple(DESCRIPTOR_HANDOFF_METHODS),
    )
    stops = tuple(_stop_modules(table))
    findings: List[ProgramFinding] = []
    cfgs = 0
    for qualname in sorted(table.functions):
        func = table.functions[qualname]
        if stops and func.module.startswith(stops):
            continue
        cfg = build_cfg(func.node, qualname)
        cfgs += 1
        if "W005" in wanted:
            findings.extend(_check_w005(table, func, cfg, effects))
        if "W006" in wanted:
            findings.extend(_check_w006(table, func, cfg))
        if "W007" in wanted:
            findings.extend(_check_w007(table, func, cfg, effects))
    if "W008" in wanted:
        findings.extend(_check_w008(table, stops))
    findings = _apply_noqa(contexts, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code, f.message))
    return DataflowReport(
        table=table,
        findings=findings,
        stats={
            "functions": len(table.functions),
            "cfgs": cfgs,
            "raising_functions": sum(
                1 for e in effects.values() if e.may_raise
            ),
        },
    )


def _mk(
    func: FunctionInfo,
    lineno: int,
    code: str,
    message: str,
    chain: Tuple[str, ...] = (),
    severity: str = "error",
) -> ProgramFinding:
    return ProgramFinding(
        path=func.path,
        line=lineno,
        col=1,
        code=code,
        severity=severity,
        message=message,
        chain=chain,
    )


def _base_var(dotted: Optional[str]) -> Optional[str]:
    if not dotted:
        return None
    return dotted.split(".", 1)[0]


def _is_method_call(call: CallSite) -> bool:
    return isinstance(call.node.func, ast.Attribute)


def _handoff_arg(call: CallSite) -> Optional[ast.Name]:
    """The descriptor a call hands to a transport, if any.

    ``enqueue``/``send_to_nf``/``send_out`` always hand over their
    first positional argument; plain ``send`` only in its unary form
    (the bus's ``send(source, destination, message, ...)`` carries NF
    names, not descriptors).
    """
    if not _is_method_call(call) or not call.args:
        return None
    first = call.args[0]
    if not isinstance(first, ast.Name):
        return None
    if call.name in DESCRIPTOR_HANDOFF_METHODS:
        return first
    if call.name in SEND_METHODS and len(call.args) == 1:
        return first
    return None


# ===========================================================================
# W005 — descriptor typestate
# ===========================================================================
# State: frozenset of (var, send-site-line, evidence-step).  A var with
# a fact is in state "sent"; rebinding kills the fact.
class _W005State(Analysis):
    def __init__(self, qualname: str):
        self.qualname = qualname

    def initial(self, cfg: CFG) -> FrozenSet:
        return frozenset()

    def join(self, states) -> FrozenSet:
        return frozenset().union(*states)

    def transfer(self, node: CFGNode, state):
        out = set(state)
        if node.defs:
            kills = set(node.defs)
            out = {f for f in out if f[0] not in kills}
        for call in node.calls:
            arg = _handoff_arg(call)
            if arg is not None:
                out.add((
                    arg.id,
                    call.lineno,
                    f"-> {self.qualname}:{call.lineno} "
                    f"{call.name}() hands over '{arg.id}' "
                    "(state 'sent')",
                ))
        result = frozenset(out)
        return result, result


def _check_w005(
    table: SymbolTable,
    func: FunctionInfo,
    cfg: CFG,
    effects: Dict[str, FunctionEffects],
) -> List[ProgramFinding]:
    states = solve(cfg, _W005State(func.qualname))
    findings: Dict[Tuple[int, str], ProgramFinding] = {}

    def emit(lineno, kind, message, chain):
        findings.setdefault(
            (lineno, message),
            _mk(func, lineno, "W005", message, chain=tuple(chain)),
        )

    for node in cfg.nodes:
        state = states.get(node.index)
        if not state:
            continue
        sent: Dict[str, Tuple[int, str]] = {}
        for var, line, step in sorted(state, key=lambda f: f[1]):
            sent.setdefault(var, (line, step))
        # Field writes on a sent descriptor.
        for write in node.attr_writes:
            base = _base_var(write.receiver)
            if base in sent:
                _, step = sent[base]
                emit(
                    write.lineno,
                    MUTATE_AFTER_SEND,
                    f"{MUTATE_AFTER_SEND}: write to "
                    f"'{write.receiver}.{write.attr}' after '{base}' was "
                    "handed to the transport; state 'sent' allows no "
                    "field writes (allocated->filled->sent->consumed)",
                    [step,
                     f"-> {func.qualname}:{write.lineno} writes "
                     f".{write.attr} while '{base}' is in flight"],
                )
        for call in node.calls:
            # Re-send / re-enqueue of a sent descriptor.
            handoff = _handoff_arg(call)
            if handoff is not None:
                if handoff.id in sent:
                    _, step = sent[handoff.id]
                    emit(
                        call.lineno,
                        DOUBLE_ENQUEUE,
                        f"{DOUBLE_ENQUEUE}: '{handoff.id}' passed to "
                        f"{call.name}() while already in state "
                        "'sent'; two consumers would alias one "
                        "descriptor",
                        [step,
                         f"-> {func.qualname}:{call.lineno} "
                         f"{call.name}() hands '{handoff.id}' over again"],
                    )
                continue
            # Mutating container method on a sent descriptor's field.
            recv_base = _base_var(call.receiver)
            if (
                recv_base in sent
                and call.name in MUTATING_METHODS
                and call.receiver != recv_base
            ):
                _, step = sent[recv_base]
                emit(
                    call.lineno,
                    MUTATE_AFTER_SEND,
                    f"{MUTATE_AFTER_SEND}: "
                    f"{call.receiver}.{call.name}() mutates "
                    f"'{recv_base}' after it was handed to the "
                    "transport; state 'sent' allows no mutation",
                    [step,
                     f"-> {func.qualname}:{call.lineno} "
                     f"{call.receiver}.{call.name}()"],
                )
            # Interprocedural: sent var passed to a mutating/sending
            # helper.
            sent_args = [
                (pos, arg.id)
                for pos, arg in enumerate(call.args)
                if isinstance(arg, ast.Name) and arg.id in sent
            ]
            if not sent_args:
                continue
            shift = 1 if _is_method_call(call) else 0
            for target in _resolve_call_targets(table, func, call.node):
                eff = effects.get(target)
                if eff is None:
                    continue
                for pos, var in sent_args:
                    callee_pos = pos + shift
                    _, step = sent[var]
                    here = (
                        f"-> {func.qualname}:{call.lineno} passes "
                        f"'{var}' to {target}"
                    )
                    if callee_pos in eff.mutates_params:
                        emit(
                            call.lineno,
                            MUTATE_AFTER_SEND,
                            f"{MUTATE_AFTER_SEND}: '{var}' in state "
                            f"'sent' is passed to "
                            f"{target.split('.')[-1]}(), which writes "
                            "to it; the receiver observes the "
                            "mutation",
                            [step, here,
                             *eff.mutates_params[callee_pos]],
                        )
                    if callee_pos in eff.sends_params:
                        emit(
                            call.lineno,
                            DOUBLE_ENQUEUE,
                            f"{DOUBLE_ENQUEUE}: '{var}' in state "
                            f"'sent' is passed to "
                            f"{target.split('.')[-1]}(), which hands "
                            "it to a transport again",
                            [step, here,
                             *eff.sends_params[callee_pos]],
                        )
    return list(findings.values())


# ===========================================================================
# W006 — session/rule lifecycle
# ===========================================================================
# Fact per session-typed local:
#   (var, states, fars, far_unknown, pdr_refs, origins)
# states: frozenset of lifecycle states (may-analysis: union on join)
# fars: frozenset of constant FAR ids installed on *every* path
#       (must-analysis: intersection on join)
# pdr_refs: frozenset of (far_id, lineno) constant references
# origins: frozenset of evidence steps for the chain
_Fact = Tuple[
    str, FrozenSet[str], FrozenSet[int], bool,
    FrozenSet[Tuple[int, int]], FrozenSet[str],
]


def _merge_facts(facts: List[_Fact]) -> _Fact:
    var = facts[0][0]
    states = frozenset().union(*(f[1] for f in facts))
    fars = facts[0][2]
    for f in facts[1:]:
        fars = fars & f[2]
    unknown = any(f[3] for f in facts)
    refs = frozenset().union(*(f[4] for f in facts))
    origins = frozenset().union(*(f[5] for f in facts))
    return (var, states, fars, unknown, refs, origins)


class _W006State(Analysis):
    def __init__(self, qualname: str):
        self.qualname = qualname

    def initial(self, cfg: CFG) -> FrozenSet[_Fact]:
        return frozenset()

    def join(self, states) -> FrozenSet[_Fact]:
        by_var: Dict[str, List[_Fact]] = {}
        for state in states:
            for fact in state:
                by_var.setdefault(fact[0], []).append(fact)
        return frozenset(
            _merge_facts(facts) for facts in by_var.values()
        )

    def transfer(self, node: CFGNode, state):
        facts: Dict[str, _Fact] = {f[0]: f for f in state}
        stmt = node.stmt
        killed = set(node.defs)

        # Binding forms that *create* facts suppress the kill of their
        # own target.
        created: Dict[str, _Fact] = {}
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                value = stmt.value
                if isinstance(value, ast.Call):
                    ctor = value.func
                    ctor_name = (
                        ctor.id if isinstance(ctor, ast.Name)
                        else ctor.attr if isinstance(ctor, ast.Attribute)
                        else ""
                    )
                    if ctor_name.endswith(SESSION_CLASS_SUFFIX):
                        created[target.id] = (
                            target.id,
                            frozenset({"created"}),
                            frozenset(),
                            False,
                            frozenset(),
                            frozenset({
                                f"-> {self.qualname}:{stmt.lineno} "
                                f"'{target.id}' = {ctor_name}(...) "
                                "(state 'created')",
                            }),
                        )
                    elif (
                        ctor_name in SESSION_REMOVE_METHODS
                        and isinstance(ctor, ast.Attribute)
                    ):
                        created[target.id] = (
                            target.id,
                            frozenset({"removed"}),
                            frozenset(),
                            True,  # rules of a foreign session: unknown
                            frozenset(),
                            frozenset({
                                f"-> {self.qualname}:{stmt.lineno} "
                                f"'{target.id}' = "
                                f"{ctor_name}(...) result "
                                "(state 'removed')",
                            }),
                        )
                elif isinstance(value, ast.Name) and value.id in facts:
                    old = facts[value.id]
                    created[target.id] = (target.id,) + old[1:]

        for name in killed:
            facts.pop(name, None)
        facts.update(created)

        # A raising call's lifecycle transition did not happen: the
        # exceptional edge carries the pre-call facts (a failed add
        # leaves the session 'removed', not 'installed').
        pre_call = frozenset(facts.values())

        for call in node.calls:
            self._apply_call(facts, call)

        # Escapes: returning or storing a tracked session unmonitors it.
        if isinstance(stmt, ast.Return) and isinstance(
            stmt.value, ast.Name
        ):
            facts.pop(stmt.value.id, None)
        if (
            isinstance(stmt, ast.Assign)
            and node.attr_writes
            and isinstance(stmt.value, ast.Name)
        ):
            facts.pop(stmt.value.id, None)

        result = frozenset(facts.values())
        return result, pre_call

    def _apply_call(self, facts: Dict[str, _Fact], call: CallSite) -> None:
        name = call.name
        if name in SESSION_ESTABLISH_METHODS and _is_method_call(call):
            for arg in call.args:
                if isinstance(arg, ast.Name) and arg.id in facts:
                    var, states, fars, unknown, refs, origins = (
                        facts[arg.id]
                    )
                    facts[arg.id] = (
                        var, frozenset({"installed"}), fars, unknown,
                        refs,
                        origins | {
                            f"-> {self.qualname}:{call.lineno} "
                            f"add('{var}') (state 'installed')",
                        },
                    )
            return
        if name in SESSION_REMOVE_METHODS and _is_method_call(call):
            for arg in call.args:
                base = None
                if isinstance(arg, ast.Attribute):
                    base = _base_var(_dotted_text(arg))
                if base in facts:
                    var, states, fars, unknown, refs, origins = facts[base]
                    facts[base] = (
                        var, frozenset({"removed"}), fars, unknown, refs,
                        origins | {
                            f"-> {self.qualname}:{call.lineno} "
                            f"remove(...) tears '{var}' down "
                            "(state 'removed')",
                        },
                    )
            return
        recv_base = _base_var(call.receiver)
        if name in SESSION_INSTALL_METHODS and recv_base in facts:
            var, states, fars, unknown, refs, origins = facts[recv_base]
            if name in ("install_far", "update_far"):
                far_id = _constant_kwarg(call, "far_id")
                if far_id is None:
                    unknown = True
                else:
                    fars = fars | {far_id}
            elif name == "install_pdr":
                far_id = _constant_kwarg(call, "far_id")
                if far_id is not None:
                    refs = refs | {(far_id, call.lineno)}
            facts[recv_base] = (var, states, fars, unknown, refs, origins)
            return
        # Any other call a tracked session participates in: escape.
        for arg in call.args:
            if isinstance(arg, ast.Name) and arg.id in facts:
                facts.pop(arg.id, None)


def _dotted_text(node: ast.AST) -> Optional[str]:
    from ..program.cfg import _dotted
    return _dotted(node)


def _constant_kwarg(call: CallSite, kwarg: str) -> Optional[int]:
    """Constant int value of ``kwarg`` on the (sole) ctor argument."""
    for arg in list(call.args) + [
        kw.value for kw in call.node.keywords
    ]:
        if isinstance(arg, ast.Call):
            for kw in arg.keywords:
                if kw.arg == kwarg and isinstance(kw.value, ast.Constant):
                    value = kw.value.value
                    if isinstance(value, int):
                        return value
    return None


def _check_w006(
    table: SymbolTable, func: FunctionInfo, cfg: CFG
) -> List[ProgramFinding]:
    states = solve(cfg, _W006State(func.qualname))
    findings: Dict[Tuple[int, str], ProgramFinding] = {}

    def emit(lineno, message, chain):
        findings.setdefault(
            (lineno, message),
            _mk(func, lineno, "W006", message, chain=tuple(chain)),
        )

    for node in cfg.nodes:
        state = states.get(node.index)
        if not state:
            continue
        facts: Dict[str, _Fact] = {f[0]: f for f in state}
        for call in node.calls:
            name = call.name
            recv_base = _base_var(call.receiver)
            if (
                name in SESSION_INSTALL_METHODS
                and recv_base in facts
                and "removed" in facts[recv_base][1]
            ):
                origins = sorted(facts[recv_base][5])
                emit(
                    call.lineno,
                    f"{USE_AFTER_REMOVE}: {name}() called on "
                    f"'{recv_base}' in state 'removed'; a torn-down "
                    "session's rules are invisible to the data plane",
                    origins + [
                        f"-> {func.qualname}:{call.lineno} "
                        f"{recv_base}.{name}() after remove",
                    ],
                )
            if name in SESSION_ESTABLISH_METHODS and _is_method_call(call):
                for arg in call.args:
                    if (
                        isinstance(arg, ast.Name)
                        and arg.id in facts
                        and "installed" in facts[arg.id][1]
                    ):
                        origins = sorted(facts[arg.id][5])
                        emit(
                            call.lineno,
                            f"{DOUBLE_ESTABLISH}: '{arg.id}' added "
                            "while already in state 'installed' on "
                            "some path; two tables would own one "
                            "session",
                            origins + [
                                f"-> {func.qualname}:{call.lineno} "
                                f"add('{arg.id}') again",
                            ],
                        )
            if name in SESSION_REMOVE_METHODS and _is_method_call(call):
                for arg in call.args:
                    base = None
                    if isinstance(arg, ast.Attribute):
                        base = _base_var(_dotted_text(arg))
                    if (
                        base in facts
                        and facts[base][1] == frozenset({"created"})
                    ):
                        origins = sorted(facts[base][5])
                        emit(
                            call.lineno,
                            f"{REMOVE_BEFORE_ESTABLISH}: '{base}' is "
                            "removed but was never established "
                            "(state 'created'); the remove is a no-op "
                            "and the PFCP transaction is out of order",
                            origins + [
                                f"-> {func.qualname}:{call.lineno} "
                                "remove before add",
                            ],
                        )

    # Dangling constant FAR references at function exit.
    exit_state = states.get(cfg.exit)
    if exit_state:
        for fact in sorted(exit_state):
            var, fstates, fars, unknown, refs, origins = fact
            if unknown or "removed" in fstates:
                continue
            for far_id, lineno in sorted(refs):
                if far_id not in fars:
                    findings.setdefault(
                        (lineno, f"dangling-{var}-{far_id}"),
                        _mk(
                            func,
                            lineno,
                            "W006",
                            f"{DANGLING_RULE_REF}: PDR on '{var}' "
                            f"references far_id={far_id}, but no path "
                            "through "
                            f"{func.qualname.split('.')[-1]}() "
                            "installs that FAR; matching packets "
                            "would have no forwarding action",
                            chain=tuple(sorted(origins) + [
                                f"-> {func.qualname}:{lineno} "
                                f"install_pdr(far_id={far_id}) with no "
                                "matching install_far on every path",
                            ]),
                        ),
                    )
    return list(findings.values())


# ===========================================================================
# W007 — exception-safety resource leaks
# ===========================================================================
# Resource fact: (kind, key, desc, site-step, failed_releases)
_Resource = Tuple[str, str, str, str, int]

_ACQUIRE_KINDS = {
    "adopt": "slab slot",
    "pin": "shard pin",
    "acquire": "pool entry",
}


class _W007State(Analysis):
    def __init__(
        self,
        qualname: str,
        table: SymbolTable,
        func: FunctionInfo,
        effects: Dict[str, FunctionEffects],
    ):
        self.qualname = qualname
        self.table = table
        self.func = func
        self.effects = effects
        #: call lineno -> may-raise witness chain (memoized)
        self._raise_cache: Dict[int, Optional[Tuple[str, ...]]] = {}

    def initial(self, cfg: CFG) -> FrozenSet[_Resource]:
        return frozenset()

    def join(self, states) -> FrozenSet[_Resource]:
        return frozenset().union(*states)

    # -- raising-edge feasibility ---------------------------------------
    def node_raises(self, node: CFGNode) -> bool:
        if node.raises:
            return True
        return any(self.call_raises(c) is not None for c in node.calls)

    def call_raises(self, call: CallSite) -> Optional[Tuple[str, ...]]:
        cached = self._raise_cache.get(id(call.node))
        if id(call.node) in self._raise_cache:
            return cached
        witness: Optional[Tuple[str, ...]] = None
        if call.name in MAY_FAIL_TRANSITIONS:
            witness = (
                f"-> {call.name}() validates its argument and may "
                "raise (lifecycle contract)",
            )
        else:
            for target in _resolve_call_targets(
                self.table, self.func, call.node
            ):
                eff = self.effects.get(target)
                if eff is not None and eff.may_raise:
                    witness = eff.may_raise
                    break
        self._raise_cache[id(call.node)] = witness
        return witness

    # -- transfer --------------------------------------------------------
    def _classify(self, node: CFGNode, state):
        """Split one node's effect into (kills, acquires, releases)."""
        acquired: List[_Resource] = []
        released: Set[_Resource] = set()
        facts = set(state)
        by_session_var: Dict[str, List[_Resource]] = {}
        for res in facts:
            if res[0] == "session":
                by_session_var.setdefault(res[1], []).append(res)

        # Rebinding a held-session var drops the only reference.
        for name in node.defs:
            for res in by_session_var.get(name, ()):
                released.add(res)

        stmt = node.stmt
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            value = stmt.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in SESSION_REMOVE_METHODS
            ):
                recv = _dotted_text(value.func.value) or "the table"
                acquired.append((
                    "session",
                    target.id,
                    f"removed session '{target.id}'",
                    f"-> {self.qualname}:{stmt.lineno} "
                    f"'{target.id}' = remove(...) result from {recv} "
                    "-- the session now lives only in this local",
                    0,
                ))

        for call in node.calls:
            name = call.name
            recv = call.receiver or ""
            if name in ACQUIRE_METHODS and _is_method_call(call) and recv:
                kind = _ACQUIRE_KINDS[name]
                acquired.append((
                    kind,
                    recv,
                    f"{kind} acquired via {recv}.{name}()",
                    f"-> {self.qualname}:{call.lineno} "
                    f"{recv}.{name}() acquires a {kind}",
                    0,
                ))
            elif name in set(ACQUIRE_METHODS.values()):
                for res in list(facts):
                    if res[0] in _ACQUIRE_KINDS.values() and res[1] == recv:
                        released.add(res)
            elif name in SESSION_ESTABLISH_METHODS:
                for arg in call.args:
                    if isinstance(arg, ast.Name):
                        for res in by_session_var.get(arg.id, ()):
                            released.add(res)
            else:
                # Session var escaping into another call transfers
                # ownership (flush/buffer/listener helpers).
                for arg in call.args:
                    if isinstance(arg, ast.Name):
                        for res in by_session_var.get(arg.id, ()):
                            released.add(res)

        # Returning the held session transfers it to the caller.
        if isinstance(stmt, ast.Return) and isinstance(
            stmt.value, ast.Name
        ):
            for res in by_session_var.get(stmt.value.id, ()):
                released.add(res)
        return facts, acquired, released

    def transfer(self, node: CFGNode, state):
        facts, acquired, released = self._classify(node, state)
        normal = frozenset((facts - released) | set(acquired))
        if not node.raises and not self.node_raises(node):
            return normal, None
        # Exceptional edge: this-statement acquisitions did not happen;
        # attempted releases may themselves have failed.  One failed
        # release attempt keeps the obligation (that *is* the leak); a
        # second attempt — the recovery path — discharges it.
        exc = set(facts - released)
        for res in released:
            if res[0] == "session" and res[4] == 0:
                exc.add(res[:4] + (1,))
        return normal, frozenset(exc)

    def transfer_branch(self, node: CFGNode, state):
        """Path-sensitive refinement on two guard idioms.

        ``if not x.pin(...):`` — the truthy arm is the *failure* arm:
        nothing was acquired there.  ``if self.lb is not None:`` — a
        resource acquired *through* ``self.lb`` cannot be held on the
        arm where ``self.lb`` is None; dropping it there lets the
        guarded-release recovery pattern verify clean.
        """
        stmt = node.stmt
        if not isinstance(stmt, (ast.If, ast.While)):
            return None
        polarity = _acquire_test_polarity(stmt.test)
        if polarity is not None:
            _call, negated = polarity
            normal, exc = self.transfer(node, state)
            acquired_here = {
                res for res in normal - set(state)
                if res[0] in _ACQUIRE_KINDS.values()
            }
            if not acquired_here:
                return None
            without = frozenset(normal - acquired_here)
            if negated:
                return without, normal, exc  # truthy arm = acquire failed
            return normal, without, exc
        guard = _none_guard_key(stmt.test)
        if guard is not None:
            key, true_means_present = guard
            normal, exc = self.transfer(node, state)
            refined = frozenset(
                res for res in normal
                if res[1] != key and not res[1].startswith(key + ".")
            )
            if refined == normal:
                return None
            if true_means_present:
                return normal, refined, exc
            return refined, normal, exc
        return None


def _none_guard_key(test: ast.expr):
    """Recognize ``X is [not] None`` branch tests.

    Returns ``(dotted-X, true_means_present)`` where
    ``true_means_present`` is True for ``X is not None`` (the truthy
    arm is the one on which ``X`` — and resources acquired through it —
    exists), else None.
    """
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        key = _dotted_text(test.left)
        if key:
            return key, isinstance(test.ops[0], ast.IsNot)
    return None


def _acquire_test_polarity(test: ast.expr):
    """Locate an acquire call in a branch test.

    Returns (call, negated) for ``x.pin(...)`` / ``not x.pin(...)``
    (possibly as the last operand of an ``and``), else None.
    """
    expr = test
    if isinstance(expr, ast.BoolOp) and isinstance(expr.op, ast.And):
        expr = expr.values[-1]
    negated = False
    while isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
        negated = not negated
        expr = expr.operand
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ACQUIRE_METHODS
    ):
        return expr, negated
    return None


def _check_w007(
    table: SymbolTable,
    func: FunctionInfo,
    cfg: CFG,
    effects: Dict[str, FunctionEffects],
) -> List[ProgramFinding]:
    analysis = _W007State(func.qualname, table, func, effects)
    states = solve(cfg, analysis)
    leaked = states.get(cfg.raise_exit)
    if not leaked:
        return []

    # Witness pass: attribute each leaked resource to the earliest
    # raising statement whose exceptional out-state still holds it.
    witnesses: Dict[Tuple[str, str, str], Tuple[int, Tuple[str, ...]]] = {}
    for node in sorted(cfg.nodes, key=lambda n: n.lineno):
        if node.stmt is None:
            continue
        state = states.get(node.index)
        if state is None or not analysis.node_raises(node):
            continue
        _, exc = analysis.transfer(node, state)
        if not exc:
            continue
        raise_why: Tuple[str, ...] = ()
        if node.raises:
            raise_why = (
                f"-> {func.qualname}:{node.lineno} raises",
            )
        else:
            for call in node.calls:
                chain = analysis.call_raises(call)
                if chain is not None:
                    raise_why = (
                        f"-> {func.qualname}:{node.lineno} "
                        f"{call.name}() may raise",
                    ) + chain
                    break
        for res in exc:
            key = res[:3]
            if key not in witnesses:
                witnesses[key] = (node.lineno, raise_why)

    findings: List[ProgramFinding] = []
    seen: Set[Tuple[str, str, str]] = set()
    for res in sorted(leaked):
        kind, rkey, desc, step, _failed = res
        key = (kind, rkey, desc)
        if key in seen:
            continue
        seen.add(key)
        lineno, why = witnesses.get(key, (func.lineno, ()))
        findings.append(
            _mk(
                func,
                lineno,
                "W007",
                f"{LEAK_ON_RAISE}: {desc} is still held when "
                f"{func.qualname.split('.')[-1]}() exits on a raising "
                "path; the release is not post-dominant and the "
                "resource leaks",
                chain=(step,) + why + (
                    "-> exceptional exit with state 'held' "
                    "(expected 'released')",
                ),
            )
        )
    return findings


# ===========================================================================
# W008 — constant-propagation dead config
# ===========================================================================
def _check_w008(
    table: SymbolTable, stops: Tuple[str, ...]
) -> List[ProgramFinding]:
    findings: List[ProgramFinding] = []

    # Every attribute name read anywhere in the analyzed tree.
    reads: Set[str] = set()
    discarded: List[Tuple[str, str, str, int]] = []
    for module in table.modules.values():
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                reads.add(node.attr)
            if (
                isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in (
                    "gauge", "counter", "histogram"
                )
            ):
                discarded.append((
                    module.path,
                    module.name,
                    node.value.func.attr,
                    node.lineno,
                ))

    for cls_qualname in sorted(table.classes):
        cls = table.classes[cls_qualname]
        if not cls_qualname.split(".")[-1].endswith("Config"):
            continue
        if stops and cls.module.startswith(stops):
            continue
        for stmt in cls.node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            name = stmt.target.id
            if name.startswith("_") or name in reads:
                continue
            findings.append(
                ProgramFinding(
                    path=cls.path,
                    line=stmt.lineno,
                    col=1,
                    code="W008",
                    severity="warning",
                    message=(
                        f"{DEAD_CONFIG}: "
                        f"{cls_qualname.split('.')[-1]} flag "
                        f"'{name}' is never read on any reachable "
                        "path; it configures nothing"
                    ),
                    chain=(
                        f"-> declared at {cls_qualname}.{name}",
                        "-> no attribute read of "
                        f"'.{name}' anywhere in the analyzed tree",
                    ),
                )
            )

    for path, module, method, lineno in discarded:
        if stops and module.startswith(stops):
            continue
        findings.append(
            ProgramFinding(
                path=path,
                line=lineno,
                col=1,
                code="W008",
                severity="warning",
                message=(
                    f"{DEAD_CONFIG}: metric {method}() instrument is "
                    "created and immediately discarded; no reachable "
                    "path can observe it"
                ),
                chain=(
                    f"-> {module}:{lineno} {method}(...) result unused",
                ),
            )
        )
    return findings

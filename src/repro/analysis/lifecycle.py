"""Canonical lifecycle vocabulary shared by static and dynamic checks.

The dynamic sanitizer (:mod:`repro.analysis.sanitizer`), the race
detector, and the static typestate checks
(:mod:`repro.analysis.dataflow`) all reason about the *same* three
protocols.  This module is the single source of the state names,
transition tables, and violation-kind strings, so a W005 finding at
lint time and a sanitizer violation at run time cite identical
vocabulary and an operator can correlate them 1:1.

Protocols
---------
**Descriptor** (zero-copy message/descriptor handoff)::

    allocated -> filled -> sent -> consumed

  A field write or re-enqueue in state ``sent`` is the
  mutate-after-send / double-enqueue hazard class; the transports'
  runtime states map onto the protocol via
  :data:`TRANSPORT_STATE_NAMES`.

**Session** (PFCP establish/modify/delete)::

    created -> installed -> removed -> installed   (re-establish/rehome)

  Rule installs (``install_pdr`` et al.) are legal only in ``created``
  or ``installed``; ``remove`` of a never-installed session and any
  rule use after ``remove`` are violations.

**Resource** (slab slot / buffer entry / pinned shard)::

    held -> released

  Acquired by :data:`ACQUIRE_METHODS`, discharged by the paired
  release, by an ownership transfer (return/escape), or by a
  re-install (:data:`SESSION_INSTALL_TRANSFER`).  A raising edge on
  which the release is not post-dominant leaks the resource.

**Shared rule state** (single-writer, §3.2): the attribute names in
:data:`SHARED_ATTRS` are written only by the ``up`` package, and a
mutation of a :data:`RULE_ATTRS` container must be published by a
``RuleEpoch.bump()``.  :func:`attr_mutations` is the one matcher for
such writes, shared by the file-local rules R008/R009 and the
interprocedural epoch-bump flow behind W002.
"""

from __future__ import annotations

import ast
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, Optional, Tuple,
)

__all__ = [
    "DESCRIPTOR_STATES",
    "DESCRIPTOR_TRANSITIONS",
    "SESSION_STATES",
    "RESOURCE_STATES",
    "TRANSPORT_IN_FLIGHT",
    "TRANSPORT_IN_RING",
    "TRANSPORT_CHECKED_OUT",
    "TRANSPORT_STATE_NAMES",
    "MUTATE_AFTER_SEND",
    "DOUBLE_ENQUEUE",
    "USE_AFTER_DEQUEUE",
    "USE_AFTER_REMOVE",
    "DOUBLE_ESTABLISH",
    "REMOVE_BEFORE_ESTABLISH",
    "DANGLING_RULE_REF",
    "LEAK_ON_RAISE",
    "DEAD_CONFIG",
    "SEND_METHODS",
    "DESCRIPTOR_HANDOFF_METHODS",
    "SESSION_INSTALL_METHODS",
    "SESSION_ESTABLISH_METHODS",
    "SESSION_REMOVE_METHODS",
    "SESSION_INSTALL_TRANSFER",
    "SESSION_CLASS_SUFFIX",
    "ACQUIRE_METHODS",
    "MAY_FAIL_TRANSITIONS",
    "MUTATING_METHODS",
    "RULE_ATTRS",
    "SHARED_ATTRS",
    "attr_mutations",
]

# -- state machines ----------------------------------------------------------

#: Descriptor protocol states, in lifecycle order.
DESCRIPTOR_STATES: Tuple[str, ...] = (
    "allocated", "filled", "sent", "consumed",
)

#: Legal descriptor transitions (state -> successor states).
DESCRIPTOR_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    "allocated": ("filled",),
    "filled": ("filled", "sent"),
    "sent": ("consumed",),
    "consumed": ("filled", "sent"),  # recycled via a pool
}

#: Session protocol states.
SESSION_STATES: Tuple[str, ...] = ("created", "installed", "removed")

#: Resource (slab slot / buffer entry / pinned shard) states.
RESOURCE_STATES: Tuple[str, ...] = ("held", "released")

#: The transports' runtime ownership states (values of the sanitizer's
#: internal ``_State`` enum) and the descriptor-protocol state each
#: corresponds to.
TRANSPORT_IN_FLIGHT = "in-flight"
TRANSPORT_IN_RING = "in-ring"
TRANSPORT_CHECKED_OUT = "checked-out"
TRANSPORT_STATE_NAMES: Dict[str, str] = {
    TRANSPORT_IN_FLIGHT: "sent",
    TRANSPORT_IN_RING: "sent",
    TRANSPORT_CHECKED_OUT: "consumed",
}

# -- violation kinds ---------------------------------------------------------
# One string per hazard, used verbatim by the sanitizer's Violation.kind
# and embedded verbatim in the corresponding static finding messages.

MUTATE_AFTER_SEND = "mutate-after-send"
DOUBLE_ENQUEUE = "double-enqueue"
USE_AFTER_DEQUEUE = "use-after-dequeue"
USE_AFTER_REMOVE = "use-after-remove"
DOUBLE_ESTABLISH = "double-establish"
REMOVE_BEFORE_ESTABLISH = "remove-before-establish"
DANGLING_RULE_REF = "dangling-rule-reference"
LEAK_ON_RAISE = "leak-on-raise"
DEAD_CONFIG = "dead-config"

# -- API shapes the static checks key on -------------------------------------

#: Method names that hand a descriptor to a transport (ownership
#: transfer: the argument enters state ``sent``).
SEND_METHODS: FrozenSet[str] = frozenset({"send", "enqueue"})

#: Methods whose *first positional argument* is always a descriptor
#: handoff regardless of arity.  Plain ``send`` participates only when
#: called with exactly one positional argument — the simulation bus's
#: ``send(source, destination, message, ...)`` models transport *cost*,
#: not ownership transfer, and its leading args are NF names.
DESCRIPTOR_HANDOFF_METHODS: FrozenSet[str] = frozenset({
    "enqueue", "send_to_nf", "send_out",
})

#: Rule-lifecycle methods legal only on a non-``removed`` session.
SESSION_INSTALL_METHODS: FrozenSet[str] = frozenset({
    "install_pdr",
    "remove_pdr",
    "install_far",
    "update_far",
    "install_qer",
    "install_qer_enforcer",
    "install_usage_counter",
    "match_pdr",
})

#: Table methods that establish a session (argument -> ``installed``).
SESSION_ESTABLISH_METHODS: FrozenSet[str] = frozenset({"add"})

#: Table methods that tear a session down (by SEID; the *result* of the
#: call is the removed session object, now ``removed``/``held``).
SESSION_REMOVE_METHODS: FrozenSet[str] = frozenset({"remove"})

#: Passing a removed session back to an establish method transfers
#: ownership into the target table (the rehome/re-establish idiom) and
#: discharges the held-session obligation.
SESSION_INSTALL_TRANSFER: FrozenSet[str] = SESSION_ESTABLISH_METHODS

#: Class-name suffix identifying session objects for W006.
SESSION_CLASS_SUFFIX = "Session"

#: Resource-acquisition methods and their paired release method.
#: ``adopt`` = hot-store slab slot, ``pin`` = load-balancer shard
#: affinity, ``acquire`` = generic pool checkout.
ACQUIRE_METHODS: Dict[str, str] = {
    "adopt": "release",
    "pin": "release",
    "acquire": "release",
}

#: Lifecycle transitions whose implementations validate their argument
#: and may raise (documented API contract: ``SessionTable.add`` rejects
#: duplicate SEID/TEID/UE-IP, ``HotSessionStore.adopt`` rejects
#: duplicate slots, ``UEAwareLoadBalancer.pin`` rejects full units).
#: The static checks give calls to these names a raising edge even when
#: the receiver's type cannot be resolved.
MAY_FAIL_TRANSITIONS: FrozenSet[str] = frozenset({"add", "adopt", "pin"})

# -- shared rule state ---------------------------------------------------------

#: Method names that mutate a dict/list container in place.
MUTATING_METHODS: FrozenSet[str] = frozenset({
    "pop", "popitem", "clear", "update", "setdefault",
    "append", "extend", "insert", "remove",
})

#: Rule containers whose mutation must be published with an epoch bump.
RULE_ATTRS: FrozenSet[str] = frozenset({
    "pdrs", "fars", "qers", "qer_enforcers", "usage_counters",
})

#: Shared structures owned by the ``up`` package (registered with the
#: race detector): the rule containers plus the session-table indexes
#: and the hot-store slab internals, whose membership writes stay
#: UPF-C-only.
SHARED_ATTRS: FrozenSet[str] = RULE_ATTRS | frozenset({
    "report_pending", "_by_seid",
    "_teid_index", "_ue_ip_index", "_slab", "_free",
})


def attr_mutations(
    tree: ast.AST,
    attrs: FrozenSet[str],
    walk: Callable[[ast.AST], Iterable[ast.AST]] = ast.walk,
) -> Iterator[Tuple[ast.AST, str, Optional[str]]]:
    """Yield ``(node, attr, receiver)`` for each in-place mutation of an
    attribute named in ``attrs`` among the nodes ``walk`` visits under
    ``tree`` (every node by default).

    Covers rebinding (``x.attr = v``, ``x.attr += v``), item writes
    (``x.attr[k] = v``, ``del x.attr[k]``, ``x.attr[k] += v``) and
    mutating method calls (``x.attr.pop(k)``...).  ``receiver`` is the
    base name the attribute hangs off (``"session"`` for
    ``session.pdrs``), or None for computed receivers.
    """

    def hit(target: ast.AST) -> Optional[ast.Attribute]:
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and target.attr in attrs:
            return target
        return None

    for node in walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATING_METHODS
            and isinstance(node.func.value, ast.Attribute)
        ):
            targets = [node.func.value]
        else:
            continue
        for target in targets:
            attr = hit(target)
            if attr is not None:
                receiver = attr.value
                yield node, attr.attr, (
                    receiver.id if isinstance(receiver, ast.Name) else None
                )

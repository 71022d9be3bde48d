"""Static and dynamic correctness analysis for the reproduction.

``python -m repro.analysis`` (:mod:`repro.analysis.__main__`) is the
one static-analysis command: it parses ``src`` and ``tests`` once, runs
every check below against the committed ``analysis-baseline.json`` and
``analysis-budget.json``, and exits 0 when clean, 1 on findings, and 2
on a stale baseline or budget entry.

* :mod:`repro.analysis.rules` — file-local AST rules R001–R009 (run by
  :mod:`repro.analysis.lint` on every file) enforcing determinism
  invariants: no wall-clock time or unseeded randomness in simulation
  code, no blocking sleeps, frozen message dataclasses, no float
  equality against ``env.now``, no mutable default arguments, and the
  single-writer ownership of UPF rule state (R008/R009).
* :mod:`repro.analysis.program` — whole-program checks W001–W004 over
  one symbol table and call graph of the non-test files: hot-path
  allocation budget, interprocedural epoch bumps, yields in atomic
  sections, layering.
* :mod:`repro.analysis.dataflow` — a worklist-based typestate engine
  over the same symbol table that statically verifies the descriptor,
  session, and resource lifecycles the sanitizer checks at run time:
  mutate-after-send / double-enqueue on every path (W005),
  session/rule lifecycle ordering and dangling FAR references (W006),
  resources leaked on raising paths (W007), and dead configuration
  nothing observes (W008).
* :mod:`repro.analysis.sanitizer` — an opt-in runtime descriptor
  sanitizer wired into :class:`~repro.core.transport.MessageBus` and
  :class:`~repro.core.rings.Ring` that stamps each descriptor with an
  owner and content fingerprint and flags mutate-after-send,
  double-enqueue, use-after-dequeue, and (at teardown) leaked
  descriptors with the offending send site.
* :mod:`repro.analysis.races` — an opt-in shared-state race detector
  enforcing the single-writer ownership model of the UPF-C/UPF-U
  split (§3.2): registered structures (session table, rule maps, flow
  cache, smart buffers, replica checkpoints) declare an owner role
  and every access is checked for cross-role same-instant conflicts,
  non-owner writes, and rule mutations missing a ``RuleEpoch.bump()``.

The state names, violation kinds and shared-state attribute names all
of them cite come from :mod:`repro.analysis.lifecycle`.  Runtime
modules import only the sanitizer and the race detector; this package
never imports that command or the static checks.

Every perf or scale change is expected to keep ``python -m repro.analysis`` clean against
the committed baseline and the tier-1 suite green under both
``pytest --sanitize`` and ``pytest --race``.
"""

from __future__ import annotations

__all__ = [
    "dataflow",
    "lifecycle",
    "lint",
    "program",
    "races",
    "report",
    "rules",
    "sanitizer",
]

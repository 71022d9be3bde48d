"""Typestate dataflow engine: static lifecycle verification.

A worklist-based forward dataflow framework (:mod:`.engine`) over the
statement-level CFGs of :mod:`repro.analysis.program.cfg`, plus four
typestate checks (:mod:`.checks`):

========  =========================================================
W005      descriptor typestate — mutate-after-send / double-enqueue
W006      session/rule lifecycle — use-after-remove, double
          establish, remove-before-establish, dangling FAR refs
W007      exception-safety — resources leaked on raising paths
W008      dead config — flags and metrics nothing observes
========  =========================================================

Run through the analysis command, ``python -m repro.analysis``, which
shares one symbol table with the whole-program checks.  Never import this
package (or anything under ``repro.analysis``) from runtime modules —
the analyzers observe the data plane, they must not load with it.
"""

from .checks import CHECK_CODES, DataflowReport, analyze_dataflow
from .engine import (
    MAX_CHAIN_DEPTH,
    Analysis,
    FunctionEffects,
    compute_effects,
    solve,
)

__all__ = [
    "Analysis",
    "CHECK_CODES",
    "DataflowReport",
    "FunctionEffects",
    "MAX_CHAIN_DEPTH",
    "analyze_dataflow",
    "compute_effects",
    "solve",
]

"""Typestate dataflow checks: static lifecycle verification.

Four typestate checks (:mod:`.checks`) solved by the worklist solver
of :mod:`repro.analysis.program.cfg` over the same per-function CFGs
as W002, with interprocedural effect summaries (:mod:`.engine`) over
the call graph:

========  =========================================================
W005      descriptor typestate — mutate-after-send / double-enqueue
W006      session/rule lifecycle — use-after-remove, double
          establish, remove-before-establish, dangling FAR refs
W007      exception-safety — resources leaked on raising paths
W008      dead config — flags and metrics nothing observes
========  =========================================================

Run through the analysis command, ``python -m repro.analysis``, which
shares one symbol table, call graph and set of CFGs with the
whole-program checks.  Never import this
package (or anything under ``repro.analysis``) from runtime modules —
the analyzers observe the data plane, they must not load with it.
"""

from ..program.cfg import Analysis, solve
from .checks import CHECK_CODES, DataflowReport, analyze_dataflow
from .engine import MAX_CHAIN_DEPTH, FunctionEffects, compute_effects

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

"""Whole-program static analysis over the L25GC reproduction.

Layers (each importable on its own):

* :mod:`.symbols` — project-wide symbol table: modules, classes
  (with MRO), functions, import bindings, annotation-driven types.
* :mod:`.callgraph` — call graph resolved through the symbol table;
  virtual calls fan out to overrides, unresolvable calls become
  explicit *unknown edges*.  It is the one call resolver (every call
  site's targets) and builds each function's CFG once per run.
* :mod:`.cfg` — statement-level control-flow graphs with def/use
  sets, attribute-write and call-site records, and explicit exception
  edges, plus the one worklist solver (:func:`~.cfg.solve`) that W002
  and the typestate checks (:mod:`repro.analysis.dataflow`) run on.
* :mod:`.summaries` — per-function allocation sites (W001) and the
  interprocedural epoch-bump flow (W002), an :class:`~.cfg.Analysis`
  over the CFGs.
* :mod:`.checks` — the four semantic checks W001–W004 producing
  :class:`~repro.analysis.rules.Finding` objects with call-chain
  evidence.

Nothing in here is imported by runtime code: the per-packet path pays
zero import-time or runtime cost for the analyzer's existence.  This
package never imports :mod:`repro.analysis.dataflow`, which builds on
it.
"""

from .callgraph import CallEdge, CallGraph, UnknownEdge, build_call_graph
from .cfg import CFG, Analysis, AttrWrite, CallSite, CFGNode, build_cfg, solve
from .checks import (
    DEFAULT_PACKET_ENTRIES,
    Budget,
    ProgramFinding,
    ProgramReport,
    analyze_program,
)
from .summaries import (
    AllocationSite,
    FunctionSummary,
    MutationSite,
    analyze_epoch_flow,
    summarize,
)
from .symbols import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
    build_symbol_table,
    module_name_for,
)

__all__ = [
    "AllocationSite",
    "Analysis",
    "AttrWrite",
    "Budget",
    "CFG",
    "CFGNode",
    "CallEdge",
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "DEFAULT_PACKET_ENTRIES",
    "FunctionInfo",
    "FunctionSummary",
    "ModuleInfo",
    "MutationSite",
    "ProgramFinding",
    "ProgramReport",
    "SymbolTable",
    "UnknownEdge",
    "analyze_epoch_flow",
    "analyze_program",
    "build_call_graph",
    "build_cfg",
    "build_symbol_table",
    "module_name_for",
    "solve",
    "summarize",
]

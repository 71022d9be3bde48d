"""The traced run: host time per layer, from wrappers around layer calls.

:class:`Tracer` wraps the public entry points of each layer (see
:func:`targets`) for the duration of one window and
records a span per call: label, start, end, the span that caused it
and the request it belongs to (the arrival instant, the UE whose
procedure step is running, or the churn cohort).  A layer's self time
is its spans' time minus the time their child spans cover.  The first
:data:`MAX_SPANS` spans stay in memory and are written as one
Chrome-trace JSON file at the end.

The wrappers live only in this file and are removed when the window
ends.  ``repro.obs`` tracing, the race detector and the sanitizer stay
off: each of them changes the path being measured.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
import weakref
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from repro.pfcp.messages import PFCPMessage
from repro.ran.ue import UserEquipment
from repro.up.buffer import SmartBuffer
from repro.up.flow_cache import FlowCache

from harness import Bench, check

#: Direction tags for sim events: which traffic created them.
DL, UL, CP = 0, 1, 2

#: Share of the end-to-end run's work that the traced run replays.
TRACE_SHARE = 0.25
#: Spans kept for the Chrome trace (the first ones of the window);
#: the per-layer aggregates cover every span.
MAX_SPANS = 100_000


def targets(bench: Bench) -> List[Tuple[object, str, str, str, object]]:
    """Every boundary the traced run wraps.

    Each entry is ``(owner, attribute, layer, kind, direction)``: the
    owner is a class when the layer has many instances (the wrapper is
    then a class attribute), else the one instance.  ``kind`` is
    ``call``, ``procedure`` (a generator, timed per step), ``process``
    or ``timeout`` (sim calls whose events get a direction tag).
    """
    env, core = bench.env, bench.core
    upf_u = core.upf_u
    out = [
        (env, "step", "sim", "call", None),
        (env, "process", "sim", "process", None),
        (env, "timeout", "sim", "timeout", None),
        (core.bus, "send", "transport", "call", None),
        (core, "inject_downlink", "core5g", "call", DL),
        (core, "inject_uplink", "core5g", "call", UL),
        (core, "inject_downlink_burst", "core5g", "call", DL),
        (core, "inject_uplink_burst", "core5g", "call", UL),
        (upf_u, "downlink_sink", "core5g", "call", DL),
        (upf_u, "uplink_sink", "core5g", "call", UL),
        (upf_u, "process", "upf_u", "call", None),
        (upf_u, "process_burst", "upf_u", "call", None),
        (upf_u, "flush_session", "upf_u", "call", None),
        (core.upf_c, "handle", "upf_c", "call", None),
        (SmartBuffer, "push", "buffer", "call", None),
        (PFCPMessage, "encode", "pfcp", "call", None),
        (UserEquipment, "deliver", "ran", "call", None),
    ]
    for name in ("register_ue", "establish_session", "handover",
                 "deregister_ue"):
        out.append((bench.runner, name, "procedures", "procedure", None))
    for gnb in core.gnbs.values():
        out.append((gnb, "receive_downlink", "ran", "call", DL))
    cache_class = type(upf_u.flow_cache) if upf_u.flow_cache else FlowCache
    for name in ("lookup", "lookup_many", "insert", "touch_burst",
                 "commit_burst"):
        out.append((cache_class, name, "flow_cache", "call", None))
    for name in ("lookup", "insert", "remove_by_id", "update"):
        out.append((core.config.classifier_class, name, "classifier",
                    "call", None))
    return out


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.labels: List[str] = []
        self.layer_of: List[str] = []
        self.calls: List[int] = []
        self.total: List[float] = []
        self.self_s: List[float] = []
        #: Request id of new spans (set by the harness and by
        #: procedure steps).
        self.request = 0
        self._stack: List[list] = []
        self._next_id = 0
        #: Host seconds covered by spans with no parent.
        self.root_s = 0.0
        # Spans, column-wise: id, label, start, end, parent id, request.
        self.span_id = array("q")
        self.span_label = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_request = array("q")
        self.spans_dropped = 0
        #: Direction stack: the data path being injected or sunk.
        self._direction: List[int] = []
        self._process_tag = weakref.WeakKeyDictionary()
        #: Sim events and processes created, by direction tag.
        self.events = [0, 0, 0]
        self.processes = [0, 0, 0]
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self._ue_request = {
            supi: index for index, (supi, _) in enumerate(bench.inputs.ues)
        }

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _label(self, layer: str, name: str) -> int:
        label = f"{layer}.{name}"
        if label in self.labels:
            return self.labels.index(label)
        self.labels.append(label)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_s.append(0.0)
        return len(self.labels) - 1

    def _open(self, label: int) -> None:
        self._next_id += 1
        self._stack.append(
            [label, perf_counter(), 0.0, self._next_id, self.request]
        )

    def _close(self) -> None:
        end = perf_counter()
        label, start, child, span, request = self._stack.pop()
        duration = end - start
        self.calls[label] += 1
        self.total[label] += duration
        self.self_s[label] += duration - child
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        else:
            parent_id = 0
        if len(self.span_id) < MAX_SPANS:
            self.span_id.append(span)
            self.span_label.append(label)
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent_id)
            self.span_request.append(request)
        else:
            self.spans_dropped += 1
        if not parent_id:
            # A root span covers its own bookkeeping too, so that the
            # unattributed share counts only time outside every span.
            self.root_s += perf_counter() - start

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _call(self, fn, label: int, direction):
        open_, close, stack = self._open, self._close, self._direction
        if direction is None:
            def wrapper(*args, **kwargs):
                open_(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close()
        else:
            def wrapper(*args, **kwargs):
                stack.append(direction)
                open_(label)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close()
                    stack.pop()
        return wrapper

    def _tag(self) -> int:
        if self._direction:
            return self._direction[-1]
        active = self.bench.env.active_process
        return CP if active is None else self._process_tag.get(active, CP)

    def _process(self, fn, label: int):
        def process(generator, name=None):
            tag = self._tag()
            self._open(label)
            try:
                created = fn(generator, name=name)
            finally:
                self._close()
            self._process_tag[created] = tag
            self.processes[tag] += 1
            self.events[tag] += 2  # start + completion
            return created
        return process

    def _timeout(self, fn, label: int):
        def timeout(delay, value=None):
            self.events[self._tag()] += 1
            self._open(label)
            try:
                return fn(delay, value)
            finally:
                self._close()
        return timeout

    def _procedure(self, fn, label: int):
        def procedure(ue, *args, **kwargs):
            request = self._ue_request.get(ue.supi, self.request)
            return self._steps(fn(ue, *args, **kwargs), label, request)
        return procedure

    def _steps(self, generator, label: int, request: int):
        """Re-yield a procedure's events, one span per generator step."""
        value, error = None, None
        while True:
            outer, self.request = self.request, request
            self._open(label)
            try:
                if error is None:
                    event = generator.send(value)
                else:
                    event = generator.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close()
                self.request = outer
            try:
                value, error = (yield event), None
            except BaseException as exc:  # forwarded, as yield from does
                value, error = None, exc

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_start
            self.gc_collections += 1

    @contextmanager
    def installed(self):
        """Wrap every target for the body of the ``with``, then restore."""
        saved = []
        try:
            for owner, attr, layer, kind, direction in targets(self.bench):
                label = self._label(layer, attr)
                fn = getattr(owner, attr)
                if kind == "procedure":
                    wrapper = self._procedure(fn, label)
                elif kind == "process":
                    wrapper = self._process(fn, label)
                elif kind == "timeout":
                    wrapper = self._timeout(fn, label)
                else:
                    wrapper = self._call(fn, label, direction)
                saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
                setattr(owner, attr, wrapper)
            gc.callbacks.append(self._on_gc)
            self.bench.tracer = self
            yield self
        finally:
            self.bench.tracer = None
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(saved):
                if original is _ABSENT:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def stat(self, label: str) -> Tuple[int, float, float]:
        """(calls, total s, self s) of one boundary label."""
        if label not in self.labels:
            return 0, 0.0, 0.0
        i = self.labels.index(label)
        return self.calls[i], self.total[i], self.self_s[i]

    def layer_self(self, layer: str) -> float:
        return sum(s for s, l in zip(self.self_s, self.layer_of) if l == layer)

    def write_chrome_trace(self, path: Path) -> None:
        """The kept spans as Chrome-trace complete events (µs from the
        first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min(self.span_start) if self.span_start else 0.0
        with open(path, "w") as out:
            out.write('{"displayTimeUnit": "ns", "traceEvents": [\n')
            for i in range(len(self.span_id)):
                label = self.span_label[i]
                event = {
                    "name": self.labels[label],
                    "cat": self.layer_of[label],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (self.span_start[i] - origin) * 1e6,
                    "dur": (self.span_end[i] - self.span_start[i]) * 1e6,
                    "args": {
                        "id": self.span_id[i],
                        "parent": self.span_parent[i],
                        "request": self.span_request[i],
                    },
                }
                out.write(("," if i else "") + json.dumps(event) + "\n")
            out.write("]}\n")


_ABSENT = object()


def traced_run(inputs, out_dir: Path) -> dict:
    """Untraced reference window, then the same window traced.

    Returns the per-layer metrics as ``{name: (value, unit, samples)}``
    plus the run's counts; raises ``CheckFailed`` when the traced and
    untraced windows disagree on the modeled digest.
    """
    workload = inputs.workload
    packets = workload.unit == "pkt"

    reference = Bench(inputs)
    reference.setup()
    reference_setup = reference.warm_up()
    untraced = reference.window()
    del reference
    gc.collect()

    # Memory per session, with tracemalloc on only around set-up (and
    # the warm-up cohort on ue_churn: what a finished lifecycle keeps).
    bench = Bench(inputs)
    tracemalloc.start()
    bench.setup()
    gc.collect()
    after_setup = tracemalloc.get_traced_memory()[0]
    if packets:
        tracemalloc.stop()
        mem = after_setup / max(1, len(bench.core.sessions))
        traced_setup = bench.warm_up()
    else:
        traced_setup = bench.warm_up()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - after_setup
        tracemalloc.stop()
        mem = retained / len(inputs.warmup[0])
    check(traced_setup == reference_setup,
          "traced and untraced set-up digests differ")

    core = bench.core
    stats, cache = core.upf_u.stats, core.upf_u.flow_cache
    before = _counters(stats, cache)
    tracer = Tracer(bench)
    with tracer.installed():
        result = bench.window()
    check(result.digest == untraced.digest,
          "traced and untraced modeled digests differ")
    delta = {k: v - before[k] for k, v in _counters(stats, cache).items()}
    trace_path = out_dir / f"trace-{workload.name}.json"
    tracer.write_chrome_trace(trace_path)
    return {
        "units": result.units,
        "attempted": result.attempted,
        "failed": result.failed,
        "digest": result.digest,
        "trace_path": str(trace_path),
        "spans": len(tracer.span_id) + tracer.spans_dropped,
        "metrics": layer_metrics(tracer, result, untraced, delta, mem, core),
    }


def _counters(stats, cache) -> Dict[str, int]:
    out = {
        "forwarded": stats.forwarded,
        "dropped": stats.dropped,
        "buffer_drops": stats.dropped_buffer_full,
    }
    for name in ("hits", "misses", "stale", "evictions"):
        out[name] = getattr(cache, name) if cache is not None else 0
    return out


def layer_metrics(tracer, result, untraced, delta, mem, core) -> dict:
    """Per-layer metrics of one traced window (see README.md)."""
    counts = result.counts
    pkts = counts.get("packets", 0)
    dl, ul = counts.get("packets_dl", 0), counts.get("packets_ul", 0)
    ues = counts.get("lifecycles", 0)
    hos = counts.get("handovers", 0)

    def per(value: float, denominator: float) -> float:
        return value / denominator if denominator else 0.0

    def mean_us(label: str) -> Tuple[float, int]:
        calls, total, _ = tracer.stat(label)
        return per(total, calls) * 1e6, calls

    t = tracer
    steps = t.stat("sim.step")[0]
    sim_self = t.layer_self("sim")
    handled = t.stat("upf_c.handle")[0]
    flush_us, flushes = mean_us("upf_u.flush_session")
    lookup_us, lookups = mean_us("classifier.lookup")
    insert_us, inserts = mean_us("classifier.insert")
    handle_us, _ = mean_us("upf_c.handle")
    encode_us, encodes = mean_us("pfcp.encode")
    sends = t.stat("transport.send")[0]
    probes = delta["hits"] + delta["misses"]
    seen = delta["forwarded"] + delta["dropped"]
    inject_self = sum(t.stat(f"core5g.{n}")[2] for n in (
        "inject_downlink", "inject_uplink", "inject_downlink_burst",
        "inject_uplink_burst"))
    sink_self = (t.stat("core5g.downlink_sink")[2]
                 + t.stat("core5g.uplink_sink")[2])
    procedure_ue = sum(t.stat(f"procedures.{n}")[2] for n in (
        "register_ue", "establish_session", "deregister_ue"))
    return {
        "sim.events_per_pkt": (per(steps, pkts), "count", pkts),
        "sim.events_per_dl_pkt": (per(t.events[DL], dl), "count", dl),
        "sim.events_per_ul_pkt": (per(t.events[UL], ul), "count", ul),
        "sim.processes_per_pkt": (
            per(t.stat("sim.process")[0], pkts), "count", pkts),
        "sim.processes_per_dl_pkt": (per(t.processes[DL], dl), "count", dl),
        "sim.processes_per_ul_pkt": (per(t.processes[UL], ul), "count", ul),
        "sim.self_us_per_pkt": (per(sim_self, pkts) * 1e6, "us", pkts),
        "sim.events_per_ue": (per(steps, ues), "count", ues),
        "sim.self_ms_per_ue": (per(sim_self, ues) * 1e3, "ms", ues),
        "transport.msgs_per_ue": (per(sends, ues), "count", ues),
        "transport.self_ms_per_ue": (
            per(t.layer_self("transport"), ues) * 1e3, "ms", ues),
        "transport.log_records": (len(core.bus.log), "count", 1),
        "transport.lost": (core.bus.lost, "count", 1),
        "procedures.self_ms_per_ue": (per(procedure_ue, ues) * 1e3, "ms", ues),
        "procedures.self_ms_per_ho": (
            per(t.stat("procedures.handover")[2], hos) * 1e3, "ms", hos),
        "core5g.inject_self_us_per_pkt": (
            per(inject_self, pkts) * 1e6, "us", pkts),
        "core5g.sink_us_per_pkt": (per(sink_self, pkts) * 1e6, "us", pkts),
        "upf_u.self_us_per_pkt": (
            per(t.layer_self("upf_u"), pkts) * 1e6, "us", pkts),
        "upf_u.calls_per_pkt": (
            per(t.stat("upf_u.process")[0] + t.stat("upf_u.process_burst")[0],
                pkts),
            "count", pkts),
        "upf_u.drop_ratio": (per(delta["dropped"], seen), "ratio", seen),
        "upf_u.flush_us": (flush_us, "us", flushes),
        "flow_cache.hit_ratio": (per(delta["hits"], probes), "ratio", probes),
        "flow_cache.stale": (delta["stale"], "count", 1),
        "flow_cache.evictions": (delta["evictions"], "count", 1),
        "flow_cache.self_us_per_pkt": (
            per(t.layer_self("flow_cache"), pkts) * 1e6, "us", pkts),
        "classifier.lookups_per_pkt": (per(lookups, pkts), "count", pkts),
        "classifier.lookup_us": (lookup_us, "us", lookups),
        "classifier.inserts_per_ue": (per(inserts, ues), "count", ues),
        "classifier.insert_us": (insert_us, "us", inserts),
        "upf_c.msgs_per_ue": (per(handled, ues), "count", ues),
        "upf_c.msgs_per_ho": (per(handled, hos), "count", hos),
        "upf_c.handle_us": (handle_us, "us", handled),
        "buffer.buffered_per_ho": (
            per(t.stat("buffer.push")[0], hos), "count", hos),
        "buffer.drops": (delta["buffer_drops"], "count", 1),
        "pfcp.encodes_per_ue": (per(encodes, ues), "count", ues),
        "pfcp.encode_us": (encode_us, "us", encodes),
        "gnb.self_us_per_pkt": (
            per(t.layer_self("ran"), pkts) * 1e6, "us", pkts),
        "gnb.drops": (counts.get("gnb_drops", 0), "count", 1),
        "gc.pause_ms": (t.gc_pause_s * 1e3, "ms", t.gc_collections),
        "gc.collections": (t.gc_collections, "count", 1),
        "mem.bytes_per_session": (mem, "B", 1),
        "trace.unattributed_share": (
            1.0 - per(t.root_s, result.host_s), "ratio", 1),
        "trace.overhead_ratio": (
            per(result.host_s, untraced.host_s), "ratio", 1),
    }

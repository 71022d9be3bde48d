"""UPF-U: the user-plane forwarding pipeline.

The data-plane half of the factored UPF (§3.2).  For every packet it
performs the session lookup (TEID for uplink, UE IP for downlink), the
PDR classification, and the FAR action: forward (with GTP-U
encapsulation towards the RAN or decapsulation towards the DN), buffer
(paging / smart handover), or drop.  A FAR with NOCP raises a downlink
data notification towards the UPF-C exactly once per buffering episode.

There is one pipeline, built from three shared pieces: a packet's key
(:func:`~repro.up.hot_store.packet_key`), the slow-path
:meth:`UPFUserPlane._resolve` (session, PDR, FAR/QER/URR) that yields a
:class:`~repro.up.flow_cache.FlowCacheEntry`-shaped plan or a drop
label, and :meth:`UPFUserPlane._apply`, which carries a plan out for
one packet.  Two front halves feed ``_apply``: per packet (one flow
cache probe, resolve on a miss) for ``process`` and short bursts, and
a planned run per burst (one probe and one resolve per distinct key)
for bursts of at least :data:`MIN_PLANNED_BURST` packets.

The pipeline is usable in two ways:

* *direct*: ``process(packet)`` — used by the throughput/latency
  experiments, which account CPU time via the cost model;
* *platform*: as a :class:`~repro.core.nf.NetworkFunction` on the NF
  manager's rings, for end-to-end integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional

from ..analysis import races as _races  # repro: noqa[W004] -- race-detector hooks, no-ops unless a detector is installed
from ..core.costs import DEFAULT_COSTS, CostModel
from ..core.nf import NetworkFunction
from ..core.pool import Descriptor
from ..net.packet import Direction, Packet
from ..obs import spans as _tracing  # repro: noqa[W004] -- tracing is off-path: span emission is gated on tracer is None
from ..obs.metrics import MetricsRegistry  # repro: noqa[W004] -- counters only; registry import has no per-packet cost
from ..pfcp import ies as pfcp_ies
from .flow_cache import (
    DEFAULT_FLOW_CACHE_CAPACITY,
    FlowCache,
    FlowCacheEntry,
)
from .hot_store import packet_key
from .rules import FAR
from .session import SessionTable, UPFSession

__all__ = ["MIN_PLANNED_BURST", "ForwardingStats", "UPFUserPlane"]

#: Bursts of at least this many packets are planned per burst (one
#: probe and one resolve per distinct key); shorter ones run packet by
#: packet.  Measured with ``repro.experiments.burst`` packets (steady
#: state, 8 flows; Python 3.11 on a shared 2-vCPU VM, best of 40 runs
#: of 2048 packets), µs per packet, per-packet front half / planned:
#:
#:   burst        8          12         16         24         32
#:   cache on   1.12/1.79  1.11/1.41  1.08/1.27  1.05/1.15  1.09/1.02
#:   cache off  5.34/5.96  5.18/4.09  5.06/3.16  5.08/2.40  5.00/1.92
#:
#: Planning pays from ~10 packets with the cache off, where it resolves
#: each distinct flow once, but only from ~30 with it on, where a warm
#: probe is already cheap.  16 sits between the two crossovers: bursts
#: of 16-29 with the cache on pay up to ~1.2x, and bursts of 10-15 with
#: it off up to ~1.5x, over their better front half.
MIN_PLANNED_BURST = 16

_UPLINK = Direction.UPLINK
_ACCESS = pfcp_ies.ACCESS


@dataclass
class ForwardingStats:
    """Counters the experiments read."""

    forwarded_ul: int = 0
    forwarded_dl: int = 0
    buffered: int = 0
    dropped_no_session: int = 0
    dropped_no_pdr: int = 0
    dropped_action: int = 0
    dropped_buffer_full: int = 0
    dropped_qos: int = 0
    notifications: int = 0
    usage_reports: int = 0

    @property
    def forwarded(self) -> int:
        return self.forwarded_ul + self.forwarded_dl

    @property
    def dropped(self) -> int:
        return (
            self.dropped_no_session
            + self.dropped_no_pdr
            + self.dropped_action
            + self.dropped_buffer_full
            + self.dropped_qos
        )

    def register_into(
        self, registry: MetricsRegistry, prefix: str = "upf_u"
    ) -> None:
        """Export every counter (and the derived sums) as live gauges.

        Callback-backed gauges keep this dataclass the storage and the
        registry a view — the experiments keep reading plain ints.
        """
        for spec in fields(self):
            registry.gauge(f"{prefix}.{spec.name}").set_function(
                lambda name=spec.name: getattr(self, name)
            )
        registry.gauge(f"{prefix}.forwarded").set_function(
            lambda: self.forwarded
        )
        registry.gauge(f"{prefix}.dropped").set_function(lambda: self.dropped)


class UPFUserPlane(NetworkFunction):
    """The forwarding NF.

    Parameters
    ----------
    sessions:
        The shared session table (also visible to the UPF-C — that is
        the zero-cost state update of §3.2).
    uplink_sink:
        Called with each decapsulated UL packet headed to the DN.
    downlink_sink:
        Called with ``(packet, teid, gnb_address)`` for each DL packet
        after GTP-U encapsulation towards a gNB.
    notify_cp:
        Called with the session when a buffered DL packet requires a
        downlink data report (paging trigger).
    fast_path:
        True for L25GC's DPDK pipeline, False for the kernel baseline —
        selects the per-packet cost in :meth:`processing_time`.
    flow_cache:
        True enables the exact-match flow cache: the first packet of a
        flow runs the full match pipeline and memoizes the decision;
        steady-state packets resolve with one probe.  QER policing and
        URR accounting still run per packet, so cache-on and cache-off
        produce identical stats and outcomes.
    flow_cache_capacity:
        LRU bound on cached flows (see :mod:`repro.up.flow_cache`).
    burst_size:
        Packets processed per burst.  1 (the default) keeps the
        one-packet-per-call pipeline; >1 enables :meth:`process_burst`
        on the platform path (``handle_burst``) and sets the ring
        drain size.  Burst and sequential processing are
        property-tested equivalent, so the knob trades Python-level
        per-packet overhead, not semantics.
    """

    #: Kernel skb backlog other active sessions pin in the shared
    #: buffer memory when buffering is not session-scoped (free5GC).
    #: With four 10 Kpps sessions this shrinks the 3K buffer below the
    #: ~2 K packets a handover accumulates, reproducing Table 2's
    #: expt-ii drops (43 in the paper, zero for L25GC).
    SHARED_BACKLOG_PER_SESSION = 335

    def __init__(
        self,
        env,
        sessions: SessionTable,
        service_id: int = 2,
        name: str = "upf-u",
        instance_id: int = 0,
        uplink_sink: Optional[Callable[[Packet], None]] = None,
        downlink_sink: Optional[Callable[[Packet, int, int], None]] = None,
        notify_cp: Optional[Callable[[UPFSession], None]] = None,
        fast_path: bool = True,
        session_scoped_buffering: bool = True,
        costs: CostModel = DEFAULT_COSTS,
        flow_cache: bool = False,
        flow_cache_capacity: int = DEFAULT_FLOW_CACHE_CAPACITY,
        burst_size: int = 1,
    ):
        if burst_size < 1:
            raise ValueError(f"burst_size must be >= 1: {burst_size!r}")
        super().__init__(
            env, name, service_id, instance_id=instance_id, costs=costs
        )
        self.sessions = sessions
        #: The compact hot-record slab the steady-state pipeline
        #: resolves against (hot/cold split): probes return
        #: :class:`~repro.up.hot_store.HotSessionRecord` and the cold
        #: session object is dereferenced only on reports and
        #: lifecycle transitions.
        self.hot_sessions = sessions.hot_store
        #: Exact-match microflow cache (None when disabled).
        self.flow_cache: Optional[FlowCache] = (
            FlowCache(sessions.epoch, capacity=flow_cache_capacity)
            if flow_cache
            else None
        )
        sessions.add_removal_listener(self._on_session_removed)
        self.uplink_sink = uplink_sink or (lambda packet: None)
        self.downlink_sink = downlink_sink or (
            lambda packet, teid, address: None
        )
        self.notify_cp = notify_cp or (lambda session: None)
        #: Called with (session, usage counter) when a URR volume
        #: threshold trips; the UPF-C turns it into a usage report.
        self.usage_report_sink: Callable = lambda session, counter: None
        self.fast_path = fast_path
        #: L25GC buffers per session (§3.3); free5GC's buffering shares
        #: memory with the per-session kernel backlog, so concurrent
        #: sessions shrink the capacity available to a handover.
        self.session_scoped_buffering = session_scoped_buffering
        #: Packets drained and processed per platform poll; >1 routes
        #: polled batches through :meth:`handle_burst`.
        self.burst_size = burst_size
        if burst_size > 1:
            self.burst_mode = True
            self.burst = burst_size
        self.stats = ForwardingStats()
        #: Absolute time each session's drain completes (serial
        #: re-injection of buffered packets); packets arriving before
        #: then queue behind the drain.
        self._drain_until: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Direct API
    # ------------------------------------------------------------------
    def process(self, packet: Packet) -> str:
        """Run the match-action pipeline on one packet.

        Returns the outcome label (``forwarded-ul``, ``drop-qos``, ...)
        so harnesses can compare per-packet behaviour across
        configurations.  This is the per-packet front half: one key,
        one flow-cache probe, :meth:`_resolve` on a miss, then
        :meth:`_apply`.
        """
        if _races._ACTIVE is None and _tracing._ACTIVE is None:
            return self._one(packet)
        return self._observed(self._one, packet)

    def process_burst(self, packets) -> list:
        """Run the pipeline over a whole burst; returns the outcomes.

        Observationally identical to ``[self.process(p) for p in
        packets]`` (property-tested: same outcomes, bit-identical
        stats, identical flow-cache contents).  Bursts shorter than
        :data:`MIN_PLANNED_BURST` take the per-packet front half packet
        by packet; longer ones are planned by :meth:`_planned_run`, which
        probes the cache once per distinct key and resolves each
        distinct flow once.  Both feed the same :meth:`_apply`.

        Each element of ``packets`` must be a distinct packet object;
        processing the same object twice in one burst is unsupported
        (keys are built once, before any application mutates
        ``packet.teid``).
        """
        if _races._ACTIVE is None and _tracing._ACTIVE is None:
            return self._burst(packets)
        return self._observed(self._burst, packets)

    def _observed(self, run, arg):
        """Run one public call exactly as unobserved, under the race
        detector's ``upf-u`` role and one ``upf-u.pipeline`` span
        (whichever is installed).

        The span carries the packet count, the flow-cache hits the call
        scored and the count of each outcome label.
        """
        detector = _races._ACTIVE
        tracer = _tracing._ACTIVE
        if tracer is None:
            with detector.role("upf-u"):
                return run(arg)
        cache = self.flow_cache
        hits = 0 if cache is None else cache.hits
        span = tracer.start_span("upf-u.pipeline", category="packet")
        if detector is None:
            result = run(arg)
        else:
            with detector.role("upf-u"):
                result = run(arg)
        outcomes = {}
        for outcome in result if isinstance(result, list) else [result]:
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        tracer.end_span(
            span,
            packets=sum(outcomes.values()),
            cache_hits=0 if cache is None else cache.hits - hits,
            outcomes=outcomes,
        )
        return result

    # ------------------------------------------------------------------
    # Front halves: per packet, and planned per burst
    # ------------------------------------------------------------------
    def _one(self, packet: Packet) -> str:
        """Per-packet front half: key, probe, resolve on a miss."""
        if packet.teid is None and packet.direction is _UPLINK:
            # No TEID, so no session can own it: planned directly.
            return self._apply(packet, "drop-no-session")
        key = packet_key(packet)
        cache = self.flow_cache
        if cache is None:
            return self._apply(packet, self._resolve(packet, key))
        plan = cache.lookup(key)
        if plan is None:
            plan = self._resolve(packet, key)
            if type(plan) is not str:
                # Memoize the decision only — never the QER/URR
                # verdicts, which are per-packet by nature.
                cache.insert(
                    key, plan.hot, plan.pdr, plan.far, plan.enforcer,
                    plan.counter,
                )
        return self._apply(packet, plan)

    def _burst(self, packets) -> list:
        if len(packets) < MIN_PLANNED_BURST:
            return [self._one(packet) for packet in packets]
        # A TEID-less uplink packet gets no key: it would alias TEID 0.
        keys = [
            None
            if packet.teid is None and packet.direction is _UPLINK
            else packet_key(packet)
            for packet in packets
        ]
        outcomes = [None] * len(packets)
        start = 0
        while start < len(packets):
            start = self._planned_run(packets, keys, outcomes, start)
        return outcomes

    def _planned_run(self, packets, keys, outcomes, start: int) -> int:
        """One epoch-coherent planned run; returns the index to resume
        from.

        Probes and resolves every distinct key from ``start`` on under
        the current epoch, commits the cache effects, then applies the
        plans in arrival order until the burst ends or an application
        moves the epoch (a notify-CP or usage-report callback mutating
        rules).  The caller then starts a fresh run at the returned
        index, so no packet is applied with a decision staler than
        one-at-a-time processing would have used.  Cache *contents*
        stay sequential-identical; only the hit/miss counters may differ
        in that mid-burst-bump case, because the aborted run's commits
        are re-observed as stale entries by the re-run.
        """
        cache = self.flow_cache
        epoch = self.sessions.epoch
        epoch_value = epoch.value
        run_keys = keys[start:]
        # A packet's slot is the run position of its key's first
        # occurrence.  Plans sit at those positions, so the apply loop
        # reaches a packet's plan by list index instead of hashing the
        # 20-field key again.
        first = {}
        slots = list(map(first.setdefault, run_keys, range(len(run_keys))))
        plans = [None] * len(run_keys)
        commit = cache is not None
        if commit:
            resolved, stale = cache.lookup_many(first)
            if not stale and len(resolved) == len(first):
                # All-hit steady state: the per-packet replay would be
                # pure LRU touches, which leave each key at its *last*
                # occurrence.  One touch per distinct key in that order
                # is observably identical.
                latest_first = dict.fromkeys(reversed(slots))
                cache.touch_burst(
                    [run_keys[slot] for slot in reversed(latest_first)],
                    len(slots),
                )
                commit = False
        else:
            resolved = {}
        # Slow path: once per distinct flow, not per packet.
        for key, slot in first.items():
            plan = resolved.get(key)
            if plan is None:
                plan = (
                    "drop-no-session"
                    if key is None
                    else self._resolve(packets[start + slot], key)
                )
                if type(plan) is not str:
                    resolved[key] = plan
            plans[slot] = plan
        if commit:
            # Replay per-packet cache effects (LRU touches, stale
            # deletions, fills, evictions) in arrival order so the
            # cache ends exactly as one-at-a-time processing leaves it.
            cache.commit_burst(keys, resolved, start)
        i = start
        for slot in slots:
            outcomes[i] = self._apply(packets[i], plans[slot])
            i += 1
            if epoch.value != epoch_value:
                break
        return i

    # ------------------------------------------------------------------
    # Shared pipeline: one resolve, one apply
    # ------------------------------------------------------------------
    def _resolve(self, packet: Packet, key):
        """Slow path: session, PDR and FAR/QER/URR for one key.

        Resolves entirely against the hot slab; the cold session object
        is never touched.  Returns a :class:`FlowCacheEntry` plan
        stamped with the current epoch, or the drop label for a packet
        no session, PDR or FAR claims.  The race-detector read of the
        rules is recorded against the cold session, their registered
        owner.
        """
        hot = self._lookup_hot(packet)
        if hot is None:
            return "drop-no-session"
        pdr = hot.match_pdr(packet, key)
        if pdr is None:
            return "drop-no-pdr"
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_read(hot.cold, "fars")
        far = hot.fars.get(pdr.far_id)
        if far is None:
            return "drop-no-far"
        return FlowCacheEntry(
            self.sessions.epoch.value,
            hot,
            pdr,
            far,
            None if pdr.qer_id is None else hot.qer_enforcers.get(pdr.qer_id),
            None if pdr.urr_id is None else hot.usage_counters.get(pdr.urr_id),
        )

    def _lookup_hot(self, packet: Packet):
        """The data-path session lookup: TEID for uplink, UE IP for
        downlink, probed in the hot slab.  The race-detector read is
        recorded against the session table, the registered owner of
        membership."""
        detector = _races._ACTIVE
        if detector is not None:
            detector.on_read(self.sessions, "sessions")
        if packet.direction is _UPLINK:
            return self.hot_sessions.by_teid(packet.teid)
        return self.hot_sessions.by_ue_ip(packet.flow.dst_ip)

    def _apply(self, packet: Packet, plan) -> str:
        """Carry out one packet's plan; returns the outcome label.

        ``plan`` is a drop label or a :class:`FlowCacheEntry` from a
        cache hit or :meth:`_resolve`.  QER policing and URR accounting
        run here for every packet — their verdicts are never cached.
        The cold session is dereferenced only on report and buffer
        transitions and while a drain is in progress.
        """
        stats = self.stats
        if type(plan) is str:
            if plan == "drop-no-session":
                stats.dropped_no_session += 1
            else:
                stats.dropped_no_pdr += 1
            return plan
        action = plan.far.action
        if action.drop:
            stats.dropped_action += 1
            return "drop-action"
        enforcer = plan.enforcer
        if enforcer is not None and not enforcer.admit(packet, self.env.now):
            stats.dropped_qos += 1
            return "drop-qos"
        counter = plan.counter
        if counter is not None and counter.account(packet):
            stats.usage_reports += 1
            self.usage_report_sink(plan.hot.cold, counter)
        if action.buffer:
            session = plan.hot.cold
            buffer = session.buffer
            if len(buffer) >= self._effective_capacity(session):
                buffer.dropped += 1
                stats.dropped_buffer_full += 1
                outcome = "drop-buffer-full"
            elif buffer.push(packet):
                stats.buffered += 1
                outcome = "buffered"
            else:
                stats.dropped_buffer_full += 1
                outcome = "drop-buffer-full"
            if action.notify_cp and not session.report_pending:
                session.report_pending = True
                stats.notifications += 1
                self.notify_cp(session)
            return outcome
        if not action.forward:
            stats.dropped_action += 1
            return "drop-action"
        if action.destination_interface == _ACCESS:
            # Downlink: encapsulate towards the gNB.
            teid = action.outer_teid
            if teid is None or action.outer_address is None:
                stats.dropped_action += 1
                return "drop-action"
            if self._drain_until and not self._admit_behind_drain(
                packet, plan.hot
            ):
                return "drop-buffer-full"
            packet.teid = teid
            stats.forwarded_dl += 1
            self.downlink_sink(packet, teid, action.outer_address)
            return "forwarded-dl"
        # Uplink: outer header removed by the PDR; to the DN.
        if plan.pdr.outer_header_removal:
            packet.teid = None
        stats.forwarded_ul += 1
        self.uplink_sink(packet)
        return "forwarded-ul"

    def _on_session_removed(self, session: UPFSession) -> None:
        """SessionTable removal hook: drop per-session pipeline state.

        Without this, ``_drain_until`` entries (and cached flow
        decisions pinning the session context) leaked for every
        session the UPF-C deleted.  The purge runs logically in the
        UPF-U (the listener models the removal signal it receives), so
        it executes under the "upf-u" role.
        """
        self._drain_until.pop(session.seid, None)
        if self.flow_cache is not None:
            detector = _races._ACTIVE
            if detector is None:
                self.flow_cache.purge_session(session)
            else:
                with detector.role("upf-u"):
                    self.flow_cache.purge_session(session)

    # ------------------------------------------------------------------
    # Buffer release (invoked by the UPF-C on FAR transitions)
    # ------------------------------------------------------------------
    def _reinject_cost(self) -> float:
        return self.costs.buffer_reinject(
            self.fast_path, max(1, len(self.sessions))
        )

    def _effective_capacity(self, session: UPFSession) -> int:
        """Buffer slots available to this session's drain queue.

        Session-scoped buffering (L25GC) gets the full capacity; the
        shared free5GC buffer loses a backlog share to every other
        active session — the cross-session interference §3.3 calls out.
        """
        capacity = session.buffer.capacity
        if self.session_scoped_buffering:
            return capacity
        others = max(0, len(self.sessions) - 1)
        return max(0, capacity - others * self.SHARED_BACKLOG_PER_SESSION)

    def _admit_behind_drain(self, packet: Packet, hot) -> bool:
        """Queue a forwarded packet behind an in-progress drain.

        Buffered packets re-inject serially; packets arriving before
        the drain completes wait their turn (extending it).  Returns
        False (and counts a drop) when the drain queue exceeds the
        effective buffer capacity.

        Takes the hot record: the common no-drain case resolves on
        ``hot.seid`` alone, and the cold session (for buffer capacity
        and drop accounting) is dereferenced only while a drain is
        actually in progress.
        """
        drain_until = self._drain_until.get(hot.seid)
        now = self.env.now
        if drain_until is None or drain_until <= now:
            return True
        session = hot.cold
        reinject = self._reinject_cost()
        backlog = (drain_until - now) / reinject
        if backlog >= self._effective_capacity(session):
            self.stats.dropped_buffer_full += 1
            session.buffer.dropped += 1
            return False
        self._drain_until[hot.seid] = drain_until + reinject
        packet.meta["extra_delay"] = drain_until + reinject - now
        return True

    def flush_session(self, session: UPFSession) -> int:
        """Forward a session's buffered DL packets in order.

        Returns the number of packets released.  Called when a FAR
        flips from BUFF to FORW (paging complete, handover complete).
        Draining is not free: each buffered packet is re-injected
        serially (see :meth:`CostModel.buffer_reinject`), and traffic
        arriving during the drain queues behind it.

        The UPF-C triggers the flush, but the drain itself is UPF-U
        work (the real system signals the forwarding process), so it
        executes under the "upf-u" role.
        """
        detector = _races._ACTIVE
        if detector is None:
            return self._flush_session(session)
        with detector.role("upf-u"):
            return self._flush_session(session)

    def _flush_session(self, session: UPFSession) -> int:
        far = self._downlink_far(session)
        released = session.buffer.drain()
        if far is None or far.action.outer_teid is None:
            self.stats.dropped_action += len(released)
            return 0
        reinject = self._reinject_cost()
        now = self.env.now
        start = max(now, self._drain_until.get(session.seid, now))
        for position, packet in enumerate(released):
            packet.teid = far.action.outer_teid
            packet.meta["extra_delay"] = (
                start + (position + 1) * reinject - now
            )
            self.stats.forwarded_dl += 1
            self.downlink_sink(
                packet, far.action.outer_teid, far.action.outer_address
            )
        self._drain_until[session.seid] = start + len(released) * reinject
        session.report_pending = False
        tracer = _tracing.active()
        if tracer is not None:
            # The drain's extent is known analytically (serial
            # re-injection), so the span is recorded post hoc without
            # scheduling any simulation event.
            tracer.add_span(
                "buffer-drain",
                start=now,
                end=start + len(released) * reinject,
                category="drain",
                seid=session.seid,
                released=len(released),
            )
        return len(released)

    def _downlink_far(self, session: UPFSession) -> Optional[FAR]:
        for pdr in session.pdrs.values():
            if pdr.source_interface == pfcp_ies.CORE:
                return session.fars.get(pdr.far_id)
        return None

    # ------------------------------------------------------------------
    # Platform integration
    # ------------------------------------------------------------------
    def processing_time(self, descriptor: Descriptor) -> float:
        packet = descriptor.payload
        size = packet.size if isinstance(packet, Packet) else 64
        return self.costs.per_packet_cost(self.fast_path, size)

    def handle(self, descriptor: Descriptor):
        packet = descriptor.payload
        if isinstance(packet, Packet):
            self.process(packet)
        descriptor.free()
        return ()

    def handle_burst(self, descriptors):
        """Platform burst path: one :meth:`process_burst` per poll.

        The run loop has already charged the batch's summed processing
        time, so the whole burst executes at a single simulation
        instant — no yields inside (the race detector's atomic-section
        check, W003, verifies this stays true).
        """
        packets = [
            descriptor.payload
            for descriptor in descriptors
            if isinstance(descriptor.payload, Packet)
        ]
        if packets:
            self.process_burst(packets)
        for descriptor in descriptors:
            descriptor.free()
        return ()

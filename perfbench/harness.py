"""Drives the core through a run's generated inputs and checks it.

One :class:`Bench` is one core instance: :meth:`Bench.setup` builds
it and attaches the resident UEs, :meth:`Bench.warm_up` touches every
flow (or runs one churn cohort), and :meth:`Bench.window` replays the
timed schedule.  Host time is taken with ``time.perf_counter`` around
the calls into the core only; building packets from the schedule and
checking what the core delivered happen between timed segments.

The host this runs on is shared: other tenants slow whole seconds of a
run by up to 1.7x, in CPU time as well as wall time.  So every bracket
of timed segments (~0.3 s) is preceded and followed by
:func:`reference_pass`, and its host times are also reported *scaled*
by ``REFERENCE_S / mean(reference passes)``, i.e. as if the host ran
at its reference speed.  Raw times are printed next to scaled ones.

Sim-time outputs (delivery times, procedure completion times) are
*modeled* numbers.  They are never metrics here: they feed the digest
that proves two runs of one seed did the same work.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter
from typing import Dict, List, Optional

from repro.cp import FiveGCore, ProcedureRunner, SystemConfig
from repro.cp.procedures import EventResult
from repro.net import Direction, FiveTuple, Packet
from repro.sim import Environment

from inputs import BURST, PACKET_SIZE, PERIOD_S, Inputs

#: Instants materialized (and outputs checked) per untimed gap; also
#: the instants in one bracket of timed segments.
CHUNK_INSTANTS = 256
#: Churn cohorts per bracket of timed segments.
CHUNK_COHORTS = 16
#: Host seconds of one :func:`reference_pass` on the reference box (a
#: 2-vCPU x86-64 VM, Python 3.11) when no other tenant contends.
REFERENCE_S = 0.0055


class _Token:
    """A packet-sized object for :func:`reference_pass`."""

    def __init__(self, key: int):
        self.key = key
        self.meta = {}


def reference_pass() -> float:
    """Host seconds of one fixed pass of interpreter work.

    The pass does what the simulator does most: small objects, heap
    pushes and pops, dict probes, generator resumes.  It touches only
    its own objects and runs with the cyclic GC off, so the program's
    heap cannot slow it; it measures how fast the host runs Python
    right now.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        heap, index = [], {}

        def consumer():
            total = 0
            while True:
                total += yield total

        resume = consumer()
        next(resume)
        for i in range(3000):
            token = _Token(i)
            heapq.heappush(heap, (i * 7919 % 1000, i, token))
            index[(i, i & 7)] = token
            resume.send(token.key)
            if len(heap) > 64:
                heapq.heappop(heap)
            index.get((i - 5, (i - 5) & 7))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Timing:
    """Timed segments of a window, each with its host-speed scale."""

    def __init__(self):
        self.seconds: List[float] = []
        self.units: List[int] = []
        self.scale: List[float] = []
        self._start = 0
        self._before = 0.0

    def open(self) -> None:
        """Start a bracket: a reference pass before its segments."""
        self._start = len(self.seconds)
        self._before = reference_pass()

    def add(self, seconds: float, units: int) -> None:
        self.seconds.append(seconds)
        self.units.append(units)

    def close(self) -> None:
        """End a bracket: a reference pass after its segments, and
        the bracket's scale from the mean of the two passes."""
        factor = 2 * REFERENCE_S / (self._before + reference_pass())
        self.scale.extend([factor] * (len(self.seconds) - self._start))


class CheckFailed(Exception):
    """A correctness check on the core's outputs failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class WindowResult:
    """What one timed window did, as measured and as checked."""

    #: Packets injected, or UE lifecycles completed.
    units: int
    #: One sample per instant (packets) or per cohort (churn).
    timing: Timing
    #: Sample unit: 1e6 for µs per packet, 1e3 for ms per UE.
    per_unit: float
    attempted: int
    failed: int
    #: Modeled: digest of the sim-time outputs.
    digest: str
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def host_s(self) -> float:
        """Raw host seconds inside the timed segments."""
        return sum(self.timing.seconds)

    @property
    def scaled_s(self) -> float:
        """Host seconds scaled to the reference host speed."""
        return sum(s * k for s, k in zip(self.timing.seconds,
                                         self.timing.scale))

    @cached_property
    def samples(self) -> List[float]:
        """Scaled host time per unit of each sample."""
        t = self.timing
        return [s * k * self.per_unit / u
                for s, k, u in zip(t.seconds, t.scale, t.units)]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Bench:
    """One core instance driven through a run's inputs."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.workload = inputs.workload
        self.env: Optional[Environment] = None
        self.core: Optional[FiveGCore] = None
        self.runner: Optional[ProcedureRunner] = None
        self.ue_objects: list = []
        #: Optional hooks a traced run installs (see layers.Tracer).
        self.tracer = None
        self._setup_digest = hashlib.sha256()

    # ------------------------------------------------------------------
    # Set-up: build the core and attach the resident population
    # ------------------------------------------------------------------
    def setup(self) -> None:
        config = SystemConfig(**self.workload.config)
        self.env = Environment()
        self.core = FiveGCore(self.env, config)
        self.runner = ProcedureRunner(self.core)
        self.ue_objects = [self.core.add_ue(supi) for supi, _ in self.inputs.ues]
        if self.workload.inject:
            self._attach_all()

    def _attach_all(self) -> None:
        env, runner = self.env, self.runner
        results: List[Optional[EventResult]] = [None] * len(self.ue_objects)

        def attach(index: int, gnb_id: int):
            ue = self.ue_objects[index]
            yield from runner.register_ue(ue, gnb_id=gnb_id)
            results[index] = yield from runner.establish_session(ue)

        for index, (_, gnb_id) in enumerate(self.inputs.ues):
            env.process(attach(index, gnb_id))
        env.run()
        self.ue_ip: List[int] = []
        self.ul_teid: List[int] = []
        for index, result in enumerate(results):
            detail = _session_detail(result, f"attach of UE {index}")
            self.ue_ip.append(detail["ue_ip"])
            self.ul_teid.append(detail["ul_teid"])
            self._setup_digest.update(
                repr((result.completed_at, detail["ue_ip"], detail["ul_teid"],
                      detail["dl_teid"], result.messages)).encode()
            )
        check(len(self.core.sessions) == len(results),
              "resident session count differs from UEs attached")
        self._dl_tuples = []
        self._ul_tuples = []
        for ue, dn_address, dn_port, ue_port in self.inputs.flows:
            ip = self.ue_ip[ue]
            self._dl_tuples.append(FiveTuple(
                src_ip=dn_address, dst_ip=ip, src_port=dn_port, dst_port=ue_port
            ))
            self._ul_tuples.append(FiveTuple(
                src_ip=ip, dst_ip=dn_address, src_port=ue_port, dst_port=dn_port
            ))

    # ------------------------------------------------------------------
    # Warm-up: touch every flow once (or run one churn cohort)
    # ------------------------------------------------------------------
    def warm_up(self) -> str:
        """Run the warm-up; returns the modeled digest of set-up plus
        warm-up, which must match across set-ups of one seed."""
        if self.workload.inject:
            # Every flow once downlink, and once uplink when the
            # workload carries uplink traffic.
            directions = (False, True) if self.workload.ul_share else (False,)
            burst = self.workload.inject == "burst"
            self._warm = [
                (f, uplink)
                for instant in self.inputs.warmup
                for uplink in directions
                for f in instant
            ]
            ledger = self._ledger = _Ledger(len(self._warm))
            for first in range(0, len(self._warm), BURST):
                packets = [
                    self._packet(f, uplink, -1 - position, self.env.now)
                    for position, (f, uplink) in enumerate(
                        self._warm[first:first + BURST], start=first
                    )
                ]
                self._inject_instant(packets, burst)
                self.env.run()
            self._consume()
            check(ledger.delivered == ledger.size
                  and self.core.upf_u.stats.dropped == 0,
                  "warm-up packets were not all delivered")
            self._setup_digest.update(ledger.times.tobytes())
        else:
            cohort = self.inputs.warmup[0]
            for result in _checked(self._run_cohort(cohort), cohort):
                self._setup_digest.update(result.encode())
        return self._setup_digest.hexdigest()

    # ------------------------------------------------------------------
    # Timed window
    # ------------------------------------------------------------------
    def window(self) -> WindowResult:
        if self.workload.inject:
            return self._packet_window()
        return self._churn_window()

    def _packet_window(self) -> WindowResult:
        inputs, env, core = self.inputs, self.env, self.core
        stats = core.upf_u.stats
        dropped_before = stats.dropped
        gnb_dropped_before = sum(g.dropped for g in core.gnbs.values())
        ledger = _Ledger(len(inputs.flow_of))
        self._ledger = ledger
        base = env.now
        end = base + inputs.instants * PERIOD_S
        handovers: List[EventResult] = []
        for ue in inputs.handover:
            env.process(self._handover_loop(ue, end, handovers))
        tracer = self.tracer
        burst = inputs.workload.inject == "burst"
        timing = Timing()
        for first in range(0, inputs.instants, CHUNK_INSTANTS):
            last = min(inputs.instants, first + CHUNK_INSTANTS)
            chunk = [self._instant_packets(j, base) for j in range(first, last)]
            timing.open()
            for j, packets in enumerate(chunk, start=first):
                if tracer is not None:
                    tracer.request = j
                start = perf_counter()
                env.run(until=base + j * PERIOD_S)
                self._inject_instant(packets, burst)
                timing.add(perf_counter() - start, len(packets))
            if last == inputs.instants:
                # The final drain (last deliveries, handovers in
                # flight) counts towards the window: charged to the
                # last instant.
                start = perf_counter()
                env.run()
                timing.seconds[-1] += perf_counter() - start
            timing.close()
            self._consume()

        # Every packet is delivered to its UE / the DN, or dropped
        # under a named UPF-U or gNB reason; nothing stays buffered.
        check(core.bus.lost == 0, f"bus lost {core.bus.lost} messages")
        for result in handovers:
            check(result.event == "handover"
                  and result.detail.get("target_dl_teid"),
                  f"handover returned {result.event}")
        upf_drops = stats.dropped - dropped_before
        end_markers = len(handovers)
        gnb_drops = (sum(g.dropped for g in core.gnbs.values())
                     - gnb_dropped_before - end_markers)
        buffered = sum(len(s.buffer) for s in core.sessions.sessions())
        check(buffered == 0, f"{buffered} packets still buffered")
        check(gnb_drops >= 0, "gNB drop count below End Marker count")
        check(ledger.delivered + upf_drops + gnb_drops == ledger.size,
              f"{ledger.size - ledger.delivered - upf_drops - gnb_drops} "
              f"packets neither delivered nor counted as dropped")
        packets = ledger.size
        uplink = sum(inputs.uplink)
        return WindowResult(
            units=packets,
            timing=timing,
            per_unit=1e6,
            attempted=packets + len(handovers),
            failed=upf_drops + gnb_drops,
            digest=hashlib.sha256(
                ledger.times.tobytes()
                + repr([r.completed_at for r in handovers]).encode()
            ).hexdigest(),
            counts={
                "packets": packets,
                "packets_ul": uplink,
                "packets_dl": packets - uplink,
                "handovers": len(handovers),
                "upf_drops": upf_drops,
                "gnb_drops": gnb_drops,
            },
        )

    def _handover_loop(self, index: int, end: float, out: List[EventResult]):
        ue, runner = self.ue_objects[index], self.runner
        while self.env.now < end:
            target = 2 if ue.serving_gnb_id == 1 else 1
            result = yield from runner.handover(ue, target)
            out.append(result)

    def _churn_window(self) -> WindowResult:
        core, env = self.core, self.env
        tracer = self.tracer
        timing = Timing()
        digest = hashlib.sha256()
        cohorts = self.inputs.cohorts
        for first in range(0, len(cohorts), CHUNK_COHORTS):
            finished = []
            timing.open()
            for c in range(first, min(len(cohorts), first + CHUNK_COHORTS)):
                if tracer is not None:
                    tracer.request = -1 - c
                start = perf_counter()
                finished.append(self._run_cohort(cohorts[c]))
                timing.add(perf_counter() - start, len(cohorts[c]))
            timing.close()
            for c, done in enumerate(finished, start=first):
                for result in _checked(done, cohorts[c]):
                    digest.update(result.encode())
        units = sum(timing.units)
        check(core.bus.lost == 0, f"bus lost {core.bus.lost} messages")
        check(len(core.sessions) == 0,
              f"{len(core.sessions)} sessions left after churn")
        check(core.ue_ip_pool.in_use == 0,
              f"{core.ue_ip_pool.in_use} UE IPs left allocated")
        return WindowResult(
            units=units,
            timing=timing,
            per_unit=1e3,
            attempted=3 * units,
            failed=0,
            digest=digest.hexdigest(),
            counts={"lifecycles": units},
        )

    def _run_cohort(self, cohort: List[int]) -> List["_Lifecycle"]:
        """Run one cohort to completion: each UE registers,
        establishes, deregisters (closed loop per UE).  Returns the
        lifecycles in completion order, unchecked."""
        env, runner = self.env, self.runner
        done: List[_Lifecycle] = []

        def lifecycle(index: int, gnb_id: int):
            ue = self.ue_objects[index]
            registered = yield from runner.register_ue(ue, gnb_id=gnb_id)
            session = yield from runner.establish_session(ue)
            released = yield from runner.deregister_ue(ue)
            done.append(_Lifecycle(index, registered, session, released))

        for index in cohort:
            env.process(lifecycle(index, self.inputs.ues[index][1]))
        env.run()
        return done

    # ------------------------------------------------------------------
    # Packets in, packets out
    # ------------------------------------------------------------------
    def _packet(self, flow: int, uplink: bool, seq: int, now: float) -> Packet:
        if uplink:
            return Packet(
                size=PACKET_SIZE,
                flow=self._ul_tuples[flow],
                direction=Direction.UPLINK,
                teid=self.ul_teid[self.inputs.flows[flow][0]],
                seq=seq,
                created_at=now,
            )
        return Packet(
            size=PACKET_SIZE,
            flow=self._dl_tuples[flow],
            seq=seq,
            created_at=now,
        )

    def _instant_packets(self, j: int, base: float) -> List[Packet]:
        flow_of, uplink = self.inputs.flow_of, self.inputs.uplink
        now = base + j * PERIOD_S
        return [
            self._packet(flow_of[k], uplink[k], k, now)
            for k in range(j * BURST, (j + 1) * BURST)
        ]

    def _inject_instant(self, packets: List[Packet], burst: bool) -> None:
        core = self.core
        if burst:
            core.inject_downlink_burst(packets)
            return
        for packet in packets:
            if packet.direction is Direction.UPLINK:
                core.inject_uplink(packet)
            else:
                core.inject_downlink(packet)

    def _scheduled(self, seq: int):
        """(flow, uplink) of a packet: window packets carry their
        schedule index in ``seq``, warm-up packets ``-1 - position``."""
        if seq < 0:
            return self._warm[-1 - seq]
        return self.inputs.flow_of[seq], self.inputs.uplink[seq]

    def _consume(self) -> None:
        """Check and release what reached the UEs and the DN."""
        flows, ledger = self.inputs.flows, self._ledger
        for index, ue in enumerate(self.ue_objects):
            received = ue.received
            if not received:
                continue
            for packet in received:
                seq = packet.seq
                check(seq is not None, f"UE {index} got an unknown packet")
                flow, uplink = self._scheduled(seq)
                check(not uplink and flows[flow][0] == index
                      and packet.flow.dst_ip == self.ue_ip[index],
                      f"packet {seq} delivered to the wrong UE")
                ledger.record(seq, packet.delivered_at)
            received.clear()
        dn = self.core.dn_received
        for packet in dn:
            seq = packet.seq
            check(seq is not None, "DN got an unknown packet")
            flow, uplink = self._scheduled(seq)
            check(uplink and packet.teid is None
                  and packet.flow.src_ip == self.ue_ip[flows[flow][0]],
                  f"packet {seq} reached the DN with the wrong header")
            ledger.record(seq, packet.delivered_at)
        dn.clear()


class _Ledger:
    """Modeled delivery time per scheduled packet (NaN = undelivered)."""

    def __init__(self, size: int):
        self.size = size
        self.times = array("d", [math.nan]) * size
        self.delivered = 0

    def record(self, seq: int, delivered_at: float) -> None:
        index = -1 - seq if seq < 0 else seq
        check(math.isnan(self.times[index]), f"packet {seq} delivered twice")
        self.times[index] = delivered_at
        self.delivered += 1


@dataclass
class _Lifecycle:
    index: int
    registered: EventResult
    session: EventResult
    released: EventResult

    def validate(self) -> None:
        check(self.registered.event == "registration",
              f"UE {self.index}: registration returned "
              f"{self.registered.event}")
        _session_detail(self.session, f"UE {self.index} session")
        check(self.released.event == "deregistration",
              f"UE {self.index}: deregistration returned "
              f"{self.released.event}")

    def encode(self) -> bytes:
        detail = self.session.detail
        return repr((
            self.index,
            self.registered.completed_at, self.registered.messages,
            self.session.completed_at, self.session.messages,
            detail["ue_ip"], detail["ul_teid"], detail["dl_teid"],
            self.released.completed_at, self.released.messages,
        )).encode()


def _checked(done: List[_Lifecycle], cohort: List[int]) -> List[_Lifecycle]:
    """Validate a finished cohort; its lifecycles in UE order."""
    check(len(done) == len(cohort),
          f"{len(cohort) - len(done)} UE lifecycles did not complete")
    for item in done:
        item.validate()
    return sorted(done, key=lambda item: item.index)


def _session_detail(result: Optional[EventResult], what: str) -> dict:
    check(result is not None, f"{what} did not complete")
    detail = result.detail
    check(result.event == "session-request"
          and all(detail.get(k) for k in ("ue_ip", "ul_teid", "dl_teid")),
          f"{what} returned no UE IP / TEIDs")
    return detail

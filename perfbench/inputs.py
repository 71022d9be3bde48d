"""Workload definitions and the seeded inputs each run replays.

Everything a run feeds the core is generated here, from the workload
and the seed, before any timing starts: the UE population and where
each UE attaches, the flows, the packet arrival schedule, the set of
UEs that hand over, and the churn cohorts.  The core only ever sees
these generated inputs.

A run's size is fixed by ``--seconds``: each workload has a nominal
host rate (packets or UE lifecycles per second on a 2-core x86 box),
and a run replays ``seconds * nominal_rate`` of them.  The amount of
work is therefore identical across runs with the same arguments, so
rates, percentiles, memory and the modeled digest are all comparable.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Packets per arrival instant (one DPDK-sized burst).
BURST = 32
#: Simulated time between arrival instants (open loop, fixed rate).
PERIOD_S = 100e-6
#: Wire size of every generated data packet, bytes.
PACKET_SIZE = 128


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its core config, size and traffic."""

    name: str
    #: ``SystemConfig`` overrides on top of the L25GC defaults.
    config: Dict[str, object]
    #: Packet workloads: "burst" (one ``inject_downlink_burst`` per
    #: instant) or "single" (one ``inject_*`` call per packet).
    #: ``None`` for the control-plane-only workload.
    inject: str = None
    ues: int = 0
    flows_per_ue: int = 0
    #: Share of uplink packets in the schedule.
    ul_share: float = 0.0
    #: UEs that hand over back and forth during the window.
    handover_ues: int = 0
    #: Concurrent UEs per churn cohort.
    cohort: int = 0
    #: Units (packets, or UE lifecycles) per second of ``--seconds``.
    nominal_rate: int = 0
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int = 3

    @property
    def unit(self) -> str:
        return "pkt" if self.inject else "ue"


#: The four workloads; README.md says why each exists.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dl_fastpath",
            config={"flow_cache": True, "burst_size": BURST},
            inject="burst",
            ues=1000,
            flows_per_ue=4,
            nominal_rate=30000,
        ),
        Workload(
            name="ho_fastpath",
            config={"flow_cache": True, "burst_size": BURST},
            inject="burst",
            ues=1000,
            flows_per_ue=4,
            handover_ues=4,
            nominal_rate=23000,
        ),
        Workload(
            name="ul_dl_default",
            config={"flow_cache": False, "burst_size": 1},
            inject="single",
            ues=1000,
            flows_per_ue=4,
            ul_share=0.5,
            nominal_rate=35000,
        ),
        Workload(
            name="ue_churn",
            config={},
            cohort=8,
            nominal_rate=350,
            setup_repeats=9,
        ),
    )
}


@dataclass
class Inputs:
    """The generated inputs of one run (see the module docstring)."""

    workload: Workload
    seed: int
    #: Per UE: (SUPI, gNB id it attaches at).
    ues: List[Tuple[str, int]]
    #: Per flow: (UE index, DN address, DN port, UE port).
    flows: List[Tuple[int, int, int, int]] = field(default_factory=list)
    #: Warm-up: packet workloads send every flow once, as arrival
    #: instants of flow indices; churn runs one cohort of UE indices.
    warmup: List[List[int]] = field(default_factory=list)
    #: Window schedule, flat: packet k is flow ``flow_of[k]``, uplink
    #: when ``uplink[k]``; instant j holds packets [j*BURST, (j+1)*BURST).
    flow_of: array = field(default_factory=lambda: array("i"))
    uplink: array = field(default_factory=lambda: array("b"))
    #: UE indices that hand over between gNB 1 and gNB 2.
    handover: List[int] = field(default_factory=list)
    #: Churn: the window's cohorts of UE indices (into ``ues``).
    cohorts: List[List[int]] = field(default_factory=list)

    @property
    def instants(self) -> int:
        return len(self.flow_of) // BURST

    @property
    def units(self) -> int:
        """Packets (packet workloads) or UE lifecycles (churn)."""
        if self.workload.inject:
            return len(self.flow_of)
        return sum(len(cohort) for cohort in self.cohorts)

    def fingerprint(self) -> str:
        """A digest of every generated input, for determinism checks."""
        h = hashlib.sha256()
        h.update(repr((self.workload.name, self.ues, self.flows,
                       self.warmup, self.handover, self.cohorts)).encode())
        h.update(self.flow_of.tobytes())
        h.update(self.uplink.tobytes())
        return h.hexdigest()


def generate(workload: Workload, seed: int, seconds: float) -> Inputs:
    """Generate the inputs of one run; same arguments, same inputs."""
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    units = max(1, int(round(seconds * workload.nominal_rate)))
    if workload.inject:
        return _packet_inputs(workload, seed, rng, units)
    return _churn_inputs(workload, seed, rng, units)


def _supis(rng: random.Random, count: int) -> List[str]:
    msins = rng.sample(range(10 ** 9), count)
    return [f"imsi-20893{msin:010d}" for msin in msins]


def _packet_inputs(
    workload: Workload, seed: int, rng: random.Random, packets: int
) -> Inputs:
    supis = _supis(rng, workload.ues)
    ues = [(supi, rng.choice((1, 2))) for supi in supis]
    flows = []
    for ue in range(workload.ues):
        ports = rng.sample(range(1024, 65536), 2 * workload.flows_per_ue)
        for f in range(workload.flows_per_ue):
            dn_address = 0x08000000 | rng.randrange(1, 1 << 24)
            flows.append((ue, dn_address, ports[2 * f], ports[2 * f + 1]))
    order = list(range(len(flows)))
    rng.shuffle(order)
    warmup = [order[i:i + BURST] for i in range(0, len(order), BURST)]
    instants = max(1, packets // BURST)
    n = instants * BURST
    n_flows = len(flows)
    flow_of = array("i", (rng.randrange(n_flows) for _ in range(n)))
    ul_share = workload.ul_share
    uplink = array(
        "b", (1 if rng.random() < ul_share else 0 for _ in range(n))
    )
    handover = sorted(rng.sample(range(workload.ues), workload.handover_ues))
    return Inputs(
        workload=workload,
        seed=seed,
        ues=ues,
        flows=flows,
        warmup=warmup,
        flow_of=flow_of,
        uplink=uplink,
        handover=handover,
    )


def _churn_inputs(
    workload: Workload, seed: int, rng: random.Random, lifecycles: int
) -> Inputs:
    # One warm-up cohort, then the window's cohorts.  Every lifecycle
    # is a fresh subscriber: the SMF keeps SM contexts after
    # deregistration, so a re-registering SUPI would resolve a stale one.
    size = workload.cohort
    count = max(1, lifecycles // size) + 1
    supis = _supis(rng, count * size)
    ues = [(supi, rng.choice((1, 2))) for supi in supis]
    cohorts = [list(range(c * size, (c + 1) * size)) for c in range(count)]
    return Inputs(
        workload=workload,
        seed=seed,
        ues=ues,
        warmup=cohorts[:1],
        cohorts=cohorts[1:],
    )

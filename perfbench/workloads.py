"""The benchmark's four workloads, each split into build and execute.

A workload is repeated in *units*.  Every unit builds fresh stacks from
the same seed-derived inputs (timed as set-up), replays the simulated
work once (timed as the run) and hashes the simulated outputs.  Units of
one run therefore all produce the same digest, and the digest of seed 0
is pinned in ``digests.json``.

The program only ever receives the generated inputs; the seed itself
stays in this file.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.accel.membench import MODE_READ, MODE_WRITE
from repro.experiments.harness import make_stack
from repro.faults import resolve_plan
from repro.fleet import AutoscaleConfig, TrafficGenerator, TrafficProfile, make_policy
from repro.fleet import AdmissionConfig, FleetCluster
from repro.mem import MB, PAGE_SIZE_2M
from repro.parallel import ShardedFleetCluster, ShardedFleetService
from repro.platform import PlatformParams
from repro.scenario.properties import check_fleet, check_serve
from repro.serve import Gateway, GatewayFleetService, ServeProfile, SloBudgetPolicy, synthesize
from repro.sim.clock import ms, us

#: Accelerators of ``optimus_stream``, one per physical slot of the
#: 8-master mux tree (the seed permutes them over the slots).
STREAM_TENANTS = ("AES", "SHA", "MD5", "FIR", "GAU", "SBL", "GRS", "RSD")
#: Per-tenant working set of ``optimus_stream``: src + dst of all eight
#: stay below the 1 GB IOTLB reach (512 entries x 2 MB pages).
STREAM_WORKING_SET = 32 * MB
STREAM_WARMUP_PS = us(20)
STREAM_WINDOW_PS = us(60)

#: ``optimus_thrash``: 8 x 512 MB = 4 GB of random access, 4x the reach.
THRASH_TENANTS = 8
THRASH_WORKING_SET = 512 * MB
THRASH_WARMUP_PS = us(40)
THRASH_WINDOW_PS = us(120)

SERVE_NODES = 4
SERVE_SESSIONS = 5000
SERVE_LOAD = 1.5

CHAOS_NODES = 4
CHAOS_SHARDS = 2
CHAOS_REQUESTS = 4000
CHAOS_LOAD = 0.85
#: The last node is parked as the autoscaler's standby.
CHAOS_STANDBY = ("node3",)
#: The fault scenario: ``degrade-crash`` plan seed and a scheduled drain.
CHAOS_PLAN_SEED = 0
CHAOS_DRAIN_NODE = "node1"
CHAOS_DRAIN_AT_MS = 12

def digest_of(payload: object) -> str:
    """SHA-256 (16 hex digits) of ``payload`` as canonical JSON."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Outputs:
    """What one executed unit produced."""

    #: Canonical simulated outputs; hashed into :attr:`digest`.
    payload: Dict[str, object]
    #: Operations attempted: tenants (DES) or sessions/requests (fleet).
    operations: int
    #: Operations that broke an invariant (checked on every seed).
    failed_operations: int
    #: Simulated time the unit advanced, in picoseconds.
    sim_ps: int
    #: The program's own counters, for the traced run's cross-checks.
    counters: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return digest_of(self.payload)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Operations one unit attempts (tenants, sessions or requests).
    operations: int
    #: seed -> built state (timed as set-up).
    build: Callable[[int], object]
    #: built state -> :class:`Outputs` (timed as the run).
    execute: Callable[[object], Outputs]
    #: built state -> None; stops what ``build`` started (untimed).
    close: Callable[[object], None] = lambda built: None


# -- optimus_stream / optimus_thrash: the packet-level DES ----------------------


def stream_inputs(seed: int) -> List[dict]:
    """The eight tenants of ``optimus_stream``, placed by the seed.

    The seed picks one of the 128 symmetries of the 3-level binary mux
    tree (swap or keep the two children of each of its 7 nodes) and
    applies it to the tenants' base slots.  Every seed therefore gets the
    same contention structure, and about the same work per simulated
    microsecond, while tenants land on different masters.
    """
    rng = random.Random(seed)
    root = rng.getrandbits(1)
    middle = [rng.getrandbits(1) for _ in range(2)]
    leaves = [rng.getrandbits(1) for _ in range(4)]
    tenants = []
    for base, name in enumerate(STREAM_TENANTS):
        high, mid, low = base >> 2, (base >> 1) & 1, base & 1
        high ^= root
        mid ^= middle[high]
        low ^= leaves[2 * high + mid]
        slot = (high << 2) | (mid << 1) | low
        tenants.append({"name": name, "slot": slot, "working_set": STREAM_WORKING_SET})
    return sorted(tenants, key=lambda tenant: tenant["slot"])


def thrash_inputs(seed: int) -> List[dict]:
    """The eight MemBench tenants: reads on even slots, writes on odd."""
    rng = random.Random(seed)
    return [
        {
            "name": "MB",
            "slot": slot,
            "working_set": THRASH_WORKING_SET,
            "mode": MODE_READ if slot % 2 == 0 else MODE_WRITE,
            "seed": rng.getrandbits(48) | 1,
        }
        for slot in range(THRASH_TENANTS)
    ]


class DesUnit:
    def __init__(self, stack, jobs, duration_ps: int) -> None:
        self.stack = stack
        self.jobs = jobs
        self.duration_ps = duration_ps


def _build_des(inputs: List[dict], params: PlatformParams, duration_ps: int) -> DesUnit:
    stack = make_stack("optimus", params, n_accelerators=8)
    jobs = []
    for tenant in inputs:
        kwargs = {"functional": False}
        if "seed" in tenant:
            kwargs.update(seed=tenant["seed"], mode=tenant["mode"])
        jobs.append(
            stack.launch(
                tenant["name"],
                physical_index=tenant["slot"],
                working_set=tenant["working_set"],
                job_kwargs=kwargs,
            )
        )
    return DesUnit(stack, jobs, duration_ps)


def _execute_des(unit: DesUnit) -> Outputs:
    platform = unit.stack.platform
    engine = platform.engine
    start_ps = engine.now
    events = engine.run(until_ps=start_ps + unit.duration_ps)
    progress = [
        {"name": job.name, "units": job.progress(), "bytes": job.progress_bytes()}
        for job in unit.jobs
    ]
    # A tenant fails when it moved no data inside the window.
    stalled = [item["name"] for item in progress if item["bytes"] <= 0]
    iotlb = platform.iommu.iotlb.stats
    links = platform.links
    counters = {
        "engine_run_events": events,
        "iotlb_accesses": iotlb.accesses,
        "iotlb_misses": iotlb.misses,
        "iommu_faults": sum(platform.iommu.faults.values()),
        "link_packets": sum(
            link.meter_to_memory.packets_total + link.meter_from_memory.packets_total
            for link in links
        ),
        "link_bytes": sum(
            link.meter_to_memory.bytes_total + link.meter_from_memory.bytes_total
            for link in links
        ),
        "fastpath_commits": sum(
            socket.dma.fastpath.committed_bursts
            for socket in platform.sockets
            if socket.dma.fastpath is not None
        ),
        "auditor_crossings": sum(
            value
            for auditor in platform.monitor.auditors
            for name, value in auditor.counters.values.items()
            if not name.startswith("mmio_")
        ),
    }
    return Outputs(
        payload={"now_ps": engine.now, "events": events, "tenants": progress},
        operations=len(progress),
        failed_operations=len(stalled),
        sim_ps=engine.now - start_ps,
        counters=counters,
        problems=[f"tenant {name} made no progress" for name in stalled],
    )


def _build_stream(seed: int) -> DesUnit:
    return _build_des(
        stream_inputs(seed), PlatformParams(), STREAM_WARMUP_PS + STREAM_WINDOW_PS
    )


def _build_thrash(seed: int) -> DesUnit:
    return _build_des(
        thrash_inputs(seed),
        PlatformParams(page_size=PAGE_SIZE_2M),
        THRASH_WARMUP_PS + THRASH_WINDOW_PS,
    )


# -- serve_slo: gateway + fleet service, serial ----------------------------------


class ServeUnit:
    def __init__(self, cluster, service, gateway) -> None:
        self.cluster = cluster
        self.service = service
        self.gateway = gateway


def _build_serve(seed: int) -> ServeUnit:
    cluster = FleetCluster.build(SERVE_NODES)
    trace = synthesize(
        ServeProfile(load=SERVE_LOAD, followup_prob=0.3),
        sessions=SERVE_SESSIONS,
        fleet_slots=cluster.total_slots,
        seed=seed,
    )
    service = GatewayFleetService(
        cluster,
        make_policy("best-fit"),
        admission=AdmissionConfig(queue_limit=32, max_retries=3),
        admission_policy=SloBudgetPolicy(),
    )
    return ServeUnit(cluster, service, Gateway(service, trace))


def _execute_serve(unit: ServeUnit) -> Outputs:
    payload = unit.gateway.run().to_dict()
    problems = check_serve(payload)
    metrics = unit.service.metrics
    return Outputs(
        payload=payload,
        operations=SERVE_SESSIONS,
        # Conservation is a property of the whole replay: if it breaks,
        # no session's outcome can be trusted.
        failed_operations=SERVE_SESSIONS if problems else 0,
        sim_ps=unit.service._now,
        counters={"placements": metrics.counters.get("placements")},
        problems=problems,
    )


# -- chaos_sharded: sharded fleet under a degrade-then-crash plan ------------------


class ChaosUnit:
    def __init__(self, cluster, service, requests) -> None:
        self.cluster = cluster
        self.service = service
        self.requests = requests


def chaos_inputs(seed: int) -> dict:
    """Seeded traffic against a fixed fault scenario.

    The fault plan and the drain stay the same for every seed, so the
    operations work (evacuations, checkpoints, migrations) is comparable
    from seed to seed; the seed draws the tenant traffic.
    """
    return {
        "traffic_seed": seed,
        "plan_seed": CHAOS_PLAN_SEED,
        "drain_node": CHAOS_DRAIN_NODE,
        "drain_at_ms": CHAOS_DRAIN_AT_MS,
    }


def _build_chaos(seed: int) -> ChaosUnit:
    inputs = chaos_inputs(seed)
    cluster = ShardedFleetCluster.build(CHAOS_NODES, shards=CHAOS_SHARDS)
    try:
        plan = resolve_plan(
            "degrade-crash", n_nodes=CHAOS_NODES - len(CHAOS_STANDBY),
            seed=inputs["plan_seed"],
        )
        generator = TrafficGenerator(
            TrafficProfile(load=CHAOS_LOAD),
            fleet_slots=cluster.total_slots,
            seed=inputs["traffic_seed"],
        )
        service = ShardedFleetService(cluster, make_policy("best-fit"))
        service.install_faults(plan)
        service.install_autoscaler(AutoscaleConfig(standby_nodes=CHAOS_STANDBY))
        service.schedule_op(
            ms(inputs["drain_at_ms"]), "drain", node_name=inputs["drain_node"]
        )
        requests = generator.generate(CHAOS_REQUESTS)
    except BaseException:
        cluster.close()
        raise
    return ChaosUnit(cluster, service, requests)


def _execute_chaos(unit: ChaosUnit) -> Outputs:
    result = unit.service.serve(unit.requests)
    outcomes = result.outcome_counts()
    problems = check_fleet(
        {"outcomes": outcomes, "availability": result.availability()}, CHAOS_REQUESTS
    )
    payload = {
        "outcomes": outcomes,
        "fault_log": result.fault_log.summary()["digest"],
        "trace_digest": result.metrics.trace_digest(),
    }
    unit.outputs = Outputs(
        payload=payload,
        operations=CHAOS_REQUESTS,
        failed_operations=CHAOS_REQUESTS if problems else 0,
        sim_ps=unit.service._now,
        counters={
            "placements": result.metrics.counters.get("placements"),
            "migrations": result.metrics.fault_counters.get("migrations"),
        },
        problems=problems,
    )
    return unit.outputs


def _close_chaos(unit: ChaosUnit) -> None:
    unit.cluster.close()
    outputs = getattr(unit, "outputs", None)
    if outputs is not None:
        # Read after close(): its exit messages belong to the op stream too.
        stats = unit.cluster.opstream_stats()
        outputs.counters.update(
            {key: stats[key] for key in ("messages", "frames", "frame_bytes", "stall_waits")}
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("optimus_stream", len(STREAM_TENANTS), _build_stream, _execute_des),
        Workload("optimus_thrash", THRASH_TENANTS, _build_thrash, _execute_des),
        Workload("serve_slo", SERVE_SESSIONS, _build_serve, _execute_serve),
        Workload("chaos_sharded", CHAOS_REQUESTS, _build_chaos, _execute_chaos,
                 _close_chaos),
    )
}

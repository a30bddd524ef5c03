"""The fleet cluster: N heterogeneous OPTIMUS nodes behind one API.

A cluster owns an ordered list of :class:`~repro.fleet.node.FleetNode`
(heterogeneous ``FpgaConfiguration`` mixes are the normal case — a
provider synthesizes different bitstreams for different demand profiles)
and exposes fleet-level placement: a policy picks the node, the node's
provider picks the slot with the paper's spatial-then-temporal logic.
Tenant names are unique fleet-wide so eviction needs no node handle.

:class:`ClusterAccounting` is the node-agnostic part — fleet-wide
capacity reads, placement through a policy, eviction, cordon and crash —
shared with :class:`~repro.parallel.ShardedFleetCluster`.  Which of the
two a run gets is decided in one place, :func:`build_cluster`; the
serving loop drives both through the same epoch/settle/close surface.
"""

from __future__ import annotations

from typing import Dict, Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.errors import ConfigurationError, UnknownTenantError
from repro.hv.checkpoint import GuestCheckpoint
from repro.fleet.node import (
    DEFAULT_MAX_OVERSUB,
    EvictedPlacement,
    FleetNode,
    NodeAccounting,
    NodeHealth,
    NodeSpec,
)
from repro.fleet.placement import PlacementPolicy
from repro.platform.params import PlatformParams
from repro.telemetry import MetricRegistry

#: Default heterogeneous node templates, cycled when building a cluster.
#: Each is a synthesizable six-slot mix (Table 2 closes timing for eight
#: instances, so six mixed slots are comfortably feasible) biased toward a
#: different slice of the default traffic mix.
DEFAULT_TEMPLATES: Tuple[Tuple[str, ...], ...] = (
    ("AES", "AES", "SHA", "MD5", "MB", "LL"),
    ("SHA", "SHA", "AES", "FIR", "MB", "MB"),
    ("MD5", "MD5", "FIR", "AES", "LL", "LL"),
    ("FIR", "FIR", "SHA", "MD5", "MB", "AES"),
)


N = TypeVar("N", bound=NodeAccounting)


class ClusterAccounting(Generic[N]):
    """An ordered fleet of nodes with fleet-wide tenant bookkeeping."""

    def __init__(self, nodes: Sequence[N]) -> None:
        if not nodes:
            raise ConfigurationError("a fleet needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names: {names}")
        self.nodes: List[N] = list(nodes)
        self.tenant_nodes: Dict[str, N] = {}

    # -- fleet-wide capacity ----------------------------------------------------------

    @property
    def total_slots(self) -> int:
        return sum(node.total_slots for node in self.nodes)

    def offered_types(self) -> List[str]:
        types = set()
        for node in self.nodes:
            types.update(node.ledger.slots_by_type)
        return sorted(types)

    def capacity(self, accel_type: str) -> int:
        return sum(node.ledger.capacity(accel_type) for node in self.nodes)

    def occupancy(self, accel_type: str) -> int:
        return sum(node.ledger.occupancy(accel_type) for node in self.nodes)

    def occupancy_by_type(self) -> Dict[str, int]:
        """Resident tenants per offered type, over every node in one pass."""
        totals: Dict[str, int] = {}
        for node in self.nodes:
            for accel_type, count in node.ledger.type_occupancy.items():
                totals[accel_type] = totals.get(accel_type, 0) + count
        return totals

    @property
    def resident(self) -> int:
        return len(self.tenant_nodes)

    def can_place(self, accel_type: str) -> bool:
        return any(node.can_place(accel_type) for node in self.nodes)

    # -- placement --------------------------------------------------------------------

    def place(
        self, tenant_name: str, accel_type: str, policy: PlacementPolicy
    ) -> Optional[Tuple[N, object]]:
        """Place a tenant via ``policy``; ``None`` when the fleet is full.

        DEAD nodes are invisible to the policy — admission never routes
        to a crashed node — and so are cordoned nodes (the ops-level
        admission gate: draining or parked-standby nodes take no new
        work while their residents keep serving).
        """
        if tenant_name in self.tenant_nodes:
            raise ConfigurationError(f"tenant {tenant_name!r} already placed")
        alive = [
            n
            for n in self.nodes
            if n.health is not NodeHealth.DEAD and not n.cordoned
        ]
        if not alive:
            return None
        node = policy.choose(alive, accel_type)
        if node is None:
            return None
        tenant = node.place(tenant_name, accel_type)
        self.tenant_nodes[tenant_name] = node
        return node, tenant

    def evict(self, tenant_name: str) -> EvictedPlacement:
        """Evict fleet-wide; returns the undone placement (typed contract).

        Raises :class:`~repro.errors.UnknownTenantError` when the tenant
        is nowhere in the fleet.
        """
        node = self.tenant_nodes.pop(tenant_name, None)
        if node is None:
            raise UnknownTenantError(tenant_name, "in the fleet")
        return node.evict(tenant_name)

    def restore_tenant(self, node_name: str, checkpoint: GuestCheckpoint):
        """Restore a checkpointed tenant onto the named node."""
        if checkpoint.vm_name in self.tenant_nodes:
            raise ConfigurationError(
                f"tenant {checkpoint.vm_name!r} already placed"
            )
        node = self.node(node_name)
        tenant = node.restore_tenant(checkpoint)
        self.tenant_nodes[checkpoint.vm_name] = node
        return tenant

    # -- node health ------------------------------------------------------------------

    def node(self, name: str) -> N:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ConfigurationError(f"no node {name!r} in the fleet")

    def cordon(self, name: str) -> N:
        """Exclude a node from new placements; residents keep serving."""
        node = self.node(name)
        node.cordon()
        return node

    def uncordon(self, name: str) -> N:
        node = self.node(name)
        node.uncordon()
        return node

    def _crash_node(self, name: str) -> List[EvictedPlacement]:
        """Kill a node; every resident is displaced through the typed
        evict contract (deterministic name order) and returned so the
        serving layer can re-place or cleanly fail each one."""
        node = self.node(name)
        displaced = []
        # The node's resident set is authoritative (tenants placed directly
        # on the node are displaced too); the fleet index is cleaned along
        # the way for those the cluster placed itself.
        for tenant in sorted(node.tenants):
            self.tenant_nodes.pop(tenant, None)
            displaced.append(node.evict(tenant))
        node.crash()
        return displaced

    def recover_node(self, name: str) -> N:
        node = self.node(name)
        node.recover()
        return node

    def health_report(self) -> Dict[str, str]:
        return {node.name: node.health.value for node in self.nodes}

    # -- reporting --------------------------------------------------------------------

    def utilization_by_type(self) -> Dict[str, float]:
        """Instantaneous fleet occupancy over capacity, per type."""
        report: Dict[str, float] = {}
        for accel_type in self.offered_types():
            capacity = self.capacity(accel_type)
            if capacity:
                report[accel_type] = self.occupancy(accel_type) / capacity
        return report

    # -- execution lifecycle (no-ops when every node lives in this process) ------------

    def advance_epoch(self, epoch_ps: int) -> None:
        """The serving clock reached ``epoch_ps``."""

    def settle(self) -> None:
        """The serving loop finished: make every node's state observable."""

    def opstream_stats(self) -> Dict[str, object]:
        """The op-stream ledger (side channel; empty when nothing streams)."""
        return {}

    def close(self) -> None:
        """Release execution resources; idempotent."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class FleetCluster(ClusterAccounting[FleetNode]):
    """The serial fleet: every node's real OPTIMUS stack in this process."""

    def __init__(self, nodes: Sequence[FleetNode]) -> None:
        super().__init__(nodes)
        self._registry: Optional[MetricRegistry] = None

    @classmethod
    def build(
        cls,
        n_nodes: int,
        *,
        templates: Optional[Sequence[Sequence[str]]] = None,
        params: Optional[PlatformParams] = None,
        max_oversub: int = DEFAULT_MAX_OVERSUB,
    ) -> "FleetCluster":
        """A cluster of ``n_nodes`` cycling through heterogeneous templates."""
        if n_nodes < 1:
            raise ConfigurationError("need at least one node")
        templates = [tuple(t) for t in (templates or DEFAULT_TEMPLATES)]
        nodes = [
            FleetNode(
                NodeSpec.of(f"node{i}", templates[i % len(templates)]),
                params=params,
                max_oversub=max_oversub,
            )
            for i in range(n_nodes)
        ]
        return cls(nodes)

    # -- checkpoint/restore (live migration) -------------------------------------------

    def checkpoint_tenant(self, tenant_name: str) -> GuestCheckpoint:
        """Quiesce and serialize one tenant wherever it lives in the fleet."""
        node = self.tenant_nodes.get(tenant_name)
        if node is None:
            raise UnknownTenantError(tenant_name, "in the fleet")
        return node.checkpoint_tenant(tenant_name)

    # -- node health ------------------------------------------------------------------

    def recover_node(self, name: str) -> FleetNode:
        node = super().recover_node(name)
        # Re-register the node's metrics with any held cluster registry:
        # recovery may hand the node a fresh provider/platform stack, and
        # a registry built before the crash would keep reading the dead
        # platform's instruments.
        if self._registry is not None:
            self._registry.unmount(f"{node.name}.")
            self._registry.mount(f"{node.name}.", node.provider.platform.metrics)
        return node

    # -- fault-side plumbing ----------------------------------------------------------

    def bump_auditor(
        self, name: str, physical_index: int, key: str, count: int
    ) -> None:
        """Bump an auditor counter on one node's monitor (fault surface).

        The injector goes through this — rather than reaching into
        ``node.provider.platform.monitor`` directly — so the sharded
        executor can forward the same op to the worker owning the node.
        """
        monitor = self.node(name).provider.platform.monitor
        if monitor is not None:
            monitor.auditors[physical_index].counters.bump(key, count)

    # -- reporting --------------------------------------------------------------------

    def metrics_registry(self) -> MetricRegistry:
        """One registry over every node's platform instruments.

        Names are prefixed with the node, so one :meth:`snapshot` covers
        the whole fleet (``node0.iommu.iotlb``, ``node1.upi0.bw.to_mem``,
        ...).  The registry is built once and cached; crash/recover cycles
        keep it pointed at each node's *live* platform (see
        :meth:`recover_node`), so holding a reference stays correct.
        """
        if self._registry is None:
            self._registry = MetricRegistry("cluster")
            for node in self.nodes:
                self._registry.mount(f"{node.name}.", node.provider.platform.metrics)
        return self._registry

    def occupancy_report(self) -> Dict[str, Dict[int, Dict[str, object]]]:
        return {node.name: node.provider.occupancy_report() for node in self.nodes}

    def simulated_report(self) -> Dict[str, Dict[str, object]]:
        """Per-node simulated time (``engine.now``), keyed by node name.

        Shape-identical to :meth:`repro.parallel.ShardedFleetCluster
        .simulated_report`, so serial and sharded envelopes byte-compare.
        """
        return {
            node.name: {"simulated_ps": node.provider.platform.engine.now}
            for node in self.nodes
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """One flat fleet-wide metric snapshot (``node<i>.<metric>``)."""
        return self.metrics_registry().snapshot()


def build_cluster(
    n_nodes: int,
    *,
    shards: int = 1,
    templates: Optional[Sequence[Sequence[str]]] = None,
    params: Optional[PlatformParams] = None,
    max_oversub: int = DEFAULT_MAX_OVERSUB,
) -> ClusterAccounting:
    """The fleet of ``n_nodes``, in this process or across ``shards`` workers.

    One node or one shard runs serially: forking workers to stream ops to
    a single node only adds IPC.  Either cluster is a context manager and
    gives byte-identical results.
    """
    if shards > 1 and n_nodes > 1:
        from repro.parallel.executor import ShardedFleetCluster

        return ShardedFleetCluster.build(
            n_nodes, shards=shards, templates=templates, params=params,
            max_oversub=max_oversub,
        )
    return FleetCluster.build(
        n_nodes, templates=templates, params=params, max_oversub=max_oversub
    )

"""Coordinator-side shadow bookkeeping for sharded fleet execution.

The fleet serving loop (:class:`repro.fleet.admission.FleetService`) is
pure control plane: every decision it makes — which node a policy picks,
which physical slot the provider assigns, when a session departs — reads
nothing but *bookkeeping* (per-slot occupancy counts, node health, static
capacity).  The heavyweight per-node state (platform, engine, hypervisor,
IOMMU) is only ever *written* by placements and evictions, never read
back by the loop.

That asymmetry is what makes sharding safe: the coordinator keeps a
:class:`ShadowNode` per fleet node that replicates the bookkeeping
exactly — the same spatial-then-temporal slot selection as
:meth:`repro.cloud.provider.CloudProvider.place` (``min`` over same-type
slots by occupancy, ties to the lowest index), the same health machine as
:class:`repro.fleet.node.FleetNode` — while the real node lives in a
shard worker that replays the identical operation stream.  Workers verify
every placement against the shadow's prediction, so any divergence fails
loudly instead of silently skewing results.

Shadow classes deliberately mirror the :class:`FleetNode` /
:class:`FleetCluster` surfaces the placement policies and the serving
loop touch; they are plain bookkeeping with no simulation imports.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cloud.library import FpgaConfiguration
from repro.errors import ConfigurationError, SchedulerError, UnknownTenantError
from repro.fleet.node import DEFAULT_MAX_OVERSUB, EvictedPlacement, NodeHealth
from repro.hv.checkpoint import GuestCheckpoint

#: An op forwarded to the shard worker owning a node: (op name, payload).
ShardOp = Tuple[str, tuple]


class ShadowTenant:
    """The coordinator's view of one placed tenant.

    ``oversubscribed`` is a live property (like the real
    :class:`~repro.cloud.provider.Tenant`): it reads the slot's *current*
    occupancy, because eviction records it at evict time, not place time.
    """

    __slots__ = ("name", "accel_type", "physical_index", "_node")

    def __init__(self, name: str, accel_type: str, physical_index: int, node: "ShadowNode") -> None:
        self.name = name
        self.accel_type = accel_type
        self.physical_index = physical_index
        self._node = node

    @property
    def oversubscribed(self) -> bool:
        return self._node.slot_occupancy[self.physical_index] > 1


class ShadowNode:
    """Bookkeeping twin of one :class:`~repro.fleet.node.FleetNode`.

    Mutations forward the equivalent operation to the shard worker that
    owns the real node via ``emit`` (set by the executor); reads are
    answered locally and never block on a worker.
    """

    def __init__(
        self,
        index: int,
        name: str,
        configuration: FpgaConfiguration,
        *,
        max_oversub: int = DEFAULT_MAX_OVERSUB,
        emit: Optional[Callable[[int, ShardOp], None]] = None,
    ) -> None:
        if max_oversub < 1:
            raise ConfigurationError("max_oversub must be >= 1")
        self.index = index
        self._name = name
        self.configuration = configuration
        self.max_oversub = max_oversub
        self.slot_occupancy: List[int] = [0] * configuration.n_slots
        self.tenants: Dict[str, ShadowTenant] = {}
        self.health = NodeHealth.HEALTHY
        self.cordoned = False
        self._emit = emit or (lambda index, op: None)

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShadowNode({self._name!r}, slots={list(self.configuration.slots)})"

    # -- capacity accounting (mirrors FleetNode exactly) ----------------------

    @property
    def total_slots(self) -> int:
        return self.configuration.n_slots

    def capacity(self, accel_type: str) -> int:
        return len(self.configuration.slots_of_type(accel_type))

    def occupancy(self, accel_type: str) -> int:
        return sum(
            self.slot_occupancy[i]
            for i in self.configuration.slots_of_type(accel_type)
        )

    def free_slots(self, accel_type: str) -> int:
        return sum(
            1
            for i in self.configuration.slots_of_type(accel_type)
            if not self.slot_occupancy[i]
        )

    def headroom(self, accel_type: str) -> int:
        return self.max_oversub * self.capacity(accel_type) - self.occupancy(accel_type)

    @property
    def resident(self) -> int:
        return len(self.tenants)

    @property
    def load(self) -> float:
        if not self.total_slots:
            return 0.0
        return self.resident / self.total_slots

    def affinity(self, accel_type: str) -> float:
        if not self.total_slots:
            return 0.0
        return self.capacity(accel_type) / self.total_slots

    def can_place(self, accel_type: str, *, oversubscribe: bool = True) -> bool:
        if self.health is NodeHealth.DEAD:
            return False
        if self.capacity(accel_type) == 0:
            return False
        if self.free_slots(accel_type) > 0:
            return True
        return oversubscribe and self.headroom(accel_type) > 0

    def utilization_by_type(self) -> Dict[str, float]:
        report: Dict[str, float] = {}
        for accel_type in sorted(set(self.configuration.slots)):
            report[accel_type] = self.occupancy(accel_type) / self.capacity(accel_type)
        return report

    # -- placement lifecycle ---------------------------------------------------

    def place(self, tenant_name: str, accel_type: str) -> ShadowTenant:
        """Mirror of provider slot selection: least-occupied same-type slot,
        ties to the lowest index (``min`` over the candidate list)."""
        if tenant_name in self.tenants:
            raise ConfigurationError(f"tenant {tenant_name!r} already on {self.name}")
        if not self.can_place(accel_type):
            raise SchedulerError(
                f"node {self.name} has no headroom for {accel_type!r}"
            )
        candidates = self.configuration.slots_of_type(accel_type)
        physical_index = min(candidates, key=self.slot_occupancy.__getitem__)
        self.slot_occupancy[physical_index] += 1
        tenant = ShadowTenant(tenant_name, accel_type, physical_index, self)
        self.tenants[tenant_name] = tenant
        self._emit(
            self.index,
            ("place", (tenant_name, accel_type, physical_index,
                       self.slot_occupancy[physical_index] > 1)),
        )
        return tenant

    def evict(self, tenant_name: str) -> EvictedPlacement:
        tenant = self.tenants.pop(tenant_name, None)
        if tenant is None:
            raise UnknownTenantError(tenant_name, f"on node {self.name}")
        placement = EvictedPlacement(
            tenant=tenant.name,
            accel_type=tenant.accel_type,
            node_name=self.name,
            physical_index=tenant.physical_index,
            oversubscribed=tenant.oversubscribed,
        )
        self.slot_occupancy[tenant.physical_index] -= 1
        self._emit(self.index, ("evict", (tenant_name,)))
        return placement

    def restore_tenant(self, checkpoint: GuestCheckpoint) -> ShadowTenant:
        """Mirror of :meth:`FleetNode.restore_tenant`: same slot rule as
        ``place``; the checkpoint itself ships to the owning worker."""
        if checkpoint.vm_name in self.tenants:
            raise ConfigurationError(
                f"tenant {checkpoint.vm_name!r} already on {self.name}"
            )
        if not self.can_place(checkpoint.accel_type):
            raise SchedulerError(
                f"node {self.name} has no headroom for {checkpoint.accel_type!r}"
            )
        candidates = self.configuration.slots_of_type(checkpoint.accel_type)
        physical_index = min(candidates, key=self.slot_occupancy.__getitem__)
        self.slot_occupancy[physical_index] += 1
        tenant = ShadowTenant(
            checkpoint.vm_name, checkpoint.accel_type, physical_index, self
        )
        self.tenants[checkpoint.vm_name] = tenant
        self._emit(
            self.index,
            ("restore_tenant", (checkpoint, physical_index,
                                self.slot_occupancy[physical_index] > 1)),
        )
        return tenant

    # -- health transitions -----------------------------------------------------

    def cordon(self) -> None:
        self.cordoned = True
        self._emit(self.index, ("cordon", ()))

    def uncordon(self) -> None:
        self.cordoned = False
        self._emit(self.index, ("uncordon", ()))

    def crash(self) -> None:
        self.health = NodeHealth.DEAD
        self._emit(self.index, ("crash", ()))

    def recover(self) -> None:
        if self.health is NodeHealth.DEGRADED:
            pass  # restore() below flips DEGRADED back; recover forces HEALTHY
        self.health = NodeHealth.HEALTHY
        self._emit(self.index, ("recover", ()))

    def degrade(self, factor: float) -> None:
        if self.health is NodeHealth.DEAD:
            raise ConfigurationError(f"cannot degrade dead node {self.name}")
        self.health = NodeHealth.DEGRADED
        self._emit(self.index, ("degrade", (factor,)))

    def restore(self) -> None:
        if self.health is NodeHealth.DEGRADED:
            self.health = NodeHealth.HEALTHY
        self._emit(self.index, ("restore", ()))


class ShadowCluster:
    """Bookkeeping twin of :class:`~repro.fleet.cluster.FleetCluster`.

    Implements the exact serving-loop surface (placement, eviction, node
    health, capacity queries, auditor bumps) over :class:`ShadowNode`s.
    The executor wires ``emit`` so every mutation reaches the owning
    shard; pure reads stay local and cost no IPC.
    """

    def __init__(self, nodes: Sequence[ShadowNode]) -> None:
        if not nodes:
            raise ConfigurationError("a fleet needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate node names: {names}")
        self.nodes: List[ShadowNode] = list(nodes)
        self.tenant_nodes: Dict[str, ShadowNode] = {}

    # -- fleet-wide capacity ----------------------------------------------------

    @property
    def total_slots(self) -> int:
        return sum(node.total_slots for node in self.nodes)

    def offered_types(self) -> List[str]:
        types = set()
        for node in self.nodes:
            types.update(node.configuration.slots)
        return sorted(types)

    def capacity(self, accel_type: str) -> int:
        return sum(node.capacity(accel_type) for node in self.nodes)

    def occupancy(self, accel_type: str) -> int:
        return sum(node.occupancy(accel_type) for node in self.nodes)

    @property
    def resident(self) -> int:
        return len(self.tenant_nodes)

    def can_place(self, accel_type: str) -> bool:
        return any(node.can_place(accel_type) for node in self.nodes)

    # -- placement ---------------------------------------------------------------

    def place(self, tenant_name: str, accel_type: str, policy):
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
        node = self.tenant_nodes.pop(tenant_name, None)
        if node is None:
            raise UnknownTenantError(tenant_name, "in the fleet")
        return node.evict(tenant_name)

    def restore_tenant(self, node_name: str, checkpoint: GuestCheckpoint):
        if checkpoint.vm_name in self.tenant_nodes:
            raise ConfigurationError(
                f"tenant {checkpoint.vm_name!r} already placed"
            )
        node = self.node(node_name)
        tenant = node.restore_tenant(checkpoint)
        self.tenant_nodes[checkpoint.vm_name] = node
        return tenant

    # -- node health ---------------------------------------------------------------

    def node(self, name: str) -> ShadowNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ConfigurationError(f"no node {name!r} in the fleet")

    def cordon(self, name: str) -> ShadowNode:
        node = self.node(name)
        node.cordon()
        return node

    def uncordon(self, name: str) -> ShadowNode:
        node = self.node(name)
        node.uncordon()
        return node

    def _crash_node(self, name: str) -> List[EvictedPlacement]:
        node = self.node(name)
        displaced = []
        for tenant in sorted(node.tenants):
            self.tenant_nodes.pop(tenant, None)
            displaced.append(node.evict(tenant))
        node.crash()
        return displaced

    def recover_node(self, name: str) -> ShadowNode:
        node = self.node(name)
        node.recover()
        return node

    def health_report(self) -> Dict[str, str]:
        return {node.name: node.health.value for node in self.nodes}

    # -- fault-side plumbing -------------------------------------------------------

    def bump_auditor(
        self, name: str, physical_index: int, key: str, count: int
    ) -> None:
        """Forward an auditor-counter bump to the real node's monitor."""
        node = self.node(name)
        node._emit(node.index, ("bump_auditor", (physical_index, key, count)))

    # -- reporting -----------------------------------------------------------------

    def utilization_by_type(self) -> Dict[str, float]:
        report: Dict[str, float] = {}
        for accel_type in self.offered_types():
            capacity = self.capacity(accel_type)
            if capacity:
                report[accel_type] = self.occupancy(accel_type) / capacity
        return report

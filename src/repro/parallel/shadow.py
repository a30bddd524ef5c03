"""Coordinator-side shadow bookkeeping for sharded fleet execution.

The fleet serving loop (:class:`repro.fleet.admission.FleetService`) is
pure control plane: every decision it makes — which node a policy picks,
which physical slot the provider assigns, when a session departs — reads
nothing but *bookkeeping*: slot occupancy, node health and static
capacity.  The heavyweight per-node state (platform, engine, hypervisor,
IOMMU) is only ever *written* by placements and evictions, never read
back by the loop.

That asymmetry is what makes sharding safe.  The coordinator keeps a
:class:`ShadowNode` per fleet node: a :class:`~repro.cloud.ledger
.SlotLedger` plus health, with the same capacity reads as the real node
(both inherit :class:`~repro.fleet.node.NodeAccounting`).  Slots are
chosen by :meth:`SlotLedger.pick`, the one home of the provider's
spatial-then-temporal rule, so there is no second copy of it to drift.
The real node lives in a shard worker that replays the identical
operation stream.  The worker checks every predicted slot and
oversubscription flag against the real hypervisor, and the touched
slot's ledger count against its run queue, so any divergence fails
loudly instead of silently skewing results.

Shadow classes expose the :class:`FleetNode` surface the placement
policies and the serving loop touch; they hold no simulation state.
:class:`~repro.parallel.executor.ShardedFleetCluster` holds the shadow
nodes and wires their ``emit`` to its op stream.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.cloud.ledger import SlotLedger
from repro.cloud.library import FpgaConfiguration
from repro.errors import ConfigurationError, UnknownTenantError
from repro.fleet.node import (
    DEFAULT_MAX_OVERSUB,
    EvictedPlacement,
    NodeAccounting,
    NodeHealth,
)
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
        return self._node.ledger.slot_occupancy[self.physical_index] > 1


class ShadowNode(NodeAccounting):
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
        self.ledger = SlotLedger(configuration.slots)
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

    # -- occupancy (O(1) ledger reads) ----------------------------------------

    def occupancy(self, accel_type: str) -> int:
        return self.ledger.occupancy(accel_type)

    def free_slots(self, accel_type: str) -> int:
        return self.ledger.free(accel_type)

    # -- placement lifecycle ---------------------------------------------------

    def _admit(self, tenant_name: str, accel_type: str) -> Tuple[ShadowTenant, bool]:
        """Take the slot :meth:`SlotLedger.pick` chooses; returns the new
        tenant and whether it shares its slot."""
        self.check_admissible(tenant_name, accel_type)
        physical_index = self.ledger.pick(accel_type)
        self.ledger.add(physical_index)
        tenant = ShadowTenant(tenant_name, accel_type, physical_index, self)
        self.tenants[tenant_name] = tenant
        return tenant, self.ledger.slot_occupancy[physical_index] > 1

    def place(self, tenant_name: str, accel_type: str) -> ShadowTenant:
        tenant, oversub = self._admit(tenant_name, accel_type)
        self._emit(
            self.index,
            ("place", (tenant_name, accel_type, tenant.physical_index, oversub)),
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
        self.ledger.remove(tenant.physical_index)
        self._emit(self.index, ("evict", (tenant_name,)))
        return placement

    def restore_tenant(self, checkpoint: GuestCheckpoint) -> ShadowTenant:
        """Same slot rule as ``place``; the checkpoint itself ships to the
        owning worker."""
        tenant, oversub = self._admit(checkpoint.vm_name, checkpoint.accel_type)
        self._emit(
            self.index,
            ("restore_tenant", (checkpoint, tenant.physical_index, oversub)),
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

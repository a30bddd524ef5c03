"""The typed fleet-operations API (ISSUE 8).

Every fleet mutation the control plane performs — cordoning a node,
live-migrating a tenant, draining, rebalancing, crashing, recovering —
goes through :class:`FleetOps` and returns a typed result
(:class:`MigrationOutcome`, :class:`DrainReport`, :class:`CrashReport`).
The verbs route through the owning :class:`~repro.fleet.admission
.FleetService` so in-flight *sessions* survive the operation: a migrated
session keeps its identity and its departure schedule (shifted by the
bounded blackout window, ``AdmissionConfig.migration_cost_ps``), and every
move is traced and counted through :class:`~repro.fleet.metrics
.FleetMetrics`.

Verbs can be invoked directly (``service.ops.drain("node1")``) or
scheduled inside the serving loop's simulated time
(``service.schedule_op(at_ps, "drain", node_name="node1")``) — the loop
dispatches them exactly like any other event, so an operation at a fixed
timestamp is deterministic relative to arrivals and departures.

Live migration itself is copy-then-switch over the hv checkpoint
machinery (:mod:`repro.hv.checkpoint`): quiesce at a slice boundary →
snapshot (pages, registers, DMA window, saved state) → restore on the
destination with the shadow IO page table re-patched → evict the source
copy.  The checkpoint digest travels in the outcome so callers can verify
determinism end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import UnknownTenantError
from repro.fleet.node import FleetNode, NodeHealth
from repro.fleet.outcomes import Outcome, Resolution

if TYPE_CHECKING:  # pragma: no cover
    from repro.fleet.admission import FleetService


@dataclass(frozen=True)
class MigrationOutcome:
    """What one :meth:`FleetOps.migrate` call did."""

    tenant: str
    source: str
    #: ``None`` when no eligible destination existed.
    destination: Optional[str]
    #: A :class:`~repro.fleet.outcomes.Resolution` value:
    #: ``migrated`` or ``failed_no_destination``.
    outcome: str
    #: Simulated time the session was dark (checkpoint + transfer +
    #: restore), charged to its departure schedule.
    blackout_ps: int
    #: Deterministic digest of the shipped checkpoint (``None`` when the
    #: migration never produced one).
    checkpoint_digest: Optional[str]

    @property
    def ok(self) -> bool:
        return self.outcome == Resolution.MIGRATED.value


@dataclass(frozen=True)
class DrainReport:
    """What :meth:`FleetOps.drain` did to one node."""

    node: str
    #: Successful moves, in deterministic (tenant name) order.
    migrated: Tuple[MigrationOutcome, ...]
    #: Tenants that found no destination and stayed resident.
    remaining: Tuple[str, ...]
    #: Whether the node is left cordoned (always true today; recorded so
    #: callers can assert the admission gate without re-reading the node).
    cordoned: bool

    @property
    def clean(self) -> bool:
        return not self.remaining


@dataclass(frozen=True)
class CrashReport:
    """What :meth:`FleetOps.crash` did to one node's residents."""

    node: str
    #: ``(tenant, resolution)`` per displaced session, in eviction order;
    #: resolution is ``replaced`` or ``failed_by_fault``.
    resolutions: Tuple[Tuple[str, str], ...]

    @property
    def displaced(self) -> int:
        return len(self.resolutions)

    @property
    def replaced(self) -> int:
        return sum(1 for _t, r in self.resolutions if r == Resolution.REPLACED.value)

    @property
    def failed(self) -> int:
        return sum(
            1 for _t, r in self.resolutions if r == Resolution.FAILED_BY_FAULT.value
        )


@dataclass(frozen=True)
class RebalanceReport:
    """The moves :meth:`FleetOps.rebalance` performed."""

    moves: Tuple[MigrationOutcome, ...]

    @property
    def moved(self) -> int:
        return len(self.moves)


class FleetOps:
    """Typed fleet-operations verbs over one :class:`FleetService`."""

    def __init__(self, service: "FleetService") -> None:
        self.service = service

    # -- helpers ----------------------------------------------------------------------

    def _now(self, now: Optional[int]) -> int:
        return self.service._now if now is None else now

    # -- admission gating -------------------------------------------------------------

    def cordon(self, node_name: str, *, now: Optional[int] = None) -> FleetNode:
        """Exclude a node from new placements; residents keep serving."""
        now = self._now(now)
        node = self.service.cluster.cordon(node_name)
        self.service.metrics.record_cordon(now_ps=now, node=node_name, cordoned=True)
        return node

    def uncordon(self, node_name: str, *, now: Optional[int] = None) -> FleetNode:
        """Readmit a node to the placement pool."""
        now = self._now(now)
        node = self.service.cluster.uncordon(node_name)
        self.service.metrics.record_cordon(now_ps=now, node=node_name, cordoned=False)
        return node

    # -- live migration ---------------------------------------------------------------

    def migrate(
        self,
        tenant_name: str,
        *,
        now: Optional[int] = None,
        destination: Optional[str] = None,
    ) -> MigrationOutcome:
        """Live-migrate one tenant off its current node.

        Destination defaults to the service's placement policy over every
        alive, non-cordoned node other than the source.  On success the
        session survives: same request identity, node/slot updated, the
        departure shifted by the blackout window, outcome eventually
        ``migrated_completed``.  With no eligible destination the session
        is left untouched (``failed_no_destination``) — migration never
        destroys the only good copy.
        """
        service = self.service
        now = self._now(now)
        cluster = service.cluster
        source = cluster.tenant_nodes.get(tenant_name)
        if source is None:
            raise UnknownTenantError(tenant_name, "in the fleet")
        accel_type = source.tenants[tenant_name].accel_type

        dest: Optional[FleetNode]
        if destination is not None:
            dest = cluster.node(destination)
            if (
                dest is source
                or dest.health is NodeHealth.DEAD
                or not dest.can_place(accel_type)
            ):
                dest = None
        else:
            candidates = [
                n
                for n in cluster.nodes
                if n is not source
                and n.health is not NodeHealth.DEAD
                and not n.cordoned
            ]
            dest = (
                service.policy.choose(candidates, accel_type) if candidates else None
            )
        if dest is None:
            service.metrics.record_migration_failure(
                now_ps=now, tenant=tenant_name, reason="no_destination"
            )
            return MigrationOutcome(
                tenant=tenant_name,
                source=source.name,
                destination=None,
                outcome=Resolution.FAILED_NO_DESTINATION.value,
                blackout_ps=0,
                checkpoint_digest=None,
            )

        # Copy-then-switch: quiesce + snapshot, restore on the destination,
        # only then tear down the source copy.
        checkpoint = cluster.checkpoint_tenant(tenant_name)
        cluster.evict(tenant_name)
        tenant = cluster.restore_tenant(dest.name, checkpoint)
        blackout_ps = service.admission.migration_cost_ps
        digest = checkpoint.digest()

        session = service._sessions.get(tenant_name)
        if session is not None:
            service._epoch += 1
            session.epoch = service._epoch  # stale departure events die here
            session.node_name = dest.name
            session.physical_index = tenant.physical_index
            session.migrated = True
            session.depart_ps = max(session.depart_ps, now) + blackout_ps
            service._push(
                session.depart_ps, "departure", (tenant_name, session.epoch)
            )
        service.metrics.record_migration(
            now_ps=now,
            tenant=tenant_name,
            source=source.name,
            destination=dest.name,
            blackout_ps=blackout_ps,
            digest=digest,
        )
        return MigrationOutcome(
            tenant=tenant_name,
            source=source.name,
            destination=dest.name,
            outcome=Resolution.MIGRATED.value,
            blackout_ps=blackout_ps,
            checkpoint_digest=digest,
        )

    def drain(self, node_name: str, *, now: Optional[int] = None) -> DrainReport:
        """Cordon a node and migrate every resident off it.

        Tenants that find no destination stay resident (and reported in
        ``remaining``) — drain sheds load without ever destroying work.
        """
        service = self.service
        now = self._now(now)
        node = service.cluster.node(node_name)
        if not node.cordoned:
            self.cordon(node_name, now=now)
        migrated: List[MigrationOutcome] = []
        remaining: List[str] = []
        for tenant_name in sorted(node.tenants):
            outcome = self.migrate(tenant_name, now=now)
            if outcome.ok:
                migrated.append(outcome)
            else:
                remaining.append(tenant_name)
        service.metrics.record_drain(
            now_ps=now,
            node=node_name,
            migrated=len(migrated),
            remaining=len(remaining),
        )
        return DrainReport(
            node=node_name,
            migrated=tuple(migrated),
            remaining=tuple(remaining),
            cordoned=node.cordoned,
        )

    def rebalance(
        self, *, now: Optional[int] = None, max_moves: Optional[int] = None
    ) -> RebalanceReport:
        """Move tenants from the busiest to the idlest node until the
        resident gap closes below 2 (the §7.1 criterion, fleet-level)."""
        service = self.service
        now = self._now(now)
        moves: List[MigrationOutcome] = []
        while max_moves is None or len(moves) < max_moves:
            active = [
                n
                for n in service.cluster.nodes
                if n.health is not NodeHealth.DEAD and not n.cordoned
            ]
            if len(active) < 2:
                break
            busiest = max(active, key=lambda n: (n.load, n.name))
            idlest = min(active, key=lambda n: (n.load, n.name))
            if busiest.resident - idlest.resident < 2:
                break
            moved = None
            for tenant_name in sorted(busiest.tenants):
                accel_type = busiest.tenants[tenant_name].accel_type
                if idlest.can_place(accel_type):
                    moved = self.migrate(
                        tenant_name, now=now, destination=idlest.name
                    )
                    break
            if moved is None or not moved.ok:
                break
            moves.append(moved)
        return RebalanceReport(moves=tuple(moves))

    # -- node failure and recovery ----------------------------------------------------

    def crash(self, node_name: str, *, now: Optional[int] = None) -> CrashReport:
        """Crash a node; re-place or cleanly fail every displaced session.

        Displacement rides the typed evict/place contract, and every
        resolution is a :class:`~repro.fleet.outcomes.Resolution` value.
        """
        service = self.service
        now = self._now(now)
        displaced = service.cluster._crash_node(node_name)
        resolutions: List[Tuple[str, str]] = []
        for placement in displaced:
            session = service._sessions.pop(placement.tenant, None)
            if session is None:  # not ours (defensive; cannot happen today)
                continue
            remaining = max(0, session.depart_ps - now)
            request = session.request
            if service._try_place(request, now, remaining_ps=remaining, replaced=True):
                resolutions.append((placement.tenant, Resolution.REPLACED.value))
            else:
                service._finish(request, Outcome.FAILED_BY_FAULT.value, now)
                service.metrics.record_fault_failure(
                    now_ps=now, tenant=placement.tenant, reason="node_crash"
                )
                resolutions.append(
                    (placement.tenant, Resolution.FAILED_BY_FAULT.value)
                )
        return CrashReport(node=node_name, resolutions=tuple(resolutions))

    def recover(self, node_name: str, *, now: Optional[int] = None) -> FleetNode:
        """Recover a crashed node and immediately drain the wait queue
        into the restored capacity."""
        service = self.service
        now = self._now(now)
        node = service.cluster.recover_node(node_name)
        service._drain(now)
        return node

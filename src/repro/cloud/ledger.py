"""The slot ledger: incremental per-slot occupancy of one configured FPGA.

The provider's placement rule (§3) needs a single fact per physical slot:
how many tenants are resident on it.  A tenant lands on an empty slot of
the requested type first (spatial), then on the least-oversubscribed slot
of that type (temporal).  :class:`SlotLedger` keeps that count, plus the
per-type totals the fleet layer compares across nodes, and updates them
on every place, evict, restore and migration instead of rescanning the
hypervisor's run queues.

One ledger is the only model of slot occupancy: the real
:class:`~repro.cloud.provider.CloudProvider` owns one, and the sharded
executor's coordinator-side :class:`~repro.parallel.shadow.ShadowNode`
owns another.  Both choose slots through :meth:`SlotLedger.pick`, so the
rule exists once; shard workers check the shadow's predictions against
the real hypervisor, never ledger against ledger.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError, SchedulerError


def index_slots(slots: Sequence[str]) -> Dict[str, Tuple[int, ...]]:
    """Slot positions per accelerator type, in slot order (first-seen type
    order), as immutable tuples."""
    by_type: Dict[str, List[int]] = {}
    for index, accel_type in enumerate(slots):
        by_type.setdefault(accel_type, []).append(index)
    return {accel_type: tuple(indices) for accel_type, indices in by_type.items()}


class SlotLedger:
    """Tenant counts per physical slot and per accelerator type.

    ``slot_occupancy[i]`` is the number of tenants on slot ``i``;
    ``type_occupancy[t]`` and ``type_free[t]`` are the tenants on, and the
    empty slots among, the slots of type ``t``.  Every read is O(1) except
    :meth:`pick`, which is O(slots of the type).
    """

    __slots__ = ("slot_types", "slots_by_type", "slot_occupancy",
                 "type_occupancy", "type_free")

    def __init__(self, slots: Sequence[str]) -> None:
        self.slot_types: Tuple[str, ...] = tuple(slots)
        self.slots_by_type: Dict[str, Tuple[int, ...]] = index_slots(self.slot_types)
        self.slot_occupancy: List[int] = [0] * len(self.slot_types)
        self.type_occupancy: Dict[str, int] = dict.fromkeys(self.slots_by_type, 0)
        self.type_free: Dict[str, int] = {
            accel_type: len(indices) for accel_type, indices in self.slots_by_type.items()
        }

    def capacity(self, accel_type: str) -> int:
        """Physical slots of ``accel_type``."""
        return len(self.slots_by_type.get(accel_type, ()))

    def occupancy(self, accel_type: str) -> int:
        """Tenants resident on ``accel_type`` slots."""
        return self.type_occupancy.get(accel_type, 0)

    def free(self, accel_type: str) -> int:
        """Empty slots of ``accel_type``."""
        return self.type_free.get(accel_type, 0)

    def pick(self, accel_type: str) -> int:
        """The slot the next ``accel_type`` tenant goes to.

        The least-occupied slot of the type, ties to the lowest index: an
        empty slot while one exists (spatial), else the least
        oversubscribed (temporal).  Raises :class:`SchedulerError` when
        the configuration carries no slot of the type.
        """
        candidates = self.slots_by_type.get(accel_type)
        if not candidates:
            raise SchedulerError(
                f"configuration has no {accel_type!r} slot; "
                f"available: {sorted(self.slots_by_type)}"
            )
        return min(candidates, key=self.slot_occupancy.__getitem__)

    def add(self, index: int) -> None:
        """Count one more tenant on slot ``index``."""
        accel_type = self.slot_types[index]
        if not self.slot_occupancy[index]:
            self.type_free[accel_type] -= 1
        self.slot_occupancy[index] += 1
        self.type_occupancy[accel_type] += 1

    def remove(self, index: int) -> None:
        """Count one tenant fewer on slot ``index``."""
        count = self.slot_occupancy[index]
        if not count:
            raise ConfigurationError(f"slot {index} holds no tenant to remove")
        accel_type = self.slot_types[index]
        self.slot_occupancy[index] = count - 1
        self.type_occupancy[accel_type] -= 1
        if count == 1:
            self.type_free[accel_type] += 1

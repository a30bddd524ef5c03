"""Tests for the cloud-provider layer: library, configurations, placement."""

import random

import pytest

from repro.accel.streaming import REG_LEN, REG_PARAM0, REG_PARAM1, REG_SRC
from repro.cloud import AcceleratorLibrary, CloudProvider, FpgaConfiguration, SlotLedger
from repro.errors import ConfigurationError, SchedulerError, SynthesisError
from repro.fleet import FleetNode, NodeSpec
from repro.mem import MB
from repro.platform import PlatformParams
from repro.sim.clock import ms, us


class TestLibrary:
    def test_default_library_offers_table1(self):
        library = AcceleratorLibrary()
        assert len(library.entries()) == 14
        assert library.offers("AES")
        assert not library.offers("NONSENSE")

    def test_restricted_library(self):
        library = AcceleratorLibrary(["AES", "SHA"])
        assert library.offers("AES")
        assert not library.offers("MD5")
        with pytest.raises(ConfigurationError):
            library.make_job("MD5")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            AcceleratorLibrary(["AES", "WAT"])


class TestConfiguration:
    def test_synthesize_valid_mix(self):
        config = FpgaConfiguration.synthesize(["AES", "AES", "SHA", "MB"])
        assert config.n_slots == 4
        assert config.slots_of_type("AES") == [0, 1]
        assert config.report.fits
        summary = config.utilization_summary()
        assert 0 < summary["alm_pct"] <= 100

    def test_nine_slots_rejected_by_synthesis(self):
        with pytest.raises(SynthesisError):
            FpgaConfiguration.synthesize(["LL"] * 9)

    def test_unoffered_type_rejected(self):
        library = AcceleratorLibrary(["AES"])
        with pytest.raises(ConfigurationError):
            FpgaConfiguration.synthesize(["AES", "SHA"], library=library)


class TestPlacement:
    def make_provider(self, slots=("MB", "MB", "LL"), slice_us=400):
        config = FpgaConfiguration.synthesize(list(slots))
        params = PlatformParams(time_slice_ps=us(slice_us))
        return CloudProvider(config, params=params)

    def start_mb(self, tenant):
        ws = tenant.handle.alloc_buffer(8 * MB)
        for reg, value in ((REG_SRC, ws), (REG_LEN, 8 * MB), (REG_PARAM0, 0), (REG_PARAM1, 0)):
            tenant.handle.mmio_write(reg, value)
        tenant.handle.start()

    def test_spatial_then_temporal_placement(self):
        provider = self.make_provider()
        first = provider.place("t0", "MB", window_bytes=16 * MB)
        second = provider.place("t1", "MB", window_bytes=16 * MB)
        assert {first.physical_index, second.physical_index} == {0, 1}
        assert not first.oversubscribed and not second.oversubscribed
        third = provider.place("t2", "MB", window_bytes=16 * MB)
        assert third.physical_index in (0, 1)
        assert third.oversubscribed

    def test_unavailable_type_rejected(self):
        provider = self.make_provider()
        with pytest.raises(SchedulerError):
            provider.place("t", "AES")

    def test_oversubscribed_tenants_share_time(self):
        provider = self.make_provider(slots=("MB",))
        a = provider.place("a", "MB", window_bytes=16 * MB,
                           job_kwargs={"lines_per_request": 16, "seed": 1})
        b = provider.place("b", "MB", window_bytes=16 * MB,
                           job_kwargs={"lines_per_request": 16, "seed": 2})
        self.start_mb(a)
        self.start_mb(b)
        provider.platform.run_for(ms(4))
        assert a.vaccel.job.ops_done > 0
        assert b.vaccel.job.ops_done > 0
        assert a.vaccel.preempt_count + b.vaccel.preempt_count >= 2

    def test_eviction_frees_slot_and_slice(self):
        provider = self.make_provider(slots=("MB",))
        a = provider.place("a", "MB", window_bytes=16 * MB)
        iova = a.vaccel.slice.iova_base
        a.handle.alloc_buffer(2 * MB)
        assert provider.platform.iommu.page_table.is_mapped(iova)
        provider.evict(a)
        assert not provider.platform.iommu.page_table.is_mapped(iova)
        replacement = provider.place("b", "MB", window_bytes=16 * MB)
        assert replacement.physical_index == 0
        assert not replacement.oversubscribed

    def test_rebalance_migrates_to_empty_slot(self):
        provider = self.make_provider(slots=("MB", "MB"))
        a = provider.place("a", "MB", window_bytes=16 * MB,
                           job_kwargs={"lines_per_request": 16, "seed": 3})
        # Force both tenants onto slot 0 by occupying slot 1 then evicting.
        filler = provider.place("filler", "MB", window_bytes=16 * MB)
        b = provider.place("b", "MB", window_bytes=16 * MB,
                           job_kwargs={"lines_per_request": 16, "seed": 4})
        provider.evict(filler)
        assert self_occupancies(provider) in ([2, 0], [1, 1])
        self.start_mb(a)
        self.start_mb(b)
        provider.platform.run_for(ms(2))
        if self_occupancies(provider) == [2, 0]:
            moved = provider.rebalance()
            assert moved == 1
        assert self_occupancies(provider) == [1, 1]

    def test_oversubscription_spill_least_loaded(self):
        # Free slots exhausted -> the temporal spill picks the
        # least-loaded slot of the type, and the tenant sees it.
        provider = self.make_provider(slots=("MB", "MB"))
        t0 = provider.place("t0", "MB", window_bytes=16 * MB)
        t1 = provider.place("t1", "MB", window_bytes=16 * MB)
        assert {t0.physical_index, t1.physical_index} == {0, 1}
        t2 = provider.place("t2", "MB", window_bytes=16 * MB)
        assert t2.oversubscribed
        t3 = provider.place("t3", "MB", window_bytes=16 * MB)
        # t2 doubled up one slot; t3 must land on the other (occupancy
        # 1) rather than stacking a third tenant onto t2's slot.
        assert t3.physical_index != t2.physical_index
        assert self_occupancies(provider) == [2, 2]
        assert provider.ledger.slot_occupancy == [2, 2]

        # Disconnecting both tenants of one slot frees it for spatial
        # placement again.
        for tenant in (t2, t0 if t0.physical_index == t2.physical_index else t1):
            provider.evict(tenant)
        t4 = provider.place("t4", "MB", window_bytes=16 * MB)
        assert not t4.oversubscribed
        assert t4.physical_index == t2.physical_index

    def test_occupancy_report(self):
        provider = self.make_provider()
        provider.place("a", "MB", window_bytes=16 * MB)
        provider.place("b", "LL", window_bytes=16 * MB)
        report = provider.occupancy_report()
        assert report[0]["type"] == "MB"
        assert report[2]["oversubscription"] == 1


def self_occupancies(provider):
    return [len(m.vaccels) for m in provider.hypervisor.physical[:2]]


def hypervisor_occupancies(provider):
    return [len(m.vaccels) for m in provider.hypervisor.physical]


class TestRebalanceFollowsMigration:
    def test_tenant_slot_follows_its_migrated_vaccel(self):
        node = FleetNode(NodeSpec.of("n0", ("AES", "AES", "SHA")))
        for name in "ABCD":
            node.place(name, "AES")
        node.evict("B")
        node.evict("D")
        assert hypervisor_occupancies(node.provider) == [2, 0, 0]

        assert node.provider.rebalance() == 1
        tenant = node.tenants["A"]
        assert tenant.vaccel.physical_index == 1
        assert tenant.physical_index == 1
        assert not tenant.oversubscribed
        assert node.provider.ledger.slot_occupancy == [1, 1, 0]
        assert hypervisor_occupancies(node.provider) == [1, 1, 0]

        placement = node.evict("A")
        assert placement.physical_index == 1
        assert node.provider.ledger.slot_occupancy == [1, 0, 0]
        assert hypervisor_occupancies(node.provider) == [1, 0, 0]


class TestTenantIdentity:
    def test_evict_removes_the_given_record_only(self):
        provider = CloudProvider(FpgaConfiguration.synthesize(["MB", "MB"]))
        first = provider.place("same", "MB", window_bytes=16 * MB)
        second = provider.place("same", "MB", window_bytes=16 * MB)
        assert first != second
        provider.evict(second)
        assert provider.tenants == [first]
        assert provider.tenants[0] is first
        assert provider.ledger.slot_occupancy == hypervisor_occupancies(provider)

    def test_self_disconnect_releases_the_slot_once(self):
        provider = CloudProvider(FpgaConfiguration.synthesize(["MB"]))
        tenant = provider.place("t", "MB", window_bytes=16 * MB)
        tenant.handle.disconnect()
        tenant.handle.disconnect()
        assert provider.tenants == []
        assert provider.ledger.slot_occupancy == [0]
        with pytest.raises(ConfigurationError):
            provider.evict(tenant)
        assert provider.ledger.slot_occupancy == [0]


def reference_pick(slots, occupancy, accel_type):
    """The placement rule as the provider wrote it before the ledger."""
    candidates = [i for i, slot in enumerate(slots) if slot == accel_type]
    return min(candidates, key=lambda i: occupancy[i])


class TestSlotLedger:
    SLOTS = ("AES", "SHA", "AES", "MB", "AES", "SHA")

    def test_counts_start_empty(self):
        ledger = SlotLedger(self.SLOTS)
        assert ledger.slots_by_type == {"AES": (0, 2, 4), "SHA": (1, 5), "MB": (3,)}
        assert ledger.capacity("AES") == 3
        assert ledger.capacity("LL") == 0
        assert ledger.free("AES") == 3
        assert ledger.occupancy("AES") == 0
        assert ledger.occupancy("LL") == 0 and ledger.free("LL") == 0

    def test_pick_rejects_an_absent_type(self):
        with pytest.raises(SchedulerError, match="no 'LL' slot"):
            SlotLedger(self.SLOTS).pick("LL")

    def test_remove_from_an_empty_slot_is_an_error(self):
        ledger = SlotLedger(self.SLOTS)
        with pytest.raises(ConfigurationError):
            ledger.remove(0)

    @pytest.mark.parametrize("seed", range(8))
    def test_pick_and_counts_match_a_rescan(self, seed):
        rng = random.Random(seed)
        ledger = SlotLedger(self.SLOTS)
        occupancy = [0] * len(self.SLOTS)
        resident = []
        for _ in range(400):
            if resident and rng.random() < 0.45:
                index = resident.pop(rng.randrange(len(resident)))
                ledger.remove(index)
                occupancy[index] -= 1
            else:
                accel_type = rng.choice(("AES", "SHA", "MB"))
                index = ledger.pick(accel_type)
                assert index == reference_pick(self.SLOTS, occupancy, accel_type)
                ledger.add(index)
                occupancy[index] += 1
                resident.append(index)
            assert ledger.slot_occupancy == occupancy
            for accel_type, indices in ledger.slots_by_type.items():
                assert ledger.occupancy(accel_type) == sum(occupancy[i] for i in indices)
                assert ledger.free(accel_type) == sum(1 for i in indices if not occupancy[i])

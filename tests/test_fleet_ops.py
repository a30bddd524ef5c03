"""Tests for ISSUE 8: live migration + typed fleet ops + autoscaler.

The load-bearing guarantees:

* checkpoint/restore is *bit-identical* — a guest migrated across
  hypervisors finishes with exactly the memory a never-migrated run
  produces at the same seed;
* the typed verbs (:class:`~repro.fleet.ops.FleetOps`) preserve accepted
  work — a drain under live load loses no sessions;
* the autoscaler is deterministic — serial and ``--shards N`` runs emit
  byte-identical chaos envelopes with the autoscaler installed;
* proactive evacuation strictly beats reactive failover on the same
  seeded degrade->crash plan (the ISSUE 8 acceptance criterion).
"""

import json

import pytest

from repro import __main__ as cli
from repro.accel import AesJob
from repro.accel.streaming import REG_DST, REG_LEN, REG_SRC
from repro.fleet import (
    FleetCluster,
    FleetService,
    TrafficGenerator,
    TrafficProfile,
    make_policy,
)
from repro.guest import GuestAccelerator
from repro.hv import (
    OptimusHypervisor,
    checkpoint_guest,
    guest_memory_digest,
    quiesce_guest,
    restore_guest,
)
from repro.mem import MB
from repro.platform import PlatformParams, build_platform
from repro.sim.clock import ms, us

BUF = 2 * MB
PAYLOAD = bytes((i * 31 + 7) & 0xFF for i in range(BUF))


def make_hv():
    platform = build_platform(
        PlatformParams(time_slice_ps=us(500)), n_accelerators=2
    )
    return platform, OptimusHypervisor(platform)


def launch_aes(hv, name):
    vm = hv.create_vm(name)
    job = AesJob(functional=True)
    vaccel = hv.create_virtual_accelerator(vm, job, physical_index=0)
    handle = GuestAccelerator(hv, vm, vaccel, window_bytes=8 * MB)
    src = handle.alloc_buffer(BUF)
    dst = handle.alloc_buffer(BUF)
    handle.write_buffer(src, PAYLOAD)
    handle.mmio_write(REG_SRC, src)
    handle.mmio_write(REG_DST, dst)
    handle.mmio_write(REG_LEN, BUF)
    handle.start()
    return vm, job, vaccel, handle, src, dst


def run_until_done(platform, job, *, step_ms=1, limit_steps=100):
    for _ in range(limit_steps):
        if job.done:
            return
        platform.run_for(ms(step_ms))
    raise AssertionError("job did not finish within the limit")


class TestCheckpointRestore:
    def test_migrated_digest_matches_never_migrated_run(self):
        # Source hypervisor: run the guest partway, then quiesce + snapshot.
        platform_a, hv_a = make_hv()
        _vm_a, job_a, vaccel_a, _h, src, dst = launch_aes(hv_a, "mover")
        platform_a.run_for(us(40))
        assert 0 < job_a.cursor < BUF  # genuinely mid-flight
        quiesce_guest(hv_a, vaccel_a)
        checkpoint = checkpoint_guest(hv_a, vaccel_a)
        # checkpoint_guest is a pure read: snapshotting twice is stable.
        assert checkpoint.digest() == checkpoint_guest(hv_a, vaccel_a).digest()
        assert checkpoint.n_pages > 0

        # Destination hypervisor: restore, resume, finish.
        platform_b, hv_b = make_hv()
        job_b = AesJob(functional=True)
        vm_b, vaccel_b = restore_guest(hv_b, checkpoint, job_b)
        # Progress travels as saved state and is replayed at switch-in.
        assert vaccel_b.saved_state == checkpoint.saved_state
        run_until_done(platform_b, job_b)

        # Baseline: the same guest, never migrated.
        platform_c, hv_c = make_hv()
        vm_c, job_c, _va, _h2, src_c, dst_c = launch_aes(hv_c, "mover")
        assert (src_c, dst_c) == (src, dst)  # deterministic allocator
        run_until_done(platform_c, job_c)

        regions = [(src, BUF), (dst, BUF)]
        assert guest_memory_digest(vm_b, regions) == guest_memory_digest(
            vm_c, regions
        )

    def test_restore_rejects_page_size_mismatch(self):
        from repro.errors import ConfigurationError
        from repro.mem import PAGE_SIZE_4K

        platform_a, hv_a = make_hv()
        _vm, _job, vaccel, _h, _src, _dst = launch_aes(hv_a, "mover")
        platform_a.run_for(us(40))
        quiesce_guest(hv_a, vaccel)
        checkpoint = checkpoint_guest(hv_a, vaccel)

        platform_b = build_platform(
            PlatformParams(time_slice_ps=us(500), page_size=PAGE_SIZE_4K),
            n_accelerators=2,
        )
        hv_b = OptimusHypervisor(platform_b)
        with pytest.raises(ConfigurationError):
            restore_guest(hv_b, checkpoint, AesJob(functional=True))


def make_fleet(n_nodes=3, *, load=0.7, seed=5):
    cluster = FleetCluster.build(n_nodes)
    service = FleetService(cluster, make_policy("best-fit"))
    generator = TrafficGenerator(
        TrafficProfile(load=load), fleet_slots=cluster.total_slots, seed=seed
    )
    return cluster, service, generator


class TestFleetOpsVerbs:
    def test_drain_under_load_loses_no_accepted_work(self):
        cluster, service, generator = make_fleet()
        service.schedule_op(ms(3), "drain", node_name="node0")
        result = service.serve(generator.generate(60))
        counts = result.outcome_counts()
        assert counts.get("failed_by_fault", 0) == 0
        assert result.availability() == 1.0
        assert counts.get("migrated_completed", 0) > 0
        node = cluster.node("node0")
        assert node.cordoned and node.resident == 0

    def test_cordoned_node_receives_no_placements(self):
        cluster, service, generator = make_fleet()
        service.ops.cordon("node0")
        service.serve(generator.generate(30))
        assert cluster.node("node0").resident == 0

    def test_rebalance_is_safe_under_load(self):
        _cluster, service, generator = make_fleet()
        service.schedule_op(ms(4), "rebalance")
        result = service.serve(generator.generate(60))
        assert result.availability() == 1.0
        assert result.outcome_counts().get("failed_by_fault", 0) == 0

    def test_migration_emits_span_category(self):
        from repro.telemetry.tracer import install_tracer, uninstall_tracer

        tracer = install_tracer()
        try:
            _cluster, service, generator = make_fleet()
            service.schedule_op(ms(3), "drain", node_name="node0")
            result = service.serve(generator.generate(60))
            assert result.outcome_counts().get("migrated_completed", 0) > 0
            assert "hv.migration" in tracer.span_categories()
        finally:
            uninstall_tracer()

    def test_op_observer_receives_typed_reports(self):
        # The serving loop discards scheduled-verb reports; op_observer is
        # the supported way to see them (the fuzz oracle records migration
        # checkpoint digests through it).
        _cluster, service, generator = make_fleet()
        seen = []
        service.op_observer = lambda verb, report, now_ps: seen.append(
            (verb, report, now_ps)
        )
        service.schedule_op(ms(3), "drain", node_name="node0")
        service.serve(generator.generate(60))
        assert [verb for verb, _r, _n in seen] == ["drain"]
        verb, report, now_ps = seen[0]
        assert now_ps == ms(3)
        assert report.node == "node0" and report.clean
        assert all(outcome.checkpoint_digest for outcome in report.migrated)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


AUTOSCALE_ARGS = (
    "chaos", "fleet", "--plan", "single-node-crash",
    "--nodes", "4", "--requests", "40", "--autoscale", "1", "--json",
)


class TestAutoscalerDeterminism:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_envelope_identical_serial_vs_sharded(self, capsys, seed):
        code, serial = run_cli(capsys, *AUTOSCALE_ARGS, "--seed", str(seed))
        assert code == 0
        envelope = json.loads(serial)
        assert envelope["params"]["autoscale_standby"] == 1
        assert "autoscaler" in envelope["results"]
        code, sharded = run_cli(
            capsys, *AUTOSCALE_ARGS, "--seed", str(seed), "--shards", "2"
        )
        assert code == 0
        assert sharded == serial  # byte-identical, not just equivalent

    def test_drained_envelope_stable_across_repeats(self, capsys):
        args = (
            "chaos", "fleet", "--plan", "crash-quick", "--nodes", "4",
            "--requests", "40", "--drain-node", "node1", "--drain-at-ms", "3",
            "--json",
        )
        code, first = run_cli(capsys, *args)
        assert code == 0
        code, second = run_cli(capsys, *args)
        assert code == 0
        assert first == second
        params = json.loads(first)["params"]
        assert params["drain_node"] == "node1"
        assert params["drain_at_ms"] == 3


class TestProactiveEvacuationAcceptance:
    def test_strictly_fewer_failures_than_reactive(self):
        from repro.experiments import migration_recovery

        table = migration_recovery.quick()
        rows = {row[0]: row for row in table.rows}
        failed = table.columns.index("failed")
        migrated = table.columns.index("migrated")
        assert rows["proactive"][failed] < rows["reactive"][failed]
        assert rows["proactive"][migrated] > 0

"""Tests for the coordinator -> shard op stream.

Three layers:

* the binary codec (:mod:`repro.parallel.opstream`) — round trips,
  persistent intern/epoch state across frames, the pickle cold tail,
  and the compactness claim the bench rests on;
* the op-stream ledger (:class:`OpStreamStats`) a sharded run reports
  beside its envelope;
* the whole protocol under the heaviest fleet writes — autoscaler
  evacuations during a chaos plan — byte-identical to serial.
"""

import json
import pickle

import pytest

from repro.parallel.opstream import (
    FrameDecoder,
    FrameEncoder,
    decode_frame,
    encode_frame,
)


# -- binary codec --------------------------------------------------------------


HOT_BATCH = [
    (0, 1_000_000, "place", ("t00001", "aes", 2, False)),
    (0, 1_000_000, "place", ("t00002", "aes", 3, True)),
    (1, 2_500_000, "evict", ("t00001",)),
    (0, 2_000_000, "cordon", ()),  # negative epoch delta vs previous op
    (0, 2_000_000, "uncordon", ()),
    (1, 3_000_000, "crash", ()),
    (1, 3_500_000, "recover", ()),
    (0, 4_000_000, "degrade", (0.25,)),
    (0, 4_000_000, "restore", ()),
    (0, 4_500_000, "bump_auditor", (2, "mmio_writes", 7)),
]


class TestFrameCodec:
    def test_hot_batch_round_trips(self):
        assert decode_frame(encode_frame(HOT_BATCH)) == HOT_BATCH

    def test_cold_tail_falls_back_to_pickle(self):
        batch = [(0, 1, "restore_tenant", ({"any": "payload"}, 4, False))]
        assert decode_frame(encode_frame(batch)) == batch
        # Unknown future ops survive the codec too.
        weird = [(3, 9, "weird_op", (("nested",), {"k": 2}))]
        assert decode_frame(encode_frame(weird)) == weird

    def test_state_persists_across_frames(self):
        encoder, decoder = FrameEncoder(), FrameDecoder()
        first = [(0, 10_000_000, "place", ("t00001", "aes", 0, False))]
        second = [(0, 10_500_000, "evict", ("t00001",))]
        frame_a = encoder.encode(first)
        frame_b = encoder.encode(second)
        assert decoder.decode(frame_a) == first
        assert decoder.decode(frame_b) == second
        # The tenant name shipped once (frame A); frame B is an op head
        # (code + node + epoch delta) plus a 1-byte intern ref.
        assert len(frame_b) <= 8

    def test_interning_makes_repeats_cheap(self):
        repeats = [(0, 1000 + i, "evict", ("a-long-tenant-name",)) for i in range(8)]
        frame = encode_frame(repeats)
        once = encode_frame(repeats[:1])
        # 7 extra evictions cost a few bytes each, not 7 more names.
        assert len(frame) < len(once) + 7 * 5

    def test_binary_beats_pickle_on_hot_ops(self):
        frame = encode_frame(HOT_BATCH)
        blob = pickle.dumps(HOT_BATCH, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(frame) * 3 < len(blob)

    def test_decoding_frames_out_of_order_is_detected_by_content(self):
        # Frames must decode in ship order; the intern table makes a
        # skipped frame loud (missing reference) rather than silent.
        encoder = FrameEncoder()
        encoder.encode([(0, 1, "place", ("t00001", "aes", 0, False))])
        frame_b = encoder.encode([(0, 2, "evict", ("t00001",))])
        with pytest.raises((IndexError, ValueError)):
            FrameDecoder().decode(frame_b)


# -- op-stream ledger ----------------------------------------------------------


class TestOpStreamStats:
    def test_sharded_run_reports_the_ledger(self):
        from repro.experiments.fleet_scaling import serve_fleet

        stats: dict = {}
        serve_fleet(3, 0.5, requests=60, reference_nodes=3, shards=2,
                    opstream_stats=stats)
        assert set(stats) == {
            "messages", "frames", "frame_bytes", "ops", "flushes",
            "gathers", "gather_cache_hits", "barrier_stall_s", "stall_waits",
        }
        assert 0 < stats["frames"] <= stats["ops"]
        assert stats["frame_bytes"] > stats["frames"]
        # Every control message (the serve-end sync, one per shard) is
        # answered by exactly one awaited ack.
        assert stats["stall_waits"] == 2
        assert stats["messages"] == stats["frames"] + stats["stall_waits"]


# -- whole protocol ------------------------------------------------------------


def _summary_bytes(summary) -> str:
    return json.dumps(summary, sort_keys=True, default=str)


class TestAutoscaleDuringChaos:
    def test_sharded_run_matches_serial(self):
        # Autoscaler evacuations and a drain land mid-plan: checkpoints,
        # migrations and crashes all ride the op stream, interleaved with
        # arrivals.  At the end, every slot ledger (the serial providers',
        # the coordinator's shadows) equals the real stacks' run queues,
        # both right after the drain and at run end.
        sharded, sharded_ledgers = _chaos_autoscale_run(shards=2)
        serial, serial_ledgers = _chaos_autoscale_run(shards=1)
        assert sharded == serial
        assert '"migrated_completed"' in sharded, "no evacuation happened"
        assert '"drains": 1' in sharded, "the drain did not run"
        assert sharded_ledgers == [] and serial_ledgers == []


def _chaos_autoscale_run(*, shards):
    from repro.faults import resolve_plan
    from repro.fleet import (
        AutoscaleConfig,
        FleetCluster,
        FleetService,
        TrafficGenerator,
        TrafficProfile,
        make_policy,
    )
    from repro.scenario.properties import check_ledger
    from repro.sim.clock import ms

    if shards > 1:
        from repro.parallel import ShardedFleetCluster, ShardedFleetService

        cluster = ShardedFleetCluster.build(3, shards=shards)
        service_cls = ShardedFleetService
    else:
        cluster = FleetCluster.build(3)
        service_cls = FleetService
    try:
        generator = TrafficGenerator(
            TrafficProfile(load=0.85),
            fleet_slots=cluster.total_slots,
            seed=1,
        )
        service = service_cls(cluster, make_policy("best-fit"))
        service.install_faults(resolve_plan("degrade-crash"))
        service.install_autoscaler(AutoscaleConfig(standby_nodes=("node2",)))
        service.schedule_op(ms(3), "drain", node_name="node1")
        problems = []

        def check_ledgers(verb, report, now_ps):
            # Mid-run, with tenants resident: a non-trivial comparison.
            ledgers = {n.name: list(n.ledger.slot_occupancy) for n in cluster.nodes}
            assert sum(map(sum, ledgers.values())) > 0
            problems.extend(check_ledger(ledgers, cluster.occupancy_report()))

        service.op_observer = check_ledgers
        result = service.serve(generator.generate(60))
        occupancy = cluster.occupancy_report()
        ledgers = {node.name: node.ledger.slot_occupancy for node in cluster.nodes}
        problems.extend(check_ledger(ledgers, occupancy))
        summary = _summary_bytes(
            {
                "summary": result.summary(),
                "outcomes": dict(result.outcomes),
                "nodes": cluster.simulated_report(),
                "metrics": cluster.metrics_snapshot(),
                "occupancy": occupancy,
            }
        )
        return summary, problems
    finally:
        if shards > 1:
            cluster.close()

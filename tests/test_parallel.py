"""Tests for ``repro.parallel``: pool, epoch engine, sharded determinism.

The load-bearing guarantee of the sharded fleet executor is that results
are **byte-identical** to serial execution — same ``--json`` envelopes,
same metric summaries, same trace files — at any shard count.  These
tests byte-compare real CLI output and real merged traces across shard
counts and seeds, plus unit-test the pieces (worker pool, dispatch
heuristic, epoch engine entry point, shadow verification plumbing).
"""

import contextlib
import json
import os
import signal
import time

import pytest

from repro import __main__ as cli
from repro.errors import SimulationError
from repro.sim import Engine


# -- the persistent worker pool ------------------------------------------------


def _square(value):
    return value * value


def _fail_on_three(value):
    if value == 3:
        raise ValueError("three is right out")
    return value


class TestWorkerPool:
    def test_map_returns_results_in_item_order(self):
        from repro.parallel import WorkerPool

        with WorkerPool(2) as pool:
            assert pool.map(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_pool_survives_across_map_calls(self):
        from repro.parallel import WorkerPool

        with WorkerPool(2) as pool:
            first = pool.map(_square, list(range(6)))
            second = pool.map(_square, list(range(6)))
            assert first == second == [v * v for v in range(6)]

    def test_worker_failure_reraises_with_traceback(self):
        from repro.parallel import WorkerPool

        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="three is right out"):
                pool.map(_fail_on_three, [1, 2, 3, 4])

    def test_shared_pool_reuses_and_grows(self):
        from repro.parallel import shared_pool, shutdown_shared_pool

        try:
            small = shared_pool(1)
            again = shared_pool(1)
            assert again is small
            grown = shared_pool(2)
            assert grown is not small
            assert grown.processes == 2
            # Asking for fewer workers never shrinks the pool.
            assert shared_pool(1) is grown
        finally:
            shutdown_shared_pool()


class TestDispatchPlan:
    def test_serial_when_jobs_is_one(self):
        from repro.parallel import dispatch_plan

        assert dispatch_plan(10.0, 100, jobs=1) is False

    def test_serial_when_cells_are_cheaper_than_dispatch(self):
        from repro.parallel import DISPATCH_OVERHEAD_S, dispatch_plan

        assert dispatch_plan(DISPATCH_OVERHEAD_S / 10, 100, jobs=4) is False

    def test_parallel_when_the_budget_clears(self):
        from repro.parallel import MIN_PARALLEL_BUDGET_S, dispatch_plan

        probe = MIN_PARALLEL_BUDGET_S  # one cell alone clears the budget
        assert dispatch_plan(probe, 4, jobs=4) is True

    def test_serial_when_total_work_is_too_small(self):
        from repro.parallel import DISPATCH_OVERHEAD_S, dispatch_plan

        # Cells clear the per-cell bar but there is only one of them.
        assert dispatch_plan(DISPATCH_OVERHEAD_S * 1.5, 1, jobs=8) is False


# -- the checkpointable epoch entry point --------------------------------------


class TestRunEpoch:
    def test_drains_only_events_inside_the_epoch(self):
        engine = Engine()
        fired = []
        for t in (100, 200, 300, 400):
            engine.call_at(t, fired.append, t)
        processed, next_ps = engine.run_epoch(250)
        assert fired == [100, 200]
        assert processed == 2
        assert next_ps == 300
        assert engine.now == 200  # not forced forward to the epoch edge

    def test_resumes_exactly_where_it_stopped(self):
        engine = Engine()
        fired = []
        for t in (100, 300):
            engine.call_at(t, fired.append, t)
        engine.run_epoch(150)
        processed, next_ps = engine.run_epoch(1000)
        assert fired == [100, 300]
        assert processed == 1
        assert next_ps is None

    def test_empty_epoch_leaves_clock_alone(self):
        engine = Engine()
        engine.call_at(500, lambda: None)
        processed, next_ps = engine.run_epoch(400)
        assert processed == 0 and next_ps == 500 and engine.now == 0

    def test_epoch_behind_the_clock_raises(self):
        engine = Engine()
        engine.call_at(100, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.run_epoch(50)

    def test_events_scheduled_during_epoch_run_inside_it(self):
        engine = Engine()
        fired = []
        engine.call_at(100, lambda: engine.call_at(150, fired.append, "nested"))
        engine.run_epoch(200)
        assert fired == ["nested"]


# -- trace merge plumbing ------------------------------------------------------


class TestTracerMerge:
    def test_reserve_pids_claims_a_block(self):
        from repro.telemetry.tracer import Tracer

        tracer = Tracer()
        first = tracer.reserve_pids(3)
        assert first == 1
        scope = tracer.scope("after")
        assert scope.pid == 4

    def test_ingest_remaps_pids(self):
        from repro.telemetry.tracer import Tracer

        coordinator = Tracer()
        coordinator.reserve_pids(2)
        worker = Tracer()
        worker.scope("sim").instant("evt", 10)
        coordinator.ingest(worker.export_events(), pid_map={1: 2})
        pids = {event["pid"] for event in coordinator.to_chrome()["traceEvents"]}
        assert pids == {2}

    def test_merged_trace_serializes_identically_to_direct_emission(self):
        from repro.telemetry.tracer import Tracer

        direct = Tracer()
        direct.scope("a").instant("x", 5)
        direct.scope("b").instant("y", 7)

        merged = Tracer()
        merged.reserve_pids(2)
        worker_a, worker_b = Tracer(), Tracer()
        worker_a.scope("a").instant("x", 5)
        worker_b.scope("b").instant("y", 7)
        merged.ingest(worker_a.export_events(), pid_map={1: 1})
        merged.ingest(worker_b.export_events(), pid_map={1: 2})
        assert merged.to_json() == direct.to_json()


# -- byte-identical sharded execution ------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


FLEET_ARGS = ("fleet", "--nodes", "4", "--requests", "48", "--json")
CHAOS_ARGS = (
    "chaos", "fleet", "--plan", "single-node-crash",
    "--requests", "40", "--json",
)


#: The shard counts every envelope must survive unchanged.
SHARD_MATRIX = [2, 3]


class TestShardedByteIdentity:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_fleet_envelope_identical_across_shard_counts(self, capsys, seed):
        code, serial = run_cli(capsys, *FLEET_ARGS, "--seed", str(seed))
        assert code == 0
        for shards in SHARD_MATRIX:
            code, sharded = run_cli(
                capsys, *FLEET_ARGS, "--seed", str(seed), "--shards", str(shards)
            )
            assert code == 0
            assert sharded == serial  # byte-identical, not just equivalent

    @pytest.mark.parametrize("seed", [1, 2])
    def test_chaos_envelope_identical_across_shard_counts(self, capsys, seed):
        code, serial = run_cli(capsys, *CHAOS_ARGS, "--seed", str(seed))
        assert code == 0
        for shards in SHARD_MATRIX:
            code, sharded = run_cli(
                capsys, *CHAOS_ARGS, "--seed", str(seed), "--shards", str(shards)
            )
            assert code == 0
            assert sharded == serial

    @pytest.mark.parametrize("argv", [
        ("fleet", "--nodes", "1", "--requests", "24"),
        ("serve", "--quick", "--nodes", "1", "--sessions", "120"),
        ("chaos", "fleet", "--nodes", "1", "--plan", "single-node-crash",
         "--requests", "24"),
    ], ids=["fleet", "serve", "chaos"])
    def test_single_node_fleet_bypasses_the_fork_pool(self, capsys, argv):
        # --shards on a 1-node fleet degenerates to the serial path:
        # identical envelope, and no ShardedFleetCluster is ever built.
        import repro.parallel.executor as executor

        code, serial = run_cli(capsys, *argv, "--json")
        assert code == 0
        built = []
        original = executor.ShardedFleetCluster.__init__

        def spy(self, *args, **kwargs):
            built.append(True)
            return original(self, *args, **kwargs)

        executor.ShardedFleetCluster.__init__ = spy
        try:
            code, sharded = run_cli(capsys, *argv, "--json", "--shards", "4")
        finally:
            executor.ShardedFleetCluster.__init__ = original
        assert code == 0
        assert sharded == serial
        assert built == []

    def test_fleet_envelope_reports_per_node_simulated_time(self, capsys):
        code, out = run_cli(capsys, *FLEET_ARGS, "--seed", "1")
        assert code == 0
        nodes = json.loads(out)["results"]["nodes"]
        assert set(nodes) == {f"node{i}" for i in range(4)}
        assert all("simulated_ps" in report for report in nodes.values())


def _serve_traced(shards, *, seed, with_faults):
    from repro.faults import resolve_plan
    from repro.fleet import (
        FleetService,
        TrafficGenerator,
        TrafficProfile,
        build_cluster,
        make_policy,
    )
    from repro.telemetry.tracer import install_tracer, uninstall_tracer

    tracer = install_tracer()
    try:
        with build_cluster(3, shards=shards) as cluster:
            generator = TrafficGenerator(
                TrafficProfile(load=0.85),
                fleet_slots=cluster.total_slots,
                seed=seed,
            )
            service = FleetService(cluster, make_policy("best-fit"))
            if with_faults:
                service.install_faults(resolve_plan("single-node-crash"))
            result = service.serve(generator.generate(36))
            summary = result.summary()
            snapshot = cluster.metrics_snapshot()
        tracer.finalize()
        return tracer.to_json(), summary, snapshot
    finally:
        uninstall_tracer()


class TestShardedTraces:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("with_faults", [False, True])
    def test_trace_files_identical_across_shard_counts(self, seed, with_faults):
        serial_trace, serial_summary, serial_snapshot = _serve_traced(
            1, seed=seed, with_faults=with_faults
        )
        for shards in SHARD_MATRIX:
            trace, summary, snapshot = _serve_traced(
                shards, seed=seed, with_faults=with_faults
            )
            assert trace == serial_trace
            assert summary == serial_summary
            assert snapshot == serial_snapshot


class TestBuildCluster:
    @pytest.mark.parametrize("n_nodes, shards", [(1, 1), (1, 4), (4, 1)])
    def test_one_node_or_one_shard_is_serial(self, n_nodes, shards):
        from repro.fleet import FleetCluster, build_cluster

        with build_cluster(n_nodes, shards=shards) as cluster:
            assert type(cluster) is FleetCluster
            assert len(cluster.nodes) == n_nodes

    @pytest.mark.parametrize("n_nodes, shards", [(2, 2), (3, 2), (4, 3)])
    def test_several_nodes_and_shards_are_sharded(self, n_nodes, shards):
        from repro.fleet import build_cluster
        from repro.parallel import ShardedFleetCluster

        with build_cluster(n_nodes, shards=shards) as cluster:
            assert type(cluster) is ShardedFleetCluster
            assert cluster.shards == min(shards, n_nodes)
            assert len(cluster.nodes) == n_nodes

    def test_passes_the_fleet_shape_through(self):
        from repro.fleet import build_cluster

        templates = [("AES", "SHA"), ("MD5",)]
        for shards in (1, 2):
            with build_cluster(
                3, shards=shards, templates=templates, max_oversub=3
            ) as cluster:
                assert [list(n.configuration.slots) for n in cluster.nodes] == [
                    ["AES", "SHA"], ["MD5"], ["AES", "SHA"],
                ]
                assert {n.max_oversub for n in cluster.nodes} == {3}

    def test_both_kinds_are_context_managers(self):
        from repro.fleet import build_cluster

        with build_cluster(2) as serial:
            assert serial.opstream_stats() == {}
            serial.advance_epoch(1)
            serial.settle()
        serial.close()  # closing again is harmless
        with build_cluster(2, shards=2) as sharded:
            assert sharded.opstream_stats()["messages"] == 0
            processes = [shard.process for shard in sharded._shards]
            assert all(process.is_alive() for process in processes)
        assert not any(process.is_alive() for process in processes)


class TestShardedClusterSurface:
    def test_shards_clamp_to_node_count(self):
        from repro.parallel import ShardedFleetCluster

        with ShardedFleetCluster.build(2, shards=8) as cluster:
            assert cluster.shards == 2
            assert len(cluster.nodes) == 2

    def test_close_is_idempotent(self):
        from repro.parallel import ShardedFleetCluster

        cluster = ShardedFleetCluster.build(1, shards=1)
        cluster.close()
        cluster.close()

    def test_divergence_is_detected_at_the_barrier(self):
        from repro.parallel import ShardedFleetCluster

        cluster = ShardedFleetCluster.build(1, shards=1)
        try:
            node = cluster.nodes[0]
            accel = node.configuration.slots[0]
            candidates = node.configuration.slots_of_type(accel)
            assert len(candidates) > 1  # default template has two AES slots
            # Corrupt the shadow bookkeeping so it predicts a different
            # slot than the real provider will pick: count a phantom
            # tenant on the lowest-index candidate, skewing the
            # least-occupied selection.
            node.ledger.add(min(candidates))
            cluster.place("tenant0", accel, _FirstSlotPolicy())
            with pytest.raises(RuntimeError, match="diverged"):
                cluster.barrier()
        finally:
            cluster.close()


class _FirstSlotPolicy:
    def choose(self, nodes, accel_type):
        return nodes[0]


# -- a dead shard worker fails loudly ------------------------------------------


@contextlib.contextmanager
def _deadline(seconds=30):
    """Turn a hang into a test failure (SIGALRM in the main thread)."""

    def expire(signum, frame):
        raise TimeoutError(f"no ShardWorkerError within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _kill_worker_after(monkeypatch, epochs):
    """SIGKILL shard 0's worker once the fleet clock has advanced
    ``epochs`` times; returns the kill timestamps (perf_counter)."""
    from repro.parallel import ShardedFleetCluster

    original = ShardedFleetCluster.advance_epoch
    calls = []
    killed = []

    def advance_then_kill(self, epoch_ps):
        calls.append(epoch_ps)
        if len(calls) == epochs:
            os.kill(self._shards[0].process.pid, signal.SIGKILL)
            killed.append(time.perf_counter())
        return original(self, epoch_ps)

    monkeypatch.setattr(ShardedFleetCluster, "advance_epoch", advance_then_kill)
    return killed


class TestDeadWorker:
    def test_killed_worker_raises_a_typed_error_mid_serve(self, monkeypatch):
        from repro.errors import ShardWorkerError
        from repro.fleet import (
            FleetService,
            TrafficGenerator,
            TrafficProfile,
            make_policy,
        )
        from repro.parallel import ShardedFleetCluster

        killed = _kill_worker_after(monkeypatch, 20)
        with _deadline():
            with ShardedFleetCluster.build(3, shards=2) as cluster:
                generator = TrafficGenerator(
                    TrafficProfile(load=0.85),
                    fleet_slots=cluster.total_slots,
                    seed=1,
                )
                service = FleetService(cluster, make_policy("best-fit"))
                with pytest.raises(ShardWorkerError) as info:
                    service.serve(generator.generate(120))
                assert killed, "the serve finished before the kill"
                assert time.perf_counter() - killed[0] < 5.0
        error = info.value
        assert (error.shard, error.nodes, error.exitcode) == (
            0, ("node0", "node2"), -signal.SIGKILL,
        )
        assert "shard worker 0 (nodes node0, node2)" in str(error)
        assert f"exit code {-signal.SIGKILL}" in str(error)

    @pytest.mark.parametrize("argv", [
        ("fleet", "--nodes", "4", "--requests", "48"),
        ("serve", "--quick"),
        ("chaos", "fleet", "--plan", "single-node-crash", "--requests", "40"),
    ], ids=["fleet", "serve", "chaos"])
    def test_cli_exits_2_without_a_traceback(self, capsys, monkeypatch, argv):
        _kill_worker_after(monkeypatch, 10)
        with _deadline():
            code = cli.main([*argv, "--shards", "2", "--json"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{argv[0]}: error: shard worker 0 (nodes node0" in err
        assert f"died with exit code {-signal.SIGKILL}" in err
        assert "Traceback" not in err

    def test_worker_dying_during_build_raises(self, monkeypatch):
        from repro.errors import ShardWorkerError
        from repro.fleet.node import FleetNode
        from repro.parallel import ShardedFleetCluster

        # Patched before the fork, so only the workers run it.
        monkeypatch.setattr(FleetNode, "__init__", lambda *a, **k: os._exit(4))
        with _deadline(), pytest.raises(ShardWorkerError) as info:
            ShardedFleetCluster.build(2, shards=2)
        assert (info.value.shard, info.value.exitcode) == (0, 4)

    def test_worker_dying_before_its_ack_raises(self, monkeypatch):
        import repro.parallel.shard as shard
        from repro.errors import ShardWorkerError
        from repro.parallel import ShardedFleetCluster

        def die_slowly(node, op, payload):
            time.sleep(0.3)  # long enough for the sync to be posted
            os._exit(3)

        monkeypatch.setattr(shard, "_apply", die_slowly)
        with _deadline(), ShardedFleetCluster.build(2, shards=2) as cluster:
            accel = cluster.nodes[0].configuration.slots[0]
            cluster.place("tenant0", accel, _FirstSlotPolicy())
            with pytest.raises(ShardWorkerError) as info:
                cluster.barrier()
        assert (info.value.shard, info.value.nodes, info.value.exitcode) == (
            0, ("node0",), 3,
        )

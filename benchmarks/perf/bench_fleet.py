"""Fleet wall-clock benchmark — sharded execution, op stream, cache.

Measures, on this machine:

* serial vs sharded wall clock for one fleet-scaling cell at 1/2/4/8
  nodes (median of 3 runs each), asserting the summaries are identical
  while timing (the determinism suite proves byte-identity in depth);
* the op-stream protocol itself: messages and encoded bytes shipped,
  bytes per placement, and barrier-stall time and its share of the
  sharded wall clock;
* the observation surfaces: stall cost of repeated gather rounds
  (three summary surfaces per round, one memoized round trip);
* a fleet-scaling sweep with the content-addressed result cache, cold
  (every cell computed and stored) then warm (every cell a hit) — the
  warm run must return the identical table.

Sharding distributes per-node *build* and *apply* work (platform
synthesis, placement/eviction against real hypervisor stacks) across
worker processes; the coordinator's shadow bookkeeping keeps the serving
loop itself serial and deterministic.  Wall-clock wins therefore require
real CPUs: on a 1-CPU container the workers time-slice one core and the
IPC overhead makes sharded runs *slower* — ``cpu_count`` is recorded
alongside so the numbers read honestly (the same methodology as
``BENCH_simulator.json``'s ``--jobs`` rows).  Op-stream counts and
bytes are protocol properties and hold on any host; the cache speedup
is CPU-independent (a warm sweep simulates nothing).

A single node degenerates to the serial path by construction (there is
nothing to partition), so the 1-node row reports speedup 1.0 by
definition instead of the old fork-pool overhead.

Results are written to ``BENCH_fleet.json`` so successive PRs can diff
wall-clock numbers.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_fleet.py [--quick]
        [--shards N] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.experiments import fleet_scaling  # noqa: E402
from repro.experiments.cache import install_cache, uninstall_cache  # noqa: E402

REPEATS = 3


def _time_serve(n_nodes: int, *, requests: int, shards: int):
    """Median-of-``REPEATS`` wall clock for one cell.

    Returns ``(median_s, summary, opstream_stats)``; the summary and the
    (deterministic) op-stream ledger are identical across repeats, so
    the last one is as good as any.
    """
    timings = []
    summary = None
    stats: dict = {}
    for _ in range(REPEATS):
        stats = {}
        start = time.perf_counter()
        summary = fleet_scaling.serve_fleet(
            n_nodes,
            0.9,
            requests=requests,
            reference_nodes=n_nodes,
            shards=shards,
            opstream_stats=stats,
        )
        timings.append(time.perf_counter() - start)
    return statistics.median(timings), summary, stats


def _opstream_row(stats: dict, placements: int, wall_s: float) -> dict:
    """The bench-facing slice of one run's op-stream ledger."""
    if not stats:  # serial run: no op stream at all
        return {}
    stall_s = stats["barrier_stall_s"]
    return {
        "messages": stats["messages"],
        "frames": stats["frames"],
        "frame_bytes": stats["frame_bytes"],
        "bytes_per_placement": round(stats["frame_bytes"] / max(placements, 1), 1),
        "barrier_stall_s": round(stall_s, 4),
        "stall_share": round(stall_s / wall_s, 4) if wall_s else 0.0,
        "stall_waits": stats["stall_waits"],
        "gathers": stats["gathers"],
        "gather_cache_hits": stats["gather_cache_hits"],
    }


def bench_sharding(shards: int, quick: bool) -> dict:
    node_counts = [1, 2, 4] if quick else [1, 2, 4, 8]
    requests = 60 if quick else 160
    rows = []
    for n_nodes in node_counts:
        serial_s, serial_summary, _ = _time_serve(
            n_nodes, requests=requests, shards=1
        )
        sharded_s, sharded_summary, sharded_stats = _time_serve(
            n_nodes, requests=requests, shards=shards
        )
        assert sharded_summary == serial_summary, (
            f"sharded summary diverged at {n_nodes} nodes"
        )
        placements = serial_summary["placements"]
        rows.append({
            "nodes": n_nodes,
            "shards": min(shards, n_nodes),
            "serial_s": round(serial_s, 3),
            "sharded_s": round(sharded_s, 3),
            "speedup": round(serial_s / sharded_s, 2),
            "placements": placements,
            "opstream": _opstream_row(sharded_stats, placements, sharded_s),
        })
    return {"requests": requests, "rows": rows}


def bench_observation(shards: int, quick: bool) -> dict:
    """Barrier-stall cost of the observation surfaces.

    Every round calls the three summary surfaces (``simulated_report`` /
    ``metrics_snapshot`` / ``occupancy_report``); the gather is memoized
    on the op stream, so a round costs one round trip, and metric
    snapshots ship as deltas.  This probe serves one trace, then times
    observation rounds and reports stall seconds, stall share, and the
    deterministic round-trip counts.
    """
    from repro.fleet import (
        AdmissionConfig,
        FleetService,
        TrafficGenerator,
        TrafficProfile,
        build_cluster,
        make_policy,
    )

    n_nodes = 4
    requests = 60 if quick else 160
    rounds = 6 if quick else 12
    with build_cluster(n_nodes, shards=shards) as cluster:
        generator = TrafficGenerator(
            TrafficProfile(load=0.9),
            fleet_slots=cluster.total_slots,
            seed=7,
        )
        service = FleetService(
            cluster,
            make_policy("best-fit"),
            admission=AdmissionConfig(queue_limit=16),
        )
        start = time.perf_counter()
        service.serve(generator.generate(requests))
        serve_s = time.perf_counter() - start
        before = cluster.opstream_stats()
        start = time.perf_counter()
        for _ in range(rounds):
            cluster.simulated_report()
            cluster.metrics_snapshot()
            cluster.occupancy_report()
            # A monitoring loop sees new ops between rounds; emulate
            # by dropping the memo so each round re-observes.
            cluster._gather_cache = None
        probe_s = time.perf_counter() - start
        after = cluster.opstream_stats()
    # Share of the whole observed run (serve + monitoring rounds) spent
    # blocked on worker acks: the denominator includes the serving work
    # a real run does, so the share is meaningful.
    wall_s = serve_s + probe_s
    stall_s = after["barrier_stall_s"]
    return {
        "nodes": n_nodes,
        "shards": shards,
        "rounds": rounds,
        "surfaces_per_round": 3,
        "serve_s": round(serve_s, 4),
        "probe_s": round(probe_s, 4),
        "stall_s": round(stall_s, 4),
        "stall_share": round(stall_s / wall_s, 4) if wall_s else 0.0,
        "probe_stall_s": round(stall_s - before["barrier_stall_s"], 4),
        "stall_waits": after["stall_waits"] - before["stall_waits"],
        "gathers": after["gathers"] - before["gathers"],
        "gather_cache_hits": (
            after["gather_cache_hits"] - before["gather_cache_hits"]
        ),
    }


def bench_cache(quick: bool) -> dict:
    grid = {
        "node_counts": [1, 2] if quick else [1, 2, 4],
        "loads": [0.6] if quick else [0.6, 1.5],
        "requests": 48 if quick else 160,
    }
    with tempfile.TemporaryDirectory(prefix="bench-fleet-cache-") as directory:
        cache = install_cache(directory)
        try:
            start = time.perf_counter()
            cold_table = fleet_scaling.run(**grid)
            cold_s = time.perf_counter() - start
            assert cache.hits == 0 and cache.stores > 0

            start = time.perf_counter()
            warm_table = fleet_scaling.run(**grid)
            warm_s = time.perf_counter() - start
            assert cache.misses == cache.stores, "warm sweep recomputed cells"
            assert warm_table.to_dict() == cold_table.to_dict(), (
                "warm sweep returned a different table"
            )
            summary = cache.summary()
        finally:
            uninstall_cache()
    return {
        "grid": grid,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup_warm": round(cold_s / warm_s, 1),
        "cells": summary["stores"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--quick", action="store_true", help="CI-sized grids")
    parser.add_argument("--output", default="BENCH_fleet.json")
    args = parser.parse_args()

    results = {
        "quick": args.quick,
        "cpu_count": os.cpu_count(),
        "methodology": (
            "median of 3 runs per cell; sharded speedup scales with real "
            "CPUs; on a 1-CPU host the shard workers time-slice one core "
            "and IPC overhead dominates, so speedup < 1 there is expected "
            "and recorded honestly. Op-stream bytes and message counts are "
            "deterministic protocol properties; barrier_stall_s is wall "
            "clock. Summaries are asserted identical serial vs sharded, "
            "and cold vs warm, while timing."
        ),
        "sharding": bench_sharding(args.shards, args.quick),
        # The observation probe measures the sharded surfaces: always 2
        # shards, since build_cluster runs one shard serially.
        "observation": bench_observation(2, args.quick),
        "cache": bench_cache(args.quick),
    }
    Path(args.output).write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    main()

"""Run one workload of the benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload optimus_stream --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve_slo --trace 1 --out results.jsonl

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer metrics, from units run under
:class:`layertrace.LayerTrace`.  The line before it is the run record
(host, source digest, seed, per-unit samples); ``--out FILE`` appends
that record to ``FILE`` for ``compare.py``.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform as host_platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The seed whose output digests are pinned in ``digests.json``.
DEFAULT_SEED = 0
#: Units measured per run at the least, however short ``--seconds`` is.
MIN_UNITS = 3
#: Size of the host-speed probe run between units.
CALIBRATION_EVENTS = 100_000
#: The probe's time on the reference host (2-vCPU Xeon VM, Python 3.11)
#: when it is not contended; the host speed of a unit is this over the
#: probe time measured beside it.
REFERENCE_PROBE_S = 0.080
#: How strongly unit times follow the probe under contention: the slope
#: of log(unit time) on log(probe time), 0.60-0.66 for the single-process
#: workloads over 412 units on the reference host.  Units are scaled by
#: host speed ** HOST_ELASTICITY.
HOST_ELASTICITY = 0.6
#: Traced units per traced run at the least (their counts must repeat).
MIN_TRACED_UNITS = 2


def _fail(message: str) -> "NoReturn":  # noqa: F821
    print(f"perfbench: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import layertrace  # noqa: E402
    import workloads  # noqa: E402

    return workloads, layertrace


def host_record() -> dict:
    cpu = host_platform.processor() or host_platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    from repro.experiments.cache import source_tree_digest

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": host_platform.python_version(),
        "source_digest": source_tree_digest(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class Unit:
    """One repetition: set-up, run and the digest of its outputs."""

    def __init__(self, workload, seed: int, trace=None) -> None:
        if trace is not None:
            trace.reset()
        started = time.perf_counter()
        built = workload.build(seed)
        try:
            self.setup_s = time.perf_counter() - started
            began = time.perf_counter()
            self.outputs = workload.execute(built)
            self.run_s = time.perf_counter() - began
        finally:
            workload.close(built)
        self.wall_s = time.perf_counter() - started
        self.digest = self.outputs.digest
        if trace is not None:
            trace.merge_children()
        #: Reference probe time over the probe time around this unit.
        self.host_speed = 1.0
        #: Per-layer metrics (traced units only).
        self.layers: dict = {}


def calibration_probe() -> float:
    """Host seconds for a fixed event-loop-shaped piece of pure Python."""
    started = time.perf_counter()
    queue, table, sequence = [], {}, 0

    def callback(value):
        table[value & 1023] = table.get(value & 1023, 0) + value

    for i in range(CALIBRATION_EVENTS):
        sequence += 1
        heapq.heappush(queue, (i * 7 % 1000, sequence, callback, (i,)))
        if len(queue) > 64:
            event = heapq.heappop(queue)
            event[2](*event[3])
    return time.perf_counter() - started


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(trace, sim_ps: int) -> dict:
    """The per-layer metrics of one traced unit (counts and self times)."""
    counts = trace.counts
    metrics = {name: float(value) for name, value in counts.items()}
    sim_us = sim_ps / 1e6
    metrics["sim.events_per_sim_us"] = counts["sim.events"] / sim_us if sim_us else 0.0
    attempts = counts["platform.fastpath_attempts"]
    metrics["platform.fastpath_commit_ratio"] = (
        counts["platform.fastpath_commits"] / attempts if attempts else 0.0
    )
    translations = counts["mem.translations"]
    metrics["mem.iotlb_miss_ratio"] = (
        counts["mem.walks"] / translations if translations else 0.0
    )
    metrics["fleet.place_us_p50"] = _median(counts.samples)
    metrics["fleet.place_us_p99"] = _quantile(counts.samples, 0.99)
    for layer in trace.self_ns:
        total = trace.self_ns[layer] + trace.child_self_ns.get(layer, 0)
        if layer == "asyncio":
            metrics["serve.asyncio_s"] = total / 1e9
        else:
            metrics[f"{layer}.self_s"] = total / 1e9
    return metrics


#: Trace counts that the program also keeps itself: (trace metric, the
#: ``Outputs.counters`` key it must equal).  Checked on every traced unit.
CROSS_CHECKS = {
    "sim.events": "engine_run_events",
    "mem.walks": "iotlb_misses",
    "interconnect.packets": "link_packets",
    "interconnect.wire_bytes": "link_bytes",
    "platform.fastpath_commits": "fastpath_commits",
    "core.audits": "auditor_crossings",
    "fleet.placements": "placements",
    "fleet.migrations": "migrations",
    "parallel.messages": "messages",
    "parallel.frames": "frames",
    "parallel.frame_bytes": "frame_bytes",
    "parallel.stall_waits": "stall_waits",
}


def cross_check(metrics: dict, outputs) -> list:
    problems = []
    counters = outputs.counters
    for metric, key in CROSS_CHECKS.items():
        if key in counters and metrics[metric] != counters[key]:
            problems.append(
                f"trace {metric}={metrics[metric]:g} but the program counted "
                f"{key}={counters[key]}"
            )
    if "iotlb_accesses" in counters:
        expected = counters["iotlb_accesses"] + counters["iommu_faults"]
        if metrics["mem.translations"] != expected:
            problems.append(
                f"trace mem.translations={metrics['mem.translations']:g} but the "
                f"IOTLB saw {expected} accesses and faults"
            )
    return problems


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the run record (JSON line) to this file")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        _fail("--seconds must be >= 0")

    workloads, layertrace = _import_program()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}")
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        pinned = json.load(handle).get(args.workload) if args.seed == DEFAULT_SEED else None

    problems = []
    plain, traced = [], []
    peak_mb = 0.0
    # Warm-up unit: lazy imports and the program's memo tables fill here.
    # Its outputs are checked like every other unit's; its times are not kept.
    units = []
    child_dir = None
    trace = None
    if args.trace:
        child_dir = tempfile.mkdtemp(prefix=".perfbench-trace-", dir=ROOT)
        trace = layertrace.LayerTrace(child_dir=child_dir)
    try:
        units.append(Unit(workload, args.seed))
        probe_s = calibration_probe()
        deadline = time.perf_counter() + args.seconds
        while True:
            if trace is None:
                before = probe_s
                unit = Unit(workload, args.seed)
                probe_s = calibration_probe()
                unit.host_speed = REFERENCE_PROBE_S / ((before + probe_s) / 2)
                plain.append(unit)
                units.append(unit)
                enough = len(plain) >= MIN_UNITS
                if len(plain) == MIN_UNITS:
                    # Peak memory after a fixed amount of work, so that it
                    # does not grow with the number of units a run fits in.
                    peak_mb = peak_rss_mb()
            else:
                # Alternate untraced and traced units, so both see the same
                # host conditions; their ratio is the trace's overhead.
                plain.append(Unit(workload, args.seed))
                with trace:
                    unit = Unit(workload, args.seed, trace)
                unit.layers = layer_metrics(trace, unit.outputs.sim_ps)
                unit.layers["trace.overhead_x"] = unit.wall_s / plain[-1].wall_s
                traced.append(unit)
                units.extend((plain[-1], unit))
                problems.extend(cross_check(unit.layers, unit.outputs))
                # Spans nest, so this process's self times fit in its wall time.
                if sum(trace.self_ns.values()) / 1e9 > unit.wall_s:
                    problems.append("layer self times exceed the traced wall time")
                enough = len(traced) >= MIN_TRACED_UNITS
            if enough and time.perf_counter() >= deadline:
                break
    except Exception as error:  # the program raised: report, do not crash
        traceback.print_exc()
        problems.append(f"unit raised {type(error).__name__}: {error}")
    finally:
        if child_dir is not None:
            shutil.rmtree(child_dir, ignore_errors=True)

    # -- correctness ---------------------------------------------------------
    attempted = sum(unit.outputs.operations for unit in units)
    failed = sum(unit.outputs.failed_operations for unit in units)
    if problems and problems[-1].startswith("unit raised"):
        # The unit that raised attempted its whole workload and finished none.
        attempted += workload.operations
        failed += workload.operations
    for unit in units:
        problems.extend(unit.outputs.problems)
    digests = sorted({unit.digest for unit in units})
    expected = pinned or (units[0].digest if units else None)
    if len(digests) != 1 or digests[0] != expected:
        problems.append(f"output digest {digests} differs from {expected}")
        failed = attempted  # a mismatch fails every operation of the run
    if len(traced) > 1:
        first = {k: v for k, v in traced[0].layers.items() if layertrace.is_count(k)}
        for unit in traced[1:]:
            again = {k: v for k, v in unit.layers.items() if layertrace.is_count(k)}
            if again != first:
                changed = sorted(k for k in first if first[k] != again[k])
                problems.append(f"per-layer counts changed between traced units: {changed}")

    # -- metrics -------------------------------------------------------------
    if trace is None:
        # Host speed drifts by tens of percent on a shared machine.  Each
        # unit is scaled by the speed of a fixed probe run beside it, so the
        # figures read as on the reference host (see README.md).
        scaled = [(u, u.host_speed ** HOST_ELASTICITY) for u in plain]
        metrics = {
            "setup_s": (_median([u.setup_s * k for u, k in scaled]), "s"),
            "sim_us_per_s": (
                _median([u.outputs.sim_ps / 1e6 / (u.run_s * k) for u, k in scaled]), "us/s"),
            "sessions_per_s": (
                _median([u.outputs.operations / (u.run_s * k) for u, k in scaled]), "1/s"),
            "peak_rss_mb": (peak_mb or peak_rss_mb(), "MB"),
        }
        samples = {
            "run_s": [u.run_s for u in plain],
            "setup_s": [u.setup_s for u in plain],
            "host_speed": [u.host_speed for u in plain],
        }
    else:
        metrics = {}
        for name in traced[0].layers if traced else ():
            values = [unit.layers[name] for unit in traced]
            value = values[-1] if layertrace.is_count(name) else _median(values)
            metrics[name] = (value, layertrace.unit_of(name))
        samples = {
            "traced_wall_s": [u.wall_s for u in traced],
            "plain_wall_s": [u.wall_s for u in plain],
        }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": host_record(),
        "digest": digests[0] if len(digests) == 1 else digests,
        "units": len(units),
        "samples": samples,
        "failed_frac": failed / max(attempted, 1),
        "problems": problems[:20],
        "metrics": {name: value for name, (value, _unit) in metrics.items()},
    }
    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"failed_frac {failed / max(attempted, 1):.6f} ({failed}/{attempted} operations)")
    print(json.dumps({"record": record}, sort_keys=True))
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run())

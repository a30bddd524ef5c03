"""The benchmark's own tests: the trace leaves no trace, counts repeat.

Run from the repository root with ``python3 -m pytest perfbench -q``
(the repository's tier-1 suite collects only ``tests/``).  Every test
builds real workload units, so the file takes about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def _attribute_snapshot():
    """Every attribute the trace wraps, as the objects installed now."""
    trace = layertrace.LayerTrace().install()
    owners = [(owner, attr) for owner, attr, _original in trace.installed]
    trace.remove()
    return {
        (id(owner), attr): (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
        for owner, attr in owners
    }


def _traced_unit(name: str, seed: int, tmp_path):
    trace = layertrace.LayerTrace(child_dir=str(tmp_path))
    with trace:
        unit = bench.Unit(workloads.WORKLOADS[name], seed, trace)
    metrics = bench.layer_metrics(trace, unit.outputs.sim_ps)
    return unit, trace, metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_trace_restores_every_wrapped_attribute(name, tmp_path):
    before = _attribute_snapshot()
    _traced_unit(name, 0, tmp_path)
    assert _attribute_snapshot() == before
    assert all(not hasattr(value, "__wrapped__") for value in before.values())


@pytest.mark.parametrize("name", ["optimus_stream", "chaos_sharded"])
def test_traced_and_untraced_digests_match(name, tmp_path):
    plain = bench.Unit(workloads.WORKLOADS[name], 0)
    traced, _trace, _metrics = _traced_unit(name, 0, tmp_path)
    assert traced.digest == plain.digest
    pinned = json.loads((HERE / "digests.json").read_text())[name]
    assert plain.digest == pinned


@pytest.mark.parametrize("name", ["optimus_thrash", "serve_slo", "chaos_sharded"])
def test_layer_counts_repeat_and_match_the_program(name, tmp_path):
    first_unit, _, first = _traced_unit(name, 1, tmp_path)
    second_unit, _, second = _traced_unit(name, 1, tmp_path)
    counts = {k: v for k, v in first.items() if layertrace.is_count(k)}
    assert counts == {k: v for k, v in second.items() if layertrace.is_count(k)}
    assert bench.cross_check(first, first_unit.outputs) == []
    assert bench.cross_check(second, second_unit.outputs) == []


@pytest.mark.parametrize("name", ["optimus_stream", "serve_slo", "chaos_sharded"])
def test_self_times_fit_in_wall_time(name, tmp_path):
    unit, trace, metrics = _traced_unit(name, 2, tmp_path)
    assert 0 < sum(trace.self_ns.values()) / 1e9 <= unit.wall_s
    assert all(value >= 0 for key, value in metrics.items() if key.endswith("_s"))


def test_seeds_give_different_deterministic_inputs():
    assert workloads.stream_inputs(1) == workloads.stream_inputs(1)
    assert workloads.stream_inputs(1) != workloads.stream_inputs(2)
    assert workloads.thrash_inputs(1) == workloads.thrash_inputs(1)
    assert workloads.thrash_inputs(1) != workloads.thrash_inputs(2)
    assert workloads.chaos_inputs(1) == workloads.chaos_inputs(1)
    assert workloads.chaos_inputs(1) != workloads.chaos_inputs(2)
    serve = workloads.WORKLOADS["serve_slo"]
    traces = [serve.build(seed).gateway.trace.digest() for seed in (1, 1, 2)]
    assert traces[0] == traces[1] != traces[2]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_contract(trace, section, tmp_path):
    out = tmp_path / "records.jsonl"
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve_slo",
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(line["metrics"]) == {m["name"] for m in spec[section]}
    for metric in spec[section]:
        assert line["metrics"][metric["name"]]["unit"] == metric["unit"]
    record = json.loads(out.read_text())
    assert {"nproc", "cpu_model", "python", "source_digest"} <= set(record["host"])


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = dict(os.environ, PYTHONPATH="")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_slo",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180, env=env,
    )
    assert result.returncode != 0
    assert result.stdout == ""


def test_compare_applies_the_bounds(tmp_path):
    import compare

    def records(rate, events):
        host = {"nproc": 2, "cpu_model": "x", "python": "3", "source_digest": "d"}
        plain = [{"workload": "serve_slo", "seed": seed, "trace": 0, "host": host,
                  "metrics": {"setup_s": 0.1, "sim_us_per_s": rate,
                              "sessions_per_s": rate, "peak_rss_mb": 60.0}}
                 for seed in range(3)]
        traced = {"workload": "serve_slo", "seed": 0, "trace": 1, "host": host,
                  "metrics": {"sim.events": events, "sim.self_s": rate}}
        return plain + [traced]

    paths = {}
    for name, rate, events in (("base", 100.0, 7), ("same", 90.0, 7),
                               ("slow", 50.0, 7), ("recount", 100.0, 8)):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text("".join(json.dumps(r) + "\n" for r in records(rate, events)))
    assert compare.main([str(paths["base"]), str(paths["same"])]) == 0
    assert compare.main([str(paths["base"]), str(paths["slow"])]) == 1
    assert compare.main([str(paths["base"]), str(paths["recount"])]) == 1

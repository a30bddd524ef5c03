"""Tests for :mod:`repro.telemetry`: tracer, registry, lifecycle, overhead.

Covers the ISSUE 3 acceptance properties:

* traces are valid Chrome trace-event JSON with spans from every major
  layer (engine, link, IOTLB, hypervisor);
* the same seed produces byte-identical trace files;
* the fast path and the reference path produce identical traces;
* disabled tracing adds (near-)zero cost — the public ``run()`` wrapper
  stays within 5% of the raw drain loop on an event-heavy workload;
* the uniform instrument protocol (name / reset / summary) and the
  registry surface behave as documented;
* the shared guest-handle lifecycle (context managers, idempotent
  disconnect) across the OPTIMUS, pass-through, and provider surfaces.
"""

from __future__ import annotations

import json
import sys
import time

import pytest

from repro.errors import ConfigurationError, GuestError
from repro.mem import MB
from repro.platform import PlatformParams, build_platform
from repro.platform.builder import PlatformMode
from repro.sim.clock import us
from repro.sim.engine import Engine
from repro.sim.stats import (
    BandwidthMeter,
    Counters,
    LatencyRecorder,
    UtilizationTracker,
)
from repro.telemetry import (
    MetricRegistry,
    Tracer,
    current_tracer,
    install_tracer,
    uninstall_tracer,
)


@pytest.fixture
def tracer():
    installed = install_tracer()
    yield installed
    uninstall_tracer()


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    uninstall_tracer()


# -- trace capture scenarios -------------------------------------------------


def _traced_optimus_run() -> Tracer:
    """Two LL jobs sharing one physical accelerator, traced end to end."""
    from repro.experiments.harness import OptimusStack

    tracer = install_tracer()
    try:
        stack = OptimusStack(PlatformParams(), n_accelerators=1)
        for index in range(2):
            stack.launch(
                "LL",
                physical_index=0,
                working_set=8 * MB,
                job_kwargs={
                    "functional": False,
                    "seed": 0xBEEF + index,
                    "target_hops": 250,
                },
            )
        stack.run_for(us(400))
        tracer.finalize()
    finally:
        uninstall_tracer()
    return tracer


def _traced_passthrough_run(fast_path: bool) -> Tracer:
    """A finite pass-through LL job run to completion, traced."""
    from repro.experiments.harness import PassthroughStack

    tracer = install_tracer()
    try:
        stack = PassthroughStack(PlatformParams(fast_path=fast_path))
        launched = stack.launch(
            "LL",
            working_set=8 * MB,
            job_kwargs={"functional": False, "seed": 3, "target_hops": 400},
        )
        stack.hypervisor.run_until_done()
        assert launched.job.done
        tracer.finalize()
    finally:
        uninstall_tracer()
    return tracer


class TestTraceCapture:
    def test_spans_cover_every_layer(self):
        tracer = _traced_optimus_run()
        categories = tracer.span_categories()
        assert {"engine", "link", "iotlb", "hv"} <= categories

    def test_chrome_document_shape(self):
        tracer = _traced_optimus_run()
        document = json.loads(tracer.to_json())
        events = document["traceEvents"]
        assert events, "trace must not be empty"
        phases = {event["ph"] for event in events}
        assert "X" in phases and "M" in phases
        for event in events:
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 0
        names = {
            event["args"]["name"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert "iommu.walker" in names
        assert "hv.pa0" in names

    def test_same_seed_is_byte_identical(self):
        first = _traced_optimus_run()
        second = _traced_optimus_run()
        assert first.to_json() == second.to_json()

    def test_fast_path_and_reference_trace_identically(self):
        fast = _traced_passthrough_run(fast_path=True)
        reference = _traced_passthrough_run(fast_path=False)
        assert fast.event_count > 0
        assert fast.to_json() == reference.to_json()

    def test_trace_writes_loadable_file(self, tmp_path):
        tracer = _traced_optimus_run()
        path = tracer.write(tmp_path / "optimus.json")
        document = json.loads(path.read_text())
        assert document["traceEvents"]
        assert document["displayTimeUnit"] == "ns"


def _tick_chain(n_events: int) -> Engine:
    """An engine whose queue is a chain of ``n_events + 1`` ``tick`` events."""
    engine = Engine()
    state = {"left": n_events}

    def tick() -> None:
        if state["left"] > 0:
            state["left"] -= 1
            engine.call_after(1, tick)

    engine.call_after(1, tick)
    return engine


class TestZeroCostDisabled:
    def test_components_carry_no_trace_state_without_tracer(self):
        assert current_tracer() is None
        platform = build_platform(PlatformParams(), n_accelerators=1)
        assert platform.engine.trace is None
        assert platform.iommu._trace is None
        assert platform.links[0]._trace is None

    def test_run_wrapper_overhead_under_five_percent(self):
        """``run()`` with tracing disabled vs the raw drain loop."""
        assert current_tracer() is None
        build_chain = _tick_chain
        n_events = 150_000

        def timed(use_wrapper: bool) -> float:
            best = float("inf")
            for _ in range(5):
                engine = build_chain(n_events)
                started = time.perf_counter()
                if use_wrapper:
                    engine.run()
                else:
                    engine._drain(None, None)
                best = min(best, time.perf_counter() - started)
            return best

        baseline = timed(use_wrapper=False)
        wrapped = timed(use_wrapper=True)
        ratio = wrapped / baseline
        if ratio > 1.05:  # damp scheduler noise before declaring failure
            baseline = min(baseline, timed(use_wrapper=False))
            wrapped = min(wrapped, timed(use_wrapper=True))
            ratio = wrapped / baseline
        assert ratio < 1.05, f"disabled tracing cost {ratio:.3f}x > 1.05x"

    def test_run_adds_no_per_event_python_calls(self):
        """Host-independent twin of the wall-clock bar above: with tracing
        off, ``run()`` makes the same few Python calls of its own at 1k
        and at 10k events (everything inside a callback is not counted)."""
        assert current_tracer() is None

        def calls_beyond_callbacks(n_events: int) -> int:
            engine = _tick_chain(n_events)
            calls = 0
            depth = 0  # > 0 while inside an event callback

            def profile(frame, event, arg) -> None:
                nonlocal calls, depth
                if event == "call":
                    code = frame.f_code
                    is_tick = code.co_name == "tick" and code.co_filename == __file__
                    if depth or is_tick:
                        depth += 1
                    else:
                        calls += 1
                elif event == "return" and depth:
                    depth -= 1

            sys.setprofile(profile)
            try:
                processed = engine.run()
            finally:
                sys.setprofile(None)
            assert processed == n_events + 1
            return calls

        small = calls_beyond_callbacks(1_000)
        large = calls_beyond_callbacks(10_000)
        assert small == large, f"{small} calls at 1k events, {large} at 10k"
        assert small <= 3, f"run() made {small} Python calls of its own"


# -- the uniform instrument protocol ----------------------------------------


class TestInstrumentProtocol:
    def test_latency_recorder_summary_none_when_empty(self):
        recorder = LatencyRecorder("lat")
        assert recorder.summary() is None
        recorder.record(1000)
        summary = recorder.summary()
        assert summary is not None and summary["count"] == 1.0
        recorder.reset()
        assert recorder.summary() is None

    def test_counters_summary(self):
        counters = Counters(name="events")
        assert counters.summary() is None
        counters.bump("a")
        counters.bump("a")
        counters.bump("b", 3)
        assert counters.summary() == {"a": 2.0, "b": 3.0}
        counters.reset()
        assert counters.summary() is None

    def test_utilization_tracker_summary(self):
        engine = Engine()
        tracker = UtilizationTracker(engine, "util")
        assert tracker.summary() is None  # zero-width window
        tracker.begin()
        engine.call_after(1000, tracker.end)
        engine.run()
        summary = tracker.summary()
        assert summary is not None
        assert summary["busy_ps"] == 1000.0
        assert summary["utilization"] == pytest.approx(1.0)

    def test_steady_samples_accessor(self):
        recorder = LatencyRecorder("lat")
        for value in range(10):
            recorder.record(value)
        assert recorder.steady_samples_ps() == list(range(5, 10))
        assert recorder.steady_samples_ps(
            skip_fraction=0.2, max_skip=1
        ) == list(range(1, 10))

    def test_auto_registration_via_kwarg(self):
        engine = Engine()
        registry = MetricRegistry("test")
        BandwidthMeter(engine, "bw", registry=registry)
        LatencyRecorder("lat", registry=registry)
        Counters(name="counts", registry=registry)
        UtilizationTracker(engine, "util", registry=registry)
        assert registry.names() == ["bw", "counts", "lat", "util"]


class TestMetricRegistry:
    def test_duplicate_name_rejected(self):
        registry = MetricRegistry()
        registry.register(Counters(name="c"))
        with pytest.raises(ConfigurationError):
            registry.register(Counters(name="c"))

    def test_protocol_enforced(self):
        registry = MetricRegistry()
        with pytest.raises(ConfigurationError):
            registry.register(object(), name="bogus")

    def test_snapshot_reports_none_for_idle_instruments(self):
        registry = MetricRegistry()
        registry.register(Counters(name="idle"))
        busy = registry.register(Counters(name="busy"))
        busy.bump("x")
        assert registry.snapshot() == {"busy": {"x": 1.0}, "idle": None}

    def test_mounted_child_prefixes_names(self):
        child = MetricRegistry("node")
        counters = child.register(Counters(name="iotlb"))
        counters.bump("misses", 4)
        parent = MetricRegistry("cluster")
        parent.register(Counters(name="fleet.admission"))
        parent.mount("node0.", child)
        assert "node0.iotlb" in parent
        assert parent.get("node0.iotlb") is counters
        snapshot = parent.snapshot()
        assert snapshot["node0.iotlb"] == {"misses": 4.0}
        assert list(snapshot) == sorted(snapshot)

    def test_platform_registers_its_instruments(self):
        platform = build_platform(PlatformParams(), n_accelerators=2)
        names = platform.metrics.names()
        assert "iommu.iotlb" in names
        assert "upi0.bw.to_mem" in names
        assert "mem.read" in names
        assert "afu1.latency" in names
        assert platform.snapshot()["iommu.iotlb"] is None  # untouched yet

    def test_fleet_cluster_registry_mounts_nodes(self):
        from repro.fleet import FleetCluster

        cluster = FleetCluster.build(2)
        registry = cluster.metrics_registry()
        assert "node0.iommu.iotlb" in registry
        assert "node1.mem.write" in registry


# -- the shared handle lifecycle --------------------------------------------


def _make_optimus_handle():
    from repro.accel import make_job
    from repro.hv import OptimusHypervisor

    platform = build_platform(PlatformParams(), n_accelerators=1)
    hypervisor = OptimusHypervisor(platform)
    vm = hypervisor.create_vm("guest0")
    job = make_job("AES", functional=True)
    return hypervisor, hypervisor.connect(vm, job, window_bytes=16 * MB)


class TestGuestLifecycle:
    def test_context_manager_disconnects(self):
        hypervisor, handle = _make_optimus_handle()
        with handle as accel:
            assert accel is handle
            assert accel.connected
            accel.alloc_buffer(4096)
        assert not handle.connected
        assert handle.vaccel not in hypervisor.physical[0].vaccels

    def test_disconnect_is_idempotent(self):
        _hypervisor, handle = _make_optimus_handle()
        handle.disconnect()
        handle.disconnect()  # must not raise or double-teardown
        assert not handle.connected
        with pytest.raises(GuestError):
            handle.alloc_buffer(4096)

    def test_body_exception_still_disconnects(self):
        _hypervisor, handle = _make_optimus_handle()
        with pytest.raises(RuntimeError):
            with handle:
                raise RuntimeError("guest application crash")
        assert not handle.connected

    def test_native_handle_same_surface(self):
        from repro.hv import PassthroughHypervisor

        platform = build_platform(
            PlatformParams(), mode=PlatformMode.PASSTHROUGH
        )
        hypervisor = PassthroughHypervisor(platform)
        with hypervisor.connect(window_bytes=16 * MB) as accel:
            assert accel.connected
            accel.mmio_write(0x40, 7)
            accel.reset()
            registers = platform.sockets[0].registers.snapshot()
            assert all(value == 0 for value in registers.values())
        assert not accel.connected
        accel.disconnect()  # idempotent
        with pytest.raises(GuestError):
            accel.alloc_buffer(4096)

    def test_provider_connect_forgets_tenant_on_exit(self):
        from repro.cloud.library import FpgaConfiguration
        from repro.cloud.provider import CloudProvider

        provider = CloudProvider(FpgaConfiguration.synthesize(["AES", "MB"]))
        with provider.connect("tenant0", "AES") as accel:
            assert len(provider.tenants) == 1
            assert provider.tenants[0].handle is accel
        assert provider.tenants == []

    def test_provider_evict_still_works(self):
        from repro.cloud.library import FpgaConfiguration
        from repro.cloud.provider import CloudProvider

        provider = CloudProvider(FpgaConfiguration.synthesize(["AES", "MB"]))
        tenant = provider.place("tenant0", "AES")
        provider.evict(tenant)
        assert provider.tenants == []
        assert not tenant.handle.connected
        with pytest.raises(ConfigurationError):
            provider.evict(tenant)

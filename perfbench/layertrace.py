"""Outside-in per-layer trace: wrappers around each layer's entry points.

Nothing here edits the program.  :class:`LayerTrace` replaces selected
class (or module) attributes with timing wrappers, *before* the stacks
are built, and puts the original objects back afterwards.  Because the
wrappers are installed first, bound methods that the program caches at
construction time (``socket.connect(auditor.dma_sink)``) already point
at the wrapper.  Closures built inside constructors (the mux tree's
``forward``/``ingress``) are never wrapped; the metric is taken one call
further in (``MuxNode.push``), which every closure calls by attribute.

Each wrapped call is a *span* of its layer.  A layer's self time is the
time its spans cover minus the time their child spans cover, so the self
times of all layers never add up to more than the wall time of the
traced region.  Layers are named after ``src/repro`` packages; the one
extra pseudo-layer, ``asyncio``, is the gateway's event-loop pump.

Shard workers are forked after installation, so they inherit the
wrappers; each worker writes its counts and self times to a file when it
exits, and :meth:`LayerTrace.merge_children` folds them in.  Counts thus
cover every process; ``*.self_s`` is host CPU time summed over them.
"""

from __future__ import annotations

import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "sim", "interconnect", "core", "fpga", "platform", "mem", "accel",
    "hv", "cloud", "fleet", "serve", "asyncio", "parallel",
)

#: A hook sees (counts, call args, return value, span nanoseconds).
Hook = Callable[[Dict[str, float], tuple, object, int], None]


def _count(name: str) -> Hook:
    def hook(counts, args, result, ns):
        counts[name] += 1
    return hook


def _engine_events(counts, args, result, ns):
    counts["sim.events"] += result if isinstance(result, int) else result[0]


def _link_send(counts, args, result, ns):
    counts["interconnect.packets"] += 1
    counts["interconnect.wire_bytes"] += args[1]


def _iotlb_lookup(counts, args, result, ns):
    if result is None:
        counts["mem.walks"] += 1


def _fastpath(counts, args, result, ns):
    counts["platform.fastpath_attempts"] += 1
    if result is not None:
        counts["platform.fastpath_commits"] += 1


def _encode(counts, args, result, ns):
    counts["parallel.frames"] += 1
    counts["parallel.frame_bytes"] += len(result)


def _await_ack(counts, args, result, ns):
    counts["parallel.stall_waits"] += 1
    counts["parallel.barrier_wait_s"] += ns / 1e9


def _try_place(counts, args, result, ns):
    counts.samples.append(ns / 1e3)


#: (module, class or None for a module function, attribute, layer, hook).
#: The class list is the public surface of each layer that the four
#: workloads reach; private names appear only where the public call is a
#: closure (see the module docstring) or where the program's own counter
#: is kept (the op-stream ledger).
SPECS: List[Tuple[str, Optional[str], str, str, Optional[Hook]]] = [
    ("repro.sim.engine", "Engine", "run", "sim", _engine_events),
    ("repro.sim.engine", "Engine", "run_epoch", "sim", _engine_events),
    ("repro.sim.engine", "Engine", "run_until", "sim", None),
    ("repro.interconnect.link", "Link", "send_to_memory", "interconnect", _link_send),
    ("repro.interconnect.link", "Link", "send_from_memory", "interconnect", _link_send),
    ("repro.interconnect.link", "Link", "reserve_to_memory", "interconnect", _link_send),
    ("repro.interconnect.link", "Link", "reserve_from_memory", "interconnect", _link_send),
    ("repro.interconnect.topology", "MemorySystem", "dma", "interconnect", None),
    ("repro.core.mux_tree", "MuxNode", "push", "core", _count("core.mux_pushes")),
    ("repro.core.auditor", "Auditor", "dma_sink", "core", _count("core.audits")),
    ("repro.core.auditor", "Auditor", "deliver_response", "core", _count("core.audits")),
    ("repro.core.monitor", "HardwareMonitor", "mmio_write", "core", None),
    ("repro.fpga.afu", "DmaEngine", "read", "fpga", _count("fpga.dma_requests")),
    ("repro.fpga.afu", "DmaEngine", "write", "fpga", _count("fpga.dma_requests")),
    ("repro.fpga.afu", "AfuSocket", "mmio_write", "fpga", None),
    ("repro.platform.fastpath", "FastPath", "try_commit", "platform", _fastpath),
    ("repro.mem.iommu", "Iommu", "translate_async", "mem", _count("mem.translations")),
    ("repro.mem.iommu", "Iotlb", "lookup", "mem", _iotlb_lookup),
    ("repro.mem.iommu", "Iommu", "map", "mem", _count("mem.maps")),
    ("repro.mem.iommu", "Iommu", "unmap_range", "mem", _count("mem.unmaps")),
    ("repro.hv.hypervisor", "OptimusHypervisor", "create_virtual_accelerator", "hv",
     _count("hv.vaccels_created")),
    ("repro.hv.hypervisor", "OptimusHypervisor", "destroy_virtual_accelerator", "hv",
     _count("hv.vaccels_destroyed")),
    ("repro.hv.hypervisor", "OptimusHypervisor", "create_vm", "hv", None),
    ("repro.hv.hypervisor", "OptimusHypervisor", "connect", "hv", None),
    ("repro.hv.checkpoint", None, "checkpoint_guest", "hv", _count("hv.checkpoints")),
    ("repro.hv.checkpoint", None, "restore_guest", "hv", _count("hv.restores")),
    ("repro.cloud.library", "FpgaConfiguration", "slots_of_type", "cloud",
     _count("cloud.slots_of_type_calls")),
    ("repro.cloud.provider", "CloudProvider", "place", "cloud", None),
    ("repro.cloud.provider", "CloudProvider", "evict", "cloud", None),
    ("repro.cloud.provider", "CloudProvider", "restore", "cloud", None),
    ("repro.fleet.metrics", "FleetMetrics", "record_placement", "fleet",
     _count("fleet.placements")),
    ("repro.fleet.metrics", "FleetMetrics", "record_migration", "fleet",
     _count("fleet.migrations")),
    ("repro.fleet.metrics", "FleetMetrics", "sample_utilization", "fleet",
     _count("fleet.utilization_samples")),
    ("repro.fleet.node", "FleetNode", "occupancy", "fleet", _count("fleet.occupancy_queries")),
    ("repro.fleet.node", "FleetNode", "free_slots", "fleet", _count("fleet.occupancy_queries")),
    ("repro.fleet.node", "FleetNode", "evict", "fleet", _count("fleet.evictions")),
    ("repro.fleet.node", "FleetNode", "place", "fleet", None),
    ("repro.fleet.admission", "FleetService", "serve", "fleet", None),
    ("repro.fleet.admission", "FleetService", "_try_place", "fleet", _try_place),
    ("repro.fleet.placement", "BestFit", "choose", "fleet", None),
    ("repro.fleet.ops", "FleetOps", "migrate", "fleet", None),
    ("repro.fleet.ops", "FleetOps", "drain", "fleet", None),
    ("repro.serve.slo", "SloBudgetPolicy", "decide", "serve", _count("serve.decisions")),
    ("repro.serve.slo", "SloBudgetPolicy", "observe", "serve", None),
    ("repro.serve.slo", "SloBudgetPolicy", "observe_queued", "serve", None),
    ("repro.serve.gateway", "Gateway", "run", "serve", None),
    ("repro.serve.gateway", "Gateway", "connect", "serve", None),
    ("repro.serve.gateway", "Gateway", "_pump", "asyncio", None),
    ("repro.parallel.opstream", "FrameEncoder", "encode", "parallel", _encode),
    ("repro.parallel.executor", "ShardedFleetCluster", "_ship", "parallel",
     _count("parallel.messages")),
    ("repro.parallel.executor", "ShardedFleetCluster", "_post", "parallel",
     _count("parallel.messages")),
    ("repro.parallel.executor", "ShardedFleetCluster", "_await_ack", "parallel", _await_ack),
    ("repro.parallel.executor", "ShardedFleetCluster", "advance_epoch", "parallel", None),
    ("repro.parallel.executor", "ShardedFleetCluster", "barrier", "parallel", None),
    ("repro.parallel.executor", "ShardedFleetCluster", "checkpoint_tenant", "parallel", None),
    ("repro.parallel.shadow", "ShadowNode", "occupancy", "parallel",
     _count("parallel.shadow_occupancy_queries")),
    ("repro.parallel.shadow", "ShadowNode", "free_slots", "parallel",
     _count("parallel.shadow_occupancy_queries")),
    ("repro.parallel.shadow", "ShadowNode", "place", "parallel", None),
    ("repro.parallel.shard", None, "_apply", "parallel", None),
]

#: Counters the hooks above fill (ratios and self times are derived).
COUNTS = (
    "sim.events", "interconnect.packets", "interconnect.wire_bytes",
    "core.mux_pushes", "core.audits", "fpga.dma_requests",
    "platform.fastpath_attempts", "platform.fastpath_commits",
    "mem.translations", "mem.walks", "mem.maps", "mem.unmaps",
    "hv.vaccels_created", "hv.vaccels_destroyed", "hv.checkpoints", "hv.restores",
    "cloud.slots_of_type_calls",
    "fleet.placements", "fleet.occupancy_queries", "fleet.utilization_samples",
    "fleet.evictions", "fleet.migrations",
    "serve.decisions",
    "parallel.messages", "parallel.frames", "parallel.frame_bytes",
    "parallel.stall_waits", "parallel.barrier_wait_s",
    "parallel.shadow_occupancy_queries",
)


def is_count(metric: str) -> bool:
    """Whether a per-layer metric is deterministic (a count or a ratio of
    counts) rather than a host time; counts must repeat exactly."""
    return not (metric.endswith("_s") or metric.endswith("_x") or "_us_" in metric)


def unit_of(metric: str) -> str:
    """The unit a per-layer metric is reported in."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_x"):
        return "x"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_per_sim_us"):
        return "1/us"
    if "_us_" in metric:
        return "us"
    if metric.endswith("_bytes"):
        return "B"
    return "count"


class Counts(dict):
    """Named counts plus the placement-latency samples (µs)."""

    def __init__(self) -> None:
        super().__init__((name, 0) for name in COUNTS)
        self.samples: List[float] = []


def _accel_body_classes() -> List[type]:
    from repro.accel.base import AcceleratorJob

    found, todo = [], [AcceleratorJob]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "body" in cls.__dict__ and cls is not AcceleratorJob:
            found.append(cls)
    return found


class LayerTrace:
    """Span timer and counter over :data:`SPECS`; install, run, remove."""

    def __init__(self, child_dir: Optional[str] = None) -> None:
        self.counts = Counts()
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self._stack: List[List[int]] = []
        #: (owner, attribute, original object) for every installed wrapper.
        self.installed: List[Tuple[object, str, object]] = []
        self.child_self_ns: Dict[str, int] = {}
        self._child_dir = child_dir
        if child_dir is not None:
            multiprocessing.util.register_after_fork(self, LayerTrace._after_fork)

    # -- wrappers -------------------------------------------------------------

    def _span(self, fn: Callable, layer: str, hook: Optional[Hook]) -> Callable:
        stack = self._stack
        self_ns = self.self_ns
        counts = self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                hook(counts, args, result, elapsed)
            return result

        return wrapper

    def _generator_span(self, fn: Callable, layer: str) -> Callable:
        """Time every resumption of a generator (an accelerator's body)."""
        stack = self._stack
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def step(resume, value):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return resume(value)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            resume, value = inner.send, None
            while True:
                try:
                    yielded = step(resume, value)
                except StopIteration as stop:
                    return stop.value
                try:
                    value = yield yielded
                    resume = inner.send
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # forwarded like Process._step does
                    resume, value = inner.throw, exc

        return wrapper

    def _replace(self, owner: object, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.installed.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "LayerTrace":
        if self.installed:
            raise RuntimeError("trace already installed")
        import importlib

        for module_name, class_name, attr, layer, hook in SPECS:
            module = importlib.import_module(module_name)
            if class_name is None:
                original = getattr(module, attr)
                wrapper = self._span(original, layer, hook)
                # Re-point every binding of a module function, including
                # ``from x import f`` copies in other modules of the package.
                for name, other in list(sys.modules.items()):
                    if (name == "repro" or name.startswith("repro.")) and \
                            getattr(other, attr, None) is original:
                        self._replace(other, attr, wrapper)
                continue
            cls = getattr(module, class_name)
            original = cls.__dict__[attr]
            if not inspect.isfunction(original):
                raise TypeError(f"{class_name}.{attr} is not a plain function")
            self._replace(cls, attr, self._span(original, layer, hook))
        for cls in _accel_body_classes():
            self._replace(cls, "body", self._generator_span(cls.__dict__["body"], "accel"))
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- shard workers -------------------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked worker: start from zero and report at exit."""
        if not self.installed:
            return
        self._stack.clear()
        self.reset()
        multiprocessing.util.Finalize(self, self._dump_child, exitpriority=0)

    def _dump_child(self) -> None:
        path = os.path.join(self._child_dir, f"worker-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"counts": dict(self.counts), "self_ns": self.self_ns}, handle)

    def merge_children(self) -> None:
        """Fold in (and delete) the reports of exited shard workers."""
        if self._child_dir is None:
            return
        for name in sorted(os.listdir(self._child_dir)):
            if not name.startswith("worker-"):
                continue
            path = os.path.join(self._child_dir, name)
            with open(path, encoding="utf-8") as handle:
                report = json.load(handle)
            os.remove(path)
            for key, value in report["counts"].items():
                self.counts[key] += value
            for layer, value in report["self_ns"].items():
                self.child_self_ns[layer] = self.child_self_ns.get(layer, 0) + value

    def reset(self) -> None:
        """Zero every count and timer in place (the wrappers hold them)."""
        for name in self.counts:
            self.counts[name] = 0
        self.counts.samples.clear()
        self.self_ns.update((layer, 0) for layer in LAYERS)
        self.child_self_ns.clear()

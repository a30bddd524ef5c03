"""The shard worker: owns a subset of real fleet nodes, replays ops.

One worker process per shard.  At startup it builds the *real*
:class:`~repro.fleet.node.FleetNode` stacks for the node indices it owns
(platform synthesis is the expensive part of a fleet build, so N nodes
across S shards build in parallel), then loops over the binary op frames
(:mod:`repro.parallel.opstream`) the coordinator's shadow bookkeeping
emitted:

``place / evict / restore_tenant / cordon / uncordon / crash / recover /
degrade / restore / bump_auditor``

Each op is stamped with the epoch (simulated fleet time) it belongs to
and applied strictly in emission order per node — the same order the
serial serving loop would have applied them.  ``place`` ops carry the
shadow's *predicted* slot and oversubscription flag; the worker verifies
the real provider agrees and reports any divergence at the next barrier,
so a bookkeeping bug fails the run loudly instead of silently skewing
results.

Tracing: a forked worker inherits the coordinator's installed tracer
*object*, which must not be written to (its events would be lost and the
pid sequence corrupted).  When the coordinator traces, the worker installs
a **fresh** local tracer before building anything; the scopes its
platforms allocate get local pids which the coordinator later renumbers
into the pid block it reserved (see ``Tracer.reserve_pids``/``ingest``).
"""

from __future__ import annotations

import traceback
from typing import Dict, List, Tuple

from repro.parallel.opstream import FrameDecoder


def shard_worker_main(
    worker_index: int,
    node_descs: List[Tuple[int, str, Tuple[str, ...]]],
    params,
    max_oversub: int,
    tracing: bool,
    first_pid: int,
    ops,
    acks,
) -> None:  # pragma: no cover - runs in a forked subprocess
    """Entry point of one shard worker process.

    ``node_descs`` is ``[(global_index, name, slots), ...]`` in global
    node order.  Messages received on the ``ops`` connection:

    * ``("ops", frame)`` — decode one binary frame and apply its
      ``(global_index, epoch_ps, op, payload)`` ops in order
    * ``("checkpoint", token, global_index, tenant_name)`` — quiesce and
      serialize one resident guest; ack ``("checkpoint", worker_index,
      token, checkpoint_or_None, errors)``
    * ``("sync", token)`` — barrier ack: ``("sync", token, errors)``
    * ``("gather", token)`` — per-node reports (simulated time, metric
      snapshots shipped as deltas against the previous gather, occupancy)
    * ``("trace", token)`` — export the local tracer's events, once
    * ``("exit",)`` — leave the loop

    Acks go back on the ``acks`` connection.  The worker never raises out
    of the loop: failures are captured and surfaced through the next
    ``sync``/``gather`` ack so the coordinator can raise with the
    worker's traceback attached.
    """
    from repro.fleet.node import FleetNode, NodeSpec
    from repro.telemetry.tracer import install_tracer, uninstall_tracer

    local_tracer = None
    errors: List[str] = []
    nodes: Dict[int, object] = {}
    pid_by_node: Dict[int, int] = {}
    #: Last metric snapshot shipped per node (delta-gather baseline).
    last_metrics: Dict[int, Dict[str, object]] = {}
    #: Stateful binary codec for this stream, mirroring the
    #: coordinator-side encoder frame for frame.
    decoder = FrameDecoder()

    try:
        if tracing:
            # Drop the inherited (coordinator) tracer; trace locally.
            uninstall_tracer()
            local_tracer = install_tracer()
        for global_index, name, slots in node_descs:
            if local_tracer is not None:
                # Scope labels embed the pid (``platform<pid> (...)``), so
                # the engine scope must be *created* under the exact pid the
                # serial build would have used — skip the pids owned by
                # nodes on other shards, then build.
                skip = (first_pid + global_index) - (local_tracer._next_pid + 1)
                if skip > 0:
                    local_tracer.reserve_pids(skip)
            node = FleetNode(
                NodeSpec.of(name, slots), params=params, max_oversub=max_oversub
            )
            nodes[global_index] = node
            if local_tracer is not None:
                scope = node.provider.platform.engine.trace
                pid_by_node[global_index] = scope.pid if scope is not None else 0
        acks.send(("built", worker_index, pid_by_node, None))
    except BaseException:
        acks.send(("built", worker_index, {}, traceback.format_exc()))
        return

    while True:
        message = ops.recv()
        kind = message[0]
        if kind == "exit":
            return
        if kind == "ops":
            for global_index, epoch_ps, op, payload in decoder.decode(message[1]):
                try:
                    _apply(nodes[global_index], op, payload)
                except BaseException:
                    errors.append(
                        f"node {global_index} op {op}{payload!r} at epoch "
                        f"{epoch_ps}:\n{traceback.format_exc()}"
                    )
        elif kind == "checkpoint":
            _kind, token, global_index, tenant_name = message
            checkpoint = None
            try:
                checkpoint = nodes[global_index].checkpoint_tenant(tenant_name)
            except BaseException:
                errors.append(
                    f"node {global_index} checkpoint of {tenant_name!r}:\n"
                    f"{traceback.format_exc()}"
                )
            acks.send(("checkpoint", worker_index, token, checkpoint, list(errors)))
        elif kind == "sync":
            acks.send(("sync", worker_index, message[1], list(errors)))
        elif kind == "gather":
            reports = {}
            try:
                for global_index, node in nodes.items():
                    snapshot = node.provider.platform.metrics.snapshot()
                    previous = last_metrics.get(global_index)
                    if previous is None:
                        shipped: tuple = ("full", snapshot)
                    else:
                        changed = {
                            key: value
                            for key, value in snapshot.items()
                            if key not in previous or previous[key] != value
                        }
                        removed = [k for k in previous if k not in snapshot]
                        shipped = ("delta", changed, removed)
                    last_metrics[global_index] = snapshot
                    reports[global_index] = {
                        "simulated_ps": node.provider.platform.engine.now,
                        "metrics": shipped,
                        "occupancy": node.provider.occupancy_report(),
                        "health": node.health.value,
                    }
            except BaseException:
                errors.append(traceback.format_exc())
            acks.send(("gather", worker_index, message[1], reports, list(errors)))
        elif kind == "trace":
            events = local_tracer.export_events() if local_tracer is not None else []
            acks.send(("trace", worker_index, message[1], events, list(errors)))


def _apply(node, op: str, payload: tuple) -> None:
    """Apply one shadow-emitted op to a real :class:`FleetNode`."""
    if op == "place":
        tenant_name, accel_type, predicted_index, predicted_oversub = payload
        tenant = node.place(tenant_name, accel_type)
        if (
            tenant.physical_index != predicted_index
            or tenant.oversubscribed != predicted_oversub
        ):
            raise RuntimeError(
                "shadow bookkeeping diverged from the provider: "
                f"tenant {tenant_name!r} predicted slot {predicted_index} "
                f"(oversub={predicted_oversub}), got {tenant.physical_index} "
                f"(oversub={tenant.oversubscribed})"
            )
    elif op == "evict":
        node.evict(payload[0])
    elif op == "restore_tenant":
        checkpoint, predicted_index, predicted_oversub = payload
        tenant = node.restore_tenant(checkpoint)
        if (
            tenant.physical_index != predicted_index
            or tenant.oversubscribed != predicted_oversub
        ):
            raise RuntimeError(
                "shadow bookkeeping diverged from the provider: "
                f"restored tenant {checkpoint.vm_name!r} predicted slot "
                f"{predicted_index} (oversub={predicted_oversub}), got "
                f"{tenant.physical_index} (oversub={tenant.oversubscribed})"
            )
    elif op == "cordon":
        node.cordon()
    elif op == "uncordon":
        node.uncordon()
    elif op == "crash":
        node.crash()
    elif op == "recover":
        node.recover()
    elif op == "degrade":
        node.degrade(payload[0])
    elif op == "restore":
        node.restore()
    elif op == "bump_auditor":
        physical_index, key, count = payload
        monitor = node.provider.platform.monitor
        if monitor is not None:
            monitor.auditors[physical_index].counters.bump(key, count)
    else:  # pragma: no cover - protocol bug
        raise RuntimeError(f"unknown shard op {op!r}")

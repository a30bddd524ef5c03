"""The sharded fleet executor: shadow coordinator + shard workers.

:class:`ShardedFleetCluster` presents the exact
:class:`~repro.fleet.cluster.FleetCluster` surface the serving loop and
the fault injector consume, but behind it the real per-node platform
stacks live in shard worker processes:

* the coordinator answers every control-plane read from its
  :class:`~repro.parallel.shadow.ShadowNode` bookkeeping (no IPC on the
  serving loop's hot path);
* every mutation is emitted as an op into a per-shard buffer, stamped
  with the epoch it belongs to, and flushed asynchronously as one binary
  frame per shard (:mod:`repro.parallel.opstream`) at every epoch
  boundary — a shard advances only up to the next event from outside
  it, and nothing it does is ever undone;
* observation points (:meth:`gather`, :meth:`merge_traces`,
  :meth:`close`) are the only barriers; :meth:`gather` is memoized on
  the op stream (three summary surfaces cost one round trip) and ships
  metric *deltas*, not full snapshots.

Because all admission/placement/fault *decisions* are taken against the
shadow — which picks slots through the same
:class:`~repro.cloud.ledger.SlotLedger` rule as the provider, keeps the
node health machine, and is verified op-by-op by the workers against
the real hypervisors — serve
results, metric summaries, traces, and chaos envelopes are byte-identical
to a serial run by construction, at any shard count.

Every synchronous wait watches the worker's process sentinel beside its
ack pipe, and op pipes are write-only on the coordinator side, so a
worker that dies mid-run surfaces as a :class:`~repro.errors
.ShardWorkerError` naming the shard instead of a hang.

:class:`~repro.fleet.admission.FleetService` serves this cluster
unchanged: its epoch hook calls :meth:`ShardedFleetCluster.advance_epoch`
and its serve() ends with :meth:`ShardedFleetCluster.settle`, the
verification barrier + trace merge.  :func:`repro.fleet.build_cluster`
picks this cluster or the serial one.
"""

from __future__ import annotations

import time
from multiprocessing.connection import wait
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.library import FpgaConfiguration
from repro.errors import ConfigurationError, ShardWorkerError, UnknownTenantError
from repro.fleet.cluster import DEFAULT_TEMPLATES, ClusterAccounting
from repro.fleet.node import DEFAULT_MAX_OVERSUB
from repro.parallel.opstream import FrameEncoder, OpStreamStats
from repro.parallel.pool import fork_context
from repro.parallel.shadow import ShadowNode
from repro.parallel.shard import shard_worker_main
from repro.telemetry.tracer import current_tracer


class _Shard:
    """Coordinator-side handle of one worker process."""

    __slots__ = ("index", "node_names", "process", "ops", "acks", "buffer", "encoder")

    def __init__(self, index: int, node_names, process, ops, acks) -> None:
        self.index = index
        self.node_names: Tuple[str, ...] = tuple(node_names)
        self.process = process
        #: Write end of the op pipe, read end of the ack pipe.
        self.ops = ops
        self.acks = acks
        #: Ops accumulated since the last flush: (node, epoch, op, payload).
        self.buffer: List[Tuple[int, int, str, tuple]] = []
        #: Stateful binary codec for this stream (epoch delta chain +
        #: string intern table persist across frames).
        self.encoder = FrameEncoder()


class ShardedFleetCluster(ClusterAccounting[ShadowNode]):
    """A fleet cluster whose real nodes live in shard worker processes.

    The serving-loop surface (placement, eviction, node health, capacity
    queries) comes from :class:`~repro.fleet.cluster.ClusterAccounting`
    over shadow nodes, whose mutations reach the owning shard through
    :meth:`_emit`; pure reads stay local and cost no IPC.
    """

    def __init__(
        self,
        specs: Sequence[Tuple[str, Tuple[str, ...]]],
        *,
        shards: int,
        params=None,
        max_oversub: int = DEFAULT_MAX_OVERSUB,
    ) -> None:
        if shards < 1:
            raise ConfigurationError("need at least one shard")
        n_nodes = len(specs)
        self.shards = min(shards, n_nodes)
        self._closed = False
        self._epoch_ps = 0
        self._stats = OpStreamStats()
        #: Memoized :meth:`gather` result; invalidated by any op emission.
        self._gather_cache: Optional[Dict[int, Dict[str, object]]] = None
        #: Per-node folded metric snapshots (delta-gather accumulator).
        self._node_metrics: Dict[int, Dict[str, object]] = {}
        self._tracer = current_tracer()
        # Reserve the pid block the serial build would have consumed (one
        # engine scope per node, in node order) *before* any other scope
        # (fleet metrics, fault injector) is created by the caller.
        if self._tracer is not None:
            self._first_pid = self._tracer.reserve_pids(n_nodes)
        else:
            self._first_pid = 0

        context = fork_context()
        self._shards: List[_Shard] = []
        assignments: List[List[Tuple[int, str, Tuple[str, ...]]]] = [
            [] for _ in range(self.shards)
        ]
        for index, (name, slots) in enumerate(specs):
            assignments[index % self.shards].append((index, name, tuple(slots)))
        for shard_index, descs in enumerate(assignments):
            op_reader, op_writer = context.Pipe(duplex=False)
            ack_reader, ack_writer = context.Pipe(duplex=False)
            process = context.Process(
                target=shard_worker_main,
                args=(
                    shard_index,
                    descs,
                    params,
                    max_oversub,
                    self._tracer is not None,
                    self._first_pid,
                    op_reader,
                    ack_writer,
                ),
                daemon=True,
                name=f"repro-shard-{shard_index}",
            )
            process.start()
            # Keep only our ends: with the worker holding the sole op
            # reader, a write to a dead worker fails instead of filling
            # the pipe and blocking forever.
            op_reader.close()
            ack_writer.close()
            self._shards.append(
                _Shard(
                    shard_index,
                    (name for _index, name, _slots in descs),
                    process,
                    op_writer,
                    ack_reader,
                )
            )

        # Workers build their nodes concurrently; collect pid maps.
        self._owner: Dict[int, _Shard] = {}
        self._pid_maps: Dict[int, Dict[int, int]] = {}
        for shard, descs in zip(self._shards, assignments):
            for index, _name, _slots in descs:
                self._owner[index] = shard
        try:
            for shard in self._shards:
                kind, worker_index, pid_by_node, error = self._recv(shard)
                assert kind == "built"
                if error is not None:
                    raise RuntimeError(
                        f"shard {worker_index} failed to build:\n{error}"
                    )
                self._pid_maps[worker_index] = pid_by_node
        except BaseException:
            self.close()
            raise

        nodes = [
            ShadowNode(
                index,
                name,
                FpgaConfiguration.synthesize(slots),
                max_oversub=max_oversub,
                emit=self._emit,
            )
            for index, (name, slots) in enumerate(specs)
        ]
        super().__init__(nodes)

    @classmethod
    def build(
        cls,
        n_nodes: int,
        *,
        shards: int,
        templates: Optional[Sequence[Sequence[str]]] = None,
        params=None,
        max_oversub: int = DEFAULT_MAX_OVERSUB,
    ) -> "ShardedFleetCluster":
        """Same fleet :meth:`FleetCluster.build` produces, sharded S ways."""
        if n_nodes < 1:
            raise ConfigurationError("need at least one node")
        templates = [tuple(t) for t in (templates or DEFAULT_TEMPLATES)]
        specs = [
            (f"node{i}", templates[i % len(templates)]) for i in range(n_nodes)
        ]
        return cls(specs, shards=shards, params=params, max_oversub=max_oversub)

    def opstream_stats(self) -> Dict[str, object]:
        """The op-stream ledger for this run (side channel: never part of
        a result envelope — ``--shards`` is an execution detail)."""
        return self._stats.to_dict()

    # -- op stream ----------------------------------------------------------

    def _emit(self, node_index: int, op: Tuple[str, tuple]) -> None:
        name, payload = op
        self._gather_cache = None
        self._owner[node_index].buffer.append(
            (node_index, self._epoch_ps, name, payload)
        )

    def advance_epoch(self, epoch_ps: int) -> None:
        """The fleet clock moved: flush the completed epoch's ops."""
        if epoch_ps == self._epoch_ps:
            return
        self._epoch_ps = epoch_ps
        self.flush()

    def flush(self) -> None:
        """Ship every shard's buffered ops as one frame each (no barrier)."""
        shipped = False
        for shard in self._shards:
            if shard.buffer:
                self._ship(shard)
                shipped = True
        if shipped:
            self._stats.flushes += 1

    def _ship(self, shard: _Shard) -> None:
        batch = shard.buffer
        shard.buffer = []
        frame = shard.encoder.encode(batch)
        self._send(shard, ("ops", frame))
        self._stats.frame_bytes += len(frame)
        self._stats.messages += 1
        self._stats.frames += 1
        self._stats.ops += len(batch)

    def _post(self, shard: _Shard, message: tuple) -> None:
        self._send(shard, message)
        self._stats.messages += 1

    def _send(self, shard: _Shard, message: tuple) -> None:
        try:
            shard.ops.send(message)
        except OSError:
            raise self._worker_died(shard) from None

    def _recv(self, shard: _Shard):
        """Next ack from ``shard``, or :class:`ShardWorkerError` if the
        worker died first (its sentinel fires, or its pipe hits EOF)."""
        if shard.acks in wait([shard.acks, shard.process.sentinel]):
            try:
                return shard.acks.recv()
            except EOFError:
                pass
        raise self._worker_died(shard)

    def _worker_died(self, shard: _Shard) -> ShardWorkerError:
        shard.process.join(timeout=5)
        return ShardWorkerError(shard.index, shard.node_names, shard.process.exitcode)

    def _await_ack(self, shard: _Shard):
        start = time.perf_counter()
        ack = self._recv(shard)
        self._stats.barrier_stall_s += time.perf_counter() - start
        self._stats.stall_waits += 1
        return ack

    def checkpoint_tenant(self, tenant_name: str):
        """Quiesce + serialize one resident guest on its owning worker.

        A synchronous round-trip to a *single* shard (the one owning the
        tenant's node).  Pending ops are flushed first, and the op pipe
        preserves order, so the worker applies every earlier mutation
        before serializing.
        """
        node = self.tenant_nodes.get(tenant_name)
        if node is None:
            raise UnknownTenantError(tenant_name, "in the fleet")
        self.flush()
        self._gather_cache = None
        shard = self._owner[node.index]
        self._post(shard, ("checkpoint", "ckpt", node.index, tenant_name))
        kind, _worker, token, checkpoint, worker_errors = self._await_ack(shard)
        assert kind == "checkpoint" and token == "ckpt"
        if checkpoint is None:
            raise RuntimeError(
                "sharded fleet execution diverged:\n" + "\n".join(worker_errors)
            )
        return checkpoint

    def bump_auditor(
        self, name: str, physical_index: int, key: str, count: int
    ) -> None:
        """Forward an auditor-counter bump to the real node's monitor."""
        node = self.node(name)
        self._emit(node.index, ("bump_auditor", (physical_index, key, count)))

    def barrier(self, token: str = "sync") -> None:
        """Flush, then wait until every shard has applied everything.

        Raises with the worker's traceback if any op failed or any
        placement diverged from the shadow's prediction.
        """
        self.flush()
        errors: List[str] = []
        for shard in self._shards:
            self._post(shard, ("sync", token))
        for shard in self._shards:
            kind, worker_index, got, worker_errors = self._await_ack(shard)
            assert kind == "sync" and got == token
            errors.extend(worker_errors)
        if errors:
            raise RuntimeError(
                "sharded fleet execution diverged:\n" + "\n".join(errors)
            )

    # -- observation points (barriers) --------------------------------------

    def gather(self) -> Dict[int, Dict[str, object]]:
        """Per-node reports from the real stacks, in global node order.

        Memoized on the op stream: consecutive gathers with no
        intervening emission (the envelope builders call three summary
        surfaces back-to-back) cost one round trip total.  Metric
        snapshots arrive as deltas against the previous gather and are
        folded into the coordinator's accumulator.
        """
        if self._gather_cache is not None:
            self._stats.gather_cache_hits += 1
            return self._gather_cache
        self.flush()
        self._stats.gathers += 1
        reports: Dict[int, Dict[str, object]] = {}
        errors: List[str] = []
        for shard in self._shards:
            self._post(shard, ("gather", "gather"))
        for shard in self._shards:
            kind, _worker, _token, shard_reports, worker_errors = (
                self._await_ack(shard)
            )
            assert kind == "gather"
            for index, report in shard_reports.items():
                report["metrics"] = self._fold_metrics(index, report["metrics"])
                reports[index] = report
            errors.extend(worker_errors)
        if errors:
            raise RuntimeError(
                "sharded fleet execution diverged:\n" + "\n".join(errors)
            )
        result = {index: reports[index] for index in sorted(reports)}
        self._gather_cache = result
        return result

    def _fold_metrics(self, index: int, shipped) -> Dict[str, object]:
        """Fold one node's (full | delta) metric shipment into the
        accumulated snapshot and return the merged view."""
        tag = shipped[0]
        if tag == "full":
            merged = dict(shipped[1])
        else:
            merged = dict(self._node_metrics.get(index, {}))
            merged.update(shipped[1])
            for name in shipped[2]:
                merged.pop(name, None)
        self._node_metrics[index] = merged
        return merged

    def simulated_report(self) -> Dict[str, Dict[str, object]]:
        """Per-node simulated time, keyed by node name (envelope shape)."""
        reports = self.gather()
        return {
            self.nodes[index].name: {"simulated_ps": report["simulated_ps"]}
            for index, report in reports.items()
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """The fleet-wide metric snapshot ``FleetCluster`` would produce
        (``node<i>.<metric>`` keys from each node's platform registry)."""
        reports = self.gather()
        snapshot: Dict[str, object] = {}
        for index, report in reports.items():
            prefix = self.nodes[index].name
            for key, value in report["metrics"].items():
                snapshot[f"{prefix}.{key}"] = value
        return dict(sorted(snapshot.items()))

    def occupancy_report(self) -> Dict[str, Dict[int, Dict[str, object]]]:
        reports = self.gather()
        return {
            self.nodes[index].name: report["occupancy"]
            for index, report in reports.items()
        }

    def merge_traces(self) -> None:
        """Pull every shard's trace events into the coordinator tracer,
        renumbered into the reserved pid block (serial pid order)."""
        if self._tracer is None:
            return
        self.flush()
        for shard in self._shards:
            self._post(shard, ("trace", "trace"))
        for shard in self._shards:
            kind, worker_index, _token, events, worker_errors = (
                self._await_ack(shard)
            )
            assert kind == "trace"
            if worker_errors:
                raise RuntimeError(
                    "sharded fleet execution diverged:\n"
                    + "\n".join(worker_errors)
                )
            pid_map = {
                local_pid: self._first_pid + node_index
                for node_index, local_pid in self._pid_maps[worker_index].items()
            }
            self._tracer.ingest(events, pid_map=pid_map)

    # -- lifecycle ----------------------------------------------------------

    def settle(self) -> None:
        """End of serving: wait for the shards to apply the op stream,
        verify no divergence, and fold their trace events back into the
        coordinator's tracer."""
        self.barrier("serve-end")
        self.merge_traces()

    def close(self) -> None:
        """Stop every worker; idempotent.  Pending ops are flushed first;
        a worker that already died is skipped, not waited on."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            try:
                if shard.buffer:
                    self._ship(shard)
                self._post(shard, ("exit",))
            except ShardWorkerError:
                pass
        for shard in self._shards:
            shard.process.join(timeout=10)
            if shard.process.is_alive():  # pragma: no cover - defensive
                shard.process.terminate()
            shard.ops.close()
            shard.acks.close()

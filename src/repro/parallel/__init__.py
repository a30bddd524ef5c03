"""Sharded, deterministic parallel execution for the fleet layer.

Three pieces (see DESIGN.md §9):

* :mod:`repro.parallel.pool` — the persistent worker pool behind
  ``--jobs`` sweeps, plus the cost heuristic that keeps small cells
  serial;
* :mod:`repro.parallel.shadow` — coordinator-side bookkeeping twins of
  the fleet nodes (every control-plane decision, zero IPC);
* :mod:`repro.parallel.executor` + :mod:`repro.parallel.shard` — the
  epoch-batched op stream from shadow to the worker processes owning the
  real per-node platform stacks, with byte-identical results.
"""

from repro.fleet.admission import FleetService
from repro.parallel.executor import ShardedFleetCluster
from repro.parallel.pool import (
    DISPATCH_OVERHEAD_S,
    MIN_PARALLEL_BUDGET_S,
    WorkerPool,
    dispatch_plan,
    shared_pool,
    shutdown_shared_pool,
)
from repro.parallel.shadow import ShadowNode, ShadowTenant

# FleetService serves a ShardedFleetCluster directly; this name stays only
# because the benchmark's workloads import it.  Remove it together with
# that import at the next benchmark change.
ShardedFleetService = FleetService

__all__ = [
    "DISPATCH_OVERHEAD_S",
    "MIN_PARALLEL_BUDGET_S",
    "ShadowNode",
    "ShadowTenant",
    "ShardedFleetCluster",
    "WorkerPool",
    "dispatch_plan",
    "shared_pool",
    "shutdown_shared_pool",
]

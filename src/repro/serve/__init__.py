"""Serving layer: the fleet operated as an SLO-bound online service.

OPTIMUS (the paper) and the fleet layer evaluate under fixed request
sweeps; the ROADMAP's north star is "heavy traffic from millions of
users" — long-lived sessions, diurnal cycles, bursts, and latency SLOs.
This package is that altitude, built on the same deterministic
simulated-time discipline as everything below it:

* :mod:`repro.serve.trace` — replayable JSON/CSV arrival traces plus
  seeded synthetic generators with diurnal/burst modulation and
  closed-loop session chains;
* :mod:`repro.serve.gateway` — an asyncio gateway running one coroutine
  per session chain, pumped from the serving loop's epoch protocol so
  coroutine wakeups ride the simulated clock (byte-identical results at
  any ``--shards N``);
* :mod:`repro.serve.slo` — per-class p99 latency budgets enforced as an
  admission policy (shed/degrade/admit) with streaming P² quantile
  estimators and per-class SLO-attainment metrics.

Entry point: ``python -m repro serve`` (see ``EXPERIMENTS.md``).
"""

from repro.serve.gateway import (
    Gateway,
    GatewayFleetService,
    GatewayResult,
    SessionHandle,
)
from repro.serve.slo import (
    AttainmentMonitor,
    SloBudgetPolicy,
    SloClass,
    default_classes,
)
from repro.serve.trace import (
    ArrivalTrace,
    ServeProfile,
    SessionRecord,
    synthesize,
)

__all__ = [
    "ArrivalTrace",
    "AttainmentMonitor",
    "Gateway",
    "GatewayFleetService",
    "GatewayResult",
    "ServeProfile",
    "SessionHandle",
    "SessionRecord",
    "SloBudgetPolicy",
    "SloClass",
    "default_classes",
    "synthesize",
]

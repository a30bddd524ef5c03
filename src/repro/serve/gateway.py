"""The asyncio serving gateway: sessions as coroutines on simulated time.

The fleet's serving loop (:class:`repro.fleet.admission.FleetService`)
is a batch machine: hand it a request list, get a result.  A *service*
is the inverse shape — long-lived clients that connect, wait, react, and
come back.  :class:`Gateway` bridges the two without giving up an inch
of determinism:

* every closed-loop session **chain** in an
  :class:`~repro.serve.trace.ArrivalTrace` runs as one asyncio
  coroutine (:meth:`Gateway._run_chain`), holding a
  :class:`SessionHandle` whose lifecycle mirrors the unified
  ``connect()`` contract of :meth:`repro.cloud.CloudProvider.connect`
  (enter → live → disconnect, with an ``_on_disconnect`` hook that
  forgets the session) — the fleet-level analog of holding a
  ``GuestAccelerator``;
* the event loop is **pumped from the epoch protocol**: the serving
  loop already calls :meth:`FleetService._advance_epoch` at every event
  boundary (the hook that hands the clock to the cluster, mirroring
  ``Engine.run_epoch``), and the gateway drains all ready coroutine
  steps there.  No wall-clock timers, no I/O: a coroutine only ever
  wakes because a simulated event resolved its future, and wakeups run
  in FIFO resolution order — so the interleaving is a pure function of
  the trace;
* follow-up arrivals computed by a woken coroutine land at
  ``max(pump_now, completion + think)``: the simulated clock never runs
  backwards, and a chain's next session enters the heap exactly where a
  real returning client would.

The gateway works unchanged over the serial and sharded fleets: one
:class:`GatewayFleetService` serves either cluster, and because every
hook fires on the coordinator inside the deterministic serving loop —
after the cluster has taken the clock — the resulting envelopes are
byte-identical at any ``--shards N``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.fleet.admission import AdmissionDecision, FleetService, ServeResult
from repro.fleet.traffic import TenantRequest
from repro.serve.trace import ArrivalTrace, SessionRecord
from repro.sim.stats import Counters, LatencyRecorder
from repro.telemetry import MetricRegistry, current_tracer

#: Terminal outcomes that let a chain continue to its next session.
_CONTINUE_OUTCOMES = ("completed", "replaced_completed", "migrated_completed")


class SessionHandle:
    """One live serving session, shaped like the ``connect()`` handles.

    The cloud layer hands tenants a ``GuestAccelerator`` that is a
    context manager with an ``_on_disconnect`` hook; the gateway hands
    its coroutines this.  ``state`` walks ``connecting -> live ->
    done -> disconnected`` (shed/rejected sessions jump straight from
    ``connecting`` to ``done``).
    """

    def __init__(self, record: SessionRecord, arrival_ps: int, loop) -> None:
        self.record = record
        self.arrival_ps = arrival_ps
        self.state = "connecting"
        self.outcome: Optional[str] = None
        self.finished_ps: Optional[int] = None
        self.admit_latency_ps: Optional[int] = None
        self.decision: Optional[AdmissionDecision] = None
        self._done = loop.create_future()
        self._on_disconnect = None

    # -- lifecycle (mirrors GuestAccelerator) ------------------------------

    async def wait(self):
        """Block until the session reaches its typed terminal outcome."""
        return await self._done

    def disconnect(self) -> None:
        if self.state == "disconnected":
            return
        self.state = "disconnected"
        if self._on_disconnect is not None:
            self._on_disconnect()

    async def __aenter__(self) -> "SessionHandle":
        return self

    async def __aexit__(self, *exc) -> None:
        self.disconnect()

    # -- driven by the gateway hooks ---------------------------------------

    def _mark_live(self, latency_ps: int) -> None:
        self.state = "live"
        self.admit_latency_ps = latency_ps

    def _resolve(self, outcome: str, now: int) -> None:
        self.state = "done"
        self.outcome = outcome
        self.finished_ps = now
        self._done.set_result((outcome, now))


@dataclass
class GatewayResult:
    """Everything one serving run produced, JSON-able via ``to_dict``."""

    serve: ServeResult
    trace_name: str
    trace_seed: Optional[int]
    trace_digest: str
    sessions: int
    chains: int
    submitted: int
    abandoned: int
    class_report: Dict[str, Dict[str, object]]
    slo: Optional[Dict[str, object]]
    counters: Dict[str, int]

    def session_outcomes(self) -> Dict[str, int]:
        return self.serve.outcome_counts()

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace": {
                "name": self.trace_name,
                "seed": self.trace_seed,
                "digest": self.trace_digest,
                "sessions": self.sessions,
                "chains": self.chains,
            },
            "sessions": {
                "submitted": self.submitted,
                "abandoned": self.abandoned,
                "outcomes": self.session_outcomes(),
                "availability": self.serve.availability(),
                **{k: v for k, v in sorted(self.counters.items())},
            },
            "classes": self.class_report,
            "slo": self.slo,
            "serving": self.serve.summary(),
        }


class Gateway:
    """Replays an :class:`ArrivalTrace` through a gateway-aware service."""

    def __init__(
        self,
        service: "FleetService",
        trace: ArrivalTrace,
        *,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        attach = getattr(service, "attach_gateway", None)
        if attach is None:
            raise ConfigurationError(
                "Gateway needs a GatewayFleetService (plain FleetService "
                "has no gateway hooks)"
            )
        self.service = service
        self.trace = trace
        self.registry = registry if registry is not None else MetricRegistry("serve")
        self.registry.mount("fleet.", service.metrics.registry)
        self.counters = Counters(name="serve.sessions", registry=self.registry)
        self._class_latency: Dict[str, LatencyRecorder] = {}
        self._class_counts: Dict[str, Dict[str, int]] = {}
        self._live: Dict[int, SessionHandle] = {}
        self._loop = None
        self._tasks: List[asyncio.Task] = []
        self._need_pump = False
        self._pump_now = 0
        self._abandoned = 0
        self._submitted = 0
        tracer = current_tracer()
        self._trace_scope = tracer.scope("serve") if tracer is not None else None
        if self._trace_scope is not None:
            self._tid_sessions = self._trace_scope.thread("sessions")
            self._tid_admission = self._trace_scope.thread("admission")
        attach(self)

    # -- the connect() surface ---------------------------------------------

    def connect(self, record: SessionRecord, arrival_ps: int) -> SessionHandle:
        """Submit one session and return its live handle.

        The fleet-level analog of ``CloudProvider.connect``: the handle
        is (async-)context-managed, and leaving the block disconnects it
        and drops the gateway's live-session record.
        """
        if record.session_id in self._live:
            raise SimulationError(
                f"session {record.session_id} submitted twice"
            )
        handle = SessionHandle(record, arrival_ps, self._loop)
        handle._on_disconnect = lambda: self._live.pop(record.session_id, None)
        self._live[record.session_id] = handle
        self._submitted += 1
        self.counters.bump("submitted")
        self.service._push(arrival_ps, "arrival", record.to_request(arrival_ps))
        return handle

    # -- one coroutine per closed-loop chain -------------------------------

    async def _run_chain(self, chain: List[SessionRecord]) -> None:
        previous_done: Optional[int] = None
        for position, record in enumerate(chain):
            if previous_done is None:
                arrival = record.arrival_ps
            else:
                # A returning client: think time after the previous
                # session completed, never before the current pump point
                # (the simulated clock is monotonic).
                arrival = max(self._pump_now, previous_done + record.arrival_ps)
            async with self.connect(record, arrival) as session:
                outcome, done_ps = await session.wait()
            if outcome not in _CONTINUE_OUTCOMES:
                remaining = len(chain) - position - 1
                if remaining:
                    self._abandoned += remaining
                    self.counters.bump("abandoned", remaining)
                return
            previous_done = done_ps

    # -- service hooks (called inside the serving loop) --------------------

    def _on_decision(
        self, request: TenantRequest, decision: AdmissionDecision, now: int
    ) -> None:
        handle = self._live.get(request.request_id)
        if handle is not None:
            handle.decision = decision
        if decision.action != "admit":
            self.counters.bump(f"decision_{decision.action}")
            if self._trace_scope is not None:
                self._trace_scope.instant(
                    f"serve.{decision.action}", now,
                    tid=self._tid_admission, cat="serve",
                    args={"tenant": request.tenant,
                          "class": request.tenant_class,
                          "reason": decision.reason})

    def _on_placed(
        self, request: TenantRequest, now: int, latency_ps: int, replaced: bool
    ) -> None:
        if replaced:
            return  # failover re-placement: the session was already live
        handle = self._live.get(request.request_id)
        if handle is not None:
            handle._mark_live(latency_ps)
            self._class_stat(request.tenant_class, "admitted")
            self._class_recorder(request.tenant_class).record(latency_ps)
            self.counters.bump("bytes_admitted", handle.record.working_set)

    def _on_outcome(self, request: TenantRequest, outcome: str, now: int) -> None:
        handle = self._live.get(request.request_id)
        if handle is None:
            return
        stats = "completed" if outcome in _CONTINUE_OUTCOMES else (
            "shed" if outcome == "rejected_slo_shed" else "failed"
        )
        self._class_stat(request.tenant_class, stats)
        if self._trace_scope is not None:
            self._trace_scope.complete(
                f"{request.tenant_class}:{request.accel_type}",
                handle.arrival_ps, now,
                tid=self._tid_sessions, cat="serve",
                args={"tenant": request.tenant, "outcome": outcome})
        handle._resolve(outcome, now)
        self._need_pump = True

    # -- pumping ------------------------------------------------------------

    def _pump(self, now: int) -> None:
        """Drain every ready coroutine step at simulated time ``now``."""
        self._pump_now = now
        while True:
            self._need_pump = False
            self._loop.run_until_complete(asyncio.sleep(0))
            if not self._need_pump:
                return

    # -- the run -------------------------------------------------------------

    def run(self) -> GatewayResult:
        """Replay the whole trace to quiescence; every session resolves."""
        if self._loop is not None:
            raise SimulationError("gateway already ran; build a fresh one")
        chains = self.trace.chains()
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            self._tasks = [
                loop.create_task(self._run_chain(chain)) for chain in chains
            ]
            # First pump (simulated time 0): every chain's coroutine runs
            # to its first await, pushing the root arrivals into the heap.
            self._pump(0)
            serve_result = self.service.serve([])
            stuck = [t for t in self._tasks if not t.done()]
            if stuck:
                raise SimulationError(
                    f"{len(stuck)} session chains never resolved — a "
                    "submitted session was silently lost"
                )
            for task in self._tasks:
                task.result()  # re-raise any coroutine failure
        finally:
            self._loop = None
            loop.close()
        if self._live:
            raise SimulationError(
                f"{len(self._live)} sessions still live after quiescence"
            )
        policy = self.service.admission_policy
        slo = None
        if policy is not None and hasattr(policy, "attainment"):
            slo = {"policy": policy.name, "classes": policy.attainment()}
        return GatewayResult(
            serve=serve_result,
            trace_name=self.trace.name,
            trace_seed=self.trace.seed,
            trace_digest=self.trace.digest(),
            sessions=len(self.trace),
            chains=len(chains),
            submitted=self._submitted,
            abandoned=self._abandoned,
            class_report=self._class_report(),
            slo=slo,
            counters=self.counters.snapshot(),
        )

    # -- per-class reporting -------------------------------------------------

    def _class_recorder(self, tenant_class: str) -> LatencyRecorder:
        recorder = self._class_latency.get(tenant_class)
        if recorder is None:
            recorder = LatencyRecorder(
                f"serve.latency.{tenant_class}", registry=self.registry
            )
            self._class_latency[tenant_class] = recorder
        return recorder

    def _class_stat(self, tenant_class: str, key: str) -> None:
        stats = self._class_counts.setdefault(tenant_class, {})
        stats[key] = stats.get(key, 0) + 1

    def _class_report(self) -> Dict[str, Dict[str, object]]:
        report: Dict[str, Dict[str, object]] = {}
        for tenant_class in sorted(self._class_counts):
            stats = dict(self._class_counts[tenant_class])
            recorder = self._class_latency.get(tenant_class)
            if recorder is not None and recorder.count:
                stats["admit_p50_ps"] = recorder.quantile_ps(0.50)
                stats["admit_p99_ps"] = recorder.quantile_ps(0.99)
            report[tenant_class] = stats
        return report


class GatewayFleetService(FleetService):
    """A fleet service wired to an attached gateway, over either cluster.

    ``_advance_epoch`` first hands the clock to the cluster (a sharded
    one flushes the completed epoch's operations to its workers), then
    pumps the event loop — so coroutines observe exactly the same serving
    state at exactly the same simulated times whatever the cluster.
    """

    _gateway: Optional[Gateway] = None

    def attach_gateway(self, gateway: Gateway) -> None:
        if self._gateway is not None:
            raise ConfigurationError("service already has a gateway attached")
        self._gateway = gateway

    def _advance_epoch(self, now: int) -> None:
        super()._advance_epoch(now)
        gateway = self._gateway
        if gateway is not None and gateway._need_pump:
            gateway._pump(now)

    def _post_drain(self) -> bool:
        gateway = self._gateway
        if gateway is None:
            return False
        gateway._pump(self._now)
        # Woken coroutines may have pushed follow-up arrivals.
        return bool(self._heap)

    def _on_outcome(self, request, outcome, now) -> None:
        if self._gateway is not None:
            self._gateway._on_outcome(request, outcome, now)

    def _on_placed(self, request, now, latency_ps, replaced) -> None:
        if self._gateway is not None:
            self._gateway._on_placed(request, now, latency_ps, replaced)

    def _on_decision(self, request, decision, now) -> None:
        if self._gateway is not None:
            self._gateway._on_decision(request, decision, now)

"""A discrete-event multi-user simulator (the Section 6 environment).

The paper's closing discussion models the life of a transaction step as
three components: *scheduling time* (waiting for, and occupying, the
single centralized scheduler), *waiting time* (delays the scheduler
imposes so that consistency is preserved), and *execution time* (actually
running the step).  This simulator realises that decomposition:

* a fixed set of client terminals submit transactions drawn from a
  workload, separated by exponentially distributed think times;
* every request occupies the centralized scheduler for
  ``scheduling_time`` time units (requests queue for the scheduler —
  scheduling times of different users cannot overlap, as in the paper);
* a granted data operation then takes ``execution_time`` units;
* an aborted transaction restarts after ``abort_backoff``;
* a blocked client is parked in the engine kernel's wait index and woken
  the moment one of its blockers commits or aborts.  No simulation
  events are spent re-asking the protocol, so the event count — and
  hence wall-clock — stays proportional to useful work even with
  hundreds of clients, and the measured waiting time is exact.  Only a
  block the kernel could not park (an injected stall, or a BLOCK naming
  no live blocker) is retried, ``retry_interval`` later.

The per-step protocol interaction itself (begin / operation / commit /
restart bookkeeping) lives in :mod:`repro.engine.kernel`, shared with the
untimed executor.  The event heap is the simulator's run queue — the
same structure the executor builds out of rounds
(:class:`~repro.engine.kernel.RunQueue`), with real-valued time: only
runnable clients have events, abort backoff is an event in the
future (the cooldown wheel), and blocked clients re-enter through the
kernel's wake notification.  Events beyond the configured duration are
never enqueued, so the heap stays proportional to the clients that can
still act before the horizon.  :meth:`Simulator.run` installs
``kernel.wake_sink`` for the run and clears it with ``kernel.detach()``,
so a finished simulator is freed by reference counting.

The report gives throughput, mean response time, the mean latency
breakdown per committed transaction, abort counts and the *delay-free
fraction* — the empirical counterpart of the fixpoint-set probability
``|P| / |H|`` of Section 6 — plus the kernel/protocol metrics registry.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.faults import FaultPlan
from repro.engine.kernel import EngineKernel, Session, StepKind
from repro.engine.metrics import Metrics
from repro.engine.operations import TransactionSpec
from repro.engine.protocols.base import ConcurrencyControl
from repro.engine.storage import DataStore
from repro.obs.trace import Tracer


@dataclass
class SimulationConfig:
    """Knobs of the discrete-event simulation."""

    num_clients: int = 8
    duration: float = 1_000.0
    scheduling_time: float = 0.1
    execution_time: float = 1.0
    think_time: float = 2.0
    #: how long a block the kernel could not park (an injected stall, or
    #: a BLOCK naming no live blocker) waits before it is retried
    retry_interval: float = 1.0
    abort_backoff: float = 2.0
    max_attempts: int = 50
    seed: int = 0
    #: simulated time per validation probe (OCC commit checks).  Serial
    #: validation runs *inside* the scheduler critical section, so its
    #: probes extend the scheduler occupancy and every other client
    #: queues behind them; a validation pipeline (parallel OCC) runs its
    #: probes off the critical section, overlapping with other clients.
    #: 0 (the default) reproduces pre-pipeline reports exactly.
    validation_probe_time: float = 0.0


@dataclass
class LatencyBreakdown:
    """Per-transaction latency split into the paper's three components."""

    scheduling: float = 0.0
    waiting: float = 0.0
    execution: float = 0.0

    @property
    def total(self) -> float:
        return self.scheduling + self.waiting + self.execution


@dataclass
class SimulationReport:
    """Aggregate results of one simulation run."""

    protocol_name: str
    duration: float
    committed: int
    aborts: int
    blocks: int
    operations: int
    delay_free_transactions: int
    mean_response_time: float
    mean_breakdown: LatencyBreakdown
    committed_serializable: bool
    final_snapshot: Dict[str, Any]
    metrics: Optional[Metrics] = None
    events_processed: int = 0

    @property
    def throughput(self) -> float:
        """Committed transactions per unit time."""
        return self.committed / self.duration if self.duration else 0.0

    @property
    def delay_free_fraction(self) -> float:
        """Fraction of committed transactions that never waited or restarted."""
        return self.delay_free_transactions / self.committed if self.committed else 0.0

    @property
    def abort_rate(self) -> float:
        """Fraction of finished transaction *attempts* that aborted.

        ``aborts`` counts attempts, not client transactions: one
        transaction that restarts ``k`` times before committing
        contributes ``k`` aborted attempts plus one commit, so the
        denominator ``committed + aborts`` is the total number of
        finished attempts.  This is deliberate — the paper's Section 6
        accounting is per *request*, and an attempt-level rate exposes
        how much submitted work restarts burn, which a per-transaction
        rate would hide.  (A transaction that exhausts ``max_attempts``
        and gives up contributes its aborted attempts but no commit.)
        Pinned by ``tests/test_engine_simulator.py::TestAbortRateSemantics``.
        """
        attempts = self.committed + self.aborts
        return self.aborts / attempts if attempts else 0.0

    def summary(self) -> str:
        b = self.mean_breakdown
        return (
            f"{self.protocol_name}: throughput={self.throughput:.3f}/u "
            f"resp={self.mean_response_time:.2f} "
            f"(sched={b.scheduling:.2f} wait={b.waiting:.2f} exec={b.execution:.2f}) "
            f"delay-free={self.delay_free_fraction:.1%} abort-rate={self.abort_rate:.1%}"
        )


class _ClientSession(Session):
    """One terminal: a kernel session plus its transaction's latencies."""

    __slots__ = ("submit_time", "sched_time", "wait_time", "exec_time",
                 "ever_delayed", "wait_started")

    def __init__(self, spec: Optional[TransactionSpec], session_id: int) -> None:
        super().__init__(spec=spec, session_id=session_id)
        self.submit_time = 0.0
        self.sched_time = self.wait_time = self.exec_time = 0.0
        self.ever_delayed = False
        self.wait_started: Optional[float] = None


class Simulator:
    """Drive an online protocol with timed, concurrently arriving requests."""

    def __init__(
        self,
        protocol: ConcurrencyControl,
        workload: Callable[[random.Random], TransactionSpec],
        config: Optional[SimulationConfig] = None,
        metrics: Optional[Metrics] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.protocol = protocol
        self.workload = workload
        self.config = config or SimulationConfig()
        self.rng = random.Random(self.config.seed)
        self.kernel = EngineKernel(
            protocol, metrics=metrics, fault_plan=fault_plan, tracer=tracer
        )
        self.metrics = self.kernel.metrics
        #: the kernel's tracer; the simulator owns its logical clock,
        #: stamping events with virtual time (the decision time of the
        #: interaction that produced them) — never the wall clock.
        self.tracer = self.kernel.tracer
        self._tracing = self.kernel._tracing
        self._events: List[Tuple[float, int, int]] = []  # (time, seq, client_id)
        self._seq = 0
        self._scheduler_free_at = 0.0
        #: the simulated time at which in-flight protocol effects happen;
        #: wakeups triggered while deciding a request are scheduled here.
        self._effective_now = 0.0
        self.events_processed = 0
        #: per commit, in order: the floats the report's means ``sum()``
        self.response_times: List[float] = []
        self._sched_times, self._wait_times, self._exec_times = [], [], []
        self.delay_free = 0
        self.aborts = 0
        self.blocks = 0
        self.operations = 0
        self.committed = 0

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def _schedule(self, time: float, client_id: int) -> None:
        """Enqueue a client event; the heap is the simulator's run queue.

        The event heap plays exactly the role the executor's
        :class:`~repro.engine.kernel.RunQueue` plays for rounds, with
        real-valued time: runnable clients have an event queued, clients
        backing off after an abort are "in the wheel" (an event at
        ``now + abort_backoff``), and blocked clients have no event at
        all until the kernel's wake notification schedules one.  Events
        past the configured duration are dropped at the source — the
        main loop could never process them, so pushing them would only
        grow the heap (visible at hundreds of clients, where every
        think-time draw near the end of the run lands past the horizon).
        """
        if time > self.config.duration:
            return
        heapq.heappush(self._events, (time, self._seq, client_id))
        self._seq += 1

    def _think(self) -> float:
        return self.rng.expovariate(1.0 / self.config.think_time) if self.config.think_time else 0.0

    def _on_wake(self, session: Session) -> None:
        """Kernel wakeup: a blocker of this parked client resolved."""
        self._schedule(self._effective_now, session.session_id)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Run the simulation for the configured duration and report."""
        config = self.config
        clients = [
            self.kernel.register(_ClientSession(spec=None, session_id=i))
            for i in range(config.num_clients)
        ]
        for client in clients:
            self._schedule(self._think(), client.session_id)

        self.kernel.wake_sink = self._on_wake
        self.kernel.attach()
        try:
            while self._events:
                time, _, client_id = heapq.heappop(self._events)
                if time > config.duration:
                    break
                self.events_processed += 1
                client = clients[client_id]
                next_time = self._step(client, time)
                if next_time is not None:
                    self._schedule(next_time, client_id)
        finally:
            # like the executor: a finished simulation's kernel must not
            # keep reacting to a later kernel's protocol notifications,
            # nor hold this simulator through its sink
            self.kernel.wake_sink = None
            self.kernel.detach()

        return SimulationReport(
            protocol_name=self.protocol.name,
            duration=config.duration,
            committed=self.committed,
            aborts=self.aborts,
            blocks=self.blocks,
            operations=self.operations,
            delay_free_transactions=self.delay_free,
            mean_response_time=(
                sum(self.response_times) / len(self.response_times)
                if self.response_times
                else 0.0
            ),
            mean_breakdown=self._mean_breakdown(),
            committed_serializable=self.protocol.committed_history_serializable(),
            final_snapshot=self.protocol.store.snapshot(),
            metrics=self.metrics,
            events_processed=self.events_processed,
        )

    def _mean_breakdown(self) -> LatencyBreakdown:
        n = len(self._sched_times)
        if not n:
            return LatencyBreakdown()
        return LatencyBreakdown(
            scheduling=sum(self._sched_times) / n,
            waiting=sum(self._wait_times) / n,
            execution=sum(self._exec_times) / n,
        )

    # ------------------------------------------------------------------
    # per-client progression
    # ------------------------------------------------------------------
    def _step(self, client: _ClientSession, now: float) -> Optional[float]:
        """Advance one client at simulated time ``now``; return its next event time."""
        config = self.config

        if client.spec is None:
            client.begin_new(self.workload(self.rng))
            client.submit_time = now
            client.sched_time = client.wait_time = client.exec_time = 0.0
            client.ever_delayed = False
            client.wait_started = None

        if client.txn_id is None:
            self._effective_now = now
            if self._tracing:
                self.tracer.now = now
            self.kernel.step(client)  # begin: consumes no simulated time
            return now

        # account waiting time accrued since the last blocked attempt
        if client.wait_started is not None:
            waited = now - client.wait_started
            client.wait_time += waited
            self.metrics.observe("sim.wait_time", waited)
            client.wait_started = None

        # occupy the centralized scheduler (a single shared resource)
        start = max(now, self._scheduler_free_at)
        queueing = start - now
        decision_time = start + config.scheduling_time
        self._scheduler_free_at = decision_time
        client.sched_time += queueing + config.scheduling_time

        self._effective_now = decision_time
        if self._tracing:
            self.tracer.now = decision_time
        result = self.kernel.step(client)
        if not result.was_commit:
            self.operations += 1

        # validation work costs simulated time: serial validation ran
        # inside the critical section (the scheduler stays occupied, all
        # other clients queue behind it), pipelined validation runs off
        # it and only delays this client.
        if result.validation_probes and config.validation_probe_time:
            cost = result.validation_probes * config.validation_probe_time
            if result.validation_offloaded:
                client.exec_time += cost
            else:
                self._scheduler_free_at = decision_time + cost
                client.sched_time += cost
            decision_time += cost

        if result.kind is StepKind.VALIDATING:
            # validation passed off the critical section; the next event
            # is the short finishing commit interaction
            return decision_time
        if result.kind is StepKind.COMMITTED:
            return self._finish_commit(client, decision_time)
        if result.kind is StepKind.GRANTED:
            client.exec_time += config.execution_time
            return decision_time + config.execution_time
        if result.kind is StepKind.BLOCKED:
            self.blocks += 1
            client.ever_delayed = True
            client.wait_started = decision_time
            if result.parked:
                # the kernel will wake us; no retry event needed
                return None
            # an injected stall, or no live blocker named: retry on a timer
            return decision_time + config.retry_interval
        return self._after_abort(client, decision_time)

    def _finish_commit(self, client: _ClientSession, decision_time: float) -> float:
        self.committed += 1
        if not client.ever_delayed and client.attempts == 1:
            self.delay_free += 1
        response = decision_time - client.submit_time
        self.response_times.append(response)
        self._sched_times.append(client.sched_time)
        self._wait_times.append(client.wait_time)
        self._exec_times.append(client.exec_time)
        self.metrics.observe("sim.response_time", response)
        client.spec = None
        return decision_time + self._think()

    def _after_abort(self, client: _ClientSession, decision_time: float) -> float:
        config = self.config
        self.aborts += 1
        client.ever_delayed = True
        if client.attempts >= config.max_attempts:
            # give up on this transaction and move on to a new one
            client.spec = None
            client.program = None
            return decision_time + self._think()
        self.kernel.restart(client)
        client.wait_started = decision_time
        return decision_time + config.abort_backoff


def compare_protocols(
    protocol_factories: Dict[str, Callable[[DataStore], ConcurrencyControl]],
    initial_data: Dict[str, Any],
    workload: Callable[[random.Random], TransactionSpec],
    config: Optional[SimulationConfig] = None,
) -> Dict[str, SimulationReport]:
    """Run the same workload/config under several protocols on identical stores."""
    reports: Dict[str, SimulationReport] = {}
    for name, factory in protocol_factories.items():
        store = DataStore(initial_data)
        protocol = factory(store)
        simulator = Simulator(protocol, workload, config)
        reports[name] = simulator.run()
    return reports

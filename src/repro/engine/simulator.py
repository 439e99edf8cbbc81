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
executor's heap of ``round * N + session_id`` keys
(:mod:`repro.engine.runtime`) with real-valued time: only runnable
clients have events, abort backoff is an event in the future, and a
blocked client re-enters when the step that resolved its blocker lists
it in ``kernel.woken``.
:meth:`Simulator.run` steps the kernel in its own loop, as the
executor's does: it pops an event, begins, charges waiting and
scheduling time, steps the kernel and, straight after the step,
schedules an event at the step's decision time for each client it
woke, before the stepped client's own next event.  The step answers
with its :class:`~repro.engine.kernel.StepKind` alone; the rest the
loop reads from what it holds: the client (``waiting_on`` says a block
was parked, an ``op_index`` at the program's end that the step was a
commit request) and the protocol (the growth of its cumulative
``validation_probes`` since the last charge is the validation work to
charge, off the critical section when it has a ``two_stage_commit``).
Events beyond the configured duration are never enqueued, so the heap
stays proportional to the clients that can still act before the
horizon.

The report gives throughput, mean response time, the mean latency
breakdown per committed transaction, abort counts and the *delay-free
fraction* — the empirical counterpart of the fixpoint-set probability
``|P| / |H|`` of Section 6 — plus the kernel/protocol metrics registry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.faults import FaultPlan
from repro.engine.kernel import EngineKernel, Session, StepKind
from repro.engine.metrics import Metrics
from repro.engine.operations import TransactionSpec
from repro.engine.protocols.base import ConcurrencyControl
from repro.engine.storage import DataStore
from repro.obs.trace import Tracer


class SimulationConfig:
    """Knobs of the discrete-event simulation."""

    __slots__ = (
        "num_clients",
        "duration",
        "scheduling_time",
        "execution_time",
        "think_time",
        "retry_interval",
        "abort_backoff",
        "max_attempts",
        "seed",
        "validation_probe_time",
    )

    def __init__(
        self,
        num_clients: int = 8,
        duration: float = 1_000.0,
        scheduling_time: float = 0.1,
        execution_time: float = 1.0,
        think_time: float = 2.0,
        retry_interval: float = 1.0,
        abort_backoff: float = 2.0,
        max_attempts: int = 50,
        seed: int = 0,
        validation_probe_time: float = 0.0,
    ) -> None:
        times = (
            ("duration", duration),
            ("scheduling_time", scheduling_time),
            ("execution_time", execution_time),
            ("think_time", think_time),
            ("retry_interval", retry_interval),
            ("abort_backoff", abort_backoff),
            ("validation_probe_time", validation_probe_time),
        )
        for name, value in times:
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        # with all three zero no event advances the clock: the run never ends
        if not (scheduling_time or execution_time or think_time):
            raise ValueError(
                "scheduling_time, execution_time and think_time cannot all be 0"
            )
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.num_clients = num_clients
        self.duration = duration
        self.scheduling_time = scheduling_time
        self.execution_time = execution_time
        self.think_time = think_time
        #: how long a block the kernel could not park (an injected stall, or
        #: a BLOCK naming no live blocker) waits before it is retried
        self.retry_interval = retry_interval
        self.abort_backoff = abort_backoff
        self.max_attempts = max_attempts
        self.seed = seed
        #: simulated time per validation probe (OCC commit checks).  Serial
        #: validation runs *inside* the scheduler critical section, so its
        #: probes extend the scheduler occupancy and every other client
        #: queues behind them; a validation pipeline (parallel OCC) runs its
        #: probes off the critical section, overlapping with other clients.
        #: 0 (the default) reproduces pre-pipeline reports exactly.
        self.validation_probe_time = validation_probe_time


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
        self._ran = False
        #: per commit, in order: the floats the report's means ``sum()``
        self.response_times: List[float] = []
        self._sched_times, self._wait_times, self._exec_times = [], [], []
        self.delay_free = 0
        self.aborts = 0
        self.committed = 0

    def _think(self) -> float:
        return self.rng.expovariate(1.0 / self.config.think_time) if self.config.think_time else 0.0

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Run the simulation for the configured duration and report.

        The loop steps the kernel itself (see the module docstring).  A
        client the kernel parked gets no event: its wake is its way
        back.  Commits and aborts, the only outcomes that draw a think
        time or restart, leave the loop for :meth:`_finish_commit` and
        :meth:`_after_abort`.  The ``sim.wait_time`` and
        ``sim.response_time`` histograms take their observations in one
        call each at the end of the run; each enters the registry at its
        first observation, as :meth:`Metrics.observe` would put it there.

        A simulator runs once: a second run would start beside the first
        run's in-flight transactions, which still hold their locks, so it
        raises :class:`RuntimeError` instead.
        """
        if self._ran:
            raise RuntimeError("a Simulator runs once; build a new one to run again")
        self._ran = True
        config = self.config
        duration = config.duration
        scheduling_time = config.scheduling_time
        execution_time = config.execution_time
        probe_time = config.validation_probe_time
        retry_interval = config.retry_interval
        protocol = self.protocol
        offloaded = protocol.two_stage_commit
        # the protocol's cumulative probe count when last charged: a
        # step is charged the growth since, so one that never reached
        # the protocol (an injected fault) is charged nothing
        probes_seen = protocol.validation_probes
        kernel = self.kernel
        step = kernel.step
        woken = kernel.woken
        tracing = self._tracing
        tracer = self.tracer
        workload = self.workload
        rng = self.rng
        # every waited interval, in order: sim.wait_time's observations
        waits: List[float] = []
        granted = StepKind.GRANTED
        committed = StepKind.COMMITTED
        validating = StepKind.VALIDATING
        blocked = StepKind.BLOCKED
        stalled = StepKind.STALLED

        clients = [
            kernel.register(_ClientSession(spec=None, session_id=i))
            for i in range(config.num_clients)
        ]
        # (time, seq, client id): seq breaks time ties in push order
        events: List[Tuple[float, int, int]] = []
        seq = 0
        for client in clients:
            time = self._think()
            if time <= duration:
                heappush(events, (time, seq, client.session_id))
                seq += 1

        scheduler_free_at = 0.0
        processed = operations = blocks = 0
        while events:
            now, _, client_id = heappop(events)
            processed += 1
            client = clients[client_id]
            if client.spec is None:
                client.begin_new(workload(rng))
                client.submit_time = now
                client.sched_time = client.wait_time = client.exec_time = 0.0
                client.ever_delayed = False
                client.wait_started = None

            if client.txn_id is None:
                if tracing:
                    tracer.now = now
                step(client)  # begin: consumes no simulated time
                heappush(events, (now, seq, client_id))
                seq += 1
                continue

            # account waiting time accrued since the last blocked attempt
            if client.wait_started is not None:
                waited = now - client.wait_started
                client.wait_time += waited
                if not waits:
                    self.metrics.histogram_handle("sim.wait_time")
                waits.append(waited)
                client.wait_started = None

            # occupy the centralized scheduler (a single shared resource)
            start = max(now, scheduler_free_at)
            decision_time = start + scheduling_time
            scheduler_free_at = decision_time
            client.sched_time += start - now + scheduling_time

            if tracing:
                tracer.now = decision_time
            kind = step(client)
            if woken:
                # the clients this step woke retry at its decision time,
                # ahead of this client's next event
                if decision_time <= duration:
                    for session in woken:
                        heappush(events, (decision_time, seq, session.session_id))
                        seq += 1
                woken.clear()
            if kind is granted:
                operations += 1
                client.exec_time += execution_time
                next_time = decision_time + execution_time
            else:
                # the kernel moves no op_index before the restart: this
                # step was a commit request exactly when the program is done
                if client.op_index < len(client.program):
                    operations += 1
                # validation work costs simulated time: serial validation
                # ran inside the critical section (the scheduler stays
                # occupied, all other clients queue behind it), pipelined
                # validation runs off it and only delays this client.
                if probe_time:
                    probes = protocol.validation_probes - probes_seen
                    if probes:
                        probes_seen += probes
                        cost = probes * probe_time
                        if offloaded:
                            client.exec_time += cost
                        else:
                            scheduler_free_at = decision_time + cost
                            client.sched_time += cost
                        decision_time += cost
                if kind is validating:
                    # validation passed off the critical section; the next
                    # event is the short finishing commit interaction
                    next_time = decision_time
                elif kind is committed:
                    next_time = self._finish_commit(client, decision_time)
                elif kind is blocked or kind is stalled:
                    blocks += 1
                    client.ever_delayed = True
                    client.wait_started = decision_time
                    if client.waiting_on:
                        # the kernel parked this client and will wake it:
                        # no event
                        continue
                    # an injected stall, or no live blocker named: retry
                    # on a timer
                    next_time = decision_time + retry_interval
                else:
                    next_time = self._after_abort(client, decision_time)
            if next_time <= duration:
                heappush(events, (next_time, seq, client_id))
                seq += 1

        metrics = self.metrics
        if waits:
            metrics.histogram_handle("sim.wait_time").observe_all(waits)
        if self.response_times:
            metrics.histogram_handle("sim.response_time").observe_all(self.response_times)
        return SimulationReport(
            protocol_name=self.protocol.name,
            duration=duration,
            committed=self.committed,
            aborts=self.aborts,
            blocks=blocks,
            operations=operations,
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
            events_processed=processed,
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
    # the outcomes that leave the loop
    # ------------------------------------------------------------------
    def _finish_commit(self, client: _ClientSession, decision_time: float) -> float:
        self.committed += 1
        if not client.ever_delayed and client.attempts == 1:
            self.delay_free += 1
        response = decision_time - client.submit_time
        if not self.response_times:
            self.metrics.histogram_handle("sim.response_time")
        self.response_times.append(response)
        self._sched_times.append(client.sched_time)
        self._wait_times.append(client.wait_time)
        self._exec_times.append(client.exec_time)
        client.spec = None
        return decision_time + self._think()

    def _after_abort(self, client: _ClientSession, decision_time: float) -> float:
        config = self.config
        self.aborts += 1
        client.ever_delayed = True
        if client.attempts >= config.max_attempts:
            # give up on this transaction and move on to a new one
            client.spec = None
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

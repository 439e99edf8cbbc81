"""The shared engine kernel: session state, protocol driving, wakeups.

Both engine front-ends — the untimed :class:`~repro.engine.runtime.
TransactionExecutor` and the timed :class:`~repro.engine.simulator.
Simulator` — used to duplicate the same logic: allocate transaction ids,
drive one protocol interaction per step (begin / data operation /
commit), buffer reads for UPDATE transforms, and restart after aborts.
This module hoists that logic into one kernel so the front-ends only
decide *policy*: interleaving order for the executor, simulated time for
the simulator.

A data step is one kernel frame: :meth:`EngineKernel.step` indexes the
session's *lowered program* — each :class:`TransactionSpec` is flattened once, when
it is installed in a session, into a tuple of ``(kind, key, transform)``
triples (:func:`lower`) — issues the read and/or write to the protocol
itself, branches on ``decision.kind`` by identity and builds the slotted
:class:`StepResult`.  Only blocking (:meth:`EngineKernel._park`) and the
wake path leave that frame, and they resolve the protocol's active set
and the metrics registry once per call, not per blocker.

The kernel's second job is **event-driven blocking**.  A ``BLOCK``
decision names the transactions it waits for (``Decision.blocked_on``);
the kernel records the blocked session in a *wait index* keyed by
blocker, subscribes to the protocol's finished/wake notifications, and
wakes exactly the sessions whose blockers resolved.  The front-ends never
poll a parked request on a timer — the scaling win that lets simulations
run hundreds of clients; only a block the kernel could not park (an
injected stall, or a BLOCK naming no live blocker) is retried on the
caller's own schedule.  Stepping a session that is still parked
un-parks it first: serial interleaving re-drives a session straight
after it blocks.

Wakeups use broadcast semantics: a session wakes as soon as *any* of its
recorded blockers finishes.  A retry may then block again on a remaining
holder — one cheap extra interaction — but the kernel never has to prove
that every blocker will resolve, which keeps it robust against lock
queues whose holder set changes while a session waits.

A front-end installs its ``wake_sink`` and attaches for one run, then
clears the sink and detaches in one ``finally``: a finished engine has no
reference cycle (protocol → kernel → front-end), so reference counting
frees it.

The kernel's third job is the **declared-read-only fast path**: when a
session's program is read-only (:attr:`TransactionSpec.is_read_only`)
and the protocol hands out a stable snapshot timestamp
(:meth:`ConcurrencyControl.readonly_snapshot` — the multi-version
protocols do), every operation is served straight from that snapshot and
the write-buffer/validation machinery is skipped entirely.  Such
sessions can neither block nor abort, which is what drives reader
abort/block rates to zero on read-mostly workloads.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, Callable, Collection, Dict, List, Optional, Set, Tuple

from repro.engine.faults import (
    ABORT_ACTION,
    COMMIT_STAGE,
    OPERATION_STAGE,
    FaultPlan,
)
from repro.engine.metrics import Metrics
from repro.engine.operations import AnySpec, LoweredSpec, OperationKind, Program
from repro.engine.protocols.base import (
    ConcurrencyControl,
    Decision,
    DecisionKind,
    SnapshotAborted,
)
from repro.engine.reasons import ABORT_FAULT_INJECTED
from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_TRACER, Tracer

_READ = OperationKind.READ
_WRITE = OperationKind.WRITE
_UPDATE = OperationKind.UPDATE
_GRANT = DecisionKind.GRANT
_BLOCK = DecisionKind.BLOCK


def lower(spec: AnySpec) -> Program:
    """Lower a spec to the flat tuple program :meth:`EngineKernel.step` indexes.

    Done once per installed program (session creation, ``begin_new``),
    so a step costs one tuple index and an unpack instead of a
    ``TransactionSpec.__len__`` call plus three attribute reads off an
    ``Operation`` — and restarts reuse the same program.  A
    :class:`LoweredSpec` (a transaction that crossed a process boundary
    in wire form) already *is* its program and hands it back unchanged.
    """
    if spec.__class__ is LoweredSpec:
        return spec.program
    return tuple([(op.kind, op.key, op.transform) for op in spec.operations])


class Session:
    """One submitted transaction as the engine sees it (across restarts).

    The executor keeps one session per submitted spec; the simulator
    reuses one session per client terminal, installing a fresh spec via
    :meth:`begin_new` for every generated transaction.

    Hand-rolled with ``__slots__`` rather than a dataclass: sessions are
    touched on every kernel step, and slot access keeps the per-step
    attribute traffic off a per-instance ``__dict__``.
    """

    __slots__ = (
        "spec",
        "program",
        "session_id",
        "txn_id",
        "op_index",
        "reads",
        "attempts",
        "committed",
        "given_up",
        "blocks",
        "operations_issued",
        "cooldown",
        "waiting",
        "waiting_on",
        "fast_snapshot",
        "validating",
    )

    def __init__(self, spec: Optional[AnySpec], session_id: int) -> None:
        self.spec = spec
        #: ``spec`` lowered once (see :func:`lower`); what the kernel runs.
        #: Dropped once the session commits or gives up: a finished
        #: session keeps its ``spec`` and ``reads``, not its program.
        self.program: Optional[Program] = None if spec is None else lower(spec)
        self.session_id = session_id
        self.txn_id: Optional[int] = None
        self.op_index = 0
        self.reads: Dict[str, Any] = {}
        self.attempts = 0
        self.committed = False
        self.given_up = False
        self.blocks = 0
        self.operations_issued = 0
        #: rounds to sit out after an abort (linear backoff breaks livelock
        #: patterns where restarting transactions keep recreating the same
        #: deadlock against each other) — used by the untimed executor only.
        self.cooldown = 0
        #: event-driven state: True while parked in the kernel's wait index.
        self.waiting = False
        #: the blockers this session is currently parked on (the shared
        #: empty tuple while it is not parked).
        self.waiting_on: Collection[int] = ()
        #: read-only fast path: the snapshot timestamp this session reads at,
        #: or None when the session runs through the protocol normally.
        self.fast_snapshot: Optional[Any] = None
        #: two-stage commit: True between a granted prepare_commit and the
        #: finishing commit interaction (the validation pipeline).
        self.validating = False

    def reset_for_restart(self) -> None:
        self.txn_id = None
        self.op_index = 0
        self.reads = {}
        self.cooldown = self.attempts
        self.validating = False
        # a restarted fast-path reader must take a *fresh* snapshot:
        # its old one is exactly what it aborted to escape
        self.fast_snapshot = None

    def begin_new(self, spec: AnySpec) -> None:
        """Install a fresh transaction program (simulator client reuse)."""
        self.spec = spec
        self.program = lower(spec)
        self.txn_id = None
        self.op_index = 0
        self.reads = {}
        self.attempts = 0
        self.committed = False
        self.given_up = False
        self.fast_snapshot = None
        self.validating = False

    @property
    def finished(self) -> bool:
        return self.committed or self.given_up


class StepKind(enum.Enum):
    """What one kernel step did to a session."""

    STARTED = "started"        # transaction began (no data request issued)
    GRANTED = "granted"        # a data operation was granted
    BLOCKED = "blocked"        # the request must wait
    VALIDATING = "validating"  # two-stage commit: validation stage passed;
                               # the next step finishes the commit
    COMMITTED = "committed"    # the commit request was granted
    ABORTED = "aborted"        # the attempt aborted (caller decides restart)


class StepResult:
    """The outcome of driving a session by one protocol interaction.

    Hand-rolled with ``__slots__`` like :class:`Session` and
    :class:`~repro.engine.protocols.base.Decision`: one is built per
    kernel step, and a frozen dataclass pays an ``object.__setattr__``
    call per field for it.  Treat instances as read-only.

    ``was_commit``
        whether the interaction was a commit request (vs. a data operation).
    ``parked``
        BLOCKED only: True if the session is parked in the wait index and
        will be woken by a notification; False means the caller must retry
        on its own schedule (no live blockers were named).
    ``validation_probes``
        simulated cost of the validation work this interaction performed
        (one probe per read-set key + concurrent-validator checks); 0 for
        protocols that do not validate.
    ``validation_offloaded``
        True when the probes ran inside a validation pipeline (outside the
        protocol's critical section) and may overlap other clients' work;
        False means they occupied the critical section (serial validation).
    ``fault``
        the injected fault behind this result ("abort" or "stall"), or
        None for a genuine protocol decision.  Callers use it to tell an
        injected stall (which is itself an event and counts as progress)
        from a real BLOCK.
    """

    __slots__ = (
        "kind",
        "decision",
        "was_commit",
        "parked",
        "validation_probes",
        "validation_offloaded",
        "fault",
    )

    def __init__(
        self,
        kind: StepKind,
        decision: Optional[Decision] = None,
        was_commit: bool = False,
        parked: bool = False,
        validation_probes: int = 0,
        validation_offloaded: bool = False,
        fault: Optional[str] = None,
    ) -> None:
        self.kind = kind
        self.decision = decision
        self.was_commit = was_commit
        self.parked = parked
        self.validation_probes = validation_probes
        self.validation_offloaded = validation_offloaded
        self.fault = fault

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"StepResult({fields})"


class RunQueue:
    """A round-ordered run queue plus a cooldown wheel.

    The untimed executor's scheduling structure: session ids that are
    runnable *this* round live in a min-heap (so round-robin drains them
    in creation order), sessions that become runnable next round
    accumulate in a second heap, and sessions sitting out an abort
    backoff are parked in a wheel keyed by the absolute round at which
    their cooldown expires.  Blocked
    sessions appear in none of the three — they re-enter through
    :meth:`push_wake` when the kernel's wake notification fires — so one
    scheduling round costs O(runnable), not O(live).

    The timed :class:`~repro.engine.simulator.Simulator` needs no
    separate structure: its event heap is this queue with real-valued
    rounds (the cooldown wheel is ``abort_backoff``, the wake path is
    :attr:`EngineKernel.wake_sink` scheduling an event at the wake
    time), which is why only the executor instantiates this class.

    Round semantics, which the executor digests in
    ``tests/test_engine_sched.py`` and ``tests/test_engine_hotpath.py``
    pin: a session that aborts in round ``R`` with cooldown ``c`` sits
    out rounds ``R+1 .. R+c`` and steps again in ``R+c+1`` —
    :meth:`schedule_cooldown` files it at ``R + c + 1`` directly and
    :meth:`advance` skips the empty rounds in between.  A wake that
    lands mid-round targets the current round when the woken session's
    id is still ahead of the drain cursor (it is still due this round)
    and the next round otherwise.
    """

    __slots__ = ("round", "_current", "_next", "_wheel", "_cursor")

    def __init__(self) -> None:
        #: the absolute round number currently being drained
        self.round = 0
        self._current: List[int] = []
        self._next: List[int] = []
        self._wheel: List[Tuple[int, int]] = []
        self._cursor = -1

    # ------------------------------------------------------------------
    # enqueuing
    # ------------------------------------------------------------------
    def push_current(self, session_id: int) -> None:
        """Make a session runnable in the round being drained."""
        heapq.heappush(self._current, session_id)

    def push_next(self, session_id: int) -> None:
        """Make a session runnable from the following round on."""
        heapq.heappush(self._next, session_id)

    def push_wake(self, session_id: int) -> None:
        """Route a woken session: current round if the drain cursor has
        not passed it yet (ids drain in ascending order, so anything
        above the cursor is still due this round), next round otherwise."""
        if session_id > self._cursor:
            heapq.heappush(self._current, session_id)
        else:
            heapq.heappush(self._next, session_id)

    def schedule_cooldown(self, session_id: int, cooldown: int) -> None:
        """Park a session in the wheel until its backoff expires."""
        heapq.heappush(self._wheel, (self.round + cooldown + 1, session_id))

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def advance(self) -> bool:
        """Begin the next non-empty round; False when nothing is queued.

        Skips straight to the earliest cooldown expiry when no session
        is runnable sooner — empty rounds are unobservable (no protocol
        interaction can happen in them), so burning them one by one
        would be pure overhead.
        """
        if self._current:
            raise RuntimeError("advance() called with the current round undrained")
        if self._next:
            self.round += 1
        elif self._wheel:
            self.round = max(self.round + 1, self._wheel[0][0])
        else:
            return False
        self._current, self._next = self._next, self._current
        self._cursor = -1
        return True

    def expired_cooldowns(self) -> List[int]:
        """Pop the sessions whose cooldown ends in the current round."""
        expired: List[int] = []
        while self._wheel and self._wheel[0][0] <= self.round:
            expired.append(heapq.heappop(self._wheel)[1])
        return expired

    def pop(self) -> Optional[int]:
        """The next session id of the current round, in ascending order."""
        if not self._current:
            return None
        self._cursor = heapq.heappop(self._current)
        return self._cursor

    def drain_current(self) -> List[int]:
        """Take the whole current round at once (ascending), for callers
        that impose their own order — the executor's random interleaving
        draws from this bucket instead of popping in id order."""
        bucket = sorted(self._current)
        self._current.clear()
        self._cursor = -1
        return bucket

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def cooling(self) -> bool:
        """Whether any session is parked in the cooldown wheel."""
        return bool(self._wheel)

    def __len__(self) -> int:
        return len(self._current) + len(self._next) + len(self._wheel)


class EngineKernel:
    """Drive sessions through a protocol; wake blocked sessions on events.

    Parameters
    ----------
    protocol:
        The online concurrency-control protocol to drive.
    metrics:
        Shared instrumentation registry; defaults to the protocol's own
        registry so kernel and protocol metrics land in one report.
    fault_plan:
        Optional deterministic fault injector (see
        :mod:`repro.engine.faults`): consulted once per non-fast-path
        interaction, it may force the attempt to abort or stall the
        request.  ``None`` (the default) costs one attribute check per
        step.
    tracer:
        Optional structured-trace sink (see :mod:`repro.obs.trace`).
        Defaults to the shared :data:`~repro.obs.trace.NULL_TRACER`;
        its ``enabled`` flag is cached once so a disabled tracer costs
        one boolean check per emission point.  The front-end owns the
        tracer's logical clock (``tracer.now``).
    """

    def __init__(
        self,
        protocol: ConcurrencyControl,
        metrics: Optional[Metrics] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.protocol = protocol
        if metrics is None:
            self.metrics = protocol.metrics
        else:
            # one registry for the whole stack: the protocol adopts the
            # caller's registry so kernel and protocol metrics land together
            self.metrics = metrics
            protocol.metrics = metrics
        self._next_txn_id = 1
        self._session_by_txn: Dict[int, Session] = {}
        #: wait index: blocker transaction id -> sessions parked on it
        self._waiters: Dict[int, Set[int]] = {}
        self._sessions: Dict[int, Session] = {}
        #: called when a parked session becomes runnable again.  The
        #: front-end installs it for a run (the simulator schedules an
        #: event, the executor enqueues the session) and clears it where it
        #: calls :meth:`detach`: left set, it would be a reference cycle.
        self.wake_sink: Optional[Callable[[Session], None]] = None
        #: called with the session right after each successful commit
        #: (normal and read-only fast path alike), while the committed
        #: attempt's spec and read buffer are still attached — the
        #: conformance harness's history-recorder hook.
        self.commit_sink: Optional[Callable[[Session], None]] = None
        self.fault_plan = fault_plan
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._tracing = self.tracer.enabled
        #: cached once, like ``_tracing``: deterministic protocols get
        #: their footprint declared at begin and epoch-tagged traces
        self._deterministic = protocol.deterministic
        self._attached = False
        self.attach()

    # ------------------------------------------------------------------
    # protocol subscription lifecycle
    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Subscribe to the protocol's finish/wake notifications (idempotent).

        Kernels attach on construction; a front-end re-attaches at the
        start of a run in case the kernel was detached after a previous
        one.
        """
        if not self._attached:
            self.protocol.add_finish_listener(self._on_txn_finished)
            self.protocol.add_wake_listener(self._on_wake_request)
            self._attached = True

    def detach(self) -> None:
        """Unsubscribe from the protocol's notifications (idempotent).

        Called by the front-ends when a run completes so a finished
        kernel never reacts to a *later* kernel's commits and aborts on
        the same protocol instance — with the run queue, a stale
        subscription would re-enqueue dead sessions.
        """
        if self._attached:
            self.protocol.remove_finish_listener(self._on_txn_finished)
            self.protocol.remove_wake_listener(self._on_wake_request)
            self._attached = False

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------
    def register(self, session: Session) -> Session:
        self._sessions[session.session_id] = session
        return session

    def new_session(self, spec: Optional[AnySpec], session_id: int) -> Session:
        return self.register(Session(spec=spec, session_id=session_id))

    def restart(self, session: Session) -> None:
        """Reset a session for a fresh attempt after an abort."""
        if session.txn_id is not None:
            self._session_by_txn.pop(session.txn_id, None)
        self._unpark(session)
        session.reset_for_restart()
        self.metrics.incr("kernel.restarts")
        if self._tracing:
            self.tracer.emit(
                obs_trace.RESTART,
                session.session_id,
                None,
                session.attempts,
                meta={"cooldown": session.cooldown},
            )

    # ------------------------------------------------------------------
    # the one-step state machine shared by executor and simulator
    # ------------------------------------------------------------------
    def step(self, session: Session) -> StepResult:
        """Advance a session by exactly one protocol interaction."""
        if session.spec is None:
            raise ValueError("cannot step a session with no transaction program")
        if session.waiting:
            # re-driven while parked (serial interleaving keeps stepping
            # the session it is on): it is no longer parked.
            self._unpark(session)

        if session.txn_id is None:
            session.txn_id = self._next_txn_id
            self._next_txn_id += 1
            session.attempts += 1
            if session.spec.is_read_only:
                snapshot = self.protocol.readonly_snapshot()
                if snapshot is not None:
                    # declared-read-only fast path: the whole transaction
                    # runs against this snapshot, bypassing the protocol's
                    # write buffers and validation entirely.
                    session.fast_snapshot = snapshot
                    self.metrics.incr("kernel.readonly_fastpath")
                    if self._tracing:
                        self.tracer.emit(
                            obs_trace.BEGIN,
                            session.session_id,
                            session.txn_id,
                            session.attempts,
                            meta={"fastpath": True},
                        )
                    return StepResult(StepKind.STARTED)
            self._session_by_txn[session.txn_id] = session
            self.protocol.begin(session.txn_id)
            meta = None
            if self._deterministic:
                # the epoch boundary: the sequencer admits the declared
                # footprint *here*, before any data request, fixing the
                # transaction's place in the deterministic total order
                ticket = self.protocol.declare_footprint(
                    session.txn_id,
                    session.spec.read_set(),
                    session.spec.write_set(),
                )
                if self._tracing:
                    meta = {"epoch": ticket.epoch, "slot": ticket.slot}
            if self._tracing:
                self.tracer.emit(
                    obs_trace.BEGIN,
                    session.session_id,
                    session.txn_id,
                    session.attempts,
                    meta=meta,
                )
            return StepResult(StepKind.STARTED)

        if session.fast_snapshot is not None:
            return self._step_readonly(session)

        if self.fault_plan is not None and not session.validating:
            injected = self._maybe_inject_fault(session)
            if injected is not None:
                return injected

        txn_id = session.txn_id
        protocol = self.protocol
        program = session.program
        op_index = session.op_index
        if op_index >= len(program):
            if protocol.two_stage_commit and not session.validating:
                prepared = protocol.prepare_commit(txn_id)
                if prepared is not None:
                    probes = protocol.take_validation_probes()
                    if prepared.kind is _GRANT:
                        session.validating = True
                        if self._tracing:
                            self.tracer.emit(
                                obs_trace.VALIDATE,
                                session.session_id,
                                txn_id,
                                session.attempts,
                                meta={"stage": "parallel", "probes": probes},
                            )
                        return StepResult(
                            StepKind.VALIDATING,
                            prepared,
                            was_commit=True,
                            validation_probes=probes,
                            validation_offloaded=True,
                        )
                    # validation-stage failure: the attempt aborts here
                    self._abort(session)
                    if self._tracing:
                        self._trace_abort(session, txn_id, prepared, commit=True)
                    return StepResult(
                        StepKind.ABORTED,
                        prepared,
                        was_commit=True,
                        validation_probes=probes,
                        validation_offloaded=True,
                    )
            offloaded = session.validating
            decision = protocol.commit(txn_id)
            probes = protocol.take_validation_probes()
            outcome = decision.kind
            if outcome is _BLOCK:
                # keep session.validating: the retry must finish the
                # commit stage, not re-enter prepare and validate twice
                session.blocks += 1
                parked = self._park(session, decision)
                if self._tracing:
                    self._trace_block(session, txn_id, decision, parked, commit=True)
                return StepResult(
                    StepKind.BLOCKED,
                    decision,
                    was_commit=True,
                    parked=parked,
                    validation_probes=probes,
                    validation_offloaded=offloaded,
                )
            session.validating = False
            if outcome is _GRANT:
                session.committed = True
                session.program = None
                self._session_by_txn.pop(txn_id, None)
                if self.commit_sink is not None:
                    self.commit_sink(session)
                if self._tracing:
                    meta = {"probes": probes} if probes else None
                    if self._deterministic:
                        ticket = protocol.ticket_of(txn_id)
                        if ticket is not None:
                            meta = dict(meta or {})
                            meta["epoch"] = ticket.epoch
                            meta["slot"] = ticket.slot
                    self.tracer.emit(
                        obs_trace.COMMIT,
                        session.session_id,
                        txn_id,
                        session.attempts,
                        meta=meta,
                    )
                return StepResult(
                    StepKind.COMMITTED,
                    decision,
                    was_commit=True,
                    validation_probes=probes,
                    validation_offloaded=offloaded,
                )
            self._abort(session)
            if self._tracing:
                self._trace_abort(session, txn_id, decision, commit=True)
            return StepResult(
                StepKind.ABORTED,
                decision,
                was_commit=True,
                validation_probes=probes,
                validation_offloaded=offloaded,
            )

        # transforms receive the live read buffer (not a defensive copy:
        # copying it per UPDATE dominated the hot path) and must treat it
        # as read-only — every shipped workload does.
        kind, key, transform = program[op_index]
        if kind is _WRITE:  # blind write
            decision = protocol.write(txn_id, key, transform(session.reads))
        else:
            decision = protocol.read(txn_id, key)
            if decision.kind is _GRANT:
                session.reads[key] = decision.value
                if kind is _UPDATE:
                    decision = protocol.write(txn_id, key, transform(session.reads))
        session.operations_issued += 1
        outcome = decision.kind
        if outcome is _GRANT:
            session.op_index = op_index + 1
            if self._tracing:
                self.tracer.emit(
                    obs_trace.READ if kind is _READ else obs_trace.WRITE,
                    session.session_id,
                    txn_id,
                    session.attempts,
                    key=key,
                    meta={"update": True} if kind is _UPDATE else None,
                )
            return StepResult(StepKind.GRANTED, decision)
        if outcome is _BLOCK:
            session.blocks += 1
            parked = self._park(session, decision)
            if self._tracing:
                self._trace_block(session, txn_id, decision, parked, key=key)
            return StepResult(StepKind.BLOCKED, decision, parked=parked)
        self._abort(session)
        if self._tracing:
            self._trace_abort(session, txn_id, decision, key=key)
        return StepResult(StepKind.ABORTED, decision)

    def _step_readonly(self, session: Session) -> StepResult:
        """Advance a declared-read-only session on the snapshot fast path.

        Every operation is a read served directly from the snapshot
        (read-only specs cannot contain writes), so the session can
        never block; the trivial commit only releases the snapshot lease
        so the protocol's garbage collector may advance.  The one way a
        fast-path attempt can die is :class:`SnapshotAborted` — the
        protocol refusing a read that would observe a non-serializable
        state (serializable SI's committed-pivot anomaly) — in which
        case the lease is released, the attempt's reads are scrubbed
        from the protocol's history bookkeeping, and the caller restarts
        the session on a fresh snapshot.
        """
        program = session.program
        if session.op_index >= len(program):
            self.protocol.release_snapshot(session.fast_snapshot)
            session.committed = True
            session.program = None
            self.metrics.incr("kernel.readonly_commits")
            if self.commit_sink is not None:
                self.commit_sink(session)
            if self._tracing:
                self.tracer.emit(
                    obs_trace.COMMIT,
                    session.session_id,
                    session.txn_id,
                    session.attempts,
                    meta={"fastpath": True},
                )
            return StepResult(StepKind.COMMITTED, Decision.grant(), was_commit=True)
        key = program[session.op_index][1]
        try:
            value = self.protocol.snapshot_read(
                key, session.fast_snapshot, txn_id=session.txn_id
            )
        except SnapshotAborted as reason:
            self.protocol.abort_fast_reader(session.txn_id, session.fast_snapshot)
            session.fast_snapshot = None
            self.metrics.incr("kernel.readonly_aborts")
            decision = Decision.abort(
                str(reason), code=reason.code, conflict=reason.conflict_txns
            )
            if self._tracing:
                self._trace_abort(session, session.txn_id, decision, key=key)
            return StepResult(StepKind.ABORTED, decision)
        session.reads[key] = value
        session.op_index += 1
        session.operations_issued += 1
        if self._tracing:
            self.tracer.emit(
                obs_trace.READ,
                session.session_id,
                session.txn_id,
                session.attempts,
                key=key,
                meta={"fastpath": True},
            )
        return StepResult(StepKind.GRANTED, Decision.grant(value))

    def _maybe_inject_fault(self, session: Session) -> Optional[StepResult]:
        """Consult the fault plan before a normal-path interaction.

        Returns the injected outcome, or ``None`` to proceed with the
        genuine protocol request.  Injection is skipped for fast-path
        and mid-validation sessions (callers guarantee that); both
        injected outcomes — a forced abort and an unparked stall — are
        states the protocol must tolerate from any client at any time,
        so correctness oracles hold under every plan.
        """
        program = session.program
        if session.op_index >= len(program):
            stage, key = COMMIT_STAGE, None
        else:
            stage, key = OPERATION_STAGE, program[session.op_index][1]
        action = self.fault_plan.intercept(session.txn_id, stage, key)
        if action is None:
            return None
        was_commit = stage == COMMIT_STAGE
        if action == ABORT_ACTION:
            self.metrics.incr("kernel.fault_aborts")
            self._abort(session)
            decision = Decision.abort(
                "fault: injected client abort", code=ABORT_FAULT_INJECTED, key=key
            )
            if self._tracing:
                self._trace_abort(
                    session, session.txn_id, decision, key=key, commit=was_commit
                )
            return StepResult(
                StepKind.ABORTED,
                decision,
                was_commit=was_commit,
                fault=action,
            )
        self.metrics.incr("kernel.fault_stalls")
        session.blocks += 1
        decision = Decision.block(reason="fault: injected stall")
        if self._tracing:
            self.tracer.emit(
                obs_trace.BLOCK,
                session.session_id,
                session.txn_id,
                session.attempts,
                key=key,
                detail=decision.reason,
                meta={"fault": True, "commit": was_commit},
            )
        return StepResult(
            StepKind.BLOCKED,
            decision,
            was_commit=was_commit,
            parked=False,
            fault=action,
        )

    def _abort(self, session: Session) -> None:
        txn_id = session.txn_id
        self.protocol.abort(txn_id)
        self._session_by_txn.pop(txn_id, None)

    # ------------------------------------------------------------------
    # trace emission helpers (called only when tracing is enabled)
    # ------------------------------------------------------------------
    def _trace_block(
        self,
        session: Session,
        txn_id: int,
        decision: Decision,
        parked: bool,
        key: Optional[str] = None,
        commit: bool = False,
    ) -> None:
        meta: Dict[str, Any] = {"parked": parked}
        if commit:
            meta["commit"] = True
        self.tracer.emit(
            obs_trace.BLOCK,
            session.session_id,
            txn_id,
            session.attempts,
            key=key,
            blockers=tuple(sorted(decision.blocked_on)),
            detail=decision.reason,
            meta=meta,
        )

    def _trace_abort(
        self,
        session: Session,
        txn_id: Optional[int],
        decision: Decision,
        key: Optional[str] = None,
        commit: bool = False,
    ) -> None:
        self.tracer.emit(
            obs_trace.ABORT,
            session.session_id,
            txn_id,
            session.attempts,
            key=decision.conflict_key if decision.conflict_key is not None else key,
            blockers=decision.conflict_txns,
            code=decision.code,
            detail=decision.reason,
            meta={"commit": True} if commit else None,
        )

    # ------------------------------------------------------------------
    # the wait index
    # ------------------------------------------------------------------
    def _park(self, session: Session, decision: Decision) -> bool:
        """Record a blocked session under its live blockers.

        Returns True if parked (a notification will wake it); False if no
        blocker is still active, in which case the caller must retry on
        its own schedule.
        """
        active = self.protocol.active
        txn_id = session.txn_id
        blockers = set()
        for blocker in decision.blocked_on:
            if blocker in active and blocker != txn_id:
                blockers.add(blocker)
        if not blockers:
            return False
        session.waiting = True
        session.waiting_on = blockers
        waiters = self._waiters
        session_id = session.session_id
        observe = self.metrics.observe
        for blocker in blockers:
            queue = waiters.get(blocker)
            if queue is None:
                queue = waiters[blocker] = set()
            queue.add(session_id)
            # block height à la the geods-analyze profiler: how many
            # sessions are stacked up behind this blocker right now.
            observe("kernel.block_height", len(queue))
        self.metrics.incr("kernel.parks")
        return True

    def _unpark(self, session: Session) -> None:
        waiting_on = session.waiting_on
        if waiting_on:
            waiters = self._waiters
            session_id = session.session_id
            for blocker in waiting_on:
                queue = waiters.get(blocker)
                if queue is not None:
                    queue.discard(session_id)
                    if not queue:
                        del waiters[blocker]
            session.waiting_on = ()
        session.waiting = False

    def _wake(self, session: Session) -> None:
        self._unpark(session)
        self.metrics.incr("kernel.wakeups")
        if self._tracing:
            self.tracer.emit(
                obs_trace.WAKE,
                session.session_id,
                session.txn_id,
                session.attempts,
            )
        if self.wake_sink is not None:
            self.wake_sink(session)

    def _on_txn_finished(self, txn_id: int, outcome: str) -> None:
        self._session_by_txn.pop(txn_id, None)
        waiter_ids = self._waiters.pop(txn_id, None)
        if not waiter_ids:
            return
        sessions = self._sessions
        # deterministic wake order regardless of set iteration details
        for session_id in sorted(waiter_ids):
            session = sessions.get(session_id)
            if session is not None and session.waiting:
                self._wake(session)

    def _on_wake_request(self, txn_id: int) -> None:
        session = self._session_by_txn.get(txn_id)
        if session is not None and session.waiting:
            self._wake(session)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def blocked_behind(self, txn_id: int) -> Set[int]:
        """Session ids parked behind a given transaction."""
        return set(self._waiters.get(txn_id, set()))

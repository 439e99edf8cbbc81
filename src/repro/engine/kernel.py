"""The shared engine kernel: session state, protocol driving, wakeups.

Both engine front-ends — the untimed :class:`~repro.engine.runtime.
TransactionExecutor` and the timed :class:`~repro.engine.simulator.
Simulator` — share this kernel: it allocates transaction ids, drives one
protocol interaction per step (begin / data operation / commit), buffers
reads for UPDATE transforms, and restarts after aborts.  The front-ends
only decide *policy*: interleaving order for the executor, simulated
time for the simulator.

A data step is one kernel frame: :meth:`EngineKernel.step` indexes the
session's program — the spec's own ``operations`` tuple, each
:class:`~repro.engine.operations.Operation` a ``(kind, key, transform)``
triple, so installing a spec in a session converts nothing — issues the
read and/or write to the protocol itself, branches on ``decision.kind``
by identity and returns a :class:`StepKind` member: the kind is the
whole answer, and everything else a front-end needs it already holds.
No step builds a result: the protocol stores a granted read's value
straight into ``session.reads`` (:meth:`ConcurrencyControl.read_into
<repro.engine.protocols.base.ConcurrencyControl.read_into>`) and
answers with its shared grant, and the kernel returns
``StepKind.GRANTED``.  Only blocking
(:meth:`EngineKernel._park`) and the wake path leave that frame, and
they resolve the protocol's active set and the metrics registry once
per call, not per blocker.  The kernel's counters are :class:`~repro.engine.metrics.CounterHandles`,
bumped with no call and no lookup by name.

The kernel's second job is **event-driven blocking**.  A ``BLOCK``
decision names the transactions it waits for (``Decision.blocked_on``);
the kernel records the blocked session in a *wait index* keyed by
blocker and wakes exactly the sessions whose blockers resolved.  The
front-ends never poll a parked request on a timer — the scaling win that
lets simulations run hundreds of clients; only a block the kernel could
not park (an injected stall, or a BLOCK naming no live blocker) is
retried on the caller's own schedule.  Stepping a session that is
still parked un-parks it first: serial interleaving re-drives a session
straight after it blocks.

Wakeups use broadcast semantics: a session wakes as soon as *any* of its
recorded blockers finishes.  A retry may then block again on a remaining
holder — one cheap extra interaction — but the kernel never has to prove
that every blocker will resolve, which keeps it robust against lock
queues whose holder set changes while a session waits.

Every notification is a return value: protocols answer, the kernel
asks, and what a call woke is in its answer.  The kernel is the only
caller of ``protocol.commit`` and ``protocol.abort``, so it runs its
finish handling (:meth:`EngineKernel._finished`) as soon as a commit is
granted or an abort returns.  The one event a protocol raises on its
own, a hand-off that makes a parked transaction's retry succeed, sits
in :attr:`ConcurrencyControl.redrive
<repro.engine.protocols.base.ConcurrencyControl.redrive>` until the
kernel drains it after the call.  Each woken session is appended to
:attr:`EngineKernel.woken`, which the front-end drains straight after
:meth:`EngineKernel.step` returns: hand-off wakes first, then the
finished transaction's waiters by ascending session id, all before the
stepped session is requeued.  No object of the stack holds a callback
into another, so an engine is freed by reference counting, run or not.

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
from typing import Any, Callable, Collection, Dict, List, Optional, Set, Tuple

from repro.engine.faults import (
    ABORT_ACTION,
    COMMIT_STAGE,
    OPERATION_STAGE,
    FaultPlan,
)
from repro.engine.metrics import CounterHandles, Metrics
from repro.engine.operations import Operation, OperationKind, TransactionSpec
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
        "waiting_on",
        "fast_snapshot",
        "validating",
    )

    def __init__(self, spec: Optional[TransactionSpec], session_id: int) -> None:
        self.spec = spec
        #: ``spec.operations`` itself: the step's one-slot handle on what
        #: the kernel runs.
        self.program: Optional[Tuple[Operation, ...]] = (
            None if spec is None else spec.operations
        )
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
        #: event-driven state: the blockers this session is parked on in
        #: the kernel's wait index (the shared empty tuple, falsy, while
        #: it is not parked).
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

    def begin_new(self, spec: TransactionSpec) -> None:
        """Install a fresh transaction program (simulator client reuse)."""
        self.spec = spec
        self.program = spec.operations
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
    """What one kernel step did to a session: the step's whole answer.

    :meth:`EngineKernel.step` returns the member itself.  What else a
    front-end needs about the step it already holds:

    * whether the step was a commit request: ``session.op_index >=
      len(session.program)`` (the kernel moves neither before the
      caller restarts the session);
    * whether a BLOCKED session is parked (a blocker's finish lists it
      in :attr:`EngineKernel.woken`) or must be retried on the caller's
      own schedule: ``session.waiting_on``;
    * a granted read's value: ``session.reads``; an abort's reason: the
      trace's ABORT event;
    * the validation work a commit-path step did: the growth of the
      protocol's cumulative :attr:`ConcurrencyControl.validation_probes
      <repro.engine.protocols.base.ConcurrencyControl.validation_probes>`
      across the step, run off the critical section exactly when the
      protocol has a ``two_stage_commit``.
    """

    STARTED = "started"        # transaction began (no data request issued)
    GRANTED = "granted"        # a data operation was granted
    BLOCKED = "blocked"        # the request must wait
    STALLED = "stalled"        # an injected stall: the session is not
                               # parked, and the caller retries it
    VALIDATING = "validating"  # two-stage commit: validation stage passed;
                               # the next step finishes the commit
    COMMITTED = "committed"    # the commit request was granted
    ABORTED = "aborted"        # the attempt aborted (caller decides restart)


_STARTED = StepKind.STARTED
_GRANTED = StepKind.GRANTED
_BLOCKED = StepKind.BLOCKED
_VALIDATING = StepKind.VALIDATING
_COMMITTED = StepKind.COMMITTED
_ABORTED = StepKind.ABORTED


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
            protocol.use_metrics(metrics)
        self.counters = CounterHandles(
            self.metrics,
            "kernel.restarts",
            "kernel.readonly_fastpath",
            "kernel.readonly_commits",
            "kernel.readonly_aborts",
            "kernel.fault_aborts",
            "kernel.fault_stalls",
            "kernel.parks",
            "kernel.wakeups",
        )
        self._next_txn_id = 1
        self._session_by_txn: Dict[int, Session] = {}
        #: wait index: blocker transaction id -> sessions parked on it
        self._waiters: Dict[int, Set[int]] = {}
        self._sessions: Dict[int, Session] = {}
        #: the parked sessions the last step woke, in wake order; the
        #: front-end drains it in place after each step (the executor
        #: enqueues them, the simulator schedules an event for each)
        self.woken: List[Session] = []
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

    # ------------------------------------------------------------------
    # session management
    # ------------------------------------------------------------------
    def register(self, session: Session) -> Session:
        self._sessions[session.session_id] = session
        return session

    def new_session(self, spec: Optional[TransactionSpec], session_id: int) -> Session:
        return self.register(Session(spec=spec, session_id=session_id))

    def restart(self, session: Session) -> None:
        """Reset a session for a fresh attempt after an abort."""
        if session.txn_id is not None:
            self._session_by_txn.pop(session.txn_id, None)
        self._unpark(session)
        session.reset_for_restart()
        self.counters.restarts.value += 1
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
    def step(self, session: Session) -> StepKind:
        """Advance a session by exactly one protocol interaction and
        answer with what the step did (see :class:`StepKind`)."""
        if session.spec is None:
            raise ValueError("cannot step a session with no transaction program")
        if session.waiting_on:
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
                    self.counters.readonly_fastpath.value += 1
                    if self._tracing:
                        self.tracer.emit(
                            obs_trace.BEGIN,
                            session.session_id,
                            session.txn_id,
                            session.attempts,
                            meta={"fastpath": True},
                        )
                    return _STARTED
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
            return _STARTED

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
            # the trace's probe count is this call's share of the
            # protocol's cumulative validation work
            probes_before = protocol.validation_probes
            if protocol.two_stage_commit and not session.validating:
                prepared = protocol.prepare_commit(txn_id)
                if prepared is not None:
                    if prepared.kind is _GRANT:
                        session.validating = True
                        if self._tracing:
                            self.tracer.emit(
                                obs_trace.VALIDATE,
                                session.session_id,
                                txn_id,
                                session.attempts,
                                meta={
                                    "stage": "parallel",
                                    "probes": protocol.validation_probes
                                    - probes_before,
                                },
                            )
                        return _VALIDATING
                    # validation-stage failure: the attempt aborts here
                    self._abort(session)
                    if self._tracing:
                        self._trace_abort(session, txn_id, prepared, commit=True)
                    return _ABORTED
            decision = protocol.commit(txn_id)
            outcome = decision.kind
            if outcome is _BLOCK:
                # keep session.validating: the retry must finish the
                # commit stage, not re-enter prepare and validate twice
                session.blocks += 1
                parked = self._park(session, decision)
                if self._tracing:
                    self._trace_block(session, txn_id, decision, parked, commit=True)
                return _BLOCKED
            session.validating = False
            if outcome is _GRANT:
                session.committed = True
                self._finished(txn_id)
                if self.commit_sink is not None:
                    self.commit_sink(session)
                if self._tracing:
                    probes = protocol.validation_probes - probes_before
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
                return _COMMITTED
            self._abort(session)
            if self._tracing:
                self._trace_abort(session, txn_id, decision, commit=True)
            return _ABORTED

        # transforms receive the live read buffer (not a defensive copy:
        # copying it per UPDATE dominated the hot path) and must treat it
        # as read-only — every shipped workload does.
        kind, key, transform = program[op_index]
        reads = session.reads
        if kind is _WRITE:  # blind write
            decision = protocol.write(txn_id, key, transform(reads))
        else:
            # a granted read stores its value in the read buffer itself
            decision = protocol.read_into(txn_id, key, reads)
            if kind is _UPDATE and decision.kind is _GRANT:
                decision = protocol.write(txn_id, key, transform(reads))
        session.operations_issued += 1
        if protocol.redrive:
            self._redrive()
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
            return _GRANTED
        if outcome is _BLOCK:
            session.blocks += 1
            parked = self._park(session, decision)
            if self._tracing:
                self._trace_block(session, txn_id, decision, parked, key=key)
            return _BLOCKED
        self._abort(session)
        if self._tracing:
            self._trace_abort(session, txn_id, decision, key=key)
        return _ABORTED

    def _step_readonly(self, session: Session) -> StepKind:
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
            self.counters.readonly_commits.value += 1
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
            return _COMMITTED
        key = program[session.op_index][1]
        try:
            value = self.protocol.snapshot_read(
                key, session.fast_snapshot, txn_id=session.txn_id
            )
        except SnapshotAborted as reason:
            self.protocol.abort_fast_reader(session.txn_id, session.fast_snapshot)
            session.fast_snapshot = None
            self.counters.readonly_aborts.value += 1
            if self._tracing:
                decision = Decision.abort(
                    str(reason), code=reason.code, conflict=reason.conflict_txns
                )
                self._trace_abort(session, session.txn_id, decision, key=key)
            return _ABORTED
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
        return _GRANTED

    def _maybe_inject_fault(self, session: Session) -> Optional[StepKind]:
        """Consult the fault plan before a normal-path interaction.

        Returns the injected outcome (ABORTED or STALLED), or ``None`` to
        proceed with the genuine protocol request.  Injection is skipped
        for fast-path and mid-validation sessions (callers guarantee
        that); both injected outcomes — a forced abort and an unparked
        stall — are states the protocol must tolerate from any client at
        any time, so correctness oracles hold under every plan.
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
            self.counters.fault_aborts.value += 1
            self._abort(session)
            if self._tracing:
                decision = Decision.abort(
                    "fault: injected client abort", code=ABORT_FAULT_INJECTED, key=key
                )
                self._trace_abort(
                    session, session.txn_id, decision, key=key, commit=was_commit
                )
            return _ABORTED
        self.counters.fault_stalls.value += 1
        session.blocks += 1
        if self._tracing:
            self.tracer.emit(
                obs_trace.BLOCK,
                session.session_id,
                session.txn_id,
                session.attempts,
                key=key,
                detail="fault: injected stall",
                meta={"fault": True, "commit": was_commit},
            )
        return StepKind.STALLED

    def _abort(self, session: Session) -> None:
        txn_id = session.txn_id
        self.protocol.abort(txn_id)
        self._finished(txn_id)

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

        Returns True if parked (a blocker's finish will wake it); False if no
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
        self.counters.parks.value += 1
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

    def _wake(self, session: Session) -> None:
        self._unpark(session)
        self.counters.wakeups.value += 1
        if self._tracing:
            self.tracer.emit(
                obs_trace.WAKE,
                session.session_id,
                session.txn_id,
                session.attempts,
            )
        self.woken.append(session)

    def _finished(self, txn_id: int) -> None:
        """The transaction left the protocol (its commit was granted, or
        it aborted): wake the transactions its release handed locks to,
        then the sessions parked on it, by ascending session id."""
        self._session_by_txn.pop(txn_id, None)
        if self.protocol.redrive:
            self._redrive()
        waiter_ids = self._waiters.pop(txn_id, None)
        if not waiter_ids:
            return
        sessions = self._sessions
        # deterministic wake order regardless of set iteration details
        for session_id in sorted(waiter_ids):
            session = sessions.get(session_id)
            if session is not None and session.waiting_on:
                self._wake(session)

    def _redrive(self) -> None:
        """Drain the protocol's hand-offs: wake each listed transaction
        whose session is parked."""
        redrive = self.protocol.redrive
        session_by_txn = self._session_by_txn
        for txn_id in redrive:
            session = session_by_txn.get(txn_id)
            if session is not None and session.waiting_on:
                self._wake(session)
        redrive.clear()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def blocked_behind(self, txn_id: int) -> Set[int]:
        """Session ids parked behind a given transaction."""
        return set(self._waiters.get(txn_id, set()))

"""Two-phase commit over the simulated network: cross-shard transactions.

This is the layer the ROADMAP's "distributed transactions" item asks
for: one transaction may now touch keys on several shards, and the
shards must agree on its outcome even when messages are lost,
duplicated, reordered, delayed past timeouts, or the coordinator
crashes mid-protocol.

The protocol is **distributed optimistic concurrency control with a
presumed-abort two-phase commit** — Kung & Robinson's validate-at-commit
idea stretched across a network:

1. **Read phase.**  The coordinator fetches the transaction's read set
   from the owning shards (``read-req``/``read-reply``), recording the
   committed version of every value, then executes the transaction
   program locally: transforms see the full cross-shard read buffer, and
   the outputs become a per-shard write set.  No locks are held.
2. **Prepare / vote.**  Each involved shard receives ``prepare`` with
   its slice of read versions and writes.  The participant *validates*
   — every read version must still be current, and no touched key may be
   prepare-locked by a rival — then locks the footprint and votes YES,
   or votes NO and forgets (a NO vote is an abort commitment, so a
   duplicate prepare is re-answered NO).  Validation-at-prepare is the
   serial-equivalence argument: a transaction whose reads are still
   current when its locks are granted behaves as if it executed at its
   decision point.
3. **Decision.**  All YES → the coordinator logs COMMIT in the
   write-ahead :class:`~repro.dist.recovery.DecisionLog` and broadcasts;
   any NO or an exhausted retry budget → abort (presumed: not logged).
   Participants apply or discard, release locks, and acknowledge;
   acks retire the log entry (``end``).

The participant's half of steps 1–3 is written once — one
:class:`ParticipantState` (validate / lock / vote / apply, deterministic
in the sequence of commands) plus one :class:`ParticipantEndpoint` (the
replies and the status timers) — and has two drivers.
:class:`ShardParticipant` applies each command on receipt: the replica
group of one, whose log chooses every entry the moment it is proposed.
:class:`~repro.dist.replication.ReplicatedParticipant` applies it once
the group's Paxos log has chosen it.  The flat shard is *not* a
one-member Paxos group on the wire: election and heartbeat timers would
keep a network that today runs to heap-empty from ever idling.

Every message the coordinator waits on has a **timeout with bounded
retry and exponential backoff**; a participant holding prepare locks
runs its own status-inquiry timer (unbounded, capped backoff), which is
what makes the protocol non-blocking *in practice* once the coordinator
recovers — presumed abort answers any inquiry the log cannot.

**Graceful degradation.**  The coordinator tracks a sliding
timeout/abort window per shard; a shard whose failure rate crosses the
threshold is marked degraded, new cross-shard admissions touching it are
shed immediately (``2pc-shed``) except for a deterministic every-Kth
probe, and the global in-flight admission limit (``max_in_flight`` — the
distributed sibling of the executor's ``max_concurrent`` backpressure
path) drops to ``degraded_max_in_flight`` so the backlog queue, not the
network, absorbs the burst.  All of it is surfaced through ``dist.*``
metrics counters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dist.network import Message, SimulatedNetwork
from repro.dist.recovery import (
    ABORT,
    COMMIT,
    CrashPlan,
    DecisionLog,
    AFTER_DECISION,
    AFTER_VOTES,
    BEFORE_PREPARE,
    MID_BROADCAST,
)
from repro.engine.metrics import Metrics
from repro.engine.operations import TransactionSpec
from repro.engine.reasons import (
    ABORT_REPL_NO_QUORUM,
    ABORT_TPC_COORDINATOR_CRASH,
    ABORT_TPC_PARTICIPANT_NO,
    ABORT_TPC_SHED,
    ABORT_TPC_TIMEOUT,
)
from repro.engine.storage import DataStore
from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_TRACER, Tracer

COORDINATOR = "coordinator"


@dataclass(frozen=True)
class TpcConfig:
    """Timeout, retry, admission and degradation knobs for the 2PC layer.

    Timeouts are in virtual time and must clear a round trip under the
    configured latency model; retries multiply the previous delay by
    ``backoff`` (capped at ``max_backoff``) so a congested or partitioned
    shard sees exponentially spaced resends, not a retry storm.
    """

    read_timeout: float = 6.0
    vote_timeout: float = 8.0
    ack_timeout: float = 8.0
    status_timeout: float = 12.0
    max_retries: int = 4
    backoff: float = 2.0
    max_backoff: float = 64.0
    #: admission control: cross-shard transactions in flight at once
    max_in_flight: int = 8
    #: the reduced limit while any shard is degraded (backpressure mode)
    degraded_max_in_flight: int = 2
    #: a shard is degraded when timed-out exchanges exceed this fraction
    #: of its sliding window (once min_health_samples outcomes are in
    #: it); NO votes are *healthy* responses and never count against it
    shed_threshold: float = 0.5
    health_window: int = 8
    min_health_samples: int = 4
    #: every Kth admission touching a degraded shard goes through as a
    #: health probe, so a recovered shard can clear its own reputation
    probe_every: int = 4
    #: client-side retry policy for aborted/shed transactions
    client_max_attempts: int = 3
    client_retry_delay: float = 6.0

    def __post_init__(self) -> None:
        for name in ("read_timeout", "vote_timeout", "ack_timeout", "status_timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_in_flight < 1 or self.degraded_max_in_flight < 1:
            raise ValueError("in-flight limits must be >= 1")
        if not 0.0 < self.shed_threshold <= 1.0:
            raise ValueError("shed_threshold must be in (0, 1]")
        if self.probe_every < 1:
            raise ValueError("probe_every must be >= 1")
        if self.client_max_attempts < 1:
            raise ValueError("client_max_attempts must be >= 1")


# ----------------------------------------------------------------------
# the participant: one state machine, one endpoint half, two drivers
# ----------------------------------------------------------------------


class ParticipantState:
    """One shard's 2PC decisions — validate, lock, vote, apply — written once.

    The paper's scheduler is *one function* from the request sequence to
    grant/delay decisions; this is that function for a shard's 2PC
    traffic: deterministic in the sequence of chosen ``prepare`` /
    ``decide`` commands — it reads no clock, sends no message, arms no
    timer — over the shard's versioned :class:`~repro.engine.storage.
    DataStore` (the substrate the engine kernels run on), the prepare
    locks and the verdicts already given.  Prepare locks are the only
    concurrency control needed *between* commands, because each is
    applied atomically by the network's event loop; their job is to
    serialize *across* the prepare→decision window.

    Duplicate- and reorder-tolerance is by construction: a verdict once
    given is a fact (:meth:`recorded_vote`, consulted by a driver before
    :meth:`prepare`) and :meth:`decide` is idempotent by transaction id.
    ``harness.oracles._replay_shard_log`` re-implements this class on
    purpose, sharing no code: it is the reference the production path is
    judged against.
    """

    def __init__(self, store: DataStore, metrics: Metrics) -> None:
        self.store = store
        self.metrics = metrics
        #: txn → (read versions, writes): validated, locks held, decision pending
        self.prepared: Dict[int, Tuple[Dict[str, int], Dict[str, Any]]] = {}
        self.locks: Dict[str, int] = {}
        #: decided transactions this shard took part in (idempotency +
        #: the atomicity oracle's evidence)
        self.outcomes: Dict[int, str] = {}
        self.applied: Set[int] = set()
        #: the write set actually installed per committed transaction —
        #: the replay-consistency oracle's raw material
        self.applied_writes: Dict[int, Dict[str, Any]] = {}

    @property
    def in_doubt(self) -> Set[int]:
        """Transactions prepared but not yet decided (locks held)."""
        return set(self.prepared)

    def read(self, keys: Sequence[str]) -> Tuple[Dict[str, Any], Dict[str, int]]:
        """Committed ``(values, versions)`` of ``keys``; takes no lock."""
        values: Dict[str, Any] = {}
        versions: Dict[str, int] = {}
        for key in keys:
            version = self.store.read_version(key)
            values[key] = version.value
            versions[key] = version.version
        return values, versions

    def recorded_vote(self, txn_id: int) -> Optional[bool]:
        """The vote already fixed for ``txn_id``; ``None`` if none is.

        Decided transactions answer from the recorded outcome (NO votes
        were recorded as aborts, so a forgotten transaction can never
        flip to YES); a prepared one answers YES again.
        """
        outcome = self.outcomes.get(txn_id)
        if outcome is not None:
            return outcome == COMMIT
        return True if txn_id in self.prepared else None

    def prepare(
        self, txn_id: int, reads: Dict[str, int], writes: Dict[str, Any]
    ) -> Optional[str]:
        """Validate and lock: ``None`` is a YES, a string is the NO's reason.

        OCC backward validation: no touched key may be prepare-locked by
        a rival, and every read version must still be the committed one.
        A NO is an abort commitment (presumed abort): it is recorded so
        duplicates re-answer NO, and no other state is held.
        """
        footprint = sorted(set(reads) | set(writes))
        locks = self.locks
        reason = None
        for key in footprint:
            holder = locks.get(key)
            if holder is not None and holder != txn_id:
                reason = f"{key!r} prepare-locked by T{holder}"
                break
        if reason is None:
            for key in sorted(reads):
                current = self.store.version_number(key)
                if current != reads[key]:
                    reason = (
                        f"stale read of {key!r}: validated v{reads[key]}, "
                        f"committed is v{current}"
                    )
                    break
        if reason is not None:
            self.outcomes[txn_id] = ABORT
            self.metrics.incr("dist.participant.no_votes")
            return reason
        self.prepared[txn_id] = (dict(reads), dict(writes))
        for key in footprint:
            locks[key] = txn_id
        self.metrics.incr("dist.participant.prepares")
        return None

    def decide(self, txn_id: int, outcome: str) -> None:
        """Release the transaction's locks; install its writes on COMMIT."""
        record = self.prepared.pop(txn_id, None)
        if record is not None:
            reads, writes = record
            for key in sorted(set(reads) | set(writes)):
                if self.locks.get(key) == txn_id:
                    del self.locks[key]
            if outcome == COMMIT:
                for key in sorted(writes):
                    self.store.write(key, writes[key], writer=txn_id)
                self.applied.add(txn_id)
                self.applied_writes[txn_id] = writes
                self.metrics.incr("dist.participant.applies")
            self.outcomes[txn_id] = outcome
        elif txn_id not in self.outcomes:
            # a decision for a transaction this shard never prepared can
            # only be an abort (commit requires our YES vote); remember it
            self.outcomes[txn_id] = outcome


class ParticipantEndpoint:
    """What a participant says to the coordinator, and when it asks again.

    The half of a 2PC endpoint that does not depend on how commands get
    chosen: the ``read-reply`` / ``vote`` / ``ack`` / ``status-req``
    payloads — literal dicts, this is the per-message hot path — and the
    status-inquiry timers (see the module docstring).  Every payload
    names the logical ``shard`` and the answering ``replica``; an
    unreplicated shard is its own only replica, so the coordinator's
    route pinning is a no-op for it.  The node class sets ``name`` (its
    network address), ``network`` and ``metrics`` first, and supplies the
    two handlers that differ by driver: ``_on_prepare``, ``_on_decision``.
    """

    def __init__(self, shard: str, store: DataStore, tpc_config: TpcConfig) -> None:
        self.shard = shard
        self.tpc_config = tpc_config
        self.state = ParticipantState(store, self.metrics)
        #: txn → (pending timer id, its delay) while this node inquires
        self._status: Dict[int, Tuple[int, float]] = {}

    def _on_read_req(self, now: float, payload: Dict[str, Any]) -> None:
        values, versions = self.state.read(payload["keys"])
        self.network.send(
            self.name,
            COORDINATOR,
            "read-reply",
            {
                "txn": payload["txn"],
                "shard": self.shard,
                "values": values,
                "versions": versions,
                "replica": self.name,
            },
        )

    def _revote(self, txn_id: int) -> bool:
        """Re-answer a prepare whose verdict is already fixed, if it is."""
        vote = self.state.recorded_vote(txn_id)
        if vote is None:
            return False
        if txn_id in self.state.outcomes:
            self._send_vote(txn_id, vote, "duplicate prepare after decision")
        else:
            self._send_vote(txn_id, vote, "duplicate prepare while prepared")
        return True

    def _vote(self, txn_id: int, reason: Optional[str]) -> None:
        """Externalize a fresh :meth:`ParticipantState.prepare` verdict."""
        if reason is not None:
            self._send_vote(txn_id, False, reason)
            return
        # the timer is armed before the vote is sent: its seq is part of
        # the heap's (time, seq) order
        self._arm_status_timer(txn_id)
        self._send_vote(txn_id, True, "validated")

    def _send_vote(self, txn_id: int, vote: bool, reason: str) -> None:
        self.network.send(
            self.name,
            COORDINATOR,
            "vote",
            {
                "txn": txn_id,
                "shard": self.shard,
                "vote": vote,
                "reason": reason,
                "replica": self.name,
            },
        )

    def _send_ack(self, txn_id: int) -> None:
        payload = {"txn": txn_id, "shard": self.shard, "replica": self.name}
        self.network.send(self.name, COORDINATOR, "ack", payload)

    def _arm_status_timer(self, txn_id: int) -> None:
        config = self.tpc_config
        armed = self._status.get(txn_id)
        if armed is None:
            delay = config.status_timeout
        else:
            delay = min(armed[1] * config.backoff, config.max_backoff)
        timer_id = self.network.set_timer(self.name, delay, "status", {"txn": txn_id})
        self._status[txn_id] = (timer_id, delay)

    def _cancel_status_timer(self, txn_id: int) -> None:
        armed = self._status.pop(txn_id, None)
        if armed is not None:
            self.network.cancel_timer(armed[0])

    def _on_status_timer(self, txn_id: int) -> None:
        if txn_id not in self.state.prepared:
            return
        # still in doubt: ask the coordinator, re-arm with capped backoff —
        # unbounded retries are safe because the inquiry stops the moment
        # a decision is applied
        self.metrics.incr("dist.participant.status_inquiries")
        payload = {"txn": txn_id, "shard": self.shard, "replica": self.name}
        self.network.send(self.name, COORDINATOR, "status-req", payload)
        self._arm_status_timer(txn_id)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # client (2PC) traffic by kind: each node class's own functions, on
        # the class (bound methods on the instance would be a reference cycle)
        super().__init_subclass__(**kwargs)
        cls._client_handlers = {
            "read-req": cls._on_read_req,
            "prepare": cls._on_prepare,
            "decision": cls._on_decision,
        }


class ShardParticipant(ParticipantEndpoint):
    """An unreplicated shard: apply each command on receipt, then answer.

    The replica group of one as a statement about the *state machine*
    (every entry is chosen the moment it is proposed), not about the
    transport — see the module docstring.
    """

    def __init__(
        self,
        name: str,
        store: DataStore,
        network: SimulatedNetwork,
        config: TpcConfig,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.name = name
        self.network = network
        self.metrics = metrics if metrics is not None else network.metrics
        super().__init__(name, store, config)
        self.accepting_messages = True
        self.accepting_timers = True

    def on_message(self, now: float, message: Message) -> None:
        handler = self._client_handlers.get(message.kind)
        if handler is None:
            raise ValueError(f"{self.name}: unknown message kind {message.kind!r}")
        handler(self, now, message.payload)

    def _on_prepare(self, now: float, payload: Dict[str, Any]) -> None:
        txn_id = payload["txn"]
        if not self._revote(txn_id):
            self._vote(
                txn_id, self.state.prepare(txn_id, payload["reads"], payload["writes"])
            )

    def _on_decision(self, now: float, payload: Dict[str, Any]) -> None:
        txn_id = payload["txn"]
        self.state.decide(txn_id, payload["outcome"])
        self._cancel_status_timer(txn_id)
        self._send_ack(txn_id)

    def on_timer(self, now: float, kind: str, payload: Dict[str, Any]) -> None:
        if kind != "status":
            raise ValueError(f"{self.name}: unknown timer kind {kind!r}")
        self._on_status_timer(payload["txn"])


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------

#: coordinator-side transaction states
_READING = "reading"
_PREPARING = "preparing"
_DECIDED = "decided"


class _TxnState:
    """The coordinator's volatile record of one in-flight transaction."""

    __slots__ = (
        "txn_id",
        "index",
        "spec",
        "state",
        "shards",
        "read_shards",
        "pending",
        "values",
        "versions",
        "writes_by_shard",
        "votes",
        "acked",
        "outcome",
        "code",
        "reason",
        "retries",
        "delay",
        "timer_id",
    )

    def __init__(self, txn_id: int, index: int, spec: TransactionSpec) -> None:
        self.txn_id = txn_id
        self.index = index
        self.spec = spec
        self.state = _READING
        self.shards: Tuple[str, ...] = ()
        self.read_shards: Tuple[str, ...] = ()
        self.pending: Set[str] = set()
        self.values: Dict[str, Any] = {}
        self.versions: Dict[str, int] = {}
        self.writes_by_shard: Dict[str, Dict[str, Any]] = {}
        self.votes: Dict[str, bool] = {}
        self.acked: Set[str] = set()
        self.outcome: Optional[str] = None
        self.code: Optional[str] = None
        self.reason = ""
        self.retries = 0
        self.delay = 0.0
        self.timer_id: Optional[int] = None


class _ShardHealth:
    """A sliding window of per-shard outcomes driving degradation."""

    __slots__ = ("window", "outcomes", "failures")

    def __init__(self, window: int) -> None:
        self.window = window
        self.outcomes: deque = deque(maxlen=window)
        #: failed outcomes currently in the window (kept as they enter and leave)
        self.failures = 0

    def record(self, ok: bool) -> None:
        outcomes = self.outcomes
        if outcomes and len(outcomes) == self.window and not outcomes[0]:
            self.failures -= 1  # the append below evicts this failure
        outcomes.append(ok)
        if not ok:
            self.failures += 1

    def failure_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return self.failures / len(self.outcomes)


class TwoPhaseCommitCoordinator:
    """Drive cross-shard transactions through read → prepare → decide.

    All per-transaction state here is **volatile** — a crash wipes it —
    except :attr:`log`, the write-ahead :class:`DecisionLog` standing in
    for stable storage.  :meth:`recover` replays that log: logged
    commits are re-broadcast until acknowledged, everything else is
    presumed aborted.  The ``crash_plan`` is consulted at each
    :data:`~repro.dist.recovery.CRASH_POINTS` transition, which is what
    lets the conformance sweep kill the coordinator at *every* state and
    assert that no shard ever disagrees on an outcome.
    """

    name = COORDINATOR

    def __init__(
        self,
        network: SimulatedNetwork,
        shard_of: Callable[[str], str],
        shard_names: Sequence[str],
        config: Optional[TpcConfig] = None,
        crash_plan: Optional[CrashPlan] = None,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
        on_complete: Optional[Callable[[int, int, str, Optional[str], str], None]] = None,
        replica_map: Optional[Dict[str, Sequence[str]]] = None,
    ) -> None:
        self.network = network
        self.shard_of = shard_of
        self.shard_names = tuple(shard_names)
        # routing: logical shard name → the replica addresses serving it.
        # Unreplicated shards route to themselves; replicated shards pin
        # to the replica that last answered (the leader names itself in
        # every reply) and rotate on timeouts/unavailability.
        self._replica_map: Dict[str, Tuple[str, ...]] = {
            name: tuple(replica_map[name]) if replica_map and name in replica_map else (name,)
            for name in self.shard_names
        }
        self._routes: Dict[str, str] = {
            name: members[0] for name, members in self._replica_map.items()
        }
        self.config = config if config is not None else TpcConfig()
        self.crash_plan = crash_plan
        self.metrics = metrics if metrics is not None else network.metrics
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._tracing = self.tracer.enabled
        #: the local (reliable) completion callback to the client driver:
        #: (txn_id, submission index, outcome, code, reason)
        self.on_complete = on_complete
        self.accepting_messages = True
        self.accepting_timers = True
        # --- stable storage ------------------------------------------------
        self.log = DecisionLog()
        # --- volatile state (wiped by a crash) -----------------------------
        self._txns: Dict[int, _TxnState] = {}
        self._backlog: deque = deque()
        self._notified: Set[int] = set()
        # monotone counters survive crashes: they model the recovery pass
        # re-reading its id allocator from the log's high-water mark
        self._next_txn_id = 1
        self._next_index = 0
        self._probe_counter = 0
        self._health: Dict[str, _ShardHealth] = {
            name: _ShardHealth(self.config.health_window) for name in self.shard_names
        }
        #: shards whose window is over the threshold; only a recorded
        #: outcome can move a shard in or out (see :meth:`_record_health`)
        self._degraded: Set[str] = set()
        self.crashes = 0

    # ------------------------------------------------------------------
    # routing (replica groups)
    # ------------------------------------------------------------------
    def _addr(self, shard: str) -> str:
        """The node address currently serving the logical shard."""
        return self._routes.get(shard, shard)

    def _pin_route(self, shard: str, replica: str) -> None:
        """Pin the route to the replica that answered (the leader)."""
        members = self._replica_map.get(shard, ())
        if replica in members and self._routes.get(shard) != replica:
            self._routes[shard] = replica

    def _rotate_route(self, shard: str) -> None:
        """Try the next replica (the pinned one timed out or shed us)."""
        members = self._replica_map.get(shard, ())
        if len(members) < 2:
            return
        current = self._routes.get(shard, members[0])
        position = members.index(current) if current in members else 0
        self._routes[shard] = members[(position + 1) % len(members)]
        self.metrics.incr("dist.route_rotations")

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, spec: TransactionSpec) -> int:
        """Admit one transaction; returns its submission index.

        Shedding happens here — before any message is sent — so a
        degraded shard costs a rejected admission, not a timeout.
        """
        index = self._next_index
        self._next_index += 1
        if not self.accepting_messages:
            # a dead process admits nothing: a transaction started now
            # would lose its replies and its only timer to the crash and
            # be skipped by recovery — refuse it as crash() refuses the
            # backlog, so the client's retry policy engages
            self.metrics.incr("dist.submissions_refused")
            self._notify(
                None,
                index,
                ABORT,
                ABORT_TPC_COORDINATOR_CRASH,
                "submission refused: coordinator is down",
            )
            return index
        placement = self._placement(spec)
        if self._try_shed(index, placement):
            return index
        if self.in_flight >= self.current_max_in_flight:
            self._backlog.append((index, spec, placement))
            self.metrics.incr("dist.backlogged")
            return index
        self._start(index, spec, placement)
        return index

    def _placement(self, spec: TransactionSpec) -> Dict[str, str]:
        """Key → owning shard over the spec's footprint, once per admission."""
        keys = set(spec.keys_read())
        keys.update(spec.keys_written())
        return {key: self.shard_of(key) for key in sorted(keys)}

    def _try_shed(self, index: int, placement: Dict[str, str]) -> bool:
        """Shed the admission if it touches a degraded shard (not a probe).

        Consulted both at submit time and when the backlog drains, so a
        transaction queued while healthy is still shed if its shard
        degrades before it reaches the front.
        """
        if not self._degraded:
            return False
        degraded = sorted(self._degraded.intersection(placement.values()))
        if not degraded:
            return False
        self._probe_counter += 1
        if self._probe_counter % self.config.probe_every == 0:
            self.metrics.incr("dist.probes")
            return False
        self.metrics.incr("dist.shed")
        self._notify(
            None,
            index,
            ABORT,
            ABORT_TPC_SHED,
            f"shard(s) {', '.join(degraded)} degraded "
            f"(timeout rate over threshold)",
        )
        return True

    @property
    def in_flight(self) -> int:
        return len(self._txns)

    @property
    def current_max_in_flight(self) -> int:
        """The admission limit, reduced while any shard is degraded."""
        if self._degraded:
            return min(self.config.max_in_flight, self.config.degraded_max_in_flight)
        return self.config.max_in_flight

    def is_degraded(self, shard: str) -> bool:
        return shard in self._degraded

    def _record_health(self, shard: str, ok: bool) -> None:
        """Record one exchange outcome and re-judge that shard alone."""
        health = self._health[shard]
        health.record(ok)
        if (
            len(health.outcomes) >= self.config.min_health_samples
            and health.failure_rate() > self.config.shed_threshold
        ):
            self._degraded.add(shard)
        else:
            self._degraded.discard(shard)

    def _drain_backlog(self) -> None:
        while self._backlog and self.in_flight < self.current_max_in_flight:
            index, spec, placement = self._backlog.popleft()
            if self._try_shed(index, placement):
                continue
            self._start(index, spec, placement)

    # ------------------------------------------------------------------
    # the read phase
    # ------------------------------------------------------------------
    def _start(
        self, index: int, spec: TransactionSpec, placement: Dict[str, str]
    ) -> None:
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        txn = _TxnState(txn_id, index, spec)
        txn.shards = tuple(sorted(set(placement.values())))
        by_shard: Dict[str, List[str]] = {}
        for key in sorted(set(spec.keys_read())):
            by_shard.setdefault(placement[key], []).append(key)
        txn.read_shards = tuple(sorted(by_shard))
        txn.pending = set(txn.read_shards)
        self._txns[txn_id] = txn
        self.log.log_begin(txn_id, txn.shards, index=index)
        if not txn.pending:
            # a write-only program has no read phase
            self._enter_prepare(txn)
            return
        for shard in txn.read_shards:
            self.network.send(
                self.name,
                self._addr(shard),
                "read-req",
                {"txn": txn_id, "keys": by_shard[shard]},
            )
        self._arm_retry(txn, self.config.read_timeout)

    def _on_read_reply(self, now: float, payload: Dict[str, Any]) -> None:
        self._pin_route(payload["shard"], payload["replica"])
        txn = self._txns.get(payload["txn"])
        if txn is None or txn.state != _READING:
            return
        shard = payload["shard"]
        if shard not in txn.pending:
            return
        txn.pending.discard(shard)
        txn.values.update(payload["values"])
        txn.versions.update(payload["versions"])
        if not txn.pending:
            self._cancel_retry(txn)
            self._enter_prepare(txn)

    # ------------------------------------------------------------------
    # executing the program and entering the prepare phase
    # ------------------------------------------------------------------
    def _execute(self, txn: _TxnState) -> None:
        """Run the transaction program against the gathered reads.

        Mirrors the engine kernel's operation semantics exactly: the
        read buffer fills in operation order, UPDATE transforms see all
        values read so far, and reads observe the transaction's own
        earlier writes (read-your-writes).
        """
        buffer: Dict[str, Any] = {}
        own_writes: Dict[str, Any] = {}
        writes: Dict[str, Any] = {}
        for operation in txn.spec.operations:
            key = operation.key
            if operation.reads:
                buffer[key] = own_writes.get(key, txn.values[key])
            if operation.writes:
                value = operation.transform(buffer)
                writes[key] = value
                own_writes[key] = value
        txn.writes_by_shard = {}
        for key in sorted(writes):
            txn.writes_by_shard.setdefault(self.shard_of(key), {})[key] = writes[key]

    def _enter_prepare(self, txn: _TxnState) -> None:
        self._execute(txn)
        if self._maybe_crash(BEFORE_PREPARE, txn):
            return
        txn.state = _PREPARING
        txn.pending = set(txn.shards)
        txn.retries = 0
        txn.delay = 0.0
        self._send_prepares(txn, txn.shards)
        self._arm_retry(txn, self.config.vote_timeout)

    def _send_prepares(self, txn: _TxnState, shards: Sequence[str]) -> None:
        reads_by_shard: Dict[str, Dict[str, int]] = {}
        for key, version in txn.versions.items():
            reads_by_shard.setdefault(self.shard_of(key), {})[key] = version
        for shard in sorted(shards):
            self.network.send(
                self.name,
                self._addr(shard),
                "prepare",
                {
                    "txn": txn.txn_id,
                    "reads": reads_by_shard.get(shard, {}),
                    "writes": txn.writes_by_shard.get(shard, {}),
                },
            )

    def _on_vote(self, now: float, payload: Dict[str, Any]) -> None:
        self._pin_route(payload["shard"], payload["replica"])
        txn = self._txns.get(payload["txn"])
        if txn is None or txn.state != _PREPARING:
            return
        shard = payload["shard"]
        if shard in txn.votes:
            return
        txn.votes[shard] = payload["vote"]
        # any vote — YES or NO — is a healthy, timely response; only
        # exchanges that *time out* count against a shard's health
        self._record_health(shard, True)
        if not payload["vote"]:
            self._cancel_retry(txn)
            # the vote phase is concluded (a NO is decisive), so the
            # after-votes crash point applies here too: the never-logged
            # abort is simply presumed on recovery
            if self._maybe_crash(AFTER_VOTES, txn):
                return
            self._decide(
                txn,
                ABORT,
                code=ABORT_TPC_PARTICIPANT_NO,
                reason=f"{shard} voted NO: {payload['reason']}",
            )
            return
        if set(txn.votes) >= set(txn.shards):
            self._cancel_retry(txn)
            if self._maybe_crash(AFTER_VOTES, txn):
                return
            self._decide(txn, COMMIT)

    # ------------------------------------------------------------------
    # the decision
    # ------------------------------------------------------------------
    def _decide(
        self,
        txn: _TxnState,
        outcome: str,
        code: Optional[str] = None,
        reason: str = "",
    ) -> None:
        txn.outcome = outcome
        txn.code = code
        txn.reason = reason
        if outcome == COMMIT:
            # the write-ahead rule: the decision hits stable storage
            # before any participant can learn it
            self.log.log_commit(txn.txn_id)
            self.metrics.incr("dist.commits")
        else:
            # presumed abort: no log write — recovery infers the abort
            self.metrics.incr("dist.aborts")
        if self._tracing:
            self.tracer.now = self.network.now
            self.tracer.emit(
                obs_trace.DECIDE,
                txn.txn_id,
                txn.txn_id,
                1,
                code=code,
                detail=outcome + (f": {reason}" if reason else ""),
            )
        self._notify(txn.txn_id, txn.index, outcome, code, reason)
        if self._maybe_crash(AFTER_DECISION, txn):
            return
        txn.state = _DECIDED
        txn.pending = set(txn.shards)
        txn.retries = 0
        txn.delay = 0.0
        self._broadcast_decision(txn, txn.shards, allow_crash=True)
        if txn.txn_id in self._txns:
            self._arm_retry(txn, self.config.ack_timeout)

    def _broadcast_decision(
        self, txn: _TxnState, shards: Sequence[str], allow_crash: bool = False
    ) -> None:
        ordered = sorted(shards)
        for position, shard in enumerate(ordered):
            self.network.send(
                self.name,
                self._addr(shard),
                "decision",
                {"txn": txn.txn_id, "outcome": txn.outcome},
            )
            if (
                allow_crash
                and len(ordered) > 1
                and position == 0
                and self._maybe_crash(MID_BROADCAST, txn)
            ):
                return

    def _on_ack(self, now: float, payload: Dict[str, Any]) -> None:
        self._pin_route(payload["shard"], payload["replica"])
        txn = self._txns.get(payload["txn"])
        if txn is None or txn.state != _DECIDED:
            return
        shard = payload["shard"]
        txn.acked.add(shard)
        if set(txn.acked) >= set(txn.shards):
            self._cancel_retry(txn)
            self.log.log_end(txn.txn_id)
            del self._txns[txn.txn_id]
            self._drain_backlog()

    # ------------------------------------------------------------------
    # timeouts, retries, backoff
    # ------------------------------------------------------------------
    def _arm_retry(self, txn: _TxnState, base_timeout: float) -> None:
        txn.delay = (
            min(txn.delay * self.config.backoff, self.config.max_backoff)
            if txn.delay
            else base_timeout
        )
        txn.timer_id = self.network.set_timer(
            self.name, txn.delay, "retry", {"txn": txn.txn_id, "state": txn.state}
        )

    def _cancel_retry(self, txn: _TxnState) -> None:
        if txn.timer_id is not None:
            self.network.cancel_timer(txn.timer_id)
            txn.timer_id = None

    def on_timer(self, now: float, kind: str, payload: Dict[str, Any]) -> None:
        if kind == "recover":
            self.recover()
            return
        if kind != "retry":
            raise ValueError(f"coordinator: unknown timer kind {kind!r}")
        txn = self._txns.get(payload["txn"])
        if txn is None or txn.state != payload["state"]:
            return
        if self._tracing:
            self.tracer.now = self.network.now
            self.tracer.emit(
                obs_trace.TIMEOUT,
                txn.txn_id,
                txn.txn_id,
                1,
                detail=txn.state,
                meta={"retries": txn.retries, "pending": sorted(txn.pending - txn.acked if txn.state == _DECIDED else txn.pending)},
            )
        self.metrics.incr("dist.timeouts")
        if txn.state == _DECIDED:
            # the decision is durable; keep nudging the unacked shards,
            # then hand the tail to the participants' status inquiries
            missing = sorted(set(txn.shards) - txn.acked)
            if txn.retries >= self.config.max_retries:
                self.metrics.incr("dist.broadcast_gaps")
                del self._txns[txn.txn_id]
                self._drain_backlog()
                return
            txn.retries += 1
            self.metrics.incr("dist.retries")
            for shard in missing:
                self._rotate_route(shard)
            self._broadcast_decision(txn, missing)
            self._arm_retry(txn, self.config.ack_timeout)
            return
        # reading or preparing: the transaction itself is at stake
        missing = sorted(
            set(txn.read_shards if txn.state == _READING else txn.shards)
            - (set(txn.votes) if txn.state == _PREPARING else (set(txn.read_shards) - txn.pending))
        )
        if txn.retries >= self.config.max_retries:
            for shard in missing:
                self._record_health(shard, False)
            self._cancel_retry(txn)
            self._decide(
                txn,
                ABORT,
                code=ABORT_TPC_TIMEOUT,
                reason=(
                    f"no {'read reply' if txn.state == _READING else 'vote'} from "
                    f"{', '.join(missing)} after {txn.retries} retries"
                ),
            )
            return
        txn.retries += 1
        self.metrics.incr("dist.retries")
        for shard in missing:
            # the pinned replica went silent — try the next group member
            self._rotate_route(shard)
        if txn.state == _READING:
            by_shard: Dict[str, List[str]] = {}
            for key in sorted(set(txn.spec.keys_read())):
                shard = self.shard_of(key)
                if shard in txn.pending:
                    by_shard.setdefault(shard, []).append(key)
            for shard in sorted(by_shard):
                self.network.send(
                    self.name,
                    self._addr(shard),
                    "read-req",
                    {"txn": txn.txn_id, "keys": by_shard[shard]},
                )
            self._arm_retry(txn, self.config.read_timeout)
        else:
            self._send_prepares(txn, missing)
            self._arm_retry(txn, self.config.vote_timeout)

    # ------------------------------------------------------------------
    # status inquiries (participants in doubt)
    # ------------------------------------------------------------------
    def _on_status_req(self, now: float, payload: Dict[str, Any]) -> None:
        txn_id = payload["txn"]
        txn = self._txns.get(txn_id)
        if txn is not None and txn.outcome is None:
            # still undecided: the participant keeps waiting (its next
            # inquiry is already scheduled with backoff)
            return
        if txn is not None:
            outcome = txn.outcome
        else:
            # not in volatile state: consult the log — presumed abort
            # answers anything without a logged commit decision
            replayed = self.log.replay().get(txn_id)
            outcome = COMMIT if replayed and replayed[1] == COMMIT else ABORT
        self.network.send(
            self.name,
            # answer the inquiring replica directly — the logical-shard
            # route may point at a different group member
            payload["replica"],
            "decision",
            {"txn": txn_id, "outcome": outcome},
        )

    # ------------------------------------------------------------------
    # replica-group degradation: a shard with no quorum sheds loudly
    # ------------------------------------------------------------------
    def _on_unavail(self, now: float, payload: Dict[str, Any]) -> None:
        """A replica reported its group cannot currently reach quorum.

        The in-flight transaction (if still undecided) aborts with
        ``repl-no-quorum`` instead of burning its whole retry budget;
        the shard's health window records a failure so repeated
        no-quorum reports degrade it into the ``2pc-shed`` admission
        path; and the route rotates so the next attempt tries another
        group member (one of which may reach the majority-side leader).
        """
        shard = payload["shard"]
        self.metrics.incr("dist.repl.no_quorum_reports")
        if shard in self._health:
            self._record_health(shard, False)
        self._rotate_route(shard)
        txn = self._txns.get(payload["txn"])
        if txn is None or txn.state == _DECIDED:
            # a decided transaction's outcome is durable: keep nudging
            # via the ack-retry path until the group heals
            return
        self._cancel_retry(txn)
        self._decide(
            txn,
            ABORT,
            code=ABORT_REPL_NO_QUORUM,
            reason=(
                f"{shard} has no quorum "
                f"(replica {payload['replica']} shed the request)"
            ),
        )

    # ------------------------------------------------------------------
    # crash and recovery
    # ------------------------------------------------------------------
    def _maybe_crash(self, transition: str, txn: _TxnState) -> bool:
        if self.crash_plan is None:
            return False
        spec = self.crash_plan.should_crash(transition, txn.index)
        if spec is None:
            return False
        self.crash(restart_delay=spec.restart_delay, transition=transition)
        return True

    def crash(self, restart_delay: float = 5.0, transition: str = "manual") -> None:
        """Kill the coordinator: volatile state gone, log intact."""
        self.crashes += 1
        self.metrics.incr("dist.coordinator_crashes")
        if self._tracing:
            self.tracer.now = self.network.now
            self.tracer.emit(
                obs_trace.CRASH, 0, None, 0, detail=transition,
                meta={"in_flight": len(self._txns)},
            )
        self.accepting_messages = False
        self.accepting_timers = False
        # stale-timer hygiene: retry/status timers armed by this
        # incarnation must not fire into the recovered coordinator
        self.network.bump_incarnation(self.name)
        self._txns = {}
        # backlogged submissions never reached the log, so recovery
        # cannot resurrect them — the client sees a connection reset
        # (an abort with the crash code) and its retry policy engages
        for index, _spec, _placement in self._backlog:
            self.metrics.incr("dist.backlog_dropped")
            self._notify(
                None,
                index,
                ABORT,
                ABORT_TPC_COORDINATOR_CRASH,
                "submission lost: coordinator crashed with the request still queued",
            )
        self._backlog = deque()
        # health windows are volatile too: a recovered coordinator
        # rebuilds its picture of the world from fresh outcomes
        self._health = {
            name: _ShardHealth(self.config.health_window) for name in self.shard_names
        }
        self._degraded = set()
        self.network.set_timer(self.name, restart_delay, "recover", {}, supervisor=True)

    def recover(self) -> None:
        """Replay the decision log; presume abort for the undecided.

        Logged commits are re-broadcast (participants re-ack from their
        outcome maps if they already applied); begun-but-undecided
        transactions are aborted with ``2pc-coordinator-crash`` and the
        abort is pushed to their shards so any prepare locks release
        without waiting for a status inquiry.
        """
        self.accepting_messages = True
        self.accepting_timers = True
        self.metrics.incr("dist.recoveries")
        if self._tracing:
            self.tracer.now = self.network.now
            self.tracer.emit(obs_trace.RECOVER, 0, None, 0)
        worklist = self.log.unfinished()
        for txn_id in sorted(worklist):
            if txn_id in self._txns:
                # idempotence under duplication: an earlier recovery pass
                # already rebuilt this transaction's broadcast state
                continue
            shards, decision, index = worklist[txn_id]
            txn = _TxnState(txn_id, index if index is not None else -1, None)  # type: ignore[arg-type]
            txn.shards = shards
            if decision == COMMIT:
                txn.outcome = COMMIT
                self._notify(txn_id, index, COMMIT, None, "recovered commit")
            else:
                txn.outcome = ABORT
                txn.code = ABORT_TPC_COORDINATOR_CRASH
                self.metrics.incr("dist.aborts")
                self._notify(
                    txn_id,
                    index,
                    ABORT,
                    ABORT_TPC_COORDINATOR_CRASH,
                    "presumed abort: coordinator crashed before a decision",
                )
            txn.state = _DECIDED
            txn.pending = set(shards)
            self._txns[txn_id] = txn
            self._broadcast_decision(txn, shards)
            self._arm_retry(txn, self.config.ack_timeout)

    # ------------------------------------------------------------------
    # completion plumbing
    # ------------------------------------------------------------------
    def _notify(
        self,
        txn_id: Optional[int],
        index: Optional[int],
        outcome: str,
        code: Optional[str],
        reason: str,
    ) -> None:
        if txn_id is not None:
            if txn_id in self._notified:
                return
            self._notified.add(txn_id)
        if self.on_complete is not None:
            self.on_complete(txn_id, index, outcome, code, reason)

    def on_message(self, now: float, message: Message) -> None:
        handler = self._handlers.get(message.kind)
        if handler is None:
            raise ValueError(f"coordinator: unknown message kind {message.kind!r}")
        handler(self, now, message.payload)

    #: message kind → handler: plain functions on the class, since bound
    #: methods on the instance would be a reference cycle
    _handlers = {
        "read-reply": _on_read_reply,
        "vote": _on_vote,
        "ack": _on_ack,
        "status-req": _on_status_req,
        "unavail": _on_unavail,
    }

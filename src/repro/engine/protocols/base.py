"""The online concurrency-control protocol interface and the serial baseline.

An online protocol receives one request at a time — ``read``, ``write``
or ``commit`` — and answers with a :class:`Decision`:

* ``GRANT`` — the request executes now (reads carry the value);
* ``BLOCK`` — the request must wait; ``blocked_on`` names the
  transactions it waits for, so the caller knows when to retry;
* ``ABORT`` — the transaction must abort (and typically restart).

All protocols buffer writes in a per-transaction private write set and
apply them to the shared :class:`~repro.engine.storage.DataStore` only at
commit, so aborting never leaves partial updates behind.  Reads see the
transaction's own buffered writes first (read-your-writes), then the
committed store.

Every granted data operation is appended, with its position in one
shared sequence, to its transaction's trail (:attr:`ConcurrencyControl.
trails`, kept beside the write buffers).  A commit moves the trail into
the committed history returned by :meth:`ConcurrencyControl.
committed_log`; an abort drops it.  So the protocol keeps exactly the
committed projection of the history it produced, which the oracles
check for serializability — the bridge back to the paper's theory.
The protocol's own verdict (:meth:`ConcurrencyControl.
committed_history_serializable`) first certifies the serial order the
protocol claims (commit order, or :attr:`ConcurrencyControl.
serial_ranks`) in one pass, and builds the conflict graph only when
that certificate fails.

Protocols also *notify*: the engine kernel subscribes via
:meth:`ConcurrencyControl.add_finish_listener` to learn the moment a
transaction leaves the system (commit or abort) so it can wake exactly
the requests blocked on it, and via
:meth:`ConcurrencyControl.add_wake_listener` to learn when the protocol
wants a specific transaction re-driven immediately (e.g. a deadlock
victim that must come back to receive its abort).  These hooks are what
make event-driven blocking possible — without them the callers must poll
blocked requests on a timer.
"""

from __future__ import annotations

import abc
import enum
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.metrics import Metrics
from repro.engine.storage import DataStore


class TransactionAborted(RuntimeError):
    """Raised by the executor when a transaction exceeds its restart budget."""

    def __init__(self, txn_id: int, reason: str = "") -> None:
        super().__init__(f"transaction {txn_id} aborted: {reason}")
        self.txn_id = txn_id
        self.reason = reason


class SnapshotAborted(RuntimeError):
    """Raised by :meth:`ConcurrencyControl.snapshot_read` to abort a fast-path reader.

    Declared-read-only transactions on the kernel's snapshot fast path
    normally never abort, but serializable SI must be able to kill a
    reader whose next read would observe a non-serializable state (the
    read-only anomaly with an already-committed pivot — see
    ``SnapshotIsolation.snapshot_read``).  The kernel catches this,
    releases the reader's lease, and reports the attempt as ABORTED so
    the caller restarts it on a fresh snapshot.

    ``code`` carries the abort-taxonomy reason code
    (:mod:`repro.engine.reasons`) and ``conflict_txns`` the committed
    pivot(s) the reader raced, so the kernel can rebuild a fully
    attributed abort :class:`Decision` from the exception.
    """

    def __init__(
        self,
        message: str = "",
        code: Optional[str] = None,
        conflict_txns: Tuple[int, ...] = (),
    ) -> None:
        super().__init__(message)
        self.code = code
        self.conflict_txns = conflict_txns


class DecisionKind(enum.Enum):
    """The three possible answers to an online request."""

    GRANT = "grant"
    BLOCK = "block"
    ABORT = "abort"


class Decision:
    """The protocol's answer to one request.

    Decisions are immutable and sit on the hottest path in the engine —
    one per protocol interaction — so the class is hand-rolled rather
    than a dataclass: ``__slots__`` avoids a per-instance ``__dict__``,
    and the value-less ``GRANT`` (by far the most common answer) is a
    shared singleton, so granting costs no allocation at all.

    ``skip_effect`` is GRANT-only: the operation is accepted but has no
    effect (e.g. a write made obsolete by the Thomas write rule); the
    base class then skips buffering the write.

    ABORT decisions additionally carry machine-readable attribution for
    the observability layer: ``code`` is the cross-protocol taxonomy
    reason code (:mod:`repro.engine.reasons`), ``conflict_key`` names
    the contended key, and ``conflict_txns`` the transaction(s) whose
    conflicting work caused the abort (the committed writer that
    invalidated an OCC read set, the first committer that won under SI,
    the deadlock peers under 2PL).  The free-text ``reason`` stays the
    human-oriented channel; equality and hashing deliberately ignore
    the attribution fields so decisions from attributed and legacy
    emitters still compare by outcome.
    """

    __slots__ = (
        "kind",
        "value",
        "blocked_on",
        "reason",
        "skip_effect",
        "code",
        "conflict_key",
        "conflict_txns",
    )

    def __init__(
        self,
        kind: DecisionKind,
        value: Any = None,
        blocked_on: Tuple[int, ...] = (),
        reason: str = "",
        skip_effect: bool = False,
        code: Optional[str] = None,
        conflict_key: Optional[str] = None,
        conflict_txns: Tuple[int, ...] = (),
    ) -> None:
        # bound once: one per protocol interaction makes even the
        # attribute lookup on ``object`` show up
        set_field = object.__setattr__
        set_field(self, "kind", kind)
        set_field(self, "value", value)
        set_field(self, "blocked_on", blocked_on)
        set_field(self, "reason", reason)
        set_field(self, "skip_effect", skip_effect)
        set_field(self, "code", code)
        set_field(self, "conflict_key", conflict_key)
        set_field(self, "conflict_txns", conflict_txns)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Decision is immutable")

    def __repr__(self) -> str:
        attribution = ""
        if self.code is not None:
            attribution = (
                f", code={self.code!r}, conflict_key={self.conflict_key!r}, "
                f"conflict_txns={self.conflict_txns!r}"
            )
        return (
            f"Decision(kind={self.kind!r}, value={self.value!r}, "
            f"blocked_on={self.blocked_on!r}, reason={self.reason!r}, "
            f"skip_effect={self.skip_effect!r}{attribution})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Decision):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.value == other.value
            and self.blocked_on == other.blocked_on
            and self.reason == other.reason
            and self.skip_effect == other.skip_effect
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.blocked_on, self.reason, self.skip_effect))

    @property
    def granted(self) -> bool:
        return self.kind is DecisionKind.GRANT

    @property
    def blocked(self) -> bool:
        return self.kind is DecisionKind.BLOCK

    @property
    def aborted(self) -> bool:
        return self.kind is DecisionKind.ABORT

    @staticmethod
    def grant(value: Any = None) -> "Decision":
        if value is None:
            return _GRANT  # the shared value-less grant: no allocation
        return Decision(DecisionKind.GRANT, value=value)

    @staticmethod
    def block(blocked_on: Sequence[int] = (), reason: str = "") -> "Decision":
        return Decision(DecisionKind.BLOCK, blocked_on=tuple(blocked_on), reason=reason)

    @staticmethod
    def abort(
        reason: str = "",
        code: Optional[str] = None,
        key: Optional[str] = None,
        conflict: Sequence[int] = (),
    ) -> "Decision":
        return Decision(
            DecisionKind.ABORT,
            reason=reason,
            code=code,
            conflict_key=key,
            conflict_txns=tuple(conflict),
        )

    @staticmethod
    def grant_without_effect(reason: str = "") -> "Decision":
        """Accept the request but apply no effect (Thomas write rule)."""
        return Decision(DecisionKind.GRANT, reason=reason, skip_effect=True)


#: the singleton returned by every value-less ``Decision.grant()``
_GRANT = Decision(DecisionKind.GRANT)

#: one transaction's granted operations, as ``(position, kind, key)``
Trail = List[Tuple[int, str, str]]


class ConcurrencyControl(abc.ABC):
    """Base class for online concurrency-control protocols."""

    name = "abstract"
    #: True for protocols whose commit runs in two stages (validation
    #: pipeline): the kernel then calls :meth:`prepare_commit` first and
    #: :meth:`commit` on the following interaction.  Kept as a cheap class
    #: flag so single-stage protocols pay nothing on the commit hot path.
    two_stage_commit = False
    #: True for deterministic (epoch-sequenced) protocols: the kernel
    #: then calls :meth:`declare_footprint` with the spec's read/write
    #: sets right after :meth:`begin`, and tags begin/commit trace
    #: events with the assigned epoch and slot.  A class flag for the
    #: same hot-path reason as ``two_stage_commit``.
    deterministic = False
    #: the serial order the protocol claims to emulate, as a rank per
    #: committed transaction; ``None`` means commit order.  A hint for the
    #: serializability certificate, never trusted: a wrong rank only
    #: sends :meth:`committed_history_serializable` to the graph.
    serial_ranks: Optional[Dict[int, int]] = None

    def __init__(self, store: DataStore, metrics: Optional[Metrics] = None) -> None:
        self.store = store
        self.metrics = metrics if metrics is not None else Metrics()
        self.committed: Set[int] = set()
        self.active: Set[int] = set()
        self.write_buffers: Dict[int, Dict[str, Any]] = {}
        #: per active transaction, its granted operations so far as
        #: ``(position, kind, key)``; moved into the history at commit
        self.trails: Dict[int, Trail] = {}
        #: ``(commit position, txn id, trail)`` per committed transaction,
        #: in commit order; positions come from one shared sequence, so a
        #: read's grant position and a writer's commit position compare
        self.history: List[Tuple[int, int, Trail]] = []
        #: per-key index of active transactions holding a buffered write,
        #: maintained on write/commit/abort so :meth:`pending_writers` —
        #: on the hot path of SGT and T/O — never scans every buffer.
        self._pending_writer_index: Dict[str, Set[int]] = {}
        self._sequence = 0
        #: subscribers told when a transaction leaves the system; each is
        #: called as ``listener(txn_id, outcome)`` with outcome "commit" or
        #: "abort" — the kernel's wakeup source.
        self._finish_listeners: List[Callable[[int, str], None]] = []
        #: subscribers told when the protocol wants a transaction re-driven
        #: right away (deadlock victims chosen while blocked).
        self._wake_listeners: List[Callable[[int], None]] = []
        #: simulated cost (probe count) of the validation work performed by
        #: the most recent commit-path interaction; the kernel consumes it
        #: via :meth:`take_validation_probes` so timed front-ends can charge
        #: validation to the right resource (critical section vs overlap).
        self._validation_probes = 0

    # ------------------------------------------------------------------
    # notifications (the event-driven kernel's wakeup source)
    # ------------------------------------------------------------------
    def add_finish_listener(self, listener: Callable[[int, str], None]) -> None:
        """Subscribe to transaction-finished events (commit or abort)."""
        self._finish_listeners.append(listener)

    def add_wake_listener(self, listener: Callable[[int], None]) -> None:
        """Subscribe to explicit wake requests for specific transactions."""
        self._wake_listeners.append(listener)

    def remove_finish_listener(self, listener: Callable[[int, str], None]) -> None:
        """Unsubscribe a finish listener (idempotent).

        The run-queue scheduler made the wake hooks the *only* path by
        which blocked work re-enters the executor, which also made stale
        subscriptions dangerous: a kernel that has finished its run but
        stays subscribed would keep reacting to a later kernel's
        commits/aborts on the same protocol instance (popping its wait
        index, re-enqueuing dead sessions).  Front-ends therefore detach
        their kernel when a run completes (see
        :meth:`repro.engine.kernel.EngineKernel.detach`).
        """
        try:
            self._finish_listeners.remove(listener)
        except ValueError:
            pass

    def remove_wake_listener(self, listener: Callable[[int], None]) -> None:
        """Unsubscribe a wake listener (idempotent)."""
        try:
            self._wake_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_finished(self, txn_id: int, outcome: str) -> None:
        for listener in self._finish_listeners:
            listener(txn_id, outcome)

    def request_wake(self, txn_id: int) -> None:
        """Ask the caller to re-drive ``txn_id`` immediately.

        Used by protocols whose decisions can change while a transaction
        is *not* interacting — e.g. 2PL choosing a blocked transaction as
        a deadlock victim: the victim learns of its doom only at its next
        request, so an event-driven caller must be told to issue one.
        """
        for listener in self._wake_listeners:
            listener(txn_id)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(self, txn_id: int) -> None:
        """Register a new transaction."""
        if txn_id in self.active:
            raise ValueError(f"transaction {txn_id} is already active")
        self.active.add(txn_id)
        self.write_buffers[txn_id] = {}
        self.trails[txn_id] = []
        self.on_begin(txn_id)

    def declare_footprint(self, txn_id: int, reads, writes):
        """Declare an active transaction's read/write footprint up front.

        Only deterministic protocols (``deterministic = True``) accept a
        declaration: the epoch sequencer admits the transaction into
        the fixed total order and returns its ticket.  Reactive
        protocols learn footprints one request at a time and must not
        be handed one.
        """
        raise NotImplementedError(
            f"{self.name} is not a deterministic protocol: footprints are "
            "discovered per-request, not declared"
        )

    def read(self, txn_id: int, key: str) -> Decision:
        """Request to read ``key``."""
        if txn_id not in self.active:
            raise ValueError(f"transaction {txn_id} is not active")
        decision = self.on_read(txn_id, key)
        if decision.kind is DecisionKind.GRANT:
            value = self.read_value(txn_id, key)
            decision = _GRANT if value is None else Decision(DecisionKind.GRANT, value)
            self.trails[txn_id].append((self._sequence, "read", key))
            self._sequence += 1
            self.metrics.incr("protocol.reads_granted")
        else:
            self._count(decision)
        return decision

    def write(self, txn_id: int, key: str, value: Any) -> Decision:
        """Request to write ``value`` to ``key`` (buffered until commit)."""
        if txn_id not in self.active:
            raise ValueError(f"transaction {txn_id} is not active")
        decision = self.on_write(txn_id, key, value)
        if decision.kind is DecisionKind.GRANT:
            if not decision.skip_effect:
                self.write_buffers[txn_id][key] = value
                owners = self._pending_writer_index.get(key)
                if owners is None:
                    self._pending_writer_index[key] = {txn_id}
                else:
                    owners.add(txn_id)
                self.trails[txn_id].append((self._sequence, "write", key))
                self._sequence += 1
            self.metrics.incr("protocol.writes_granted")
        else:
            self._count(decision)
        return decision

    def prepare_commit(self, txn_id: int) -> Optional[Decision]:
        """Enter a two-stage commit's validation stage, if the protocol has one.

        Protocols with a *validation pipeline* (parallel-validation OCC)
        answer the first commit request in two stages: ``prepare_commit``
        performs the validation checks and publishes the transaction as
        *validating*, and a subsequent :meth:`commit` call finishes the
        write phase.  Returning ``None`` (the default) means the protocol
        commits in a single stage and the caller should call
        :meth:`commit` directly.  A GRANT here means "validation passed,
        call commit to finish"; an ABORT means validation failed and the
        caller must abort the transaction.
        """
        self._require_active(txn_id)
        decision = self.on_prepare_commit(txn_id)
        if decision is not None and not decision.granted:
            self._count(decision)
        return decision

    def commit(self, txn_id: int) -> Decision:
        """Request to commit; on GRANT the write buffer is applied atomically."""
        self._require_active(txn_id)
        decision = self.on_commit(txn_id)
        if decision.granted:
            self.install_writes(txn_id)
            self.history.append((self._sequence, txn_id, self.trails.pop(txn_id)))
            self._sequence += 1
            self.committed.add(txn_id)
            self.active.discard(txn_id)
            self._forget_pending_writes(txn_id)
            self.write_buffers.pop(txn_id, None)
            self.metrics.incr("protocol.commits")
            self.on_finished(txn_id)
            self._notify_finished(txn_id, "commit")
        else:
            self._count(decision)
        return decision

    def abort(self, txn_id: int) -> None:
        """Abort a transaction, discarding its buffered writes."""
        if txn_id not in self.active:
            return
        self.active.discard(txn_id)
        self._forget_pending_writes(txn_id)
        self.write_buffers.pop(txn_id, None)
        self.trails.pop(txn_id, None)
        self.on_abort(txn_id)
        self.on_finished(txn_id)
        self._notify_finished(txn_id, "abort")

    # ------------------------------------------------------------------
    # protocol-specific hooks
    # ------------------------------------------------------------------
    def on_begin(self, txn_id: int) -> None:  # pragma: no cover - default no-op
        """Hook called when a transaction begins."""

    @abc.abstractmethod
    def on_read(self, txn_id: int, key: str) -> Decision:
        """Decide a read request (value resolution is handled by the base class)."""

    @abc.abstractmethod
    def on_write(self, txn_id: int, key: str, value: Any) -> Decision:
        """Decide a write request."""

    def on_prepare_commit(self, txn_id: int) -> Optional[Decision]:
        """Hook for two-stage commits (``None`` = single-stage, the default)."""
        return None

    def on_commit(self, txn_id: int) -> Decision:
        """Decide a commit request (granted by default)."""
        return Decision.grant()

    def take_validation_probes(self) -> int:
        """Consume the probe count of the most recent validation work.

        Timed callers (the simulator) read this after every commit-path
        interaction to convert validation work into simulated time —
        charged to the critical section for serial validation, or to
        overlappable client time for a validation pipeline.
        """
        probes = self._validation_probes
        self._validation_probes = 0
        return probes

    def on_abort(self, txn_id: int) -> None:  # pragma: no cover - default no-op
        """Hook called when a transaction aborts."""

    def on_finished(self, txn_id: int) -> None:  # pragma: no cover - default no-op
        """Hook called after a transaction leaves the system (commit or abort)."""

    def read_value(self, txn_id: int, key: str) -> Any:
        """Resolve the value a granted read observes.

        Single-version protocols see the transaction's own buffered write
        first, then the committed store.  Multi-version protocols
        override this to serve the version visible at the transaction's
        snapshot/start timestamp (and to record reads-from bookkeeping).
        """
        return self._buffered_or_committed(txn_id, key)

    def install_writes(self, txn_id: int) -> None:
        """Apply a granted commit's buffered writes to the store.

        Multi-version protocols override this to install version records
        at the appropriate timestamp instead of overwriting in place.
        """
        self.store.apply_writes(self.write_buffers[txn_id], writer=txn_id)

    # ------------------------------------------------------------------
    # read-only fast path (multi-version protocols opt in)
    # ------------------------------------------------------------------
    def readonly_snapshot(self) -> Optional[Any]:
        """A stable snapshot timestamp for a declared-read-only transaction.

        Returning a timestamp opts the protocol into the engine kernel's
        read-only fast path: the kernel serves the whole transaction via
        :meth:`snapshot_read` at that timestamp, bypassing write buffers
        and validation entirely, and calls :meth:`release_snapshot` at
        commit.  The timestamp must be *stable*: no later commit may ever
        install a version visible at or below it.  Protocols without
        multi-version storage return ``None`` (no fast path).
        """
        return None

    def snapshot_read(
        self, key: str, snapshot_ts: Any, txn_id: Optional[int] = None
    ) -> Any:
        """Read ``key`` as of a snapshot handed out by :meth:`readonly_snapshot`.

        ``txn_id`` identifies the fast-path reader (kernel-assigned) so
        the protocol can log the read for post-hoc MVSG checking.
        """
        raise NotImplementedError(f"{self.name} does not support snapshot reads")

    def release_snapshot(self, snapshot_ts: Any) -> None:  # pragma: no cover - no-op
        """The fast-path transaction holding ``snapshot_ts`` finished."""

    def abort_fast_reader(self, txn_id: Optional[int], snapshot_ts: Any) -> None:
        """A fast-path reader aborted mid-scan (see :class:`SnapshotAborted`).

        The default just releases the lease; multi-version protocols
        additionally take the aborted attempt out of their MVSG
        certificate — aborted work never happened, so it must not enter
        the certified history.
        """
        self.release_snapshot(snapshot_ts)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _buffered_or_committed(self, txn_id: int, key: str) -> Any:
        buffer = self.write_buffers.get(txn_id, {})
        if key in buffer:
            return buffer[key]
        return self.store.read(key)

    def _count(self, decision: Decision) -> None:
        kind = decision.kind
        if kind is DecisionKind.BLOCK:
            self.metrics.incr("protocol.blocks")
        elif kind is DecisionKind.ABORT:
            self.metrics.incr("protocol.aborts")

    def _require_active(self, txn_id: int) -> None:
        if txn_id not in self.active:
            raise ValueError(f"transaction {txn_id} is not active")

    def pending_writers(self, key: str, exclude: Optional[int] = None) -> List[int]:
        """Active transactions holding an uncommitted buffered write to ``key``.

        Because writes are deferred to commit, a concurrent reader would
        otherwise observe the *committed* value even though the protocol's
        conflict bookkeeping assumes it observed the pending one; protocols
        that do not lock (SGT, T/O) therefore treat a pending write as a
        barrier on the key.

        Served from the per-key index maintained on write/commit/abort,
        so the cost is proportional to the writers of *this* key rather
        than to every write buffer in the system.  The result is sorted
        for deterministic downstream decisions (wait-for edges, blocker
        sets).
        """
        owners = self._pending_writer_index.get(key)
        if not owners:
            return []
        return sorted(txn for txn in owners if txn != exclude)

    def _forget_pending_writes(self, txn_id: int) -> None:
        """Drop a finished transaction's entries from the pending-writer index."""
        for key in self.write_buffers.get(txn_id, ()):
            owners = self._pending_writer_index.get(key)
            if owners is not None:
                owners.discard(txn_id)
                if not owners:
                    self._pending_writer_index.pop(key, None)

    # ------------------------------------------------------------------
    # post-hoc analysis
    # ------------------------------------------------------------------
    def committed_log(self) -> List[Tuple[int, int, Trail]]:
        """The committed history: ``(commit position, txn id, [(position,
        kind, key), ...])`` per committed transaction, in commit order."""
        return self.history

    def committed_conflict_graph(self):
        """The conflict graph of the *actual* committed execution.

        Writes are buffered and only reach the store at commit, so for
        conflict purposes a committed transaction's writes happen at its
        commit position, while its reads happen where they were granted.

        Events are grouped per key and each key's timeline is walked
        once: every access gets an edge from the *nearest* preceding
        conflicting accesses (the last writer, and — for a write — the
        readers seen since that writer).  Edges to farther predecessors
        are omitted because they are transitively implied through the
        chain of intervening writers, so the graph has exactly the same
        reachability (and therefore the same cycles, and the same
        serializability verdict) as the all-pairs conflict graph, while
        construction is linear in the number of events per key instead
        of quadratic in the whole history.
        """
        from repro.util.graphs import DiGraph

        per_key: Dict[str, List[Tuple[int, int, bool]]] = {}
        graph = DiGraph()
        for commit_position, txn_id, trail in self.history:
            graph.add_node(txn_id)
            written = set()
            for position, kind, key in trail:
                if kind == "read":
                    event = (position, txn_id, False)
                elif key in written:
                    continue
                else:
                    written.add(key)
                    event = (commit_position, txn_id, True)
                per_key.setdefault(key, []).append(event)

        for events in per_key.values():
            events.sort()
            last_writer: Optional[int] = None
            readers_since_write: Set[int] = set()
            for _, txn_id, is_write in events:
                if last_writer is not None and last_writer != txn_id:
                    graph.add_edge(last_writer, txn_id)  # ww or wr
                if is_write:
                    for reader in readers_since_write:
                        if reader != txn_id:
                            graph.add_edge(reader, txn_id)  # rw
                    readers_since_write.clear()
                    last_writer = txn_id
                else:
                    readers_since_write.add(txn_id)
        return graph

    def committed_history_serializable(self) -> bool:
        """Whether the committed projection of the history is conflict-serializable.

        First the serial-order certificate (:func:`repro.analysis.
        certificate.serial_order_certified`): one pass checking that the
        history is equivalent to :attr:`serial_ranks` order.  Only when
        it fails is the conflict graph built; its cycle check is the
        verdict.
        """
        from repro.analysis.certificate import serial_order_certified

        return serial_order_certified(self.history, self.serial_ranks) or (
            not self.committed_conflict_graph().has_cycle()
        )


class SerialProtocol(ConcurrencyControl):
    """One transaction at a time: the paper's trivially correct baseline.

    The first transaction to issue a data request becomes the *holder*;
    every other transaction blocks until the holder commits or aborts.
    Requires no information beyond a transaction identifier per request —
    exactly the minimum-information scheduler of Theorem 2, in online
    form.
    """

    name = "serial"

    def __init__(self, store: DataStore) -> None:
        super().__init__(store)
        self._holder: Optional[int] = None

    def _acquire(self, txn_id: int) -> Decision:
        if self._holder is None:
            self._holder = txn_id
        if self._holder == txn_id:
            return Decision.grant()
        return Decision.block(blocked_on=(self._holder,), reason="serial execution")

    def on_read(self, txn_id: int, key: str) -> Decision:
        return self._acquire(txn_id)

    def on_write(self, txn_id: int, key: str, value: Any) -> Decision:
        return self._acquire(txn_id)

    def on_commit(self, txn_id: int) -> Decision:
        if self._holder not in (None, txn_id):
            return Decision.block(blocked_on=(self._holder,), reason="serial execution")
        return Decision.grant()

    def on_finished(self, txn_id: int) -> None:
        if self._holder == txn_id:
            self._holder = None

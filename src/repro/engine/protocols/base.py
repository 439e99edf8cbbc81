"""The online concurrency-control protocol interface and the serial baseline.

An online protocol receives one request at a time — ``read``, ``write``
or ``commit`` — and answers with a :class:`Decision`:

* ``GRANT`` — the request executes now.  A granted read's value goes
  into the caller's read buffer (:meth:`ConcurrencyControl.read_into`),
  so every grant is the one shared value-less decision; only
  :meth:`ConcurrencyControl.read` builds a decision carrying the value;
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

A protocol never calls back into its caller (the rule is stated in
:mod:`repro.engine.kernel`).  The kernel learns that a transaction
left the system by committing or aborting it itself.  The one event a
protocol raises on its own, a hand-off that makes a parked
transaction's retry succeed (strict 2PL passing a released lock to
the head of its queue), is appended to :attr:`ConcurrencyControl.
redrive` for the kernel to drain.
"""

from __future__ import annotations

import abc
import enum
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.certificate import serial_order_certified
from repro.engine.metrics import CounterHandles, Metrics
from repro.engine.storage import DataStore
from repro.util.graphs import DiGraph


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
    human-oriented channel.  Decisions compare by identity.
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
    #: every counter the protocol bumps, as handles on :attr:`counters`
    #: by short name; a subclass that counts more extends the tuple
    counter_names: Tuple[str, ...] = (
        "protocol.reads_granted",
        "protocol.writes_granted",
        "protocol.commits",
        "protocol.blocks",
        "protocol.aborts",
    )

    def __init__(self, store: DataStore, metrics: Optional[Metrics] = None) -> None:
        self.store = store
        self.use_metrics(metrics if metrics is not None else Metrics())
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
        #: transactions a hand-off made runnable (strict 2PL passing a
        #: released lock to parked waiters), in hand-off order; whoever
        #: drives the protocol drains it in place after each call
        self.redrive: List[int] = []
        #: cumulative simulated cost (probe count) of the validation work
        #: the commit path has done (OCC bumps it; protocols that do not
        #: validate leave it at 0).  Readers take differences: the
        #: simulator charges the growth since its last read as simulated
        #: time (critical section, or overlap under ``two_stage_commit``),
        #: the kernel's trace the growth across one commit-path call.
        self.validation_probes = 0

    def use_metrics(self, metrics: Metrics) -> None:
        """Record into ``metrics`` from now on.

        The kernel calls this to hand the protocol the run's registry;
        the counter handles are rebuilt on it, so a counter registers in
        ``metrics`` at its first bump there.
        """
        self.metrics = metrics
        self.counters = CounterHandles(metrics, *self.counter_names)

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
        """Request to read ``key``; a granted decision carries the value.

        A wrapper over :meth:`read_into` for callers that want the value
        in the answer: the kernel calls :meth:`read_into` itself.
        """
        reads: Dict[str, Any] = {}
        decision = self.read_into(txn_id, key, reads)
        if decision is _GRANT:
            value = reads[key]
            if value is not None:
                return Decision(DecisionKind.GRANT, value)
        return decision

    def read_into(self, txn_id: int, key: str, reads: Dict[str, Any]) -> Decision:
        """Request to read ``key``, storing a granted read's value in ``reads``.

        A granted read returns the shared value-less grant and allocates
        no :class:`Decision`: the value is at ``reads[key]``, which is
        where the kernel keeps a session's read buffer.  A BLOCK or
        ABORT is returned as the protocol decided it, and ``reads`` is
        left untouched.
        """
        if txn_id not in self.active:
            raise ValueError(f"transaction {txn_id} is not active")
        decision = self.on_read(txn_id, key)
        if decision.kind is DecisionKind.GRANT:
            reads[key] = self.read_value(txn_id, key)
            self.trails[txn_id].append((self._sequence, "read", key))
            self._sequence += 1
            self.counters.reads_granted.value += 1
            return _GRANT
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
            self.counters.writes_granted.value += 1
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
        if txn_id not in self.active:
            raise ValueError(f"transaction {txn_id} is not active")
        decision = self.on_prepare_commit(txn_id)
        if decision is not None and decision.kind is not DecisionKind.GRANT:
            self._count(decision)
        return decision

    def commit(self, txn_id: int) -> Decision:
        """Request to commit; on GRANT the write buffer is applied atomically."""
        if txn_id not in self.active:
            raise ValueError(f"transaction {txn_id} is not active")
        decision = self.on_commit(txn_id)
        if decision.kind is DecisionKind.GRANT:
            self.install_writes(txn_id)
            self.history.append((self._sequence, txn_id, self.trails.pop(txn_id)))
            self._sequence += 1
            self.committed.add(txn_id)
            self.active.discard(txn_id)
            self._forget_pending_writes(txn_id)
            self.write_buffers.pop(txn_id, None)
            self.counters.commits.value += 1
            self.on_finished(txn_id)
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
        return _GRANT

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
        buffer = self.write_buffers[txn_id]
        if key in buffer:
            return buffer[key]
        return self.store.read(key)

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
    def _count(self, decision: Decision) -> None:
        kind = decision.kind
        if kind is DecisionKind.BLOCK:
            self.counters.blocks.value += 1
        elif kind is DecisionKind.ABORT:
            self.counters.aborts.value += 1

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
            return _GRANT
        return Decision.block(blocked_on=(self._holder,), reason="serial execution")

    def on_read(self, txn_id: int, key: str) -> Decision:
        return self._acquire(txn_id)

    def on_write(self, txn_id: int, key: str, value: Any) -> Decision:
        return self._acquire(txn_id)

    def on_commit(self, txn_id: int) -> Decision:
        if self._holder not in (None, txn_id):
            return Decision.block(blocked_on=(self._holder,), reason="serial execution")
        return _GRANT

    def on_finished(self, txn_id: int) -> None:
        if self._holder == txn_id:
            self._holder = None

"""Strict two-phase locking with FIFO lock queues and deadlock detection.

The online counterpart of the 2PL policy of Section 5.2: shared locks for
reads, exclusive locks for writes, every lock held until the transaction
finishes (strictness).  A request the holders do not admit **queues on
the lock** (:class:`LockEntry` owns its waiters, first come first
served); a release hands the lock straight to the longest compatible
prefix of that queue — one exclusive request or a run of shared ones —
and lists exactly those grantees in ``redrive`` for the kernel to wake;
their retry finds the lock already theirs.  Everyone else stays parked: a ``BLOCK`` names only the queue
predecessor (the head of the queue names the conflicting holders), and
those are also the only wait-for edges the deadlock search needs.  A
cycle aborts the requester whose wait would close it (it then restarts
via the executor).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.metrics import Metrics
from repro.engine.protocols.base import ConcurrencyControl, Decision, DecisionKind
from repro.engine.reasons import ABORT_LOCK_DEADLOCK
from repro.engine.storage import DataStore
from repro.util.graphs import WaitForGraph


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write) lock mode."""

    SHARED = "S"
    EXCLUSIVE = "X"


class LockRequest:
    """One queued request: a node of its key's queue.

    Doubly linked, so naming the predecessor, leaving from the middle
    (an abort while queued) and jumping to the front (an upgrade) are
    all O(1) however long the queue is.  ``ahead_txn`` names the request
    ahead by transaction id (``_queued_on`` resolves it), so a queue
    left at the end of a run is no reference cycle.
    """

    __slots__ = ("txn_id", "mode", "key", "ahead_txn", "behind")

    def __init__(self, txn_id: int, mode: LockMode, key: str) -> None:
        self.txn_id = txn_id
        self.mode = mode
        self.key = key
        self.ahead_txn: Optional[int] = None
        self.behind: Optional[LockRequest] = None


@dataclass
class LockEntry:
    """The state of one key's lock: its holders and its FIFO request queue."""

    holders: Dict[int, LockMode] = field(default_factory=dict)
    head: Optional[LockRequest] = None
    tail: Optional[LockRequest] = None
    #: number of queued requests
    depth: int = 0

    def admits(self, txn_id: int, mode: LockMode) -> bool:
        """Whether the holders are compatible with ``txn_id`` taking ``mode``.

        O(1) whatever the number of holders: an exclusive holder is
        always the only holder, so more than one holder means all shared.
        """
        holders = self.holders
        if len(holders) > 1:
            return mode is LockMode.SHARED
        for holder, held_mode in holders.items():
            return holder == txn_id or (
                mode is LockMode.SHARED and held_mode is LockMode.SHARED
            )
        return True

    def conflicting_holders(self, txn_id: int, mode: LockMode) -> List[int]:
        """The holders that prevent ``txn_id`` from acquiring ``mode``.

        Empty exactly when :meth:`admits` holds; built only to name the
        blockers of a request that reached the head of the queue.
        """
        return [
            holder
            for holder, held_mode in self.holders.items()
            if holder != txn_id
            and (mode is LockMode.EXCLUSIVE or held_mode is LockMode.EXCLUSIVE)
        ]

    def enqueue(self, request: LockRequest, front: bool = False) -> None:
        """Append a request (or put an upgrade ahead of everyone)."""
        if self.head is None:
            self.head = self.tail = request
        elif front:
            request.behind, self.head.ahead_txn = self.head, request.txn_id
            self.head = request
        else:
            request.ahead_txn, self.tail.behind = self.tail.txn_id, request
            self.tail = request
        self.depth += 1

    def dequeue(self, request: LockRequest, queued_on: Dict[int, LockRequest]) -> None:
        """Unlink a request from anywhere in the queue."""
        ahead_txn, behind = request.ahead_txn, request.behind
        ahead = None if ahead_txn is None else queued_on[ahead_txn]
        if ahead is None:
            self.head = behind
        else:
            ahead.behind = behind
        if behind is None:
            self.tail = ahead
        else:
            behind.ahead_txn = ahead_txn
        request.ahead_txn = request.behind = None
        self.depth -= 1

    def queued(self) -> List[Tuple[int, LockMode]]:
        """The queue front to back, as ``(txn_id, mode)`` pairs."""
        result, request = [], self.head
        while request is not None:
            result.append((request.txn_id, request.mode))
            request = request.behind
        return result

    @property
    def free(self) -> bool:
        return not self.holders and self.head is None


#: the shared value-less grant (``Decision.grant()`` allocates nothing)
_GRANTED = Decision.grant()


class StrictTwoPhaseLocking(ConcurrencyControl):
    """Strict 2PL: S/X locks held to end of transaction, deadlock detection by WFG cycle.

    A deadlock aborts the requester: the transaction whose wait would
    close the cycle.
    """

    name = "strict-2pl"
    counter_names = ConcurrencyControl.counter_names + ("2pl.deadlocks",)

    def __init__(self, store: DataStore, metrics: Optional[Metrics] = None) -> None:
        super().__init__(store, metrics=metrics)
        self._locks: Dict[str, LockEntry] = {}
        self._wait_for = WaitForGraph()
        #: keys each live transaction holds a lock on, so finishing
        #: releases exactly those instead of scanning every lock entry
        self._held_keys: Dict[int, List[str]] = {}
        #: the one request each *blocked* transaction has in a queue
        self._queued_on: Dict[int, LockRequest] = {}

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_begin(self, txn_id: int) -> None:
        self._held_keys[txn_id] = []

    def on_read(self, txn_id: int, key: str) -> Decision:
        return self._acquire(txn_id, key, LockMode.SHARED)

    def on_write(self, txn_id: int, key: str, value: Any) -> Decision:
        return self._acquire(txn_id, key, LockMode.EXCLUSIVE)

    def on_finished(self, txn_id: int) -> None:
        # left while queued (deadlock victim, injected abort)?  Whoever was
        # behind is parked on this transaction, so the kernel wakes that
        # one when this finish returns, to re-link to its new predecessor
        if txn_id in self._queued_on:
            self._leave_queue(txn_id)
        locks = self._locks
        for key in self._held_keys.pop(txn_id, ()):
            entry = locks[key]
            del entry.holders[txn_id]
            self._pass_on(key, entry)
        self._wait_for.remove_transaction(txn_id)

    # ------------------------------------------------------------------
    # lock acquisition, hand-off and deadlock handling
    # ------------------------------------------------------------------
    def _acquire(self, txn_id: int, key: str, mode: LockMode) -> Decision:
        entry = self._locks.get(key)
        if entry is None:
            entry = self._locks[key] = LockEntry()
        held = entry.holders.get(txn_id)
        if held is mode or held is LockMode.EXCLUSIVE:
            # already its own: a repeated access, or the retry of a
            # request that a release handed the lock to
            return _GRANTED
        request = self._queued_on.get(txn_id)
        if request is not None and (request.key != key or request.mode is not mode):
            # a blocked transaction only ever repeats its request; one that
            # asks for something else has given the queued request up
            self._leave_queue(txn_id)
            return self._acquire(txn_id, key, mode)
        if request is None:
            # a newcomer never barges past a queue; an upgrade by the only
            # holder is no newcomer
            if (held is not None or entry.head is None) and entry.admits(txn_id, mode):
                self._grant(entry, key, txn_id, mode)
                return _GRANTED
            request = self._queued_on[txn_id] = LockRequest(txn_id, mode, key)
            entry.enqueue(request, front=held is not None)
            self.metrics.observe("2pl.queue_depth", entry.depth)
        # one wait-for edge per waiter: the head waits for the holders in
        # its way, everyone else for the request directly ahead.  Repeating
        # a queued request (a wake after the predecessor aborted, a stall
        # retried on a timer) only re-reads that link.
        ahead_txn = request.ahead_txn
        blockers = (
            entry.conflicting_holders(txn_id, mode)
            if ahead_txn is None
            else [ahead_txn]
        )
        # only cycles through the requester matter here (its wait edges
        # are the only new ones); when nobody it waits for is itself
        # waiting there is nothing to search
        cycle = (
            self._wait_for.deadlocked_transactions(through=txn_id)
            if self._wait_for.add_waits(txn_id, blockers)
            else None
        )
        if cycle and txn_id in cycle:
            self.counters.deadlocks.value += 1
            self._wait_for.remove_transaction(txn_id)
            return Decision.abort(
                f"deadlock on {key!r}",
                code=ABORT_LOCK_DEADLOCK,
                key=key,
                conflict=sorted(blockers),
            )
        return Decision(
            DecisionKind.BLOCK, blocked_on=tuple(blockers), reason=f"lock on {key!r}"
        )

    def _grant(self, entry: LockEntry, key: str, txn_id: int, mode: LockMode) -> None:
        holders = entry.holders
        if txn_id not in holders:
            self._held_keys[txn_id].append(key)
        holders[txn_id] = mode
        self._wait_for.clear_waits(txn_id)

    def _leave_queue(self, txn_id: int) -> None:
        request = self._queued_on.pop(txn_id)
        entry = self._locks[request.key]
        entry.dequeue(request, self._queued_on)
        self._pass_on(request.key, entry)

    def _pass_on(self, key: str, entry: LockEntry) -> None:
        """After a release or a departure from the head of the queue: hand
        the lock to the longest compatible prefix of the queue and re-drive
        those grantees; drop the entry once nobody holds or wants it."""
        request = entry.head
        while request is not None and entry.admits(request.txn_id, request.mode):
            entry.dequeue(request, self._queued_on)
            del self._queued_on[request.txn_id]
            self._grant(entry, key, request.txn_id, request.mode)
            self.redrive.append(request.txn_id)
            request = entry.head
        if entry.free:
            # a free entry is indistinguishable from no entry
            del self._locks[key]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def locks_held(self, txn_id: int) -> Dict[str, LockMode]:
        """The locks currently held by a transaction (for tests and debugging)."""
        return {
            key: entry.holders[txn_id]
            for key, entry in self._locks.items()
            if txn_id in entry.holders
        }

    def lock_holders(self, key: str) -> Dict[int, LockMode]:
        """The current holders of a key's lock."""
        entry = self._locks.get(key)
        return dict(entry.holders) if entry else {}

    def lock_queue(self, key: str) -> List[Tuple[int, LockMode]]:
        """The requests queued on a key's lock, front to back."""
        entry = self._locks.get(key)
        return entry.queued() if entry else []

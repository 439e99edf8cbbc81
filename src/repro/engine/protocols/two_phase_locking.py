"""Strict two-phase locking with deadlock detection.

The online counterpart of the 2PL policy of Section 5.2: shared locks for
reads, exclusive locks for writes, every lock held until the transaction
finishes (strictness), blocked requests queue on the lock, and a
wait-for-graph cycle check aborts the requester whose wait would close a
cycle (the victim then restarts via the executor).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.metrics import Metrics
from repro.engine.protocols.base import ConcurrencyControl, Decision, DecisionKind
from repro.engine.reasons import ABORT_LOCK_DEADLOCK
from repro.engine.storage import DataStore
from repro.util.graphs import WaitForGraph


class LockMode(enum.Enum):
    """Shared (read) or exclusive (write) lock mode."""

    SHARED = "S"
    EXCLUSIVE = "X"


@dataclass
class LockEntry:
    """The state of one key's lock: current holders and their strongest mode."""

    holders: Dict[int, LockMode] = field(default_factory=dict)

    def conflicting_holders(self, txn_id: int, mode: LockMode) -> List[int]:
        """The holders that prevent ``txn_id`` from acquiring ``mode``.

        Empty exactly when the lock is compatible with the request.
        """
        # runs once per lock request: at 1,000 clients the herd of
        # retries behind a hot key makes any extra pass or copy visible
        result = []
        for holder, held_mode in self.holders.items():
            if holder == txn_id:
                continue
            if mode is LockMode.EXCLUSIVE or held_mode is LockMode.EXCLUSIVE:
                result.append(holder)
        return result

    def release(self, txn_id: int) -> None:
        self.holders.pop(txn_id, None)

    @property
    def free(self) -> bool:
        return not self.holders


#: the shared value-less grant (``Decision.grant()`` allocates nothing)
_GRANTED = Decision.grant()


class StrictTwoPhaseLocking(ConcurrencyControl):
    """Strict 2PL: S/X locks held to end of transaction, deadlock detection by WFG cycle.

    Parameters
    ----------
    store:
        The shared data store.
    deadlock_victim:
        ``"requester"`` (default) aborts the transaction whose wait would
        create a cycle; ``"youngest"`` aborts the most recently started
        transaction on the cycle (the requester retries its wait).
    """

    name = "strict-2pl"

    def __init__(
        self,
        store: DataStore,
        deadlock_victim: str = "requester",
        metrics: Optional[Metrics] = None,
    ) -> None:
        super().__init__(store, metrics=metrics)
        if deadlock_victim not in ("requester", "youngest"):
            raise ValueError("deadlock_victim must be 'requester' or 'youngest'")
        self.deadlock_victim = deadlock_victim
        self._locks: Dict[str, LockEntry] = {}
        self._wait_for = WaitForGraph()
        #: start sequence of every *live* transaction (victim choice only
        #: ever ranks live cycle members; dropped when a transaction ends)
        self._start_order: Dict[int, int] = {}
        self._next_start = 0
        #: keys each live transaction holds a lock on, so finishing
        #: releases exactly those instead of scanning every lock entry
        self._held_keys: Dict[int, List[str]] = {}
        self.deadlocks_detected = 0
        #: transactions this protocol has decided must abort (victim != requester);
        #: the executor polls :meth:`must_abort` to act on it.
        self._doomed: Set[int] = set()

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_begin(self, txn_id: int) -> None:
        self._start_order[txn_id] = self._next_start
        self._next_start += 1
        self._held_keys[txn_id] = []

    def on_read(self, txn_id: int, key: str) -> Decision:
        return self._acquire(txn_id, key, LockMode.SHARED)

    def on_write(self, txn_id: int, key: str, value: Any) -> Decision:
        return self._acquire(txn_id, key, LockMode.EXCLUSIVE)

    def on_commit(self, txn_id: int) -> Decision:
        if txn_id in self._doomed:
            self._doomed.discard(txn_id)
            return Decision.abort(
                "chosen as deadlock victim", code=ABORT_LOCK_DEADLOCK
            )
        return Decision.grant()

    def on_finished(self, txn_id: int) -> None:
        locks = self._locks
        for key in self._held_keys.pop(txn_id, ()):
            entry = locks[key]
            entry.release(txn_id)
            if entry.free:
                # a free entry is indistinguishable from no entry
                del locks[key]
        self._start_order.pop(txn_id, None)
        self._wait_for.remove_transaction(txn_id)
        self._doomed.discard(txn_id)

    # ------------------------------------------------------------------
    # lock acquisition and deadlock handling
    # ------------------------------------------------------------------
    def _acquire(self, txn_id: int, key: str, mode: LockMode) -> Decision:
        if txn_id in self._doomed:
            self._doomed.discard(txn_id)
            return Decision.abort(
                "chosen as deadlock victim", code=ABORT_LOCK_DEADLOCK
            )
        entry = self._locks.get(key)
        if entry is None:
            entry = self._locks[key] = LockEntry()
        blockers = entry.conflicting_holders(txn_id, mode)
        if not blockers:
            holders = entry.holders
            current = holders.get(txn_id)
            if current is None:
                holders[txn_id] = mode
                self._held_keys[txn_id].append(key)
            elif current is LockMode.SHARED and mode is LockMode.EXCLUSIVE:
                holders[txn_id] = mode
            self._wait_for.clear_waits(txn_id)
            return _GRANTED

        # only cycles through the requester matter here (its wait edges
        # are the only new ones), and the targeted search keeps blocking
        # O(reachable waits) instead of O(every parked transaction); when
        # nobody the requester waits for is itself waiting there is
        # nothing to search
        cycle = (
            self._wait_for.deadlocked_transactions(through=txn_id)
            if self._wait_for.add_waits(txn_id, blockers)
            else None
        )
        if cycle and txn_id in cycle:
            self.deadlocks_detected += 1
            self.metrics.incr("2pl.deadlocks")
            victim = self._choose_victim(cycle, requester=txn_id)
            if victim == txn_id:
                self._wait_for.remove_transaction(txn_id)
                return Decision.abort(
                    f"deadlock on {key!r}",
                    code=ABORT_LOCK_DEADLOCK,
                    key=key,
                    conflict=sorted(blockers),
                )
            self._doomed.add(victim)
            # The requester keeps waiting; the victim learns of its doom at
            # its next request — which a polling caller issues on a timer,
            # but an event-driven caller must be told to issue now.
            self.request_wake(victim)
        return Decision(
            DecisionKind.BLOCK, blocked_on=tuple(blockers), reason=f"lock on {key!r}"
        )

    def _choose_victim(self, cycle: List[int], requester: int) -> int:
        if self.deadlock_victim == "requester":
            return requester
        return max(cycle, key=lambda t: self._start_order.get(t, -1))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def must_abort(self, txn_id: int) -> bool:
        """Whether the protocol has marked this transaction as a deadlock victim."""
        return txn_id in self._doomed

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

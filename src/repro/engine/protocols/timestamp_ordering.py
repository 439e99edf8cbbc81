"""Basic timestamp ordering (T/O).

Each transaction receives a unique start timestamp; the protocol forces
every conflict to respect timestamp order by rejecting (aborting) the
requester otherwise.  The rules are the classical ones:

* read(``x``) by ``T`` with ``ts(T) < wts(x)`` — too late, abort ``T``;
  otherwise grant and set ``rts(x) = max(rts(x), ts(T))``.
* write(``x``) by ``T`` with ``ts(T) < rts(x)`` or ``ts(T) < wts(x)`` —
  abort ``T`` (the Thomas-write-rule variant that silently skips obsolete
  writes can be enabled with ``thomas_write_rule=True``); otherwise grant
  and set ``wts(x) = ts(T)``.

Timestamps of restarted transactions are re-drawn, so a repeatedly
aborted transaction eventually becomes the newest and wins.  Because
writes are buffered until commit, aborted transactions never dirty the
store, and the committed history is serializable in timestamp order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.engine.metrics import Metrics
from repro.engine.protocols.base import ConcurrencyControl, Decision
from repro.engine.reasons import ABORT_TO_READ_TOO_LATE, ABORT_TO_WRITE_TOO_LATE
from repro.engine.storage import DataStore


@dataclass
class KeyTimestamps:
    """The read/write timestamps of one key."""

    read_ts: int = -1
    write_ts: int = -1


class TimestampOrdering(ConcurrencyControl):
    """Basic timestamp ordering with optional Thomas write rule."""

    name = "timestamp-ordering"

    def __init__(
        self,
        store: DataStore,
        thomas_write_rule: bool = False,
        metrics: Optional[Metrics] = None,
    ) -> None:
        super().__init__(store, metrics=metrics)
        self.thomas_write_rule = thomas_write_rule
        self._timestamps: Dict[str, KeyTimestamps] = {}
        self._txn_ts: Dict[int, int] = {}
        self._next_ts = 0
        #: writes skipped by the Thomas write rule, for statistics
        self.skipped_writes = 0
        #: txn -> timestamp, recorded at commit: the serial order T/O
        #: emulates is timestamp order, which commit order need not follow
        self.serial_ranks = {}

    # ------------------------------------------------------------------
    # lifecycle hooks
    # ------------------------------------------------------------------
    def on_begin(self, txn_id: int) -> None:
        self._txn_ts[txn_id] = self._next_ts
        self._next_ts += 1

    def timestamp(self, txn_id: int) -> int:
        """The start timestamp assigned to a transaction."""
        return self._txn_ts[txn_id]

    def _key_ts(self, key: str) -> KeyTimestamps:
        return self._timestamps.setdefault(key, KeyTimestamps())

    def _older_pending_writers(self, txn_id: int, key: str) -> list:
        """Pending (uncommitted) writers of ``key`` with a smaller timestamp.

        With deferred writes, a reader whose timestamp exceeds a pending
        writer's must wait for that writer to commit, otherwise it would
        observe the older committed version and violate timestamp order.
        Waits always point from younger to older timestamps, so they can
        never form a cycle.
        """
        ts = self._txn_ts[txn_id]
        return [
            writer
            for writer in self.pending_writers(key, exclude=txn_id)
            if writer in self._txn_ts and self._txn_ts[writer] < ts
        ]

    def on_read(self, txn_id: int, key: str) -> Decision:
        ts = self._txn_ts[txn_id]
        key_ts = self._key_ts(key)
        if ts < key_ts.write_ts:
            return Decision.abort(
                f"read too late: ts({txn_id})={ts} < wts({key!r})={key_ts.write_ts}",
                code=ABORT_TO_READ_TOO_LATE,
                key=key,
            )
        older = self._older_pending_writers(txn_id, key)
        if older:
            return Decision.block(
                blocked_on=tuple(older), reason=f"uncommitted older write on {key!r}"
            )
        key_ts.read_ts = max(key_ts.read_ts, ts)
        return Decision.grant()

    def on_write(self, txn_id: int, key: str, value: Any) -> Decision:
        ts = self._txn_ts[txn_id]
        key_ts = self._key_ts(key)
        older = self._older_pending_writers(txn_id, key)
        if older:
            return Decision.block(
                blocked_on=tuple(older), reason=f"uncommitted older write on {key!r}"
            )
        if ts < key_ts.read_ts:
            return Decision.abort(
                f"write too late: ts({txn_id})={ts} < rts({key!r})={key_ts.read_ts}",
                code=ABORT_TO_WRITE_TOO_LATE,
                key=key,
            )
        if ts < key_ts.write_ts:
            if self.thomas_write_rule:
                # Obsolete write: skip it silently (do not buffer), but grant.
                self.skipped_writes += 1
                self.metrics.incr("to.skipped_writes")
                return Decision.grant_without_effect("Thomas write rule")
            return Decision.abort(
                f"write too late: ts({txn_id})={ts} < wts({key!r})={key_ts.write_ts}",
                code=ABORT_TO_WRITE_TOO_LATE,
                key=key,
            )
        key_ts.write_ts = ts
        return Decision.grant()

    def on_commit(self, txn_id: int) -> Decision:
        self.serial_ranks[txn_id] = self._txn_ts[txn_id]
        return Decision.grant()

    def on_finished(self, txn_id: int) -> None:
        self._txn_ts.pop(txn_id, None)

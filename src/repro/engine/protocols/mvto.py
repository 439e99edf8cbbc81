"""Multi-version timestamp ordering (MVTO).

The multi-version sibling of basic T/O, built on
:class:`~repro.engine.mvstore.MultiVersionDataStore`:

* every transaction receives a unique start timestamp ``ts(T)``;
* **readers never block and never abort** — a read of ``x`` is served
  from the newest committed version with ``begin_ts <= ts(T)``, and the
  protocol records ``rts`` (the largest reader timestamp) on that
  version;
* **writers validate against read timestamps** — a write of ``x`` by
  ``T`` will install a version at ``ts(T)``; if the version it would
  supersede (the one visible at ``ts(T)``) has already been read by a
  transaction *younger* than ``T`` (``rts > ts(T)``), installing the
  version would retroactively invalidate that read, so ``T`` aborts.
  The check runs at write time (fail fast) and again at commit (the
  decisive check, because reads by younger transactions may arrive while
  ``T``'s writes sit in its buffer).

Because versions reach the store only at commit, readers only ever
observe committed versions (no cascading aborts), and the commit-time
validation closes the classic deferred-write race: if a younger reader
observed the *old* version while an older writer was still uncommitted,
the writer — not the reader — pays with an abort.  The committed history
is one-copy serializable in timestamp order; the MVSG checker
(:mod:`repro.analysis.mvsg`) verifies exactly that, version by version.

The shared multi-version machinery (snapshot leases, GC cadence, MVSG
bookkeeping) lives in :class:`~repro.engine.protocols.multiversion.
MultiVersionConcurrencyControl`; this module adds only the timestamp
policy and the writer validation.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.engine.metrics import Metrics
from repro.engine.mvstore import VersionedRead
from repro.engine.protocols.base import Decision
from repro.engine.reasons import ABORT_MVTO_READ_INVALIDATION
from repro.engine.protocols.multiversion import MultiVersionConcurrencyControl
from repro.engine.storage import StorageError


class MultiVersionTimestampOrdering(MultiVersionConcurrencyControl):
    """MVTO: snapshot reads at the start timestamp, writer validation."""

    name = "mvto"

    def __init__(
        self,
        store: Any,
        metrics: Optional[Metrics] = None,
        gc_interval: int = 128,
    ) -> None:
        super().__init__(store, metrics=metrics, gc_interval=gc_interval)
        self._txn_ts: Dict[int, int] = {}
        #: start above any version the store already carries, so a store
        #: reused across batches never collides with the new installs
        self._next_ts = self.store.max_timestamp() + 1
        #: (key, begin_ts) -> largest timestamp that read that version
        self._version_rts: Dict[Any, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_begin(self, txn_id: int) -> None:
        self._txn_ts[txn_id] = self._next_ts
        self._next_ts += 1

    def timestamp(self, txn_id: int) -> int:
        """The start timestamp assigned to an active transaction."""
        return self._txn_ts[txn_id]

    # ------------------------------------------------------------------
    # reads: always granted, served from the version chain
    # ------------------------------------------------------------------
    def on_read(self, txn_id: int, key: str) -> Decision:
        return Decision.grant()

    def read_value(self, txn_id: int, key: str) -> Any:
        buffer = self.write_buffers.get(txn_id, {})
        if key in buffer:
            return buffer[key]
        ts = self._txn_ts[txn_id]
        version = self.store.read_as_of(key, ts)
        rts_key = (key, version.begin_ts)
        if ts > self._version_rts.get(rts_key, -1):
            self._version_rts[rts_key] = ts
        self.mv_reads.append(VersionedRead(txn_id, key, version.writer))
        return version.value

    # ------------------------------------------------------------------
    # writes: validate against read timestamps
    # ------------------------------------------------------------------
    def _write_invalidated_by(self, txn_id: int, key: str) -> Optional[int]:
        """The rts that dooms a write of ``key`` by ``txn_id``, if any."""
        ts = self._txn_ts[txn_id]
        try:
            version = self.store.read_as_of(key, ts)
        except StorageError:
            return None  # no version visible at ts: the write supersedes nothing
        rts = self._version_rts.get((key, version.begin_ts), -1)
        return rts if rts > ts else None

    def on_write(self, txn_id: int, key: str, value: Any) -> Decision:
        rts = self._write_invalidated_by(txn_id, key)
        if rts is not None:
            self.metrics.incr("mvto.write_validation_failures")
            return Decision.abort(
                f"mvto: version of {key!r} visible at ts {self._txn_ts[txn_id]} "
                f"was already read at ts {rts}",
                code=ABORT_MVTO_READ_INVALIDATION,
                key=key,
            )
        return Decision.grant()

    def on_commit(self, txn_id: int) -> Decision:
        # The decisive validation: a younger reader may have observed the
        # superseded version while this writer's versions sat in its
        # buffer.  The write-time check only fails fast.
        for key in self.write_buffers.get(txn_id, ()):
            rts = self._write_invalidated_by(txn_id, key)
            if rts is not None:
                self.metrics.incr("mvto.write_validation_failures")
                return Decision.abort(
                    f"mvto: commit validation failed on {key!r} "
                    f"(read at ts {rts} > ts {self._txn_ts[txn_id]})",
                    code=ABORT_MVTO_READ_INVALIDATION,
                    key=key,
                )
        return Decision.grant()

    def install_writes(self, txn_id: int) -> None:
        ts = self._txn_ts[txn_id]
        for key, value in self.write_buffers[txn_id].items():
            self.store.install(key, value, ts, writer=txn_id)
            self._record_install(key, ts, txn_id)

    # ------------------------------------------------------------------
    # timestamp policies (the multi-version base consumes these)
    # ------------------------------------------------------------------
    def _readonly_timestamp(self) -> int:
        """One tick below every active or future writer.

        MVTO installs versions at the writer's *start* timestamp, so a
        timestamp is stable only once every transaction at or below it
        has finished.
        """
        return min(self._txn_ts.values(), default=self._next_ts) - 1

    def _active_floor(self) -> int:
        return min(self._txn_ts.values(), default=self._next_ts)

    def _after_gc(self, watermark: Any) -> None:
        # prune rts entries of collected versions: no writer below the
        # watermark can ever validate against them again
        surviving = {
            (key, record.begin_ts)
            for key in self.store.keys()
            for record in self.store.version_chain(key)
        }
        self._version_rts = {
            rts_key: rts
            for rts_key, rts in self._version_rts.items()
            if rts_key in surviving
        }

    def on_finished(self, txn_id: int) -> None:
        self._txn_ts.pop(txn_id, None)
        super().on_finished(txn_id)

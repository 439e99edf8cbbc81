"""Shared machinery of the multi-version protocols.

MVTO and snapshot isolation differ in *which* timestamp a transaction
reads at and how writers validate, but share everything an MV protocol
needs around that choice:

* construction over any store (:func:`~repro.engine.mvstore.
  ensure_multiversion` wraps plain stores);
* the reads-from log (``mv_reads``) and the per-key version-install log
  that survive garbage collection, feeding the MVSG checker, which
  certifies only :meth:`mvsg_transactions` (committed transactions and
  fast-path readers that did not abort) and skips every other reader;
* read-only snapshot leases for the kernel's fast path, which pin the
  garbage-collection watermark while a fast-path reader is in flight;
* the GC cadence (every ``gc_interval`` finished transactions, collect
  below the oldest timestamp any active transaction or leased snapshot
  can still read at);
* the :meth:`committed_history_serializable` override answering with the
  one-copy-serializability verdict — the version-stamp certificate
  when it holds, the MVSG when it does not — because the base class's
  single-version conflict graph is wrong for snapshot reads.

Subclasses supply the two timestamp policies:
:meth:`_readonly_timestamp` (a *stable* snapshot for fast-path readers —
no later commit may install a version at or below it) and
:meth:`_active_floor` (the oldest timestamp an active transaction may
still read at, for the GC watermark).
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.metrics import Metrics
from repro.engine.mvstore import VersionedRead, ensure_multiversion
from repro.engine.protocols.base import ConcurrencyControl


class MultiVersionConcurrencyControl(ConcurrencyControl):
    """Base class for protocols reading from per-key version chains."""

    counter_names = ConcurrencyControl.counter_names + (
        "mvstore.versions_collected",
    )

    def __init__(
        self,
        store: Any,
        metrics: Optional[Metrics] = None,
        gc_interval: int = 128,
    ) -> None:
        super().__init__(ensure_multiversion(store), metrics=metrics)
        if gc_interval < 1:
            raise ValueError("gc_interval must be at least 1")
        self.gc_interval = gc_interval
        #: reads-from log for the MVSG checker
        self.mv_reads: List[VersionedRead] = []
        #: (ts, writer) of every installed version, per key — kept
        #: independently of the store chains so GC cannot erase history
        #: the MVSG checker needs
        self._version_log: Dict[str, List[Tuple[Any, int]]] = {}
        #: leased read-only snapshots (ts -> lease count), pinned below GC
        self._snapshot_leases: Dict[Any, int] = {}
        #: kernel fast-path readers that performed snapshot reads; their
        #: reads are part of the history the MVSG checker certifies
        self._fast_readers: set = set()
        self._finished_since_gc = 0

    # ------------------------------------------------------------------
    # subclass timestamp policies
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _readonly_timestamp(self) -> Any:
        """A stable snapshot timestamp for a declared-read-only reader."""

    @abc.abstractmethod
    def _active_floor(self) -> Any:
        """The oldest timestamp an active transaction may still read at."""

    def _after_gc(self, watermark: Any) -> None:
        """Hook after a collection (e.g. prune per-version bookkeeping)."""

    # ------------------------------------------------------------------
    # version-install bookkeeping
    # ------------------------------------------------------------------
    def _record_install(self, key: str, ts: Any, txn_id: int) -> None:
        self._version_log.setdefault(key, []).append((ts, txn_id))

    def committed_version_orders(self) -> Dict[str, Tuple[int, ...]]:
        """Per key, the committed writers in version (timestamp) order."""
        return {
            key: tuple([txn for _, txn in sorted(entries)])
            for key, entries in self._version_log.items()
        }

    def version_stamps(self) -> Dict[int, Any]:
        """Per committed writer, the timestamp its versions were installed at.

        The serial position the protocol claims for the writer: its start
        timestamp under MVTO, its commit timestamp under SI.
        """
        return {
            txn: ts for entries in self._version_log.values() for ts, txn in entries
        }

    # ------------------------------------------------------------------
    # read-only fast path
    # ------------------------------------------------------------------
    def readonly_snapshot(self) -> Any:
        snapshot = self._readonly_timestamp()
        self._snapshot_leases[snapshot] = self._snapshot_leases.get(snapshot, 0) + 1
        return snapshot

    def snapshot_read(
        self, key: str, snapshot_ts: Any, txn_id: Optional[int] = None
    ) -> Any:
        version = self.store.read_as_of(key, snapshot_ts)
        if txn_id is not None:
            # fast-path reads are real observations: log them so the MVSG
            # certificate covers declared-read-only transactions too
            self._fast_readers.add(txn_id)
            self.mv_reads.append(VersionedRead(txn_id, key, version.writer))
        return version.value

    def release_snapshot(self, snapshot_ts: Any) -> None:
        self._release_lease(snapshot_ts)

    def _release_lease(self, snapshot_ts: Any) -> None:
        """Drop one lease on ``snapshot_ts`` (the raw count decrement).

        Split from :meth:`release_snapshot` so the abort path can return
        a lease *without* the commit-path side effects subclasses hang on
        release (serializable SI records the lease's reads as a committed
        reader footprint there — exactly what an aborted attempt must not
        leave behind).
        """
        count = self._snapshot_leases.get(snapshot_ts, 0) - 1
        if count > 0:
            self._snapshot_leases[snapshot_ts] = count
        else:
            self._snapshot_leases.pop(snapshot_ts, None)

    def abort_fast_reader(self, txn_id: Optional[int], snapshot_ts: Any) -> None:
        """Take an aborted fast-path attempt out of the MVSG certificate.

        Its snapshot reads genuinely happened, but the attempt aborted —
        certifying them would certify the very observation the abort
        exists to reject.  Dropping the reader from ``_fast_readers``
        is enough: the checker ignores reads by transactions outside
        :meth:`mvsg_transactions`.  The lease is returned via
        :meth:`_release_lease`, bypassing the commit-path release hook.
        """
        self._fast_readers.discard(txn_id)
        self._release_lease(snapshot_ts)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def mvsg_transactions(self) -> frozenset:
        """The transactions whose operations the MVSG certificate covers.

        Committed protocol transactions plus every fast-path reader —
        the readers' snapshot observations are part of the execution, and
        omitting them would let e.g. plain SI's read-only-transaction
        anomaly go uncertified.
        """
        return frozenset(self.committed) | frozenset(self._fast_readers)

    def committed_history_serializable(self) -> bool:
        """One-copy serializability of the committed multi-version history.

        The single-version conflict-graph check of the base class is
        wrong for multi-version schedules (a reader served from an old
        version *follows* the writer in the log but *precedes* it in the
        serialization), so MV protocols answer in MVSG terms: first the
        stamp-order certificate (:func:`repro.analysis.certificate.
        multiversion_order_certified`, one pass over the reads), and
        only when it fails the MVSG itself.  Note that under plain
        snapshot isolation this can legitimately return ``False`` —
        write skew is admitted by design.
        """
        from repro.analysis.certificate import multiversion_order_certified
        from repro.analysis.mvsg import MVHistory, one_copy_serializable

        history = MVHistory.from_protocol(self)
        return multiversion_order_certified(history) or one_copy_serializable(history)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def on_finished(self, txn_id: int) -> None:
        """GC cadence; subclasses pop their state first, then call super."""
        self._finished_since_gc += 1
        if self._finished_since_gc >= self.gc_interval:
            self._finished_since_gc = 0
            watermark = self._gc_watermark()
            dropped = self.store.collect_garbage(watermark)
            if dropped:
                self.counters.versions_collected.value += dropped
                self._after_gc(watermark)

    def _gc_watermark(self) -> Any:
        floor = self._active_floor()
        if self._snapshot_leases:
            leased = min(self._snapshot_leases)
            if leased < floor:
                floor = leased
        return floor

"""Snapshot isolation (SI) and its serializable variant (SSI-style).

Classic begin-snapshot semantics on top of
:class:`~repro.engine.mvstore.MultiVersionDataStore`:

* at begin, a transaction takes the current commit timestamp as its
  **snapshot**; every read is served from the newest version committed
  at or before that snapshot (plus its own buffered writes), so readers
  never block and never abort;
* at commit, **first-committer-wins** validation: if any key in the
  write set already carries a version committed *after* the snapshot, a
  concurrent writer got there first and the transaction aborts.  An
  eager check at write time fails doomed transactions early; the
  commit-time check is the decisive one.

Plain SI famously admits **write skew**: two concurrent transactions
each read what the other writes, both pass first-committer-wins (their
write sets are disjoint), and the combined result is not one-copy
serializable.  ``serializable=True`` adds rw-antidependency tracking in
the style of serializable SI (Cahill et al.): every committed
transaction — including read-only ones, whose reads alone can complete a
dangerous structure (Fekete's read-only anomaly), and including kernel
fast-path readers via their snapshot leases — leaves behind its
read/write footprint carrying two conflict flags, and a committing
transaction aborts when any of the following holds:

* it is itself the **pivot**: it has both an inbound rw-antidependency
  (a concurrent committed transaction read something it writes) and an
  outbound one (it read something a concurrent committed transaction
  wrote);
* its outbound edge points at a committed footprint that already has an
  outbound edge of its own — a pivot that committed *before* the edge
  into it existed (the structure the pure pivot check misses);
* its inbound edge comes from a committed footprint that already has an
  inbound edge of its own — the mirror case.

Committing also back-annotates the flags of the footprints it touches,
so pivots are detectable no matter the commit order of the structure's
three participants.  Detection stays conservative (rw-edges are
approximated by footprint intersection over concurrent commits) and
keeps the never-blocking read path untouched.

Versions are installed at **commit** timestamps (monotone), so snapshots
are trivially stable; the shared multi-version machinery (snapshot
leases, GC cadence, MVSG bookkeeping) lives in
:class:`~repro.engine.protocols.multiversion.MultiVersionConcurrencyControl`.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.engine.metrics import Metrics
from repro.engine.mvstore import VersionedRead
from repro.engine.protocols.base import Decision, SnapshotAborted
from repro.engine.reasons import (
    ABORT_SI_FIRST_COMMITTER,
    ABORT_SSI_FASTPATH_PIVOT,
    ABORT_SSI_PIVOT,
)
from repro.engine.protocols.multiversion import MultiVersionConcurrencyControl

#: txn_id recorded on footprints left by kernel fast-path readers, which
#: never receive a protocol-visible transaction identifier.
FAST_PATH_READER = -1


class SIFootprint:
    """The read/write footprint of a committed transaction (for SSI checks).

    ``in_conflict``/``out_conflict`` record whether the transaction has a
    known inbound/outbound rw-antidependency with a concurrent
    transaction; they start from the state observed at its own commit and
    are back-annotated as later concurrent transactions commit, which is
    what lets pivot detection work regardless of commit order.
    """

    __slots__ = (
        "txn_id",
        "read_set",
        "write_set",
        "snapshot_ts",
        "commit_ts",
        "in_conflict",
        "out_conflict",
    )

    def __init__(
        self,
        txn_id: int,
        read_set: FrozenSet[str],
        write_set: FrozenSet[str],
        snapshot_ts: int,
        commit_ts: int,
        in_conflict: bool = False,
        out_conflict: bool = False,
    ) -> None:
        self.txn_id = txn_id
        self.read_set = read_set
        self.write_set = write_set
        self.snapshot_ts = snapshot_ts
        self.commit_ts = commit_ts
        self.in_conflict = in_conflict
        self.out_conflict = out_conflict


class SnapshotIsolation(MultiVersionConcurrencyControl):
    """Begin-snapshot reads + first-committer-wins writes (+ optional SSI)."""

    name = "snapshot-isolation"

    def __init__(
        self,
        store: Any,
        serializable: bool = False,
        metrics: Optional[Metrics] = None,
        gc_interval: int = 128,
    ) -> None:
        super().__init__(store, metrics=metrics, gc_interval=gc_interval)
        self.serializable = serializable
        if serializable:
            self.name = "serializable-si"
        #: commit clock, seeded above any version the store already
        #: carries so a store reused across batches keeps working
        self._commit_ts = self.store.max_timestamp()
        self._snapshots: Dict[int, int] = {}
        self._read_sets: Dict[int, Set[str]] = {}
        #: committed footprints still concurrent with some active txn (SSI)
        self._footprints: List[SIFootprint] = []
        #: conflict flags computed at on_commit, consumed when the
        #: footprint is recorded in install_writes
        self._pending_conflicts: Dict[int, Tuple[bool, bool]] = {}
        #: keys read through each leased fast-path snapshot (SSI only)
        self._lease_reads: Dict[Any, Set[str]] = {}
        #: inverted pivot index: key -> (commit_ts, txn_id) of the latest
        #: out-conflicted committed writer of that key.  Serves the
        #: fast-path committed-pivot check in O(1) per read instead of
        #: scanning every retained footprint (the same inverted-index
        #: shape occ.py uses for validation); pruned with the footprints.
        self._pivot_overwrites: Dict[str, Tuple[int, int]] = {}
        self.first_committer_aborts = 0
        self.ssi_aborts = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def on_begin(self, txn_id: int) -> None:
        self._snapshots[txn_id] = self._commit_ts
        self._read_sets[txn_id] = set()

    def snapshot_of(self, txn_id: int) -> int:
        """The snapshot timestamp an active transaction reads at."""
        return self._snapshots[txn_id]

    # ------------------------------------------------------------------
    # reads: always granted, served from the begin snapshot
    # ------------------------------------------------------------------
    def on_read(self, txn_id: int, key: str) -> Decision:
        return Decision.grant()

    def read_value(self, txn_id: int, key: str) -> Any:
        buffer = self.write_buffers.get(txn_id, {})
        if key in buffer:
            return buffer[key]
        version = self.store.read_as_of(key, self._snapshots[txn_id])
        self._read_sets[txn_id].add(key)
        self.mv_reads.append(VersionedRead(txn_id, key, version.writer))
        return version.value

    # ------------------------------------------------------------------
    # writes: first-committer-wins
    # ------------------------------------------------------------------
    def _first_committer_conflict(self, txn_id: int, key: str) -> Optional[int]:
        """The writer that already committed a newer version of ``key``."""
        if key not in self.store:
            return None
        latest = self.store.latest(key)
        if latest.begin_ts > self._snapshots[txn_id]:
            return latest.writer
        return None

    def on_write(self, txn_id: int, key: str, value: Any) -> Decision:
        winner = self._first_committer_conflict(txn_id, key)
        if winner is not None:
            self.first_committer_aborts += 1
            self.metrics.incr("si.first_committer_aborts")
            return Decision.abort(
                f"si: first-committer-wins on {key!r} (T{winner} committed "
                f"after snapshot {self._snapshots[txn_id]})",
                code=ABORT_SI_FIRST_COMMITTER,
                key=key,
                conflict=(winner,),
            )
        return Decision.grant()

    def on_commit(self, txn_id: int) -> Decision:
        snapshot = self._snapshots[txn_id]
        for key in self.write_buffers.get(txn_id, ()):
            winner = self._first_committer_conflict(txn_id, key)
            if winner is not None:
                self.first_committer_aborts += 1
                self.metrics.incr("si.first_committer_aborts")
                return Decision.abort(
                    f"si: first-committer-wins on {key!r} at commit "
                    f"(T{winner} committed after snapshot {snapshot})",
                    code=ABORT_SI_FIRST_COMMITTER,
                    key=key,
                    conflict=(winner,),
                )
        if self.serializable:
            reads = self._read_sets[txn_id]
            writes = set(self.write_buffers.get(txn_id, ()))
            # rw-antidependency edges against concurrent committed
            # footprints: out_edges are T ->rw F (T read the version F's
            # write superseded), in_edges are F ->rw T (F read the
            # version T is about to supersede)
            out_edges = []
            in_edges = []
            for footprint in self._footprints:
                if footprint.commit_ts <= snapshot:
                    continue
                if footprint.write_set & reads:
                    out_edges.append(footprint)
                if writes and footprint.read_set & writes:
                    in_edges.append(footprint)
            has_outbound = bool(out_edges)
            has_inbound = bool(in_edges)
            if not has_inbound and writes:
                # in-flight fast-path readers serialize at their leased
                # snapshot, before this commit: their reads-so-far are
                # inbound rw-antidependencies too
                has_inbound = any(
                    lease_reads & writes
                    for lease_reads in self._lease_reads.values()
                )
            # dangerous structure: this transaction is the pivot, or one
            # of its edges points at a committed footprint that is (its
            # flags carry edges discovered after that footprint committed)
            if (
                (has_outbound and has_inbound)
                or any(f.out_conflict for f in out_edges)
                or any(f.in_conflict for f in in_edges)
            ):
                self.ssi_aborts += 1
                self.metrics.incr("si.ssi_aborts")
                return Decision.abort(
                    "ssi: dangerous structure (rw-antidependency pivot "
                    "among concurrent commits)",
                    code=ABORT_SSI_PIVOT,
                    conflict=tuple(
                        sorted({f.txn_id for f in out_edges + in_edges})
                    ),
                )
            # committing: back-annotate the edges onto the footprints so
            # a pivot that committed first is still caught later
            for footprint in out_edges:
                footprint.in_conflict = True
            for footprint in in_edges:
                footprint.out_conflict = True
                self._note_pivot(footprint)
            self._pending_conflicts[txn_id] = (has_inbound, has_outbound)
        return Decision.grant()

    def install_writes(self, txn_id: int) -> None:
        buffer = self.write_buffers[txn_id]
        if not buffer:
            # read-only commit: no version, no commit-ts tick — but under
            # SSI the reads alone can complete a dangerous structure
            # (Fekete's read-only anomaly), so the footprint still counts
            self._record_footprint(
                txn_id, self._read_sets[txn_id], frozenset(), self._snapshots[txn_id]
            )
            return
        self._commit_ts += 1
        commit_ts = self._commit_ts
        for key, value in buffer.items():
            self.store.install(key, value, commit_ts, writer=txn_id)
            self._record_install(key, commit_ts, txn_id)
        self._record_footprint(
            txn_id, self._read_sets[txn_id], frozenset(buffer), self._snapshots[txn_id]
        )

    # ------------------------------------------------------------------
    # timestamp policies and the fast-path SSI bridge
    # ------------------------------------------------------------------
    def _readonly_timestamp(self) -> int:
        """The current commit timestamp — stable because commits are monotone."""
        return self._commit_ts

    def _active_floor(self) -> int:
        return min(self._snapshots.values(), default=self._commit_ts)

    def snapshot_read(
        self, key: str, snapshot_ts: Any, txn_id: Optional[int] = None
    ) -> Any:
        if self.serializable:
            # read-only anomaly with an already-committed pivot: if this
            # read would observe a version superseded by a committed
            # writer that itself has an outbound rw-antidependency, the
            # reader is the inbound edge of a dangerous structure whose
            # other two participants have both finished — nobody is left
            # to abort but the reader.  (Commit-time detection cannot
            # catch this: at the pivot's commit this key had not been
            # read yet, so the lease carried no inbound edge.)  Served
            # from the inverted pivot index: stale entries are harmless
            # because a trimmed pivot's commit_ts lies at or below every
            # live or future snapshot, so the comparison never fires.
            pivot = self._pivot_overwrites.get(key)
            if pivot is not None and pivot[0] > snapshot_ts:
                self.ssi_aborts += 1
                self.metrics.incr("si.fastpath_aborts")
                raise SnapshotAborted(
                    f"ssi: fast-path read of {key!r} at snapshot "
                    f"{snapshot_ts} races committed pivot T{pivot[1]}",
                    code=ABORT_SSI_FASTPATH_PIVOT,
                    conflict_txns=(pivot[1],),
                )
            # remember what rode this lease: a fast-path reader's reads
            # can be the inbound edge of a dangerous structure
            self._lease_reads.setdefault(snapshot_ts, set()).add(key)
        return super().snapshot_read(key, snapshot_ts, txn_id=txn_id)

    def release_snapshot(self, snapshot_ts: Any) -> None:
        if self.serializable:
            reads = self._lease_reads.get(snapshot_ts)
            if reads:
                # the reader's rw-antidependencies into concurrent
                # committed writers: back-annotate their inbound flags
                # (the reader itself can never abort, but its edges can
                # make a later committer the detected pivot)
                out_conflict = False
                for footprint in self._footprints:
                    if footprint.commit_ts > snapshot_ts and (
                        footprint.write_set & reads
                    ):
                        footprint.in_conflict = True
                        out_conflict = True
                self._record_footprint(
                    FAST_PATH_READER,
                    reads,
                    frozenset(),
                    snapshot_ts,
                    out_conflict=out_conflict,
                )
        super().release_snapshot(snapshot_ts)
        if snapshot_ts not in self._snapshot_leases:
            self._lease_reads.pop(snapshot_ts, None)

    def abort_fast_reader(self, txn_id: Optional[int], snapshot_ts: Any) -> None:
        """An aborted fast-path attempt leaves no reader footprint behind.

        The base class takes the reader out of the MVSG certificate and
        returns the lease without the commit-path release hook, so no
        ``FAST_PATH_READER`` footprint is recorded for work that never
        happened.  The
        accumulated lease reads are dropped with the last lease on the
        timestamp; while *other* leases still share it, the set is kept
        as-is — it may mix in the aborted attempt's keys, which can only
        over-approximate the surviving readers' eventual footprint (safe,
        merely conservative).
        """
        super().abort_fast_reader(txn_id, snapshot_ts)
        if self.serializable and snapshot_ts not in self._snapshot_leases:
            self._lease_reads.pop(snapshot_ts, None)

    # ------------------------------------------------------------------
    # SSI footprint bookkeeping
    # ------------------------------------------------------------------
    def _note_pivot(self, footprint: SIFootprint) -> None:
        """Index an out-conflicted writer's overwrites for O(1) read checks."""
        for key in footprint.write_set:
            existing = self._pivot_overwrites.get(key)
            if existing is None or footprint.commit_ts > existing[0]:
                self._pivot_overwrites[key] = (footprint.commit_ts, footprint.txn_id)

    def _record_footprint(
        self, txn_id, reads, writes, snapshot_ts, out_conflict: bool = False
    ) -> None:
        if not self.serializable:
            return
        pending_in, pending_out = self._pending_conflicts.pop(
            txn_id, (False, out_conflict)
        )
        footprint = SIFootprint(
            txn_id=txn_id,
            read_set=frozenset(reads),
            write_set=frozenset(writes),
            snapshot_ts=snapshot_ts,
            # writers call this right after ticking the clock, so
            # this is their commit timestamp; read-only commits carry
            # the current clock, making them concurrent with exactly
            # the writers whose snapshots predate it
            commit_ts=self._commit_ts,
            in_conflict=pending_in,
            out_conflict=pending_out,
        )
        self._footprints.append(footprint)
        if pending_out and footprint.write_set:
            self._note_pivot(footprint)
        self._trim_footprints()

    def _trim_footprints(self) -> None:
        """Drop footprints nothing in flight is still concurrent with.

        There is deliberately no size cap: truncating still-concurrent
        footprints would silently disable pivot detection, admitting the
        very anomalies ``serializable=True`` exists to prevent.  Growth
        is bounded by the lifetime of the oldest in-flight snapshot —
        once it finishes, the horizon advances and the list collapses.

        The horizon is the lease-aware GC watermark, not just the active
        transactions' floor: a fast-path reader holds only a snapshot
        *lease*, and trimming a committed pivot's footprint while such a
        lease predates it would blind :meth:`snapshot_read`'s
        committed-pivot check mid-scan.
        """
        horizon = self._gc_watermark()
        self._footprints = [f for f in self._footprints if f.commit_ts > horizon]
        if len(self._pivot_overwrites) > 2 * len(self._footprints):
            self._pivot_overwrites = {
                key: entry
                for key, entry in self._pivot_overwrites.items()
                if entry[0] > horizon
            }

    def on_finished(self, txn_id: int) -> None:
        self._snapshots.pop(txn_id, None)
        self._read_sets.pop(txn_id, None)
        super().on_finished(txn_id)

"""Optimistic concurrency control: both Kung & Robinson validation algorithms.

Transactions run entirely against their private read/write sets (the
*read phase*), then attempt to *validate* at commit: a committing
transaction must be certain that no transaction that committed after it
started wrote anything it read.  Kung & Robinson (1981) give two
algorithms for this backward validation, and this module implements both,
selected by ``OptimisticConcurrencyControl(validation=...)``:

* ``"serial"`` — the paper's first algorithm: validation plus write phase
  form one critical section, so at most one transaction validates at a
  time.  Simple, but the critical section becomes the bottleneck at high
  multiprogramming levels — every committing client queues behind it.
* ``"parallel"`` — the paper's Section 5 refinement: only the assignment
  of a *validation ticket* (and the snapshot of who else is validating)
  happens in the critical section.  The validation checks themselves and
  the write phase run outside it, overlapping with other transactions'
  read phases and with each other.  A validator must then check its read
  set against transactions that committed since it started *and* its
  read+write footprint against the write sets of transactions that were
  mid-validation when it entered the pipeline (their write phases may
  interleave with ours).  The engine kernel drives the pipeline as two
  interactions (``prepare_commit`` then ``commit``), which is what lets
  the discrete-event simulator overlap validation with other clients'
  work and measure the critical-section bottleneck disappearing.

Validation itself is O(|read set|) in both modes, via an **inverted write
index**: a per-key map from key to the commit number of its last
committed writer.  A validator probes only the keys it actually read,
instead of scanning every committed write set — the O(history x
footprint) scan of the original implementation.  The index is exact for
any transaction that started within the last ``history_limit`` commits;
older entries are evicted in bulk (amortised), and a transaction whose
start number predates the eviction floor *aborts conservatively* rather
than risking a false validation pass — the paper's answer to unbounded
old-write-set retention.  Nothing else is kept per commit: the index is
all validation reads, so OCC's state is O(keys written within the
window + active transactions), not O(history).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.engine.metrics import Metrics
from repro.engine.protocols.base import ConcurrencyControl, Decision
from repro.engine.reasons import (
    ABORT_OCC_HISTORY_OVERFLOW,
    ABORT_OCC_PIPELINE_OVERLAP,
    ABORT_OCC_READ_INVALIDATED,
)
from repro.engine.storage import DataStore

#: the shared value-less grant every granted request returns
_GRANT = Decision.grant()


class _Validator:
    """One transaction inside the parallel-validation pipeline."""

    __slots__ = ("txn_id", "ticket", "write_set")

    def __init__(self, txn_id: int, ticket: int, write_set: FrozenSet[str]) -> None:
        self.txn_id = txn_id
        self.ticket = ticket
        self.write_set = write_set


class OptimisticConcurrencyControl(ConcurrencyControl):
    """Backward-validating OCC with serial or parallel (Section 5) validation."""

    name = "occ"
    counter_names = ConcurrencyControl.counter_names + (
        "occ.validation_failures",
        "occ.conservative_aborts",
        "occ.pipeline_entries",
    )

    def __init__(
        self,
        store: DataStore,
        history_limit: int = 10_000,
        metrics: Optional[Metrics] = None,
        validation: str = "serial",
    ) -> None:
        super().__init__(store, metrics=metrics)
        if validation not in ("serial", "parallel"):
            raise ValueError("validation must be 'serial' or 'parallel'")
        self.validation = validation
        if validation == "parallel":
            self.name = "occ-parallel"
            self.two_stage_commit = True
            #: txn -> validation ticket: the pipeline serializes in ticket
            #: order, which commit order need not follow
            self.serial_ranks = {}
        if history_limit < 1:
            raise ValueError("history_limit must be at least 1")
        #: start number of each active transaction = how many commits it has seen
        self._start_number: Dict[int, int] = {}
        self._read_sets: Dict[int, Set[str]] = {}
        self._commit_number = 0
        #: the inverted write index: key -> commit number of the key's last
        #: committed writer.  Validation probes this per read-set key.
        self._last_writer_commit: Dict[str, int] = {}
        #: key -> txn id of that last committed writer, maintained in
        #: lock-step with the commit-number index purely for abort
        #: attribution (naming the conflicting writer costs one extra
        #: dict write per committed key, never a probe on the pass path)
        self._last_writer_txn: Dict[str, int] = {}
        #: commit numbers at or below the floor may have been evicted from
        #: the index; a transaction that started below the floor cannot
        #: distinguish "no conflicting write" from "conflict evicted" and
        #: must abort conservatively.
        self._index_floor = 0
        self.history_limit = history_limit
        # --- parallel-validation pipeline state ---
        self._next_ticket = 0
        #: transactions currently between prepare_commit and commit,
        #: keyed by txn id; the values carry the published write sets that
        #: later entrants must validate against.
        self._validating: Dict[int, _Validator] = {}

    def on_begin(self, txn_id: int) -> None:
        self._start_number[txn_id] = self._commit_number
        self._read_sets[txn_id] = set()

    # ------------------------------------------------------------------
    # read phase: everything is granted
    # ------------------------------------------------------------------
    def on_read(self, txn_id: int, key: str) -> Decision:
        self._read_sets[txn_id].add(key)
        return _GRANT

    def on_write(self, txn_id: int, key: str, value: Any) -> Decision:
        return _GRANT

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _fail(
        self,
        reason: str,
        conservative: bool = False,
        code: Optional[str] = None,
        key: Optional[str] = None,
        conflict: Tuple[int, ...] = (),
    ) -> Decision:
        self.counters.validation_failures.value += 1
        if conservative:
            self.counters.conservative_aborts.value += 1
        return Decision.abort(reason, code=code, key=key, conflict=conflict)

    def _validate_against_committed(self, txn_id: int) -> Optional[Decision]:
        """Probe the inverted index for each key the transaction read.

        Returns an ABORT decision on conflict (or when the retained
        history cannot answer exactly), ``None`` when validation passes.
        Cost: one dict probe per read-set key — independent of how many
        transactions have committed.
        """
        start = self._start_number[txn_id]
        if start < self._index_floor:
            # the transaction outlived the retained index history: writes
            # committed in (start, floor] may have been evicted, so a pass
            # cannot be trusted.  Abort conservatively (never falsely pass).
            self.validation_probes += 1
            return self._fail(
                f"history_limit overflow: T{txn_id} started at commit "
                f"{start}, before the retained index floor {self._index_floor}",
                conservative=True,
                code=ABORT_OCC_HISTORY_OVERFLOW,
            )
        index = self._last_writer_commit
        read_set = self._read_sets[txn_id]
        # probe cost is charged for the whole read set up front, not up to
        # the first conflict: read sets are unordered, so charging partial
        # scans would make simulated time depend on set iteration order
        # (i.e. on PYTHONHASHSEED) and break cross-process reproducibility
        self.validation_probes += len(read_set)
        for key in read_set:
            last = index.get(key)
            if last is not None and last > start:
                # name the smallest conflicting key, not the first one the
                # set reaches, so the abort reads the same in any process
                for key in sorted(read_set):
                    last = index.get(key)
                    if last is not None and last > start:
                        break
                writer = self._last_writer_txn.get(key)
                return self._fail(
                    f"validation failed: {key!r} overwritten at commit "
                    f"{last} > T{txn_id}'s start number {start}"
                    + (f" by T{writer}" if writer is not None else ""),
                    code=ABORT_OCC_READ_INVALIDATED,
                    key=key,
                    conflict=(writer,) if writer is not None else (),
                )
        return None

    def _validate_against_validators(
        self, txn_id: int, validators: List[_Validator]
    ) -> Optional[Decision]:
        """Check the paper's parallel-validation condition (3).

        A validator's read *and* write sets must be disjoint from the
        write set of every transaction that was mid-validation when this
        one entered the pipeline: their write phases may interleave with
        ours, so both rw and ww overlaps are unsafe.
        """
        if not validators:
            return None
        footprint = self._read_sets[txn_id] | set(self.write_buffers.get(txn_id, ()))
        # like the index probes: the full snapshot's cost is charged up
        # front so simulated time never depends on set iteration order
        size = len(footprint)
        probes = 0
        for other in validators:
            width = len(other.write_set)
            probes += width if width < size else size
        self.validation_probes += probes
        for other in validators:
            overlap = other.write_set & footprint
            if overlap:
                return self._fail(
                    f"parallel validation failed against concurrently "
                    f"validating T{other.txn_id} on {sorted(overlap)}",
                    code=ABORT_OCC_PIPELINE_OVERLAP,
                    key=min(overlap),
                    conflict=(other.txn_id,),
                )
        return None

    # ------------------------------------------------------------------
    # commit: serial = one critical section; parallel = pipeline
    # ------------------------------------------------------------------
    def _validate(
        self, txn_id: int, validators: Optional[List[_Validator]] = None
    ) -> Optional[Decision]:
        """The full validation sequence: committed index, then pipeline.

        Shared by the prepare stage and the unprepared-commit fallback so
        the two driving styles can never diverge.
        """
        decision = self._validate_against_committed(txn_id)
        if decision is None and validators:
            decision = self._validate_against_validators(txn_id, validators)
        return decision

    def on_prepare_commit(self, txn_id: int) -> Optional[Decision]:
        if self.validation != "parallel":
            return None
        # critical section (atomic here): snapshot the concurrent
        # validators and take a ticket; the checks below conceptually run
        # outside it, overlapping with other transactions' read phases.
        validators = [v for v in self._validating.values() if v.txn_id != txn_id]
        decision = self._validate(txn_id, validators)
        if decision is not None:
            return decision
        ticket = self._next_ticket
        self._next_ticket += 1
        write_set = frozenset(self.write_buffers.get(txn_id, ()))
        self._validating[txn_id] = _Validator(txn_id, ticket, write_set)
        self.counters.pipeline_entries.value += 1
        return _GRANT

    def on_commit(self, txn_id: int) -> Decision:
        if self.validation == "parallel":
            validator = self._validating.pop(txn_id, None)
            if validator is None:
                # driven without a prepare stage (direct protocol use; the
                # kernel always prepares first): validate in one step, like
                # serial mode but still against any concurrently
                # validating writers, and take the next ticket.
                decision = self._validate(txn_id, list(self._validating.values()))
                if decision is not None:
                    return decision
                ticket = self._next_ticket
                self._next_ticket += 1
            else:
                # prepared transactions already validated; later entrants
                # have been checking themselves against our write set.
                ticket = validator.ticket
            self.serial_ranks[txn_id] = ticket
        else:
            decision = self._validate(txn_id)
            if decision is not None:
                return decision
        self._record_commit(txn_id)
        return _GRANT

    def _record_commit(self, txn_id: int) -> None:
        """Write phase bookkeeping: bump the inverted write index.

        The base class installs the buffered writes into the store right
        after ``on_commit`` returns GRANT.
        """
        self._commit_number += 1
        number = self._commit_number
        index = self._last_writer_commit
        writers = self._last_writer_txn
        for key in self.write_buffers.get(txn_id, ()):
            index[key] = number
            writers[key] = txn_id
        self._maybe_evict_index()

    def on_abort(self, txn_id: int) -> None:
        self._validating.pop(txn_id, None)

    def on_finished(self, txn_id: int) -> None:
        self._start_number.pop(txn_id, None)
        self._read_sets.pop(txn_id, None)
        self._validating.pop(txn_id, None)

    # ------------------------------------------------------------------
    # housekeeping (all amortised; nothing here rebuilds per commit)
    # ------------------------------------------------------------------
    def _maybe_evict_index(self) -> None:
        """Bulk-evict index entries older than ``history_limit`` commits.

        Runs a full index sweep only once every ``history_limit`` commits,
        so the amortised per-commit cost is O(index size / history_limit).
        Advancing the floor is what forces transactions older than the
        retained window into the conservative-abort path.
        """
        if self._commit_number - self._index_floor < 2 * self.history_limit:
            return
        floor = self._commit_number - self.history_limit
        index = self._last_writer_commit
        for key in [key for key, number in index.items() if number <= floor]:
            del index[key]
            self._last_writer_txn.pop(key, None)
        self._index_floor = floor

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def last_writer_commit(self, key: str) -> Optional[int]:
        """The commit number of ``key``'s last committed writer, if retained."""
        return self._last_writer_commit.get(key)

    def validating_transactions(self) -> Tuple[int, ...]:
        """Transactions currently inside the validation pipeline, by ticket."""
        return tuple(
            v.txn_id for v in sorted(self._validating.values(), key=lambda v: v.ticket)
        )

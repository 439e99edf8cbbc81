"""Multi-version storage: per-key version chains with snapshot reads.

Kung & Papadimitriou's optimality results bound a scheduler's achievable
concurrency by the *information* it exploits.  Keeping old versions is
the classic way to buy more information cheaply: a multi-version store
can answer "what did ``x`` look like at time ``ts``?" for any timestamp
still covered by its chains, which lets multi-version protocols serve
readers from the past instead of blocking or aborting them.  This module
provides that substrate:

* :class:`VersionRecord` — one committed version: value, the timestamp
  interval ``[begin_ts, end_ts)`` during which it is the visible
  version, and the committing writer;
* :class:`MultiVersionDataStore` — per-key chains of version records,
  ordered by ``begin_ts``, with snapshot reads (:meth:`read_as_of`),
  version installation at arbitrary timestamps (MVTO installs at the
  writer's *start* timestamp, snapshot isolation at its *commit*
  timestamp), and a watermark-based garbage collector;
* :class:`ShardedMultiVersionDataStore` — the sharded composition: a
  :class:`~repro.engine.storage.ShardedDataStore` whose shards are
  multi-version stores, so per-shard protocol instances (see
  :func:`repro.engine.runtime.run_sharded_batch`) get snapshot reads
  within their conflict domain.

The store also implements the single-version :class:`~repro.engine.
storage.DataStore` facade (``read``/``write``/``apply_writes``/
``snapshot``/...), so it can be dropped in anywhere a plain store is
expected: single-version protocols simply always see the newest version.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.engine.storage import DataStore, ShardedDataStore, StorageError, Version


class VersionRecord:
    """One committed version of a key.

    The version is the visible one for every timestamp in
    ``[begin_ts, end_ts)``; ``end_ts is None`` means it is still current.
    ``writer`` is the committing transaction (``None`` for the initial
    load).

    Slotted: one record per committed write under the multi-version
    protocols, read on every snapshot probe.  Immutable — the store
    replaces a record (:meth:`closed_at`) instead of mutating it, and
    records may be shared by concurrent snapshot readers and held in
    hashed collections.
    """

    __slots__ = ("value", "begin_ts", "end_ts", "writer")

    def __init__(
        self,
        value: Any,
        begin_ts: Any,
        end_ts: Optional[Any] = None,
        writer: Optional[int] = None,
    ) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "begin_ts", begin_ts)
        object.__setattr__(self, "end_ts", end_ts)
        object.__setattr__(self, "writer", writer)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("VersionRecord is immutable (use closed_at)")

    def closed_at(self, end_ts: Any) -> "VersionRecord":
        """A copy of this record whose visibility interval ends at ``end_ts``."""
        return VersionRecord(self.value, self.begin_ts, end_ts, self.writer)

    def __repr__(self) -> str:
        return (
            f"VersionRecord(value={self.value!r}, begin_ts={self.begin_ts!r}, "
            f"end_ts={self.end_ts!r}, writer={self.writer!r})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, VersionRecord):
            return NotImplemented
        return (
            self.value == other.value
            and self.begin_ts == other.begin_ts
            and self.end_ts == other.end_ts
            and self.writer == other.writer
        )

    def __hash__(self) -> int:
        return hash((self.begin_ts, self.end_ts, self.writer))


class VersionedRead:
    """One read observation: which transaction read which version of a key.

    ``writer`` identifies the version by its committing transaction
    (``None`` = the initial version).  Multi-version protocols log these
    so the MVSG checker (:mod:`repro.analysis.mvsg`) can rebuild the
    reads-from relation of the actual execution.  Slotted: one record
    per multi-version read.  Treat instances as read-only.
    """

    __slots__ = ("txn_id", "key", "writer")

    def __init__(self, txn_id: int, key: str, writer: Optional[int]) -> None:
        self.txn_id = txn_id
        self.key = key
        self.writer = writer

    def __repr__(self) -> str:
        return f"VersionedRead({self.txn_id!r}, {self.key!r}, {self.writer!r})"


class MultiVersionDataStore:
    """An in-memory store keeping a chain of versions per key.

    Parameters
    ----------
    initial:
        Initial contents; every key gets one initial version with
        ``begin_ts == initial_ts`` and no writer.
    initial_ts:
        Timestamp of the initial versions (default 0; protocol
        timestamps start above it).
    """

    def __init__(
        self,
        initial: Optional[Mapping[str, Any]] = None,
        initial_ts: Any = 0,
    ) -> None:
        self.initial_ts = initial_ts
        self._chains: Dict[str, List[VersionRecord]] = {}
        #: parallel begin_ts lists for bisection (py3.9 bisect lacks key=)
        self._begins: Dict[str, List[Any]] = {}
        #: monotone count of versions installed per key (survives GC)
        self._installs: Dict[str, int] = {}
        self.versions_collected = 0
        if initial:
            for key, value in initial.items():
                self._chains[key] = [VersionRecord(value, initial_ts, None, None)]
                self._begins[key] = [initial_ts]
                self._installs[key] = 0

    # ------------------------------------------------------------------
    # multi-version reads
    # ------------------------------------------------------------------
    def _chain(self, key: str) -> List[VersionRecord]:
        chain = self._chains.get(key)
        if chain is None:
            raise StorageError(f"key {key!r} was never initialised")
        return chain

    def read_as_of(self, key: str, ts: Any) -> VersionRecord:
        """The version of ``key`` visible at timestamp ``ts``.

        Raises :class:`~repro.engine.storage.StorageError` if the key is
        unknown or every version at or below ``ts`` has been garbage
        collected (callers must keep their watermark below any snapshot
        still in use).
        """
        chain = self._chain(key)
        index = bisect_right(self._begins[key], ts) - 1
        if index < 0:
            raise StorageError(
                f"no version of {key!r} visible at ts {ts!r} "
                f"(earliest surviving version begins at {chain[0].begin_ts!r})"
            )
        return chain[index]

    def latest(self, key: str) -> VersionRecord:
        """The newest version of ``key``."""
        return self._chain(key)[-1]

    def version_chain(self, key: str) -> Tuple[VersionRecord, ...]:
        """The surviving version chain of ``key``, oldest first."""
        return tuple(self._chain(key))

    def version_order(self, key: str) -> Tuple[Optional[int], ...]:
        """The writers of the surviving chain in version order."""
        return tuple(record.writer for record in self._chain(key))

    def snapshot_as_of(self, ts: Any) -> Dict[str, Any]:
        """A consistent value snapshot of every key at timestamp ``ts``."""
        return {key: self.read_as_of(key, ts).value for key in self._chains}

    def max_timestamp(self) -> Any:
        """The largest ``begin_ts`` of any version (``initial_ts`` if empty).

        Protocols seed their timestamp/commit clocks above this, so a
        store that already carries versions — e.g. one reused across
        batches — never collides with or hides the new installs.
        """
        newest = self.initial_ts
        for chain in self._chains.values():
            if chain[-1].begin_ts > newest:
                newest = chain[-1].begin_ts
        return newest

    # ------------------------------------------------------------------
    # version installation
    # ------------------------------------------------------------------
    def install(
        self, key: str, value: Any, ts: Any, writer: Optional[int] = None
    ) -> VersionRecord:
        """Install a committed version of ``key`` at timestamp ``ts``.

        The chain stays ordered by ``begin_ts``; installing *between*
        existing versions is legal (MVTO writers install at their start
        timestamp, which may lie below versions committed by younger
        transactions) and splices the interval bookkeeping accordingly.
        """
        chain = self._chains.get(key)
        if chain is None:
            record = VersionRecord(value, ts, None, writer)
            self._chains[key] = [record]
            self._begins[key] = [ts]
            self._installs[key] = self._installs.get(key, 0) + 1
            return record
        begins = self._begins[key]
        index = bisect_right(begins, ts)
        if index > 0 and begins[index - 1] == ts:
            raise ValueError(
                f"a version of {key!r} at ts {ts!r} already exists "
                f"(written by {chain[index - 1].writer})"
            )
        end_ts = chain[index].begin_ts if index < len(chain) else None
        record = VersionRecord(value, ts, end_ts, writer)
        chain.insert(index, record)
        begins.insert(index, ts)
        if index > 0:
            chain[index - 1] = chain[index - 1].closed_at(ts)
        self._installs[key] = self._installs.get(key, 0) + 1
        return record

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def collect_garbage(self, watermark: Any) -> int:
        """Drop versions invisible to every snapshot at or above ``watermark``.

        A version is reclaimable once it was superseded at or before the
        watermark (``end_ts <= watermark``): no reader with a snapshot
        timestamp ``>= watermark`` can ever see it again.  The version
        visible *at* the watermark, and everything newer, survives.
        Returns the number of versions reclaimed.
        """
        dropped = 0
        for key, chain in self._chains.items():
            kept = [
                record
                for record in chain
                if record.end_ts is None or record.end_ts > watermark
            ]
            if len(kept) != len(chain):
                dropped += len(chain) - len(kept)
                self._chains[key] = kept
                self._begins[key] = [record.begin_ts for record in kept]
        self.versions_collected += dropped
        return dropped

    # ------------------------------------------------------------------
    # DataStore facade (single-version protocols see the newest version)
    # ------------------------------------------------------------------
    def read(self, key: str) -> Any:
        return self.latest(key).value

    def read_version(self, key: str) -> Version:
        record = self.latest(key)
        return Version(
            value=record.value,
            version=self._installs.get(key, 0),
            writer=record.writer,
        )

    def version_number(self, key: str) -> int:
        self._chain(key)  # raise on unknown keys, like DataStore
        return self._installs.get(key, 0)

    def write(self, key: str, value: Any, writer: Optional[int] = None) -> VersionRecord:
        """Install a new version one tick above the current newest."""
        chain = self._chains.get(key)
        ts = self.initial_ts if not chain else chain[-1].begin_ts + 1
        return self.install(key, value, ts, writer=writer)

    def apply_writes(
        self, writes: Mapping[str, Any], writer: Optional[int] = None
    ) -> None:
        for key, value in writes.items():
            self.write(key, value, writer=writer)

    def keys(self) -> Iterator[str]:
        return iter(self._chains)

    def __contains__(self, key: str) -> bool:
        return key in self._chains

    def __len__(self) -> int:
        return len(self._chains)

    def total_versions(self) -> int:
        """Number of version records currently held (GC shrinks this)."""
        return sum(len(chain) for chain in self._chains.values())

    def total_versions_written(self) -> int:
        """Total versions ever installed on top of the initial load."""
        return sum(self._installs.values())

    def snapshot(self) -> Dict[str, Any]:
        """A plain dict of the newest value of every key."""
        return {key: chain[-1].value for key, chain in self._chains.items()}

    def copy(self) -> "MultiVersionDataStore":
        clone = MultiVersionDataStore(initial_ts=self.initial_ts)
        clone._chains = {key: list(chain) for key, chain in self._chains.items()}
        clone._begins = {key: list(begins) for key, begins in self._begins.items()}
        clone._installs = dict(self._installs)
        clone.versions_collected = self.versions_collected
        return clone


def ensure_multiversion(store: Any) -> Any:
    """Return ``store`` if it supports snapshot reads, else wrap its contents.

    Multi-version protocols call this so they can be constructed over a
    plain :class:`~repro.engine.storage.DataStore` (the form every
    ``protocol_factory(store)`` call site produces): the committed values
    become the initial versions of a fresh multi-version store.

    The wrap *copies* the contents — commits land in the wrapped store,
    not the original.  Read results back from ``protocol.store`` (which
    is what :func:`~repro.engine.runtime.run_batch` and
    :func:`~repro.engine.runtime.run_sharded_batch` report snapshots
    from); to share one store across batches, construct a
    :class:`MultiVersionDataStore` yourself and pass it in.
    """
    if hasattr(store, "read_as_of"):
        return store
    return MultiVersionDataStore(store.snapshot())


class ShardedMultiVersionDataStore(ShardedDataStore):
    """A sharded store whose shards keep version chains.

    Composes :class:`MultiVersionDataStore` with the sharding facade:
    keys partition into independent conflict domains exactly as in
    :class:`~repro.engine.storage.ShardedDataStore`, and each shard
    additionally answers snapshot reads, so one multi-version protocol
    instance per shard (via :func:`repro.engine.runtime.run_sharded_batch`)
    gets the full multi-version API on its own sub-store.
    """

    def __init__(
        self,
        initial: Optional[Mapping[str, Any]] = None,
        num_shards: int = 4,
        shard_of: Optional[Any] = None,
        initial_ts: Any = 0,
    ) -> None:
        self.initial_ts = initial_ts
        super().__init__(
            initial,
            num_shards=num_shards,
            shard_of=shard_of,
            shard_factory=lambda data: MultiVersionDataStore(data, initial_ts=initial_ts),
        )

    # ------------------------------------------------------------------
    # multi-version facade (delegates to the owning shard)
    # ------------------------------------------------------------------
    def read_as_of(self, key: str, ts: Any) -> VersionRecord:
        return self.shard_for(key).read_as_of(key, ts)

    def latest(self, key: str) -> VersionRecord:
        return self.shard_for(key).latest(key)

    def version_chain(self, key: str) -> Tuple[VersionRecord, ...]:
        return self.shard_for(key).version_chain(key)

    def version_order(self, key: str) -> Tuple[Optional[int], ...]:
        return self.shard_for(key).version_order(key)

    def install(
        self, key: str, value: Any, ts: Any, writer: Optional[int] = None
    ) -> VersionRecord:
        return self.shard_for(key).install(key, value, ts, writer=writer)

    def collect_garbage(self, watermark: Any) -> int:
        return sum(shard.collect_garbage(watermark) for shard in self.shards())

    def total_versions(self) -> int:
        return sum(shard.total_versions() for shard in self.shards())

    def max_timestamp(self) -> Any:
        return max(shard.max_timestamp() for shard in self.shards())

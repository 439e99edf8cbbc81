"""A small versioned key-value store used as the engine's database.

The store keeps, per key, the committed value plus a monotonically
increasing version counter and the identifier of the last committing
writer.  Versions are what optimistic validation and timestamp ordering
need; the extra bookkeeping is cheap and harmless for the locking
protocols.

The store itself performs no concurrency control: that is the protocols'
job.  It does provide *buffered writes* (per-transaction private write
sets applied atomically at commit), which all the implemented protocols
use so that aborts never leave partial updates behind.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple


class StorageError(KeyError):
    """Raised when a key is accessed that was never initialised."""


class Version:
    """A committed version of a key: value, version number and writer id.

    Slotted (one instance per committed write on the engine hot path)
    and immutable: mutation after construction is rejected like the
    frozen dataclass it replaced.
    """

    __slots__ = ("value", "version", "writer")

    def __init__(self, value: Any, version: int, writer: Optional[int] = None) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "version", version)
        object.__setattr__(self, "writer", writer)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Version is immutable")

    def __reduce__(self):
        # the immutability guard breaks pickle's default slot restore
        # (it calls setattr); rebuild through the constructor instead so
        # stores can cross process boundaries (the parallel shard runner)
        return (Version, (self.value, self.version, self.writer))

    def __repr__(self) -> str:
        return (
            f"Version(value={self.value!r}, version={self.version!r}, "
            f"writer={self.writer!r})"
        )

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return (
            self.value == other.value
            and self.version == other.version
            and self.writer == other.writer
        )


class DataStore:
    """An in-memory, versioned key-value store.

    Parameters
    ----------
    initial:
        Initial key/value contents; every key a workload touches must be
        initialised here (reads of unknown keys raise
        :class:`StorageError`, which catches workload bugs early).
    """

    def __init__(self, initial: Optional[Mapping[str, Any]] = None) -> None:
        self._data: Dict[str, Version] = {
            key: Version(value, 0) for key, value in (initial or {}).items()
        }

    # ------------------------------------------------------------------
    # committed state
    # ------------------------------------------------------------------
    def read(self, key: str) -> Any:
        """The committed value of ``key``."""
        return self.read_version(key).value

    def read_version(self, key: str) -> Version:
        """The committed :class:`Version` of ``key``."""
        if key not in self._data:
            raise StorageError(f"key {key!r} was never initialised")
        return self._data[key]

    def version_number(self, key: str) -> int:
        return self.read_version(key).version

    def write(self, key: str, value: Any, writer: Optional[int] = None) -> Version:
        """Install a new committed version of ``key`` and return it."""
        current = self._data.get(key)
        next_version = (current.version + 1) if current is not None else 0
        version = Version(value, next_version, writer)
        self._data[key] = version
        return version

    def apply_writes(
        self, writes: Mapping[str, Any], writer: Optional[int] = None
    ) -> None:
        """Atomically install a transaction's buffered write set."""
        for key, value in writes.items():
            self.write(key, value, writer=writer)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        return iter(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def snapshot(self) -> Dict[str, Any]:
        """A plain dict copy of the committed values (for assertions and metrics)."""
        return {key: version.value for key, version in self._data.items()}

    def total_versions_written(self) -> int:
        """Sum of version numbers — a cheap proxy for total committed writes."""
        return sum(version.version for version in self._data.values())

    def copy(self) -> "DataStore":
        """An independent copy of the store (used to run baselines on equal footing)."""
        clone = DataStore()
        clone._data = dict(self._data)
        return clone


class ShardedDataStore:
    """A key-value store partitioned into independent shards.

    Each shard is a full :class:`DataStore`; a deterministic
    ``shard_of(key)`` function assigns every key to exactly one shard.
    Because the engine's conflicts are per-key, the shards are disjoint
    *conflict domains*: transactions confined to different shards can
    never conflict, so a concurrency-control protocol can be instantiated
    per shard (see :func:`repro.engine.runtime.run_sharded_batch`) and the
    shards scheduled independently — the standard horizontal-scaling move
    the paper's single centralized scheduler model invites.

    The facade also implements the :class:`DataStore` read/write API by
    delegating to the owning shard, so a ``ShardedDataStore`` can be
    dropped in anywhere a plain store is expected.

    Parameters
    ----------
    initial:
        Initial contents, distributed across shards by ``shard_of``.
    num_shards:
        Number of shards.  Always honoured: it sizes the shard tuple and
        bounds every shard index, whether ``shard_of`` is supplied or
        defaulted.
    shard_of:
        Optional key -> shard index function; defaults to a stable hash
        of the key name (``hash()`` is salted per process, so the default
        uses a deterministic string fold instead).  A supplied function
        must map every key into ``range(num_shards)``; this is validated
        against every key of ``initial`` at construction time (and again
        for previously unseen keys on access), so a mismatched
        ``shard_of``/``num_shards`` pair fails fast instead of on first
        use.
    shard_factory:
        Optional ``initial_mapping -> store`` constructor for the
        per-shard stores (defaults to :class:`DataStore`); this is how
        :class:`~repro.engine.mvstore.ShardedMultiVersionDataStore`
        composes multi-version chains with sharding.
    """

    def __init__(
        self,
        initial: Optional[Mapping[str, Any]] = None,
        num_shards: int = 4,
        shard_of: Optional[Any] = None,
        shard_factory: Optional[Any] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if shard_of is not None and not callable(shard_of):
            raise TypeError("shard_of must be callable (key -> shard index)")
        self.num_shards = num_shards
        self._shard_of = shard_of if shard_of is not None else self._default_shard_of
        self._shard_factory = shard_factory if shard_factory is not None else DataStore
        grouped: Dict[int, Dict[str, Any]] = {i: {} for i in range(num_shards)}
        for key, value in (initial or {}).items():
            # shard_of() range-checks the index, so a caller-supplied
            # function that disagrees with num_shards raises here — at
            # construction — for every initial key, not on first access.
            grouped[self.shard_of(key)][key] = value
        self._shards: Tuple[DataStore, ...] = tuple(
            self._shard_factory(grouped[i]) for i in range(num_shards)
        )

    def _default_shard_of(self, key: str) -> int:
        # a deterministic string fold (djb2) — unlike built-in hash(),
        # stable across processes so sharded runs are reproducible
        acc = 5381
        for ch in key:
            acc = ((acc * 33) + ord(ch)) & 0xFFFFFFFF
        return acc % self.num_shards

    # ------------------------------------------------------------------
    # shard topology
    # ------------------------------------------------------------------
    def shard_of(self, key: str) -> int:
        """The shard index owning ``key``."""
        index = self._shard_of(key)
        if not 0 <= index < self.num_shards:
            raise ValueError(
                f"shard_of({key!r}) = {index} out of range [0, {self.num_shards})"
            )
        return index

    def shard(self, index: int) -> DataStore:
        """The shard's underlying :class:`DataStore`."""
        return self._shards[index]

    @property
    def shard_factory(self) -> Any:
        """The ``initial_mapping -> store`` constructor used per shard.

        Exposed so process-parallel execution can rebuild an equivalent
        shard store inside a worker from a shard's committed snapshot.
        """
        return self._shard_factory

    def shard_snapshot(self, index: int) -> Dict[str, Any]:
        """The committed values currently owned by one shard."""
        return self._shards[index].snapshot()

    def group_specs(self, specs: Iterable[Any]) -> Dict[int, List[Any]]:
        """Group transaction specs by the single shard each one touches.

        Each spec's full footprint (reads and writes) must fall inside
        one shard — shards are independent conflict domains, and a spec
        spanning shards would need a cross-shard commit coordinator,
        which the single-scheduler model of the paper deliberately
        excludes.  Raises ``ValueError`` for a spanning spec.  Shared by
        :func:`repro.engine.runtime.run_sharded_batch` and
        :class:`repro.engine.parallel.ParallelShardRunner` so the two
        execution paths can never drift on what "single-shard" means.
        """
        groups: Dict[int, List[Any]] = {}
        # every operation reads or writes its key, so the keys of the
        # operations are the footprint; each distinct key is routed once
        # per call (a batch names few keys many times)
        shard_of_key: Dict[str, int] = {}
        for spec in specs:
            shards = set()
            for key in {op.key for op in spec.operations}:
                shard = shard_of_key.get(key)
                if shard is None:
                    shard = shard_of_key[key] = self.shard_of(key)
                shards.add(shard)
            if len(shards) != 1:
                raise ValueError(
                    f"transaction {spec.name!r} spans shards {sorted(shards)}; "
                    "sharded execution requires single-shard transactions"
                )
            groups.setdefault(shards.pop(), []).append(spec)
        return groups

    def shard_for(self, key: str) -> DataStore:
        return self._shards[self.shard_of(key)]

    def shards(self) -> Tuple[DataStore, ...]:
        return self._shards

    def conflict_domains(self) -> Dict[int, Tuple[str, ...]]:
        """Mapping shard index -> the keys it currently owns."""
        return {
            index: tuple(sorted(shard.keys()))
            for index, shard in enumerate(self._shards)
        }

    # ------------------------------------------------------------------
    # DataStore facade (delegates to the owning shard)
    # ------------------------------------------------------------------
    def read(self, key: str) -> Any:
        return self.shard_for(key).read(key)

    def read_version(self, key: str) -> Version:
        return self.shard_for(key).read_version(key)

    def version_number(self, key: str) -> int:
        return self.shard_for(key).version_number(key)

    def write(self, key: str, value: Any, writer: Optional[int] = None) -> Version:
        return self.shard_for(key).write(key, value, writer=writer)

    def apply_writes(
        self, writes: Mapping[str, Any], writer: Optional[int] = None
    ) -> None:
        for key, value in writes.items():
            self.write(key, value, writer=writer)

    def keys(self) -> Iterator[str]:
        for shard in self._shards:
            yield from shard.keys()

    def __contains__(self, key: str) -> bool:
        return key in self.shard_for(key)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def snapshot(self) -> Dict[str, Any]:
        merged: Dict[str, Any] = {}
        for shard in self._shards:
            merged.update(shard.snapshot())
        return merged

    def copy(self) -> "ShardedDataStore":
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        clone._shards = tuple(shard.copy() for shard in self._shards)
        return clone

"""Workload generators for the engine and the simulator.

Each generator has two forms:

* ``*_workload(...)`` returns ``(initial_data, specs)`` — a concrete batch
  of :class:`~repro.engine.operations.TransactionSpec` for the untimed
  executor;
* ``*_generator(...)`` returns ``(initial_data, generator)`` where
  ``generator(rng)`` produces one fresh transaction per call — the form
  the discrete-event :class:`~repro.engine.simulator.Simulator` consumes.

The banking workload reproduces the Section 2 example at scale: transfers
between accounts conditioned on sufficient funds, withdrawals that bump an
audit counter, and audit transactions that recompute the running total —
so the integrity constraint ``sum(accounts) + withdrawn == initial total``
can be asserted after any serializable execution.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.operations import (
    Operation,
    TransactionSpec,
    increment_op,
    read_op,
    update_op,
    write_op,
)

#: A workload generator: draws one transaction using the supplied RNG.
TransactionGenerator = Callable[[random.Random], TransactionSpec]


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters shared by the synthetic workloads."""

    num_keys: int = 64
    operations_per_transaction: int = 4
    read_fraction: float = 0.5
    hotspot_fraction: float = 0.1
    hotspot_probability: float = 0.75
    zipf_theta: float = 0.9
    initial_value: int = 100
    seed: int = 0

    def key_names(self) -> List[str]:
        return [f"k{i}" for i in range(self.num_keys)]

    def initial_data(self) -> Dict[str, int]:
        return {name: self.initial_value for name in self.key_names()}


# ----------------------------------------------------------------------
# banking (the Section 2 example, scaled up)
# ----------------------------------------------------------------------


def banking_initial_data(num_accounts: int = 16, balance: int = 100) -> Dict[str, int]:
    """Account balances plus the audit total ``S`` and withdrawal counter ``C``."""
    data = {f"acct{i}": balance for i in range(num_accounts)}
    data["S"] = balance * num_accounts
    data["C"] = 0
    return data


def banking_transfer(source: str, target: str, amount: int) -> TransactionSpec:
    """Transfer ``amount`` from ``source`` to ``target`` if funds suffice (paper's T1)."""

    def credit(reads: Dict[str, Any]) -> Any:
        return reads[target] + amount if reads[source] >= amount else reads[target]

    def debit(reads: Dict[str, Any]) -> Any:
        return reads[source] - amount if reads[source] >= amount else reads[source]

    return TransactionSpec(
        [read_op(source), update_op(target, credit), update_op(source, debit)],
        name="transfer",
    )


def banking_withdraw(account: str, amount: int) -> TransactionSpec:
    """Withdraw ``amount`` from ``account`` (if funded) and bump the counter (paper's T2)."""

    def debit(reads: Dict[str, Any]) -> Any:
        return reads[account] - amount if reads[account] >= amount else reads[account]

    def bump(reads: Dict[str, Any]) -> Any:
        return reads["C"] + 1 if reads[account] >= amount else reads["C"]

    return TransactionSpec(
        [update_op(account, debit), update_op("C", bump)], name="withdraw"
    )


def banking_audit(num_accounts: int) -> TransactionSpec:
    """Recompute the audit total over all accounts and reset the counter (paper's T3)."""
    accounts = [f"acct{i}" for i in range(num_accounts)]
    operations: List[Operation] = [read_op(a) for a in accounts]

    def total(reads: Dict[str, Any]) -> Any:
        return sum(reads[a] for a in accounts)

    operations.append(update_op("S", total))
    operations.append(write_op("C", 0))
    return TransactionSpec(operations, name="audit")


def banking_generator(
    num_accounts: int = 16,
    transfer_amount: int = 10,
    withdraw_amount: int = 5,
    audit_probability: float = 0.1,
    withdraw_probability: float = 0.3,
) -> Tuple[Dict[str, int], TransactionGenerator]:
    """The banking workload in generator form (for the simulator)."""
    initial = banking_initial_data(num_accounts)

    def generate(rng: random.Random) -> TransactionSpec:
        roll = rng.random()
        if roll < audit_probability:
            return banking_audit(num_accounts)
        if roll < audit_probability + withdraw_probability:
            account = f"acct{rng.randrange(num_accounts)}"
            return banking_withdraw(account, withdraw_amount)
        source = rng.randrange(num_accounts)
        target = rng.randrange(num_accounts)
        while target == source:
            target = rng.randrange(num_accounts)
        return banking_transfer(f"acct{source}", f"acct{target}", transfer_amount)

    return initial, generate


def banking_workload(
    num_accounts: int = 16,
    num_transactions: int = 50,
    seed: int = 0,
    **kwargs,
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """A concrete batch of banking transactions (for the untimed executor)."""
    initial, generate = banking_generator(num_accounts, **kwargs)
    rng = random.Random(seed)
    return initial, [generate(rng) for _ in range(num_transactions)]


# ----------------------------------------------------------------------
# synthetic read/write mixes
# ----------------------------------------------------------------------


def _zipf_chooser(
    keys: Sequence[str], theta: float
) -> Callable[[random.Random], str]:
    """A ``rng -> key`` sampler with zipf-distributed rank popularity."""
    weights = [1.0 / ((rank + 1) ** theta) for rank in range(len(keys))]
    total = sum(weights)
    cumulative: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight / total
        cumulative.append(acc)

    last = len(keys) - 1

    def choose(rng: random.Random) -> str:
        # the first threshold >= u; rounding can leave the last one
        # a hair under 1.0, hence the clamp
        return keys[min(bisect_left(cumulative, rng.random()), last)]

    return choose


def _mixed_transaction(
    rng: random.Random,
    config: WorkloadConfig,
    choose_key: Callable[[random.Random], str],
    name: str,
) -> TransactionSpec:
    operations: List[Operation] = []
    for _ in range(config.operations_per_transaction):
        key = choose_key(rng)
        if rng.random() < config.read_fraction:
            operations.append(read_op(key))
        else:
            operations.append(increment_op(key))
    return TransactionSpec(operations, name=name)


def uniform_generator(
    config: Optional[WorkloadConfig] = None,
) -> Tuple[Dict[str, int], TransactionGenerator]:
    """Uniformly random key choice."""
    config = config or WorkloadConfig()
    keys = config.key_names()

    def choose(rng: random.Random) -> str:
        return keys[rng.randrange(len(keys))]

    return config.initial_data(), lambda rng: _mixed_transaction(
        rng, config, choose, "uniform"
    )


def hotspot_generator(
    config: Optional[WorkloadConfig] = None,
) -> Tuple[Dict[str, int], TransactionGenerator]:
    """A small hot set of keys receives most of the accesses."""
    config = config or WorkloadConfig()
    keys = config.key_names()
    hot_count = max(1, int(len(keys) * config.hotspot_fraction))
    hot, cold = keys[:hot_count], keys[hot_count:] or keys[:1]

    def choose(rng: random.Random) -> str:
        pool = hot if rng.random() < config.hotspot_probability else cold
        return pool[rng.randrange(len(pool))]

    return config.initial_data(), lambda rng: _mixed_transaction(
        rng, config, choose, "hotspot"
    )


def zipfian_generator(
    config: Optional[WorkloadConfig] = None,
) -> Tuple[Dict[str, int], TransactionGenerator]:
    """Zipf-distributed key popularity with parameter ``zipf_theta``."""
    config = config or WorkloadConfig()
    choose = _zipf_chooser(config.key_names(), config.zipf_theta)
    return config.initial_data(), lambda rng: _mixed_transaction(
        rng, config, choose, "zipfian"
    )


def zipfian_hotspot_generator(
    config: Optional[WorkloadConfig] = None,
) -> Tuple[Dict[str, int], TransactionGenerator]:
    """A zipfian hotspot: accesses concentrate on a hot set, zipf *within* it.

    With probability ``hotspot_probability`` a key is drawn from the hot
    set (``hotspot_fraction`` of the keyspace) with zipf-distributed rank
    popularity — so even inside the hot set a few keys dominate, the
    worst case for lock queues and validation conflicts; otherwise a cold
    key is drawn uniformly.  This is the contention profile the kernel
    benchmark uses: it maximises blocking, which is exactly where the
    kernel's wait index earns its keep.
    """
    config = config or WorkloadConfig()
    keys = config.key_names()
    hot_count = max(1, int(len(keys) * config.hotspot_fraction))
    hot, cold = keys[:hot_count], keys[hot_count:] or keys[:1]
    choose_hot = _zipf_chooser(hot, config.zipf_theta)

    def choose(rng: random.Random) -> str:
        if rng.random() < config.hotspot_probability:
            return choose_hot(rng)
        return cold[rng.randrange(len(cold))]

    return config.initial_data(), lambda rng: _mixed_transaction(
        rng, config, choose, "zipfian-hotspot"
    )


def hotspot_queue_workload(
    num_transactions: int = 1000,
    ops_per_transaction: int = 192,
    num_hot: int = 4,
    num_cold: int = 192,
    hotspot_probability: float = 0.9,
    zipf_theta: float = 0.8,
    seed: int = 0,
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """Single-key blind-write transactions queueing on a zipfian hot set.

    The scheduler-benchmark shape: ``hotspot_probability`` of the
    transactions pick one hot key (zipf-distributed popularity inside
    the hot set) and the rest a uniform cold key; each transaction then
    blind-writes its one key ``ops_per_transaction`` times.  A
    single-key footprint means one exclusive lock per transaction,
    taken by the first write — so under 2PL the workload is
    **deadlock-free by construction** (no lock-order inversions, no
    shared-to-exclusive upgrades) and its behaviour is pure queueing:
    deep wait queues on the hot keys, long holder occupancy, zero
    restarts.  At high client counts this is the 90%-parked regime
    where the *scheduler's* per-round cost dominates the engine — which
    is what ``bench/``'s ``exec-hotspot-2pl`` workload measures.
    """
    if num_hot < 1 or num_cold < 1:
        raise ValueError("num_hot and num_cold must be at least 1")
    if ops_per_transaction < 1:
        raise ValueError("ops_per_transaction must be at least 1")
    if not 0.0 <= hotspot_probability <= 1.0:
        raise ValueError("hotspot_probability must be in [0, 1]")
    rng = random.Random(seed)
    hot = [f"h{i}" for i in range(num_hot)]
    cold = [f"c{i}" for i in range(num_cold)]
    choose_hot = _zipf_chooser(hot, zipf_theta)
    specs: List[TransactionSpec] = []
    for index in range(num_transactions):
        if rng.random() < hotspot_probability:
            key = choose_hot(rng)
        else:
            key = cold[rng.randrange(num_cold)]
        specs.append(
            TransactionSpec(
                [write_op(key, j) for j in range(ops_per_transaction)],
                name=f"queue-write-{index}",
            )
        )
    initial = {key: 0 for key in hot + cold}
    return initial, specs


def epoch_batched_workload(
    num_epochs: int = 8,
    epoch_size: int = 8,
    ops_per_transaction: int = 6,
    num_keys: int = 32,
    read_fraction: float = 0.5,
    zipf_theta: float = 0.8,
    seed: int = 0,
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """Epoch-shaped batches for the deterministic (Calvin-style) family.

    ``num_epochs * epoch_size`` mixed read/write transactions over a
    zipfian key popularity, emitted in admission order and named
    ``e{epoch}s{slot}`` so traces and digests read directly against the
    sequencer's epoch/slot assignment (admission order *is* list
    order when the batch is run round-robin).  The zipfian skew makes
    cross-transaction key overlap common, which is the regime where the
    deterministic variants differ: ``det-epoch`` drains each batch of
    ``epoch_size`` behind its barrier while ``det-slot`` pipelines the
    same order across epoch boundaries.
    """
    if num_epochs < 1 or epoch_size < 1:
        raise ValueError("num_epochs and epoch_size must be at least 1")
    if ops_per_transaction < 1:
        raise ValueError("ops_per_transaction must be at least 1")
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    rng = random.Random(seed)
    keys = [f"k{i}" for i in range(num_keys)]
    choose = _zipf_chooser(keys, zipf_theta)
    specs: List[TransactionSpec] = []
    for epoch in range(num_epochs):
        for slot in range(epoch_size):
            ops = []
            for j in range(ops_per_transaction):
                key = choose(rng)
                if rng.random() < read_fraction:
                    ops.append(read_op(key))
                else:
                    ops.append(write_op(key, epoch * epoch_size + slot + j))
            specs.append(TransactionSpec(ops, name=f"e{epoch}s{slot}"))
    return {key: 0 for key in keys}, specs


def read_mostly_generator(
    config: Optional[WorkloadConfig] = None,
    read_fraction: float = 0.9,
) -> Tuple[Dict[str, int], TransactionGenerator]:
    """A read-mostly mix: mostly reads, with updates falling on a zipfian tail.

    Unlike :func:`readonly_heavy_generator` (uniform keys), the rare
    updates here land zipf-distributed — the common production shape
    where a read-dominated service still sees write contention on a few
    hot rows.
    """
    config = config or WorkloadConfig()
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    keys = config.key_names()
    choose_zipf = _zipf_chooser(keys, config.zipf_theta)

    def generate(rng: random.Random) -> TransactionSpec:
        operations: List[Operation] = []
        for _ in range(config.operations_per_transaction):
            if rng.random() < read_fraction:
                operations.append(read_op(keys[rng.randrange(len(keys))]))
            else:
                key = choose_zipf(rng)
                operations.append(increment_op(key))
        return TransactionSpec(operations, name="read-mostly")

    return config.initial_data(), generate


def partitioned_generator(
    config: Optional[WorkloadConfig] = None,
    num_partitions: int = 4,
) -> Tuple[Dict[str, int], TransactionGenerator]:
    """Single-partition transactions for sharded execution.

    Keys are named ``p<partition>:k<i>`` and every generated transaction
    confines itself to one partition, so the batch can be executed with
    one protocol instance per shard (see
    :func:`repro.engine.runtime.run_sharded_batch` with a
    :class:`~repro.engine.storage.ShardedDataStore` whose ``shard_of``
    reads the partition prefix).
    """
    config = config or WorkloadConfig()
    if num_partitions < 1:
        raise ValueError("num_partitions must be at least 1")
    per_partition = max(1, config.num_keys // num_partitions)
    partition_keys = [
        [f"p{p}:k{i}" for i in range(per_partition)] for p in range(num_partitions)
    ]
    initial = {
        key: config.initial_value for keys in partition_keys for key in keys
    }

    def generate(rng: random.Random) -> TransactionSpec:
        keys = partition_keys[rng.randrange(num_partitions)]
        operations: List[Operation] = []
        for _ in range(config.operations_per_transaction):
            key = keys[rng.randrange(len(keys))]
            if rng.random() < config.read_fraction:
                operations.append(read_op(key))
            else:
                operations.append(increment_op(key))
        return TransactionSpec(operations, name="partitioned")

    return initial, generate


def partition_of(key: str) -> int:
    """The partition index encoded in a ``p<partition>:k<i>`` key name."""
    prefix, _, _ = key.partition(":")
    if not prefix.startswith("p"):
        raise ValueError(f"key {key!r} has no partition prefix")
    return int(prefix[1:])


def long_scan_generator(
    config: Optional[WorkloadConfig] = None,
    scan_fraction: float = 0.5,
    scan_length: Optional[int] = None,
) -> Tuple[Dict[str, int], TransactionGenerator]:
    """Long declared-read-only scans racing short zipfian updates.

    The multi-version showcase: ``scan_fraction`` of the transactions
    are contiguous read-only scans of ``scan_length`` keys (declared
    with ``read_only=True``, so multi-version protocols serve them on
    the kernel's snapshot fast path), and the rest are short
    read-modify-write transactions on zipf-hot keys.  Under
    single-version locking, every scan must queue behind the hot
    writers; under MVTO/SI the scans are invisible to them.
    """
    config = config or WorkloadConfig()
    if not 0.0 <= scan_fraction <= 1.0:
        raise ValueError("scan_fraction must be in [0, 1]")
    keys = config.key_names()
    length = scan_length if scan_length is not None else min(
        len(keys), 4 * config.operations_per_transaction
    )
    if length < 1:
        raise ValueError("scan_length must be at least 1")
    choose_zipf = _zipf_chooser(keys, config.zipf_theta)

    def generate(rng: random.Random) -> TransactionSpec:
        if rng.random() < scan_fraction:
            start = rng.randrange(len(keys))
            operations = [
                read_op(keys[(start + i) % len(keys)]) for i in range(length)
            ]
            return TransactionSpec(operations, name="long-scan", read_only=True)
        operations = []
        for _ in range(config.operations_per_transaction):
            operations.append(increment_op(choose_zipf(rng)))
        return TransactionSpec(operations, name="scan-update")

    return config.initial_data(), generate


def analytical_generator(
    config: Optional[WorkloadConfig] = None,
    read_fraction: float = 0.9,
    scan_length: int = 8,
) -> Tuple[Dict[str, int], TransactionGenerator]:
    """A 90%-read zipfian-hotspot analytical mix.

    ``read_fraction`` of the transactions are declared-read-only
    analytic scans whose keys are drawn from the same zipfian hotspot
    the writers hammer — the common production shape where dashboards
    and reports aggregate exactly the rows the OLTP traffic mutates.
    The rest are short zipfian-hotspot updates.  This is the benchmark
    mix for the multi-version protocols: single-version locking makes
    readers queue behind hot writers, while MVTO/SI keep the reader
    block/abort rate at zero.
    """
    config = config or WorkloadConfig()
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    if scan_length < 1:
        raise ValueError("scan_length must be at least 1")
    keys = config.key_names()
    hot_count = max(1, int(len(keys) * config.hotspot_fraction))
    hot, cold = keys[:hot_count], keys[hot_count:] or keys[:1]
    choose_hot = _zipf_chooser(hot, config.zipf_theta)

    def choose(rng: random.Random) -> str:
        if rng.random() < config.hotspot_probability:
            return choose_hot(rng)
        return cold[rng.randrange(len(cold))]

    def generate(rng: random.Random) -> TransactionSpec:
        if rng.random() < read_fraction:
            operations = [read_op(choose(rng)) for _ in range(scan_length)]
            return TransactionSpec(operations, name="analytic-scan", read_only=True)
        operations = []
        for _ in range(config.operations_per_transaction):
            operations.append(increment_op(choose(rng)))
        return TransactionSpec(operations, name="analytic-update")

    return config.initial_data(), generate


def readonly_heavy_generator(
    config: Optional[WorkloadConfig] = None,
) -> Tuple[Dict[str, int], TransactionGenerator]:
    """A 95%-read variant of the uniform workload."""
    config = config or WorkloadConfig()
    biased = WorkloadConfig(
        num_keys=config.num_keys,
        operations_per_transaction=config.operations_per_transaction,
        read_fraction=0.95,
        hotspot_fraction=config.hotspot_fraction,
        hotspot_probability=config.hotspot_probability,
        zipf_theta=config.zipf_theta,
        initial_value=config.initial_value,
        seed=config.seed,
    )
    return uniform_generator(biased)


def _materialise(
    generator_pair: Tuple[Dict[str, int], TransactionGenerator],
    num_transactions: int,
    seed: int,
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    initial, generate = generator_pair
    rng = random.Random(seed)
    return initial, [generate(rng) for _ in range(num_transactions)]


def uniform_workload(
    num_transactions: int = 50, config: Optional[WorkloadConfig] = None, seed: int = 0
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """A concrete batch of uniform-mix transactions."""
    return _materialise(uniform_generator(config), num_transactions, seed)


def hotspot_workload(
    num_transactions: int = 50, config: Optional[WorkloadConfig] = None, seed: int = 0
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """A concrete batch of hotspot-mix transactions."""
    return _materialise(hotspot_generator(config), num_transactions, seed)


def zipfian_workload(
    num_transactions: int = 50, config: Optional[WorkloadConfig] = None, seed: int = 0
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """A concrete batch of zipfian-mix transactions."""
    return _materialise(zipfian_generator(config), num_transactions, seed)


def readonly_heavy_workload(
    num_transactions: int = 50, config: Optional[WorkloadConfig] = None, seed: int = 0
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """A concrete batch of read-heavy transactions."""
    return _materialise(readonly_heavy_generator(config), num_transactions, seed)


def zipfian_hotspot_workload(
    num_transactions: int = 50, config: Optional[WorkloadConfig] = None, seed: int = 0
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """A concrete batch of zipfian-hotspot transactions."""
    return _materialise(zipfian_hotspot_generator(config), num_transactions, seed)


def read_mostly_workload(
    num_transactions: int = 50, config: Optional[WorkloadConfig] = None, seed: int = 0
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """A concrete batch of read-mostly transactions."""
    return _materialise(read_mostly_generator(config), num_transactions, seed)


def long_scan_workload(
    num_transactions: int = 50,
    config: Optional[WorkloadConfig] = None,
    seed: int = 0,
    scan_fraction: float = 0.5,
    scan_length: Optional[int] = None,
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """A concrete batch of long-scan transactions."""
    return _materialise(
        long_scan_generator(config, scan_fraction, scan_length),
        num_transactions,
        seed,
    )


def analytical_workload(
    num_transactions: int = 50,
    config: Optional[WorkloadConfig] = None,
    seed: int = 0,
    read_fraction: float = 0.9,
    scan_length: int = 8,
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """A concrete batch of analytical-mix transactions."""
    return _materialise(
        analytical_generator(config, read_fraction, scan_length),
        num_transactions,
        seed,
    )


def partitioned_workload(
    num_transactions: int = 50,
    config: Optional[WorkloadConfig] = None,
    seed: int = 0,
    num_partitions: int = 4,
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """A concrete batch of single-partition transactions (for sharded runs)."""
    return _materialise(
        partitioned_generator(config, num_partitions), num_transactions, seed
    )


# ---------------------------------------------------------------------------
# cross-shard workloads (the distributed 2PC layer, repro.dist)
# ---------------------------------------------------------------------------


def dist_shard_of(key: str) -> int:
    """Shard index for ``s{n}:...`` keys — the distributed workloads' scheme.

    Explicit-prefix sharding (rather than the hashed default) keeps the
    cross-shard *fraction* of a generated batch an exact, seeded choice
    instead of an accident of key hashing.
    """
    return int(key.split(":", 1)[0][1:])


def cross_shard_initial_data(
    num_shards: int = 3, accounts_per_shard: int = 4, balance: int = 100
) -> Dict[str, int]:
    """Balances for ``s{shard}:acct{i}`` accounts across every shard."""
    return {
        f"s{shard}:acct{i}": balance
        for shard in range(num_shards)
        for i in range(accounts_per_shard)
    }


def cross_shard_transfer_workload(
    num_shards: int = 3,
    accounts_per_shard: int = 4,
    num_transactions: int = 20,
    cross_fraction: float = 0.7,
    min_amount: int = 5,
    max_amount: int = 25,
    balance: int = 100,
    seed: int = 0,
) -> Tuple[Dict[str, int], List[TransactionSpec]]:
    """A batch of conditional transfers, mostly spanning two shards.

    Each transaction moves a seeded amount between two distinct
    accounts (guarded on sufficient funds, like the paper's banking
    transfer, so money is conserved under any interleaving); with
    probability ``cross_fraction`` the two accounts live on different
    shards, which is what forces the 2PC path.  The conservation oracle
    for any run is simply ``sum(balances) == num_shards *
    accounts_per_shard * balance``.
    """
    if num_shards < 2:
        raise ValueError("cross-shard workload needs at least 2 shards")
    if not 0.0 <= cross_fraction <= 1.0:
        raise ValueError(f"cross_fraction must be in [0, 1], got {cross_fraction!r}")
    rng = random.Random(seed)
    initial = cross_shard_initial_data(num_shards, accounts_per_shard, balance)
    specs: List[TransactionSpec] = []
    for n in range(num_transactions):
        src_shard = rng.randrange(num_shards)
        if rng.random() < cross_fraction:
            dst_shard = rng.randrange(num_shards - 1)
            if dst_shard >= src_shard:
                dst_shard += 1
        else:
            dst_shard = src_shard
        src_acct = rng.randrange(accounts_per_shard)
        dst_acct = rng.randrange(accounts_per_shard)
        if dst_shard == src_shard:
            while dst_acct == src_acct:
                dst_acct = rng.randrange(accounts_per_shard)
        source = f"s{src_shard}:acct{src_acct}"
        target = f"s{dst_shard}:acct{dst_acct}"
        amount = rng.randint(min_amount, max_amount)
        spec = banking_transfer(source, target, amount)
        specs.append(
            TransactionSpec(
                spec.operations,
                name=f"xfer{n}:{source}->{target}",
            )
        )
    return initial, specs

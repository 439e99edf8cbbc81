"""Tests for the workload generators."""

import copy
import dataclasses
import hashlib
import json
import pickle
import random
import signal
import types

import pytest

from repro.dist.engine import run_distributed_batch
from repro.engine import workloads
from repro.engine.faults import NetworkFaultSpec
from repro.engine.operations import (
    Operation,
    OperationKind,
    SymbolTransform,
    TransactionSpec,
    audit_transaction,
    transfer_transaction,
)
from repro.engine.parallel import ParallelShardRunner
from repro.engine.protocols.registry import get_entry
from repro.engine.runtime import run_batch
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore, ShardedDataStore
from repro.engine.workloads import (
    WorkloadConfig,
    _zipf_chooser,
    analytical_generator,
    analytical_workload,
    banking_audit,
    banking_generator,
    banking_initial_data,
    banking_withdraw,
    banking_workload,
    cross_shard_transfer_workload,
    dist_shard_of,
    epoch_batched_workload,
    hotspot_queue_workload,
    hotspot_workload,
    long_scan_generator,
    partition_of,
    partitioned_generator,
    partitioned_workload,
    read_mostly_generator,
    readonly_heavy_workload,
    uniform_workload,
    zipfian_generator,
    zipfian_hotspot_generator,
    zipfian_workload,
)
from repro.harness.scenarios import (
    DIST_PLANS,
    build_dist_scenario,
    build_scenario,
    scenario_families,
)
from repro.obs.trace import TraceRecorder


class TestWorkloadConfig:
    def test_key_names_and_initial_data(self):
        config = WorkloadConfig(num_keys=4, initial_value=7)
        assert config.key_names() == ["k0", "k1", "k2", "k3"]
        assert config.initial_data() == {"k0": 7, "k1": 7, "k2": 7, "k3": 7}


class TestBankingWorkload:
    def test_initial_data_satisfies_audit_invariant(self):
        data = banking_initial_data(num_accounts=5, balance=20)
        accounts = [v for k, v in data.items() if k.startswith("acct")]
        assert sum(accounts) == data["S"]
        assert data["C"] == 0

    def test_generated_transactions_touch_known_keys(self):
        initial, specs = banking_workload(num_accounts=5, num_transactions=30, seed=3)
        keys = set(initial)
        for spec in specs:
            assert spec.read_set() | spec.write_set() <= keys
            assert spec.name in {"transfer", "withdraw", "audit"}

    def test_mix_contains_all_three_transaction_types(self):
        _, specs = banking_workload(num_accounts=5, num_transactions=80, seed=0)
        names = {spec.name for spec in specs}
        assert names == {"transfer", "withdraw", "audit"}

    def test_generator_is_deterministic_for_fixed_rng(self):
        _, generate = banking_generator(num_accounts=4)
        a = [generate(random.Random(9)).name for _ in range(5)]
        b = [generate(random.Random(9)).name for _ in range(5)]
        assert a == b


class TestSyntheticWorkloads:
    @pytest.mark.parametrize(
        "factory", [uniform_workload, hotspot_workload, zipfian_workload, readonly_heavy_workload]
    )
    def test_batches_have_requested_size_and_valid_keys(self, factory):
        config = WorkloadConfig(num_keys=16, operations_per_transaction=3)
        initial, specs = factory(num_transactions=25, config=config, seed=4)
        assert len(specs) == 25
        assert set(initial) == set(config.key_names())
        for spec in specs:
            assert len(spec) == 3
            assert spec.read_set() | spec.write_set() <= set(initial)

    def test_hotspot_workload_concentrates_accesses(self):
        config = WorkloadConfig(
            num_keys=50, hotspot_fraction=0.1, hotspot_probability=0.9, seed=1
        )
        _, specs = hotspot_workload(num_transactions=200, config=config, seed=1)
        hot_keys = set(config.key_names()[:5])
        accesses = [op.key for spec in specs for op in spec.operations]
        hot_share = sum(1 for key in accesses if key in hot_keys) / len(accesses)
        assert hot_share > 0.6

    def test_zipfian_generator_prefers_low_rank_keys(self):
        config = WorkloadConfig(num_keys=40, zipf_theta=1.2, seed=2)
        initial, generate = zipfian_generator(config)
        rng = random.Random(2)
        accesses = [
            op.key for _ in range(300) for op in generate(rng).operations
        ]
        top = sum(1 for key in accesses if key in {"k0", "k1", "k2"}) / len(accesses)
        uniform_share = 3 / 40
        assert top > 3 * uniform_share

    def test_readonly_heavy_is_mostly_reads(self):
        _, specs = readonly_heavy_workload(num_transactions=100, seed=5)
        ops = [op for spec in specs for op in spec.operations]
        read_share = sum(1 for op in ops if not op.writes) / len(ops)
        assert read_share > 0.85


class _ScriptedRandom:
    """Stands in for ``random.Random``: ``random()`` replays a list."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


class TestZipfChooser:
    @staticmethod
    def _scan(keys, theta):
        """The pre-bisect chooser, kept as the reference: the key of the
        first cumulative threshold at or above the draw."""
        weights = [1.0 / ((rank + 1) ** theta) for rank in range(len(keys))]
        total = sum(weights)
        cumulative = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            cumulative.append(acc)

        def choose(rng):
            u = rng.random()
            for index, threshold in enumerate(cumulative):
                if u <= threshold:
                    return keys[index]
            return keys[-1]

        return choose, cumulative

    @pytest.mark.parametrize("theta", [0.0, 0.4, 0.99])
    def test_bisect_draws_exactly_what_the_scan_drew(self, theta):
        keys = [f"k{i}" for i in range(257)]
        reference, cumulative = self._scan(keys, theta)
        rng = random.Random(11)
        draws = [rng.random() for _ in range(10_000)]
        # a draw exactly on a threshold belongs to that threshold's key;
        # one past the last threshold (rounding) to the last key
        draws += cumulative + [0.0, 1.0, cumulative[-1] + 1e-12]
        choose = _zipf_chooser(keys, theta)
        for u in draws:
            assert choose(_ScriptedRandom([u])) == reference(_ScriptedRandom([u])), u


class TestGeneratorArgumentValidation:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: hotspot_queue_workload(num_hot=0),
            lambda: hotspot_queue_workload(num_cold=0),
            lambda: hotspot_queue_workload(ops_per_transaction=0),
            lambda: hotspot_queue_workload(hotspot_probability=1.5),
            lambda: epoch_batched_workload(num_epochs=0),
            lambda: epoch_batched_workload(epoch_size=0),
            lambda: epoch_batched_workload(ops_per_transaction=0),
            lambda: epoch_batched_workload(read_fraction=-0.1),
            lambda: epoch_batched_workload(num_keys=0),
            lambda: read_mostly_generator(read_fraction=1.5),
            lambda: partitioned_generator(num_partitions=0),
            lambda: partition_of("k3"),
            lambda: long_scan_generator(scan_fraction=1.5),
            lambda: long_scan_generator(scan_length=0),
            lambda: analytical_generator(read_fraction=1.5),
            lambda: analytical_generator(scan_length=0),
            lambda: cross_shard_transfer_workload(num_shards=1),
            lambda: cross_shard_transfer_workload(cross_fraction=1.5),
            lambda: WorkloadConfig(num_keys=0),
            lambda: WorkloadConfig(operations_per_transaction=0),
            lambda: WorkloadConfig(read_fraction=2.0),
            lambda: WorkloadConfig(read_fraction=-0.5),
            lambda: WorkloadConfig(hotspot_fraction=1.5),
            lambda: WorkloadConfig(hotspot_probability=-0.1),
        ],
        ids=[
            "queue-num-hot",
            "queue-num-cold",
            "queue-ops",
            "queue-hotspot-probability",
            "epoch-num-epochs",
            "epoch-size",
            "epoch-ops",
            "epoch-read-fraction",
            "epoch-num-keys",
            "read-mostly-read-fraction",
            "partitioned-num-partitions",
            "partition-of-unprefixed-key",
            "long-scan-fraction",
            "long-scan-length",
            "analytical-read-fraction",
            "analytical-scan-length",
            "cross-shard-num-shards",
            "cross-shard-fraction",
            "config-num-keys",
            "config-ops",
            "config-read-fraction-high",
            "config-read-fraction-negative",
            "config-hotspot-fraction",
            "config-hotspot-probability",
        ],
    )
    def test_out_of_range_arguments_rejected(self, build):
        with pytest.raises(ValueError):
            build()


def _within_a_second(build):
    """Run ``build`` under an alarm: a generator that loops forever fails
    the test instead of hanging the suite."""

    def expire(signum, frame):
        raise AssertionError("generation did not finish within a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(1)
    try:
        return build()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestOneAccountPools:
    """A transfer redraws its target until it differs from its source:
    from a pool of one account that never ends."""

    def test_banking_needs_two_accounts(self):
        with pytest.raises(ValueError, match="num_accounts"):
            _within_a_second(lambda: banking_workload(num_accounts=1, num_transactions=5))

    def test_same_shard_transfers_need_two_accounts_per_shard(self):
        with pytest.raises(ValueError, match="accounts_per_shard"):
            _within_a_second(
                lambda: cross_shard_transfer_workload(
                    num_shards=2, accounts_per_shard=1, num_transactions=3
                )
            )

    def test_an_empty_shard_is_named(self):
        """Not the bare ``empty range for randrange()`` of a draw."""
        with pytest.raises(ValueError, match="accounts_per_shard"):
            cross_shard_transfer_workload(accounts_per_shard=0)

    def test_one_account_per_shard_is_fine_when_every_transfer_crosses(self):
        _initial, specs = _within_a_second(
            lambda: cross_shard_transfer_workload(
                num_shards=2, accounts_per_shard=1, num_transactions=3, cross_fraction=1.0
            )
        )
        assert len(specs) == 3
        for spec in specs:
            source, target = spec.name.split(":", 1)[1].split("->")
            assert source != target


# ----------------------------------------------------------------------
# shared operations: a batch holds each distinct operation once
# ----------------------------------------------------------------------


def _distinct(specs, kind=None):
    """How many distinct operation *objects* the batch holds (of ``kind``)."""
    return len(
        {
            id(op)
            for spec in specs
            for op in spec.operations
            if kind is None or op.kind is kind
        }
    )


def _fresh(spec):
    """``spec`` with a new copy of every operation and transform: the batch
    as it was built before the generators shared equal operations."""
    return TransactionSpec(
        [Operation(op.kind, op.key, copy.copy(op.transform)) for op in spec.operations],
        name=spec.name,
        txn_id=spec.txn_id,
        read_only=spec.read_only,
    )


class TestBatchFootprint:
    def test_hotspot_queue_holds_one_program_per_key(self):
        ops = 8
        _initial, specs = hotspot_queue_workload(
            num_transactions=300, ops_per_transaction=ops, num_hot=4, num_cold=16, seed=2
        )
        keys = {spec.operations[0].key for spec in specs}
        assert len({id(spec.operations) for spec in specs}) == len(keys)
        assert _distinct(specs) == len(keys) * ops <= 20 * ops

    def test_dist_2pc_flat_batch_holds_each_distinct_operation_once(self):
        # the bench's full seed-0 dist-2pc-flat batch: 6,000 operations, all
        # distinct objects while every transfer built its own read and legs
        _initial, specs = cross_shard_transfer_workload(
            num_shards=4, accounts_per_shard=64, num_transactions=2000,
            cross_fraction=0.8, seed=0,
        )
        operations = [op for spec in specs for op in spec.operations]
        assert len(operations) == 6000
        assert _distinct(specs) == len(set(operations)) == 3936

    def test_banking_batch_shares_equal_operations(self):
        # 4,573 distinct objects while the builders made closures; the one
        # audit program holds its own reads of the 16 accounts
        _initial, specs = banking_workload(16, 1000, 0)
        operations = [op for spec in specs for op in spec.operations]
        assert _distinct(specs) == len(set(operations)) + 16 == 308

    @pytest.mark.parametrize(
        "build",
        [
            lambda config: analytical_workload(300, config, seed=1),
            lambda config: zipfian_workload(300, config, seed=1),
        ],
        ids=["analytical", "zipfian"],
    )
    def test_reads_and_increments_are_one_per_key(self, build):
        config = WorkloadConfig(num_keys=32, operations_per_transaction=4)
        _initial, specs = build(config)
        for kind in (OperationKind.READ, OperationKind.UPDATE):
            keys = {op.key for spec in specs for op in spec.operations if op.kind is kind}
            assert _distinct(specs, kind) == len(keys) <= config.num_keys


def _run_digest(protocol, initial, specs):
    """A digest of the whole run: its result, its metrics and its trace."""
    tracer = TraceRecorder()
    result = run_batch(
        get_entry(protocol).factory,
        DataStore(initial),
        specs,
        interleaving="random",
        seed=3,
        max_attempts=400,
        tracer=tracer,
    )
    blob = json.dumps(
        {
            "result": dataclasses.asdict(dataclasses.replace(result, metrics=None)),
            "metrics": result.metrics.to_dict(),
            "trace": tracer.to_jsonl(),
        },
        sort_keys=True,
        default=repr,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_SHARED_BATCHES = {
    "banking": lambda: banking_workload(6, 40, seed=5),
    "hotspot-queue": lambda: hotspot_queue_workload(
        num_transactions=40, ops_per_transaction=4, num_hot=2, num_cold=6, seed=5
    ),
    "zipfian": lambda: zipfian_workload(
        40, WorkloadConfig(num_keys=12, read_fraction=0.4), seed=5
    ),
    "analytical": lambda: analytical_workload(
        40, WorkloadConfig(num_keys=24), seed=5, scan_length=4
    ),
}


class TestSharingChangesNothing:
    """A batch of shared operations runs exactly as one of private copies."""

    @pytest.mark.parametrize("batch", sorted(_SHARED_BATCHES))
    def test_fresh_copies_are_equal_and_unshared(self, batch):
        _initial, specs = _SHARED_BATCHES[batch]()
        fresh = [_fresh(spec) for spec in specs]
        assert fresh == specs
        assert _distinct(fresh) == sum(len(spec) for spec in specs) > _distinct(specs)

    def test_shared_programs_are_the_builders_programs(self):
        _initial, specs = _SHARED_BATCHES["banking"]()
        _initial, transfers = cross_shard_transfer_workload(num_transactions=40, seed=5)
        assert {spec.name for spec in specs} == {"audit", "withdraw", "transfer"}
        for spec in specs + transfers:
            ops = spec.operations
            if spec.name == "audit":
                built = banking_audit(6)
            elif spec.name == "withdraw":
                built = banking_withdraw(ops[0].key, -ops[0].transform.amount)
            else:
                built = transfer_transaction(
                    ops[0].key, ops[1].key, ops[1].transform.amount, name=spec.name
                )
            assert spec == built

    @pytest.mark.parametrize("protocol", ["strict-2pl", "mvto", "occ-parallel"])
    @pytest.mark.parametrize("batch", sorted(_SHARED_BATCHES))
    def test_run_batch_digest(self, batch, protocol):
        initial, specs = _SHARED_BATCHES[batch]()
        fresh = [_fresh(spec) for spec in specs]
        assert _run_digest(protocol, initial, specs) == _run_digest(protocol, initial, fresh)

    def test_parallel_shard_results(self):
        initial, specs = partitioned_workload(
            60, WorkloadConfig(num_keys=16), seed=2, num_partitions=4
        )
        fresh = [_fresh(spec) for spec in specs]
        assert _distinct(specs) < _distinct(fresh)

        def run(batch):
            store = ShardedDataStore(initial, num_shards=4, shard_of=partition_of)
            result = ParallelShardRunner(workers=2).run(
                get_entry("strict-2pl").factory, store, batch, seed=1
            )
            return {
                index: (
                    shard.per_transaction,
                    shard.blocks,
                    shard.restarts,
                    shard.store_snapshot,
                    shard.metrics.to_dict(),
                )
                for index, shard in result.per_shard.items()
            }

        assert run(specs) == run(fresh)

    def test_distributed_report(self):
        initial, specs = cross_shard_transfer_workload(
            num_shards=3, accounts_per_shard=3, num_transactions=80, seed=2
        )
        fresh = [_fresh(spec) for spec in specs]
        assert _distinct(specs) < _distinct(fresh)

        def run(batch):
            report = run_distributed_batch(
                initial,
                batch,
                num_shards=3,
                shard_of=dist_shard_of,
                seed=1,
                network_faults=NetworkFaultSpec(loss_probability=0.1, seed=4),
            )
            assert report.abort_records
            return report.digest(), report.metrics.snapshot(), report.events_dispatched

        assert run(specs) == run(fresh)

    def test_simulator_report(self):
        def report(fresh):
            initial, generate = zipfian_hotspot_generator(
                WorkloadConfig(num_keys=12, read_fraction=0.4)
            )
            # the copies stay alive to the end, so no two share an id()
            drawn = []

            def workload(rng):
                spec = generate(rng)
                if fresh:
                    spec = _fresh(spec)
                    drawn.append(spec)
                return spec

            protocol = get_entry("occ-parallel").factory(DataStore(initial))
            config = SimulationConfig(num_clients=8, duration=60.0, seed=4)
            result = Simulator(protocol, workload, config).run()
            return (
                dataclasses.asdict(dataclasses.replace(result, metrics=None)),
                result.metrics.to_dict(),
                protocol.committed_log(),
            )

        assert report(fresh=False) == report(fresh=True)


# ----------------------------------------------------------------------
# batches are values: every transform is a symbol, and a batch pickles
# ----------------------------------------------------------------------


def _every_workload():
    """Every ``*_workload`` of the module, at a small size."""
    smaller = {"hotspot_queue_workload": dict(num_transactions=60, ops_per_transaction=4)}
    names = sorted(name for name in dir(workloads) if name.endswith("_workload"))
    return {name: getattr(workloads, name)(**smaller.get(name, {}))[1] for name in names}


def _every_batch():
    batches = _every_workload()
    batches["transfer_transaction"] = [transfer_transaction("a", "b", 5)]
    batches["audit_transaction"] = [audit_transaction(["a", "b", "c"], "S")]
    for family in scenario_families():
        batches[f"scenario:{family}"] = [
            spec
            for seed in range(4)
            for spec in build_scenario(seed, quick=True, family=family).specs
        ]
    for plan in DIST_PLANS:
        batches[f"dist:{plan}"] = list(build_dist_scenario(0, plan=plan).specs)
    return batches


class TestBatchesAreValues:
    """``src/`` builds transforms as symbols only, never as closures."""

    BATCHES = _every_batch()

    def test_every_builder_is_covered(self):
        assert len(self.BATCHES) == 13 + 2 + len(scenario_families()) + len(DIST_PLANS)
        assert all(self.BATCHES.values())

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_no_transform_is_a_function(self, batch):
        for spec in self.BATCHES[batch]:
            for op in spec.operations:
                assert not isinstance(op.transform, types.FunctionType), (batch, op)
                if op.writes:
                    assert isinstance(op.transform, SymbolTransform), (batch, op)

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_batch_pickles_to_an_equal_batch(self, batch):
        specs = self.BATCHES[batch]
        assert pickle.loads(pickle.dumps(specs)) == specs

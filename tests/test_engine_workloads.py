"""Tests for the workload generators."""

import random

import pytest

from repro.engine.workloads import (
    WorkloadConfig,
    _zipf_chooser,
    analytical_generator,
    banking_generator,
    banking_initial_data,
    banking_workload,
    cross_shard_transfer_workload,
    epoch_batched_workload,
    hotspot_queue_workload,
    hotspot_workload,
    long_scan_generator,
    partition_of,
    partitioned_generator,
    read_mostly_generator,
    readonly_heavy_workload,
    uniform_workload,
    zipfian_generator,
    zipfian_workload,
)


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
            lambda: read_mostly_generator(read_fraction=1.5),
            lambda: partitioned_generator(num_partitions=0),
            lambda: partition_of("k3"),
            lambda: long_scan_generator(scan_fraction=1.5),
            lambda: long_scan_generator(scan_length=0),
            lambda: analytical_generator(read_fraction=1.5),
            lambda: analytical_generator(scan_length=0),
            lambda: cross_shard_transfer_workload(num_shards=1),
            lambda: cross_shard_transfer_workload(cross_fraction=1.5),
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
            "read-mostly-read-fraction",
            "partitioned-num-partitions",
            "partition-of-unprefixed-key",
            "long-scan-fraction",
            "long-scan-length",
            "analytical-read-fraction",
            "analytical-scan-length",
            "cross-shard-num-shards",
            "cross-shard-fraction",
        ],
    )
    def test_out_of_range_arguments_rejected(self, build):
        with pytest.raises(ValueError):
            build()

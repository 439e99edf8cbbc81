"""Metrics serialization and sharded-merge consistency.

Pins the lossless ``to_dict``/``from_dict`` round-trip contract on
:class:`~repro.engine.metrics.Histogram` and
:class:`~repro.engine.metrics.Metrics`, and the
``merged_metrics`` dedup rule on sharded results (a registry shared
across shards must be folded exactly once).
"""

import json
import random

import pytest

from repro.engine.metrics import CounterHandles, Histogram, Metrics
from repro.engine.runtime import ExecutionResult, ShardedExecutionResult


def _result(metrics):
    return ExecutionResult(
        protocol_name="p",
        committed=1,
        aborted_attempts=0,
        restarts=0,
        gave_up=0,
        operations_issued=1,
        blocks=0,
        store_snapshot={},
        committed_serializable=True,
        per_transaction={},
        metrics=metrics,
    )


class TestHistogramRoundTrip:
    def test_round_trip_preserves_everything(self):
        histogram = Histogram()
        rng = random.Random(7)
        for _ in range(500):
            histogram.observe(rng.uniform(0, 2000))
        rebuilt = Histogram.from_dict(histogram.to_dict())
        assert rebuilt.bounds == histogram.bounds
        assert rebuilt.buckets == histogram.buckets
        assert rebuilt.count == histogram.count
        assert rebuilt.total == histogram.total
        assert rebuilt.mean == histogram.mean
        assert rebuilt.std == histogram.std
        assert rebuilt.min == histogram.min
        assert rebuilt.max == histogram.max
        for q in (0.0, 0.5, 0.95, 1.0):
            assert rebuilt.quantile(q) == histogram.quantile(q)

    def test_round_trip_custom_bounds_and_empty(self):
        histogram = Histogram(bounds=[1, 10, 100])
        rebuilt = Histogram.from_dict(histogram.to_dict())
        assert rebuilt.bounds == (1, 10, 100)
        assert rebuilt.count == 0
        assert rebuilt.std == 0.0
        assert rebuilt.min is None and rebuilt.max is None

    def test_dump_is_json_safe(self):
        histogram = Histogram()
        histogram.observe(3.5)
        parsed = json.loads(json.dumps(histogram.to_dict()))
        assert Histogram.from_dict(parsed).mean == histogram.mean


class TestMetricsRoundTrip:
    def test_round_trip_report_identical(self):
        metrics = Metrics()
        rng = random.Random(11)
        for _ in range(200):
            metrics.incr("kernel.steps")
            metrics.observe("sim.latency", rng.expovariate(0.01))
        metrics.incr("protocol.blocks", 17)
        rebuilt = Metrics.from_dict(metrics.to_dict())
        assert rebuilt.report() == metrics.report()
        assert rebuilt.snapshot() == metrics.snapshot()

    def test_round_trip_survives_json(self):
        metrics = Metrics()
        metrics.observe("h", 4.0)
        metrics.incr("c", 3)
        rebuilt = Metrics.from_dict(json.loads(json.dumps(metrics.to_dict())))
        assert rebuilt.count("c") == 3
        assert rebuilt.histogram("h").count == 1

    def test_rebuilt_registry_merges_like_the_original(self):
        left, right = Metrics(), Metrics()
        for value in (1.0, 50.0, 3000.0):
            left.observe("h", value)
            right.observe("h", value * 2)
        merged_direct = Metrics()
        merged_direct.merge(left)
        merged_direct.merge(right)
        merged_rebuilt = Metrics()
        merged_rebuilt.merge(Metrics.from_dict(left.to_dict()))
        merged_rebuilt.merge(Metrics.from_dict(right.to_dict()))
        assert merged_rebuilt.report() == merged_direct.report()


class TestMergedMetricsDedup:
    def test_shared_registry_is_folded_once(self):
        shared = Metrics()
        shared.incr("kernel.steps", 10)
        result = ShardedExecutionResult(
            per_shard={0: _result(shared), 1: _result(shared), 2: _result(shared)},
            store_snapshot={},
        )
        assert result.merged_metrics().count("kernel.steps") == 10

    def test_private_registries_are_summed(self):
        per_shard = {}
        for shard in range(3):
            private = Metrics()
            private.incr("kernel.steps", 10)
            per_shard[shard] = _result(private)
        result = ShardedExecutionResult(per_shard=per_shard, store_snapshot={})
        assert result.merged_metrics().count("kernel.steps") == 30

    def test_missing_registries_are_skipped(self):
        result = ShardedExecutionResult(
            per_shard={0: _result(None), 1: _result(Metrics())},
            store_snapshot={},
        )
        assert result.merged_metrics().count("anything") == 0


class TestCounterHandle:
    def test_a_resolved_handle_bumps_the_registry(self):
        metrics = Metrics()
        handle = metrics.counter("kernel.steps")
        handle.incr()
        handle.incr(4)
        assert metrics.count("kernel.steps") == 5
        assert metrics.counter("kernel.steps") is handle
        metrics.observe("kernel.block_height", 2)
        assert metrics.names("kernel.steps") == ["kernel.steps"]
        assert metrics.names() == ["kernel.block_height", "kernel.steps"]


class TestCounterHandles:
    def test_a_handle_registers_its_counter_at_the_first_bump(self):
        # registration order is snapshot order: a handle must enter the
        # registry exactly when Metrics.incr would have
        metrics = Metrics()
        counters = CounterHandles(
            metrics, "dist.commits", "dist.repl.no_quorum_reports"
        )
        assert metrics.snapshot() == {}
        counters.no_quorum_reports.value += 1
        counters.commits.value += 2
        counters.commits.value += 1
        assert list(metrics.snapshot().items()) == [
            ("dist.repl.no_quorum_reports", 1),
            ("dist.commits", 3),
        ]
        assert counters.commits is metrics.counter("dist.commits")
        assert getattr(counters, "commit", None) is None


class TestBatchedObservations:
    def test_observe_all_leaves_the_state_of_the_same_observe_calls(self):
        rng = random.Random(3)
        values = [rng.uniform(-1, 3000) for _ in range(400)] + [0.5, 0.5, 1024]
        one_by_one, batched = Histogram(), Histogram()
        for value in values[:7]:
            one_by_one.observe(value)
            batched.observe(value)
        for value in values[7:]:
            one_by_one.observe(value)
        batched.observe_all(values[7:])
        assert batched.to_dict() == one_by_one.to_dict()
        batched.observe_all([])
        assert batched.to_dict() == one_by_one.to_dict()

    def test_a_histogram_handle_registers_at_the_first_request(self):
        # registration order is snapshot order, as for counter handles
        metrics = Metrics()
        assert metrics.histogram("sim.response_time") is not metrics.histogram(
            "sim.response_time"
        )
        assert metrics.snapshot() == {}
        response = metrics.histogram_handle("sim.response_time")
        metrics.observe("kernel.block_height", 1)
        assert metrics.histogram_handle("sim.response_time") is response
        response.observe_all([2.0, 4.0])
        assert list(metrics.snapshot()) == [
            "sim.response_time.count",
            "sim.response_time.mean",
            "sim.response_time.std",
            "kernel.block_height.count",
            "kernel.block_height.mean",
            "kernel.block_height.std",
        ]
        assert metrics.histogram("sim.response_time").mean == 3.0


class TestHistogramQuantile:
    def test_every_quantile_is_an_upper_bound(self):
        """Three observations of 100 all sit in the 128 bucket: no
        quantile may name the edge of an empty bucket below it."""
        histogram = Histogram()
        for _ in range(3):
            histogram.observe(100)
        for q in (0.0, 0.01, 0.5, 0.95, 1.0):
            assert histogram.quantile(q) == 128, q
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

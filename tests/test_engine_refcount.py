"""Every entry point frees its engine by reference counting.

A run that leaves a reference cycle behind can only be freed by the
cyclic collector, usually by a generation-2 pass that walks every live
object.  Such cycles have included the protocol and a kernel that
subscribed to it, the front-end and its kernel, the network and its
nodes, the coordinator and its client, and per-instance tables of bound
methods.  Each check below takes the same steps.  It collects, turns
the collector off and runs one entry point, dropping the result.  It then
collects with ``gc.DEBUG_SAVEALL``, which puts everything the collection
found unreachable in ``gc.garbage``.  It asserts that no instance of a
``repro`` class is there.  Objects of the standard library, such as
process-pool internals, pass the filter.
"""

from __future__ import annotations

import gc
from collections import Counter
from typing import Callable, Dict

import pytest

from repro.dist import run_distributed_batch
from repro.dist.replication import ReplicaCrashSpec
from repro.engine.kernel import EngineKernel
from repro.engine.parallel import ParallelShardRunner
from repro.engine.protocols.registry import PROTOCOL_ENTRIES, get_entry
from repro.engine.runtime import TransactionExecutor, run_batch, run_sharded_batch
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore, ShardedDataStore
from repro.engine.workloads import (
    WorkloadConfig,
    cross_shard_transfer_workload,
    dist_shard_of,
    partition_of,
    partitioned_workload,
    zipfian_hotspot_generator,
    zipfian_hotspot_workload,
)

PROTOCOLS = tuple(PROTOCOL_ENTRIES)


def cyclic_repro_garbage(run: Callable[[], object]) -> Dict[str, int]:
    """``repro`` instances by class that only the cyclic collector frees
    once ``run()`` has returned and its result is dropped."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    before = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        found = Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage[before:]
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]
        if was_enabled:
            gc.enable()
    return dict(found)


def test_the_check_sees_a_cycle():
    """Guard: a hand-built cycle (a kernel whose commit sink closes over
    the kernel) is reported."""

    def run():
        kernel = EngineKernel(get_entry("strict-2pl").factory(DataStore({"x": 0})))
        kernel.commit_sink = lambda session: kernel

    garbage = cyclic_repro_garbage(run)
    assert garbage.get("repro.engine.kernel.EngineKernel") == 1


@pytest.mark.parametrize("name", PROTOCOLS)
def test_engines_dropped_without_a_run(name):
    """Building a kernel, an executor or a simulator ties nothing to the
    protocol, so one dropped before it ever ran is no cycle either."""
    initial, generate = zipfian_hotspot_generator(WorkloadConfig(num_keys=12))
    factory = PROTOCOL_ENTRIES[name].factory

    def build():
        EngineKernel(factory(DataStore(initial)))
        TransactionExecutor(factory(DataStore(initial)))
        Simulator(factory(DataStore(initial)), generate, SimulationConfig(seed=4))

    assert cyclic_repro_garbage(build) == {}


@pytest.mark.parametrize("name", PROTOCOLS)
def test_run_batch(name):
    initial, specs = zipfian_hotspot_workload(
        num_transactions=24, config=WorkloadConfig(num_keys=12), seed=5
    )
    factory = PROTOCOL_ENTRIES[name].factory
    assert cyclic_repro_garbage(
        lambda: run_batch(factory, DataStore(initial), specs, max_attempts=400)
    ) == {}


@pytest.mark.parametrize("name", PROTOCOLS)
def test_simulator_run(name):
    initial, generate = zipfian_hotspot_generator(WorkloadConfig(num_keys=12))
    factory = PROTOCOL_ENTRIES[name].factory
    config = SimulationConfig(num_clients=8, duration=60.0, seed=4)
    assert cyclic_repro_garbage(
        lambda: Simulator(factory(DataStore(initial)), generate, config).run()
    ) == {}


def _sharded():
    initial, specs = partitioned_workload(
        num_transactions=40,
        config=WorkloadConfig(num_keys=32, read_fraction=0.4),
        seed=6,
        num_partitions=4,
    )
    return ShardedDataStore(initial, num_shards=4, shard_of=partition_of), specs


def test_run_sharded_batch():
    store, specs = _sharded()
    factory = get_entry("strict-2pl").factory
    assert cyclic_repro_garbage(
        lambda: run_sharded_batch(factory, store, specs, seed=1)
    ) == {}


@pytest.mark.parametrize("workers", [1, 2])
def test_parallel_shard_runner(workers):
    store, specs = _sharded()
    factory = get_entry("strict-2pl").factory
    assert cyclic_repro_garbage(
        lambda: ParallelShardRunner(workers=workers).run(factory, store, specs, seed=1)
    ) == {}


def test_run_distributed_batch_flat():
    initial, specs = cross_shard_transfer_workload(
        num_shards=2, accounts_per_shard=8, num_transactions=20, seed=3
    )
    assert cyclic_repro_garbage(
        lambda: run_distributed_batch(
            initial, specs, num_shards=2, shard_of=dist_shard_of, seed=3
        )
    ) == {}


def test_run_distributed_batch_replicated_with_a_leader_crash():
    initial, specs = cross_shard_transfer_workload(
        num_shards=2, accounts_per_shard=8, num_transactions=20, seed=3
    )

    def run():
        report = run_distributed_batch(
            initial,
            specs,
            num_shards=2,
            shard_of=dist_shard_of,
            seed=3,
            replicas=3,
            replica_crashes=[ReplicaCrashSpec(shard="shard0", at=20.0)],
        )
        assert report.metrics.count("dist.repl.crashes") == 1

    assert cyclic_repro_garbage(run) == {}

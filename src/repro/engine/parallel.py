"""Process-parallel execution of independent shards.

:func:`repro.engine.runtime.run_sharded_batch` already treats each shard
of a :class:`~repro.engine.storage.ShardedDataStore` as an independent
conflict domain with its own protocol instance — but it runs the shards
one after another on one core.  :class:`ParallelShardRunner` executes
the same shard batches in a :class:`concurrent.futures.
ProcessPoolExecutor`, which is the first time the engine uses more than
one core: with ``W`` workers and ``S >= W`` balanced shards, wall-clock
approaches ``1/W`` of the serial sharded run (given ``W`` actual CPUs).

Determinism is preserved exactly as in the serial path:

* every shard derives its engine seed as ``seed + shard_index``;
* a fault spec is replayed from scratch per shard (each shard builds a
  fresh :class:`~repro.engine.faults.FaultPlan` from the same spec);
* each shard's store is rebuilt from the shard's committed snapshot via
  the sharded store's ``shard_factory``.

So ``ParallelShardRunner(workers=w).run(...)`` produces **identical
per-shard results** to ``run_sharded_batch(...)`` for any ``w`` — the
parity is pinned by ``tests/test_engine_parallel.py`` — and worker count
only changes wall-clock, never outcomes.

What crosses the process boundary
---------------------------------
Only shard indices, and the results coming back.  The pool's workers
are forked, and its initializer is handed the run's whole batch — the
sharded store, the grouped specs, the protocol factory and the run
parameters — so each worker inherits the batch from the caller's memory
instead of receiving a copy of it.  A worker is told a shard index and
runs the same per-shard function the in-process path runs: rebuild the
shard's store, then :func:`~repro.engine.runtime.run_batch` on that
shard's specs.  Nothing in the batch is pickled, so any callable works
as a protocol factory, an operation transform or a ``shard_factory`` —
lambdas and closures included.

Why inherit rather than ship: on the ``shard-par-2pl`` benchmark batch
(600 transactions x 24 operations, 4 shards, 2 workers, a 2-core host),
shipping the batch as 190 KB of pickled tuples, encoded in the caller
and decoded in every worker, held ``speedup_vs_serial`` to a median of
0.87 over 10 runs; inherited, the payload is 20 bytes and the median is
1.17.

Where the platform has no ``fork`` start method, the runner takes the
in-process path, as it does for one worker.

Two things that look like they should help were measured and are not
worth having, so they are not here.  A **warm pool** kept across ``run``
calls: a fresh pool's whole life — create it (0.6 ms, the
``shard.pool_start`` span), fork two workers, shut it down — is 8-9 ms
of a ~205 ms run, so a kept pool can save at most ~4%, and it would
need a lifecycle the runner does not have (someone has to close it, and
its workers keep the heap they were forked with, not the next batch).
**Columnar results**: the four ``ExecutionResult`` objects coming back
are 27 KB and 0.4 ms to pickle.

Failure
-------
A shard that raises comes back as :class:`ShardWorkerError` with its
shard index and derived seed; a worker that dies outright (``os._exit``,
the OOM killer) surfaces as the same error naming every shard that was
on a worker at the time.  Shards are handed to the pool ``workers`` at a
time rather than all up front, so after the first failure the shards
that had not started never do.  Bad run arguments raise ``ValueError``
in the caller before any worker is forked.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.metrics import Metrics
from repro.engine.operations import TransactionSpec
from repro.engine.runtime import (
    ExecutionResult,
    ShardedExecutionResult,
    check_run_arguments,
    run_batch,
)
from repro.engine.storage import ShardedDataStore
from repro.obs.trace import Tracer


class ShardWorkerError(RuntimeError):
    """A shard worker died mid-batch, with the context to reproduce it.

    The bare exception a worker raises surfaces from the pool stripped
    of everything needed to replay the failure; this wrapper pins the
    shard index and the shard's derived engine seed to the error so
    ``run_batch(..., seed=error.seed)`` on that shard's snapshot
    reproduces the crash deterministically.  It crosses the process
    boundary intact (see ``__reduce__``), so the in-process and pooled
    paths raise identically.

    A worker *process* that dies (``os._exit``, an OOM kill) cannot
    raise anything; the runner then raises this error itself, for the
    first shard that was on a worker, with every such shard and its
    seed in the message — any of them may be the one that did it.
    """

    def __init__(self, shard_index: int, seed: Optional[int], message: str) -> None:
        super().__init__(
            f"shard {shard_index} worker failed (seed={seed!r}): {message}"
        )
        self.shard_index = shard_index
        self.seed = seed
        self.message = message

    def __reduce__(self):
        # default exception pickling would re-call __init__ with
        # self.args (the formatted string) and crash on arity
        return (ShardWorkerError, (self.shard_index, self.seed, self.message))


@dataclass(frozen=True)
class _ShardBatch:
    """One run's batch: everything any of its shards needs, by reference.

    The in-process path runs its shards from it directly; a pool worker
    inherits it at fork (see :func:`_inherit`).
    """

    store: ShardedDataStore
    groups: Dict[int, List[TransactionSpec]]
    protocol_factory: Callable[[Any], Any]
    interleaving: str
    seed: Optional[int]
    max_attempts: int
    max_concurrent: Optional[int]
    fault_spec: Optional[FaultSpec]

    def shard_seed(self, shard_index: int) -> Optional[int]:
        return None if self.seed is None else self.seed + shard_index

    def run_shard(self, shard_index: int) -> ExecutionResult:
        """Rebuild the shard's store from its snapshot and run its specs.

        Any failure is re-raised as :class:`ShardWorkerError`, so in a
        worker the typed error (not a context-free traceback) is what
        crosses the process boundary back to the caller.
        """
        seed = self.shard_seed(shard_index)
        try:
            return run_batch(
                self.protocol_factory,
                self.store.shard_factory(self.store.shard_snapshot(shard_index)),
                self.groups[shard_index],
                interleaving=self.interleaving,
                seed=seed,
                max_attempts=self.max_attempts,
                max_concurrent=self.max_concurrent,
                fault_plan=None if self.fault_spec is None else FaultPlan(self.fault_spec),
                metrics=Metrics(),
            )
        except Exception as error:
            raise ShardWorkerError(
                shard_index, seed, f"{type(error).__name__}: {error}"
            ) from error


#: the batch a pool worker inherited from the caller (set by :func:`_inherit`)
_inherited: Optional[_ShardBatch] = None


def _inherit(batch: _ShardBatch) -> None:
    """Pool initializer: keep the batch the fork copied, freeze the heap.

    gc.freeze: a forked worker inherits the caller's whole heap, and
    every full collection of its own would walk it (and dirty its
    copy-on-write pages); frozen, the worker collects only what it
    allocates itself (+6% commits/s on the benchmark batch, 8 of 8
    alternating pairs).
    """
    global _inherited
    _inherited = batch
    gc.freeze()


def _run_inherited_shard(payload: bytes) -> Tuple[int, ExecutionResult]:
    """Worker entry point: the payload is a pickled shard index."""
    shard_index = pickle.loads(payload)
    return shard_index, _inherited.run_shard(shard_index)


class ParallelShardRunner:
    """Run a sharded batch with one forked worker process per shard group.

    Parameters
    ----------
    workers:
        Worker process count.  ``None`` (the default) uses the shard
        count of each submitted batch capped at ``os.cpu_count()`` —
        forking more processes than cores only adds scheduling
        overhead.  An explicit count is honoured as given (still never
        more processes than shards); more workers than shards is
        harmless, fewer queues shards.  With one worker, or where the
        platform cannot fork, the shards run in the calling process.

    Unlike :func:`run_sharded_batch`, which executes protocols directly
    on the caller's shard stores, every shard runs on a store rebuilt
    from the shard's committed snapshot — so the caller's
    :class:`ShardedDataStore` is **left untouched** by a parallel run.
    The authoritative post-run state is ``result.store_snapshot`` (the
    same field callers must already use for factory-wrapped stores in
    the serial path).
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers

    def run(
        self,
        protocol_factory,
        store: ShardedDataStore,
        specs: Sequence[TransactionSpec],
        interleaving: str = "round-robin",
        seed: Optional[int] = None,
        max_attempts: int = 50,
        max_concurrent: Optional[int] = None,
        fault_spec: Optional[FaultSpec] = None,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
    ) -> ShardedExecutionResult:
        """Execute the batch, one protocol instance per shard, in parallel.

        Mirrors :func:`repro.engine.runtime.run_sharded_batch` —
        identical grouping, seeding and per-shard results — except that
        faults are described by a :class:`FaultSpec` (each shard replays
        a fresh plan built from it), a supplied ``metrics`` registry
        receives the *merged* per-shard metrics after the run rather
        than being written to live, and commits land in rebuilt shard
        stores, not in ``store`` — read the post-run state from the
        returned ``store_snapshot``.

        A ``tracer`` records **wall-clock spans** around the
        shard-dispatch path — batch build, the per-shard pickle of the
        shard index (payload bytes in the span meta), pool start and
        the per-shard collect — so "workers=2 is slower than workers=1"
        becomes a measured number instead of a guess.  Workers cannot
        emit engine events across the process boundary, so shard
        execution itself is untraced here; spans live outside the
        deterministic event stream (see :mod:`repro.obs.trace`).
        """
        check_run_arguments(interleaving, max_attempts, max_concurrent)
        if tracer is not None and not tracer.enabled:
            tracer = None
        groups = store.group_specs(specs)
        build_started = time.perf_counter()
        batch = _ShardBatch(
            store=store,
            groups=groups,
            protocol_factory=protocol_factory,
            interleaving=interleaving,
            seed=seed,
            max_attempts=max_attempts,
            max_concurrent=max_concurrent,
            fault_spec=fault_spec,
        )
        if tracer is not None:
            tracer.span(
                "shard.build_tasks",
                build_started,
                time.perf_counter() - build_started,
                meta={"shards": len(groups)},
            )

        if self.workers is not None:
            workers = self.workers
        else:
            workers = os.cpu_count() or 1
        workers = min(workers, len(groups))

        if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
            # nothing to overlap, or no fork to inherit the batch by:
            # skip the pool and run the same shards here
            results = {index: batch.run_shard(index) for index in sorted(groups)}
        else:
            results = self._run_pooled(batch, workers, tracer)
        # shard order, whatever order the workers finished in
        per_shard = {index: results[index] for index in sorted(results)}

        if metrics is not None:
            for result in per_shard.values():
                if result.metrics is not None:
                    metrics.merge(result.metrics)

        return ShardedExecutionResult.merge(store, per_shard)

    def _run_pooled(
        self, batch: _ShardBatch, workers: int, tracer: Optional[Tracer]
    ) -> Dict[int, ExecutionResult]:
        """Fork ``workers`` processes holding ``batch``; send them shard indices.

        At most ``workers`` shards are handed to the pool at a time, the
        next one when a result comes back: the pool marks everything in
        its call queue as running, so a shard submitted up front can no
        longer be cancelled, and after one shard failed the others would
        all still execute before the caller heard of it.  Submitted this
        way, a failure stops the batch — only the shards already on a
        worker finish.
        """
        queued: Deque[Tuple[int, bytes]] = deque()
        for shard_index in sorted(batch.groups):
            pickle_started = time.perf_counter()
            payload = pickle.dumps(shard_index)
            if tracer is not None:
                tracer.span(
                    "shard.pickle",
                    pickle_started,
                    time.perf_counter() - pickle_started,
                    meta={"shard": shard_index, "bytes": len(payload)},
                )
            queued.append((shard_index, payload))

        results: Dict[int, ExecutionResult] = {}
        in_flight: Dict[Future, int] = {}
        pool_started = time.perf_counter()
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_inherit,
            initargs=(batch,),
        ) as pool:
            submitted = time.perf_counter()
            if tracer is not None:
                tracer.span("shard.pool_start", pool_started, submitted - pool_started)
            try:
                while queued or in_flight:
                    while queued and len(in_flight) < workers:
                        shard_index, payload = queued.popleft()
                        in_flight[pool.submit(_run_inherited_shard, payload)] = shard_index
                    for future in wait(in_flight, return_when=FIRST_COMPLETED).done:
                        shard_index, result = future.result()
                        del in_flight[future]
                        results[shard_index] = result
                        if tracer is not None:
                            tracer.span(
                                "shard.collect",
                                submitted,
                                time.perf_counter() - submitted,
                                meta={"shard": shard_index},
                            )
            except BrokenProcessPool as error:
                # a worker died outright (os._exit, OOM kill): no typed
                # error came back, but the caller still learns which
                # shards were on a worker and how to replay each
                lost = [
                    shard_index
                    for future, shard_index in in_flight.items()
                    if not future.done() or future.exception() is not None
                ]
                if not lost:
                    # it broke between shards: there is no shard to name
                    raise
                seeds = {index: batch.shard_seed(index) for index in lost}
                raise ShardWorkerError(
                    lost[0],
                    batch.shard_seed(lost[0]),
                    f"{type(error).__name__}: a worker process died without "
                    f"reporting; shards outstanding, with their seeds: {seeds}",
                ) from error
        return results

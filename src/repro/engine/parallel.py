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
* a fault spec is replayed from scratch per shard (each worker builds a
  fresh :class:`~repro.engine.faults.FaultPlan` from the same spec);
* each worker rebuilds its shard store from the shard's committed
  snapshot via the sharded store's ``shard_factory``.

So ``ParallelShardRunner(workers=w).run(...)`` produces **identical
per-shard results** to ``run_sharded_batch(...)`` for any ``w`` — the
parity is pinned by ``tests/test_engine_parallel.py`` — and worker count
only changes wall-clock, never outcomes.

What crosses the process boundary
---------------------------------
One blob per shard, pickled **once**, in the caller: the shard's
snapshot, the two factories, the run parameters and the shard's
transactions in *wire form* (:func:`repro.engine.operations.
encode_spec`) — ``(name, txn_id, read_only, program)`` with the program
the same ``(kind, key, transform)`` triples the kernel runs, kinds as
their string values and the two shipped transforms as tagged tuples.
The bytes the pre-flight picklability check produces *are* the payload;
the pool only copies them.  A worker unpickles its blob, decodes each
program into a :class:`~repro.engine.operations.LoweredSpec` and hands
those to :func:`~repro.engine.runtime.run_batch`, whose sessions take
the program as it is: no ``TransactionSpec`` or ``Operation`` is
pickled, unpickled or rebuilt anywhere on this path.

Why programs and not specs: measured on the ``shard-par-2pl`` benchmark
batch (600 transactions x 24 operations, 4 shards, 2 workers, an engine
run of ~175 ms per worker), the ``TransactionSpec -> Operation ->
ConstantTransform`` graph was 545,272 bytes that cost 32 ms to pickle —
twice, once for the check and once more in the pool's feeder thread,
serially, while the workers sat idle — and 42 ms to unpickle, because
every one of 29,400 small instances goes through ``__reduce_ex__`` and
``object.__new__``.  A shipped batch in wire form is ``str`` / ``int`` /
``tuple`` only, which pickle writes and reads without leaving C:
190,004 bytes (13.2 per operation), 2.8 ms to pickle, 3.2 ms to
unpickle, plus 4.5 ms to encode and 7.7 ms to decode.  Rebuilding
``Operation`` dataclasses in the worker instead of running the decoded
tuples would add 12 ms to that decode (33 ms when ISSUE 19 measured
it) and give back a third or more of what the unpickle saves.

Two things that look like they should help were measured and are not
worth having, so they are not here.  A **warm pool** kept across ``run``
calls: a fresh pool's whole life — create it (0.6 ms, the
``shard.pool_start`` span), fork two workers, shut it down — is 8-9 ms
of a ~205 ms run, so a kept pool can save at most ~4%; before the
payload shrank it read 0.290 s per run against 0.275 s for a fresh one,
after it 3-12% better in raw medians on a host whose speed moves by 30%
between phases, and it would need a lifecycle the runner does not have
(someone has to close it, and its workers keep the heap they were
forked with).  **Columnar results**: the four ``ExecutionResult``
objects coming back are 27 KB and 0.4 ms to pickle.  The tax was all
inbound.

The protocol factory and any transform that is not one of the shipped
two still cross as themselves, so they must be picklable: module-level
callables are, lambdas and closures are not, and the runner raises a
``ValueError`` naming the shard instead of the bare pickle error.  With
one worker nothing is pickled at all — the same tasks run in the
calling process — so closure-built specs work there.

Failure
-------
A shard that raises comes back as :class:`ShardWorkerError` with its
shard index and derived seed; a worker that dies outright (``os._exit``,
the OOM killer) surfaces as the same error naming every shard that was
on a worker at the time.  Shards are handed to the pool ``workers`` at a
time rather than all up front, so after the first failure the shards
that had not started never do.
"""

from __future__ import annotations

import gc
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
from repro.engine.operations import (
    TransactionSpec,
    WireSpec,
    decode_spec,
    encode_spec,
)
from repro.engine.runtime import (
    ExecutionResult,
    ShardedExecutionResult,
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
class _ShardTask:
    """Everything one worker needs to execute one shard, picklable.

    The shard's transactions travel in wire form
    (:func:`repro.engine.operations.encode_spec`), never as
    ``TransactionSpec`` graphs.
    """

    shard_index: int
    store_factory: Callable[[Dict[str, Any]], Any]
    initial: Dict[str, Any]
    transactions: Tuple[WireSpec, ...]
    protocol_factory: Callable[[Any], Any]
    interleaving: str
    seed: Optional[int]
    max_attempts: int
    max_concurrent: Optional[int]
    fault_spec: Optional[FaultSpec]


def _run_shard_task(task: _ShardTask) -> Tuple[int, ExecutionResult]:
    """Rebuild the shard store, decode the shard's programs, run the batch.

    Sessions are built straight from the decoded programs (a
    :class:`~repro.engine.operations.LoweredSpec` per transaction); no
    ``TransactionSpec`` or ``Operation`` exists on this side.  Any
    failure is re-raised as :class:`ShardWorkerError` *inside* the
    worker, so the typed error (not a context-free traceback) is what
    crosses the process boundary back to the caller.
    """
    try:
        store = task.store_factory(task.initial)
        result = run_batch(
            task.protocol_factory,
            store,
            [decode_spec(wire) for wire in task.transactions],
            interleaving=task.interleaving,
            seed=task.seed,
            max_attempts=task.max_attempts,
            max_concurrent=task.max_concurrent,
            fault_plan=None if task.fault_spec is None else FaultPlan(task.fault_spec),
            metrics=Metrics(),
        )
    except ShardWorkerError:
        raise
    except Exception as error:
        raise ShardWorkerError(
            task.shard_index, task.seed, f"{type(error).__name__}: {error}"
        ) from error
    return task.shard_index, result


def _pickle_task(task: _ShardTask) -> bytes:
    """The bytes that cross the process boundary: pickled here, once.

    Also the pre-flight check: a lambda protocol factory or a
    closure transform would otherwise surface as a bare
    ``PicklingError`` from the pool's feeder thread, after workers have
    already been forked.
    """
    try:
        return pickle.dumps(task)
    except Exception as error:
        raise ValueError(
            f"shard {task.shard_index} cannot be shipped to a worker "
            f"process: {error}. Protocol factories and operation "
            "transforms must be module-level callables (use the "
            "registry factories and the shipped op builders, e.g. "
            "increment_op), not lambdas or closures."
        ) from error


def _run_pickled_task(payload: bytes) -> Tuple[int, ExecutionResult]:
    """Worker entry point: the pool only ever copies an opaque blob."""
    return _run_shard_task(pickle.loads(payload))


class ParallelShardRunner:
    """Run a sharded batch with one worker process per shard group.

    Parameters
    ----------
    workers:
        Worker process count.  ``None`` (the default) uses the shard
        count of each submitted batch capped at ``os.cpu_count()`` —
        forking more processes than cores only adds pickling and
        scheduling overhead.  An explicit count is honoured as given
        (still never more processes than shards); more workers than
        shards is harmless, fewer queues shards.

    Unlike :func:`run_sharded_batch`, which executes protocols directly
    on the caller's shard stores, workers rebuild their shard store from
    the shard's committed snapshot — so the caller's
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
        faults are described by a :class:`FaultSpec` (a stateful plan
        cannot cross process boundaries), a supplied ``metrics``
        registry receives the *merged* per-shard metrics after the run
        rather than being written to live, and commits land in the
        workers' rebuilt stores, not in ``store`` — read the post-run
        state from the returned ``store_snapshot``.

        A ``tracer`` records **wall-clock spans** around the
        shard-dispatch path — task build, the per-shard pickle (the IPC
        serialization tax, with payload bytes in the span meta), and
        the pool submit/collect — so "workers=2 is slower than
        workers=1" becomes a measured number instead of a guess.
        Workers cannot emit engine events across the process boundary,
        so shard execution itself is untraced here; spans live outside
        the deterministic event stream (see :mod:`repro.obs.trace`).
        """
        if tracer is not None and not tracer.enabled:
            tracer = None
        groups = store.group_specs(specs)
        build_started = time.perf_counter()
        tasks = [
            _ShardTask(
                shard_index=shard_index,
                store_factory=store.shard_factory,
                initial=store.shard_snapshot(shard_index),
                transactions=tuple([encode_spec(spec) for spec in groups[shard_index]]),
                protocol_factory=protocol_factory,
                interleaving=interleaving,
                seed=None if seed is None else seed + shard_index,
                max_attempts=max_attempts,
                max_concurrent=max_concurrent,
                fault_spec=fault_spec,
            )
            for shard_index in sorted(groups)
        ]
        if tracer is not None:
            tracer.span(
                "shard.build_tasks",
                build_started,
                time.perf_counter() - build_started,
                meta={"shards": len(tasks)},
            )

        if self.workers is not None:
            workers = self.workers
        else:
            workers = os.cpu_count() or 1
        workers = min(workers, len(tasks))

        if workers <= 1:
            # nothing to overlap: skip the pool (and its fork cost) and
            # the pickle — the same tasks run here, so closure-built
            # specs execute just fine
            results = dict(_run_shard_task(task) for task in tasks)
        else:
            results = self._run_pooled(tasks, workers, tracer)
        # shard order, whatever order the workers finished in
        per_shard = {index: results[index] for index in sorted(results)}

        if metrics is not None:
            for result in per_shard.values():
                if result.metrics is not None:
                    metrics.merge(result.metrics)

        return ShardedExecutionResult.merge(store, per_shard)

    def _run_pooled(
        self, tasks: List[_ShardTask], workers: int, tracer: Optional[Tracer]
    ) -> Dict[int, ExecutionResult]:
        """Pickle each task once and run the blobs on ``workers`` processes.

        At most ``workers`` shards are handed to the pool at a time, the
        next one when a result comes back: the pool marks everything in
        its call queue as running, so a shard submitted up front can no
        longer be cancelled, and after one shard failed the others would
        all still execute before the caller heard of it.  Submitted this
        way, a failure stops the batch — only the shards already on a
        worker finish.
        """
        queued: Deque[Tuple[_ShardTask, bytes]] = deque()
        for task in tasks:
            pickle_started = time.perf_counter()
            payload = _pickle_task(task)
            if tracer is not None:
                tracer.span(
                    "shard.pickle",
                    pickle_started,
                    time.perf_counter() - pickle_started,
                    meta={"shard": task.shard_index, "bytes": len(payload)},
                )
            queued.append((task, payload))

        results: Dict[int, ExecutionResult] = {}
        in_flight: Dict[Future, _ShardTask] = {}
        pool_started = time.perf_counter()
        # gc.freeze: a forked worker inherits the caller's whole heap, and
        # every full collection of its own would walk it (and dirty its
        # copy-on-write pages); frozen, the worker collects only what it
        # allocates itself (+6% commits/s on the benchmark batch, 8 of 8
        # alternating pairs)
        with ProcessPoolExecutor(max_workers=workers, initializer=gc.freeze) as pool:
            submitted = time.perf_counter()
            if tracer is not None:
                tracer.span("shard.pool_start", pool_started, submitted - pool_started)
            try:
                while queued or in_flight:
                    while queued and len(in_flight) < workers:
                        task, payload = queued.popleft()
                        in_flight[pool.submit(_run_pickled_task, payload)] = task
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
                    task
                    for future, task in in_flight.items()
                    if not future.done() or future.exception() is not None
                ]
                if not lost:
                    # it broke between shards: there is no shard to name
                    raise
                seeds = {task.shard_index: task.seed for task in lost}
                raise ShardWorkerError(
                    lost[0].shard_index,
                    lost[0].seed,
                    f"{type(error).__name__}: a worker process died without "
                    f"reporting; shards outstanding, with their seeds: {seeds}",
                ) from error
        return results

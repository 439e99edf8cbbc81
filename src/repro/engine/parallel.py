"""Process-parallel execution of independent shards.

:func:`repro.engine.runtime.run_sharded_batch` already treats each shard
of a :class:`~repro.engine.storage.ShardedDataStore` as an independent
conflict domain with its own protocol instance — but it runs the shards
one after another on one core.  :class:`ParallelShardRunner` runs the
same shard batches on ``W`` processes — the caller and ``W - 1``
children it forks — which is the first time the engine uses more than
one core: with ``S >= W`` balanced shards, wall-clock approaches ``1/W``
of the serial sharded run (given ``W`` actual CPUs).

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

Who runs which shard
--------------------
Shard *k* of the sorted shard list runs on process ``k mod W``, and the
caller is process 0.  Every process runs a shard with the same function
the one-worker path uses: rebuild the shard's store from its snapshot,
then :func:`~repro.engine.runtime.run_batch` on that shard's specs.  The
caller runs its share in-process while the children run theirs, then
collects the children's results from their pipes.  So the caller is not
idle while it waits, and its own shards skip the fork and a fresh
process's cold start: on the ``shard-par-2pl`` batch (2-core host) a
shard run alone in-process took 22-25 ms, the first shard of a freshly
forked worker 37-59 ms.  They still pay copy-on-write: after the fork
the caller copies every page it writes that a child still shares.

What crosses the process boundary
---------------------------------
A child's shard indices, and its results coming back.  Each child is
forked with the run's whole batch — the sharded store, the grouped
specs, the protocol factory and the run parameters — as its
``Process`` argument, so it inherits the batch from the caller's memory
instead of receiving a copy of it.  Down its pipe go its shard indices,
pickled (5 bytes each); the caller's own shards ship nothing.  Nothing
in the batch is pickled, so any callable works as a protocol factory,
an operation transform or a ``shard_factory`` — lambdas and closures
included.

Why inherit rather than ship: on the ``shard-par-2pl`` benchmark batch
(600 transactions x 24 operations, 4 shards, 2 workers, a 2-core host),
shipping the batch as 190 KB of pickled tuples, encoded in the caller
and decoded in every worker, held ``speedup_vs_serial`` to a median of
0.87 over 10 runs; inherited, the payload is 20 bytes and the median was
1.17 with a 2-worker pool, in which the caller only waited.

Where the platform has no ``fork`` start method, the runner takes the
in-process path, as it does for one worker.

Two things that look like they should help were measured and are not
worth having, so they are not here.  A **warm pool** kept across
``run`` calls would save only the children's forks (the caller's shards
already skip one), and it would need a lifecycle the runner does not
have: someone has to close it, and its workers keep the heap they were
forked with, not the next batch.  **Columnar results**: the four
``ExecutionResult`` objects of the benchmark batch are 27 KB and 0.4 ms
to pickle.

Failure
-------
A shard that raises comes back as :class:`ShardWorkerError` with its
shard index and derived seed, and it raises a stop flag every process
shares.  A process's first shard is handed to it at the fork; before
each later one it checks the flag, so after the first failure no shard
that has not started ever starts.  The shards already running finish,
and the caller waits for them before it raises.  A child that dies
outright (``os._exit``, the OOM killer) cannot raise the flag; the
caller notices when the child's pipe ends before every one of its
shards was answered, raises the flag then, and raises the same error
naming the child's exit code and each outstanding shard with its seed.
A shard in the caller's own share that ends its process (``os._exit``)
takes the caller down with it, exactly as at ``workers=1``; one that is
interrupted (``KeyboardInterrupt``) propagates at once, and the caller
ends its children instead of waiting for them.  Bad run
arguments raise ``ValueError`` in the caller before any child is
forked.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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
    """A shard failed mid-batch, with the context to reproduce it.

    The bare exception a shard raises in a child would reach the caller
    stripped of everything needed to replay the failure; this wrapper
    pins the shard index and the shard's derived engine seed to the
    error so ``run_batch(..., seed=error.seed)`` on that shard's
    snapshot reproduces the crash deterministically.  It crosses the
    process boundary intact (see ``__reduce__``), so a shard raises it
    identically in the caller and in a child.

    A child *process* that dies (``os._exit``, an OOM kill) cannot raise
    anything; the runner then raises this error itself, for the first
    shard the child had not answered, with the child's exit code and
    every such shard and its seed in the message.
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

    The caller runs its shards from it directly; a child inherits it at
    fork (see :func:`_serve`).
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
        child the typed error (not a context-free traceback) is what
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

    def timed_run(
        self, shard_index: int
    ) -> Tuple[Union[ExecutionResult, ShardWorkerError], float, float]:
        """:meth:`run_shard`, returning its failure rather than raising
        it, with the ``time.perf_counter`` start and duration of the run
        (CLOCK_MONOTONIC on Linux, so a child's reading is on the
        caller's clock)."""
        started = time.perf_counter()
        try:
            outcome: Union[ExecutionResult, ShardWorkerError] = self.run_shard(shard_index)
        except ShardWorkerError as error:
            outcome = error
        return outcome, started, time.perf_counter() - started


def _serve(batch: _ShardBatch, conn: Connection, stop: Any, count: int) -> None:
    """A child's whole life: run the ``count`` shards sent down ``conn``.

    Each payload is a pickled shard index; each answer is ``(shard
    index, result or ShardWorkerError, start, duration)``.  A failure
    raises ``stop`` before it is sent, so the child starts nothing more.

    The child reads its whole share before it runs a shard.  A process
    that closes a socket with data still unread in it resets the other
    end (``ECONNRESET`` on Linux), so a child that stopped early or died
    inside a shard would otherwise turn the caller's next read into a
    ``ConnectionResetError`` instead of a clean end of the pipe.

    gc.freeze: a forked child inherits the caller's whole heap, and
    every full collection of its own would walk it (and dirty its
    copy-on-write pages); frozen, the child collects only what it
    allocates itself (+6% commits/s on the benchmark batch, 8 of 8
    alternating pairs).
    """
    gc.freeze()
    share = [pickle.loads(conn.recv_bytes()) for _ in range(count)]
    for position, shard_index in enumerate(share):
        if position and stop.value:
            return
        outcome, started, duration = batch.timed_run(shard_index)
        if isinstance(outcome, ShardWorkerError):
            stop.value = 1
        conn.send((shard_index, outcome, started, duration))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class ParallelShardRunner:
    """Run a sharded batch on the calling process plus forked children.

    Parameters
    ----------
    workers:
        The number of processes that run shards, the caller included.
        ``None`` (the default) uses the shard count of each submitted
        batch capped at the CPUs this process may run on (its affinity
        mask, where the platform has one) — more processes than cores
        only adds scheduling overhead.  An explicit count is honoured as
        given (still never more processes than shards); more workers
        than shards is harmless, fewer gives each process several
        shards.  With one worker, or where the platform cannot fork, the
        shards all run in the calling process.

    Unlike :func:`run_sharded_batch`, which executes protocols directly
    on the caller's shard stores, every shard runs on a store rebuilt
    from the shard's committed snapshot — so the caller's
    :class:`ShardedDataStore` is **left untouched** by a parallel run,
    also by the shards the caller runs itself.  The authoritative
    post-run state is ``result.store_snapshot`` (the same field callers
    must already use for factory-wrapped stores in the serial path).
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
        shard-dispatch path — batch build, the per-shard pickle of a
        child's shard index (payload bytes in the span meta), the set-up
        before the first fork (``shard.pool_start``), each shard's run
        with whether the caller ran it (``shard.run``, timed where it
        ran) and the per-shard collect, from the first fork to the
        moment the result is in hand — so "workers=2 is slower than
        workers=1" becomes a measured number instead of a guess.
        Children cannot emit engine events across the process boundary,
        so no engine events are recorded here; spans live outside the
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

        workers = self.workers if self.workers is not None else _usable_cpus()
        workers = min(workers, len(groups))

        if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
            # nothing to overlap, or no fork to inherit the batch by:
            # run every shard here
            results = {index: batch.run_shard(index) for index in sorted(groups)}
        else:
            results = self._run_forked(batch, workers, tracer)
        # shard order, whatever order the processes finished in
        per_shard = {index: results[index] for index in sorted(results)}

        if metrics is not None:
            for result in per_shard.values():
                if result.metrics is not None:
                    metrics.merge(result.metrics)

        return ShardedExecutionResult.merge(store, per_shard)

    def _run_forked(
        self, batch: _ShardBatch, workers: int, tracer: Optional[Tracer]
    ) -> Dict[int, ExecutionResult]:
        """Fork ``workers - 1`` children holding ``batch``; run share 0 here.

        Each child is sent all its shard indices at once; between its
        own shards the caller takes in whatever answers are ready, so a
        child is never kept waiting on a full pipe for longer than one
        of the caller's shards.
        """
        order = sorted(batch.groups)
        shares = [order[k::workers] for k in range(workers)]
        payloads: Dict[int, bytes] = {}
        for share in shares[1:]:
            for shard_index in share:
                pickle_started = time.perf_counter()
                payloads[shard_index] = pickle.dumps(shard_index)
                if tracer is not None:
                    tracer.span(
                        "shard.pickle",
                        pickle_started,
                        time.perf_counter() - pickle_started,
                        meta={"shard": shard_index, "bytes": len(payloads[shard_index])},
                    )

        context = multiprocessing.get_context("fork")
        pool_started = time.perf_counter()
        stop = context.RawValue("b", 0)
        forked = time.perf_counter()
        if tracer is not None:
            tracer.span("shard.pool_start", pool_started, forked - pool_started)

        results: Dict[int, ExecutionResult] = {}
        errors: List[ShardWorkerError] = []
        # the caller's end of each live child's pipe -> (child, unanswered shards)
        children: Dict[Connection, Tuple[Any, List[int]]] = {}

        def land(shard_index, outcome, started, duration, in_caller):
            if tracer is not None:
                tracer.span(
                    "shard.run",
                    started,
                    duration,
                    meta={"shard": shard_index, "in_caller": in_caller},
                )
            if isinstance(outcome, ShardWorkerError):
                stop.value = 1
                errors.append(outcome)
                return
            results[shard_index] = outcome
            if tracer is not None:
                tracer.span(
                    "shard.collect",
                    forked,
                    time.perf_counter() - forked,
                    meta={"shard": shard_index},
                )

        def collect(timeout: Optional[float]) -> None:
            for conn in wait(list(children), timeout):
                child, unanswered = children[conn]
                try:
                    shard_index, outcome, started, duration = conn.recv()
                except (EOFError, ConnectionResetError):
                    # reset: the child ended before it read its whole share
                    del children[conn]
                    conn.close()
                    child.join()
                    # a child stopped by the flag exits 0 with shards left
                    if unanswered and (child.exitcode != 0 or not stop.value):
                        stop.value = 1
                        seeds = {index: batch.shard_seed(index) for index in unanswered}
                        errors.append(
                            ShardWorkerError(
                                unanswered[0],
                                seeds[unanswered[0]],
                                f"a shard process ended (exit code "
                                f"{child.exitcode}) without reporting; shards "
                                f"outstanding, with their seeds: {seeds}",
                            )
                        )
                    continue
                unanswered.remove(shard_index)
                land(shard_index, outcome, started, duration, in_caller=False)

        try:
            for share in shares[1:]:
                conn, child_end = context.Pipe()
                child = context.Process(
                    target=_serve, args=(batch, child_end, stop, len(share)), daemon=True
                )
                child.start()
                # closed before the next fork, so only this child holds it
                # and its exit is seen as EOF
                child_end.close()
                children[conn] = (child, list(share))
                for shard_index in share:
                    conn.send_bytes(payloads[shard_index])
            for position, shard_index in enumerate(shares[0]):
                if position and stop.value:
                    break
                land(shard_index, *batch.timed_run(shard_index), in_caller=True)
                collect(timeout=0)
            while children:
                collect(timeout=None)
        finally:
            # children are left only when the caller itself was interrupted
            for conn, (child, _unanswered) in children.items():
                child.terminate()
                child.join()
                conn.close()
        if errors:
            raise errors[0]
        return results

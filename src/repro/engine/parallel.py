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
* each shard runs on a copy of its store, so it starts from exactly the
  state the serial run starts from, version numbers and multi-version
  chains included.

So ``ParallelShardRunner(workers=w).run(...)`` produces **identical
per-shard results** to ``run_sharded_batch(...)`` for any ``w`` — the
parity is pinned by ``tests/test_engine_parallel.py`` — and worker count
only changes wall-clock, never outcomes.

Importing this module loads neither ``multiprocessing`` nor ``pickle``:
:meth:`ParallelShardRunner.run` imports them on its first call, so a
program that only imports the runner never pays for them.

Who runs which shard
--------------------
Shard *k* of the sorted shard list runs on process ``k mod W``: the
caller is process 0 and processes ``1 .. W-1`` are the children it
forks.  One worker, or a platform without the ``fork`` start method,
means no children, not another code path: the caller runs every shard
in the same loop.  Every process runs a shard with the same function:
copy the shard's store, then :func:`~repro.engine.runtime.run_batch` on
that shard's specs.  The caller runs its share while the children run
theirs, then collects the children's answers from their pipes.  So the
caller is not idle while it waits, and its own shards skip the fork and
a fresh process's cold start: on the ``shard-par-2pl`` batch (2-core
host) a shard run alone in-process took 22-25 ms, the first shard of a
freshly forked worker 37-59 ms.  They still pay copy-on-write: after
the fork the caller copies every page it writes that a child still
shares.

What crosses the process boundary
---------------------------------
Answers, one per child shard, child to caller; the caller writes nothing
to a child.  Each child is forked with the run's whole batch — the
sharded store, the grouped specs, the protocol factory and the run
parameters — and its share of shard indices as its ``Process``
arguments, so it inherits both from the caller's memory instead of
receiving a copy.  An answer is the pickled ``(shard index, result or
ShardWorkerError, start, duration)``: 14,265 bytes for the child's two
shards of the ``shard-par-2pl`` batch at seed 0 on 2 workers.  Nothing in
the batch is pickled, so any callable works as a protocol factory or an
operation transform — lambdas and closures included.

Why inherit rather than ship: on the ``shard-par-2pl`` benchmark batch
(600 transactions x 24 operations, 4 shards, 2 workers, a 2-core host),
shipping the batch as 190 KB of pickled tuples, encoded in the caller
and decoded in every worker, held ``speedup_vs_serial`` to a median of
0.87 over 10 runs; inherited, the payload is 20 bytes and the median was
1.17 with a 2-worker pool, in which the caller only waited.

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
shares.  A process's first shard starts unchecked; before each later one
it checks the flag, so after the first failure no shard that has not
started ever starts.  The shards already running finish, and the caller
waits for them before it raises.  A child that dies outright
(``os._exit``, the OOM killer) cannot raise the flag; the caller notices
when the child's pipe ends before every one of its shards was answered,
raises the flag then, and raises the same error naming the child's exit
code and each outstanding shard with its seed.  A shard in the caller's
own share that ends its process (``os._exit``) takes the caller down
with it; one that is interrupted (``KeyboardInterrupt``) propagates at
once, and the caller ends its children instead of waiting for them.  Bad
run arguments raise ``ValueError`` in the caller before any child is
forked.
"""

from __future__ import annotations

import gc
import os
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.faults import FaultSpec, plan_from
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

if TYPE_CHECKING:
    from multiprocessing.connection import Connection


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


class _ShardBatch:
    """One run's batch: everything any of its shards needs, by reference.

    The caller runs its shards from it directly; a child inherits it at
    fork (see :func:`_serve`).
    """

    __slots__ = (
        "store",
        "groups",
        "protocol_factory",
        "interleaving",
        "seed",
        "max_attempts",
        "max_concurrent",
        "fault_spec",
    )

    def __init__(
        self,
        store: ShardedDataStore,
        groups: Dict[int, List[TransactionSpec]],
        protocol_factory: Callable[[Any], Any],
        interleaving: str,
        seed: Optional[int],
        max_attempts: int,
        max_concurrent: Optional[int],
        fault_spec: Optional[FaultSpec],
    ) -> None:
        self.store = store
        self.groups = groups
        self.protocol_factory = protocol_factory
        self.interleaving = interleaving
        self.seed = seed
        self.max_attempts = max_attempts
        self.max_concurrent = max_concurrent
        self.fault_spec = fault_spec

    def shard_seed(self, shard_index: int) -> Optional[int]:
        return None if self.seed is None else self.seed + shard_index

    def run_shard(self, shard_index: int) -> ExecutionResult:
        """Run the shard's specs on a copy of its store.

        Any failure is re-raised as :class:`ShardWorkerError`, so in a
        child the typed error (not a context-free traceback) is what
        crosses the process boundary back to the caller.
        """
        seed = self.shard_seed(shard_index)
        try:
            return run_batch(
                self.protocol_factory,
                self.store.shard(shard_index).copy(),
                self.groups[shard_index],
                interleaving=self.interleaving,
                seed=seed,
                max_attempts=self.max_attempts,
                max_concurrent=self.max_concurrent,
                fault_plan=plan_from(self.fault_spec),
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


def _serve(
    batch: _ShardBatch, conn: Connection, stop: Any, share: Sequence[int]
) -> None:
    """A child's whole life: run the shards of ``share``, answering each.

    Each answer, sent down ``conn``, is ``(shard index, result or
    ShardWorkerError, start, duration)``.  A failure raises ``stop``
    before it is sent, so the child starts nothing more.

    gc.freeze: a forked child inherits the caller's whole heap, and
    every full collection of its own would walk it (and dirty its
    copy-on-write pages); frozen, the child collects only what it
    allocates itself (+6% commits/s on the benchmark batch, 8 of 8
    alternating pairs).
    """
    gc.freeze()
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
        caller forks nothing and runs every shard itself.

    Unlike :func:`run_sharded_batch`, which executes protocols directly
    on the caller's shard stores, every shard runs on a copy of its
    store — so the caller's :class:`ShardedDataStore` is **left
    untouched** by a parallel run, also by the shards the caller runs
    itself.  The authoritative post-run state is
    ``result.store_snapshot`` (the same field callers must already use
    for factory-wrapped stores in the serial path).
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
        identical grouping, seeding, fault replay and per-shard results
        — except that a supplied ``metrics`` registry receives the
        *merged* per-shard metrics after the run rather than being
        written to live, and commits land in copies of the shard stores,
        not in ``store`` — read the post-run state from the returned
        ``store_snapshot``.

        A ``tracer`` records **wall-clock spans** around the
        shard-dispatch path — batch build, the set-up before the first
        fork (``shard.pool_start``), each shard's run with whether the
        caller ran it (``shard.run``, timed where it ran), the caller's
        unpickling of each child's answer (``shard.pickle``, with the
        answer's bytes in the span meta) and the per-shard collect, from
        the first fork to the moment the result is in hand — so
        "workers=2 is slower than workers=1" becomes a measured number
        instead of a guess.  Children cannot emit engine events across
        the process boundary, so no engine events are recorded here;
        spans live outside the deterministic event stream (see
        :mod:`repro.obs.trace`).
        """
        import multiprocessing

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
        if "fork" not in multiprocessing.get_all_start_methods():
            # no fork to inherit the batch by: the caller runs every shard
            workers = 1
        workers = max(1, min(workers, len(groups)))
        order = sorted(groups)
        shares = [order[k::workers] for k in range(workers)]
        results = self._run_shares(batch, shares, tracer)
        # shard order, whatever order the processes finished in
        per_shard = {index: results[index] for index in order}

        if metrics is not None:
            for result in per_shard.values():
                if result.metrics is not None:
                    metrics.merge(result.metrics)

        return ShardedExecutionResult.merge(store, per_shard)

    def _run_shares(
        self, batch: _ShardBatch, shares: List[List[int]], tracer: Optional[Tracer]
    ) -> Dict[int, ExecutionResult]:
        """Fork a child for each share after the first; run share 0 here.

        Between its own shards the caller takes in whatever answers are
        ready, so a child is never kept waiting on a full pipe for longer
        than one of the caller's shards.
        """
        import multiprocessing
        import pickle
        from multiprocessing.connection import wait

        pool_started = time.perf_counter()
        stop = multiprocessing.RawValue("b", 0)
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
                    answer = conn.recv_bytes()
                except EOFError:
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
                unpickle_started = time.perf_counter()
                shard_index, outcome, started, duration = pickle.loads(answer)
                if tracer is not None:
                    tracer.span(
                        "shard.pickle",
                        unpickle_started,
                        time.perf_counter() - unpickle_started,
                        meta={"shard": shard_index, "bytes": len(answer)},
                    )
                unanswered.remove(shard_index)
                land(shard_index, outcome, started, duration, in_caller=False)

        try:
            if len(shares) > 1:
                context = multiprocessing.get_context("fork")
                for share in shares[1:]:
                    conn, child_end = context.Pipe(duplex=False)
                    child = context.Process(
                        target=_serve, args=(batch, child_end, stop, share), daemon=True
                    )
                    child.start()
                    # closed before the next fork, so only this child holds
                    # it and its exit is seen as EOF
                    child_end.close()
                    children[conn] = (child, list(share))
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

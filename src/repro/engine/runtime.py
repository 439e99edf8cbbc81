"""The untimed transaction executor.

:class:`TransactionExecutor` runs a batch of
:class:`~repro.engine.operations.TransactionSpec` concurrently (logically
interleaved) under any online protocol, handling blocking, aborting and
restarting, and reports what happened.  It is the engine's workhorse for
correctness testing and for "how many requests had to wait / abort"
counting; the timed view (arrivals, latencies) lives in
:mod:`repro.engine.simulator`.

Session state and the per-step protocol interaction live in the shared
:mod:`repro.engine.kernel`; the executor only decides *which* session
advances next.  The scheduler loop calls
:meth:`EngineKernel.step <repro.engine.kernel.EngineKernel.step>`
itself: it pops the next session id off the run queue's heap, steps the
session, reads the :class:`~repro.engine.kernel.StepKind` it answers
with and hands every abort to
:meth:`TransactionExecutor._retire_attempt` — the single place aborted
attempts, give-ups and restarts are accounted.  Under serial
interleaving the same loop keeps stepping that session until it
finishes.  The loop then requeues the session (finished / cooling /
parked / runnable) by pushing onto the heap itself, so a granted step
costs the kernel's frame and no other Python call.  Interleaving is
controlled by ``interleaving``:

* ``"round-robin"`` — each runnable transaction advances one operation
  per round (the densest fair interleaving);
* ``"random"`` — the next transaction to advance is drawn uniformly using
  the supplied seed (matches the paper's "requests arrive in any order");
* ``"serial"`` — each transaction runs to completion before the next
  starts (the baseline of Section 1).

Scheduling is a :class:`~repro.engine.kernel.RunQueue`: runnable
sessions live in a round-ordered queue, sessions sitting out an abort
backoff live in a cooldown wheel, and a blocked session is parked in the
kernel's wait index and leaves the queue entirely.  It re-enters when
one of its blockers commits or aborts: the step that finished the
blocker lists it in ``kernel.woken``, and the loop enqueues what that
list holds straight after the step, before it requeues the stepped
session.  A block the kernel could not park — an injected stall, or a
BLOCK naming no live blocker — is retried the next round.  One round costs
O(runnable): a run with 1,000 clients where 90% are parked only ever
touches the runnable 10%.

Under ``round-robin`` and ``serial`` interleaving each round drains in
ascending session order; under ``random`` interleaving the next session
is drawn uniformly from the round's runnable set.  Both orders are
deterministic per seed and pinned by digest in ``tests/pins.py``.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.faults import FaultPlan, FaultSpec, plan_from
from repro.engine.kernel import EngineKernel, RunQueue, Session, StepKind
from repro.engine.metrics import Metrics
from repro.engine.operations import TransactionSpec
from repro.engine.protocols.base import ConcurrencyControl
from repro.engine.storage import DataStore, ShardedDataStore
from repro.obs.trace import Tracer


class ExecutionStuck(RuntimeError):
    """Raised if no live transaction can make progress (should not happen)."""


@dataclass
class ExecutionResult:
    """What happened when a batch of transactions was executed."""

    protocol_name: str
    committed: int
    aborted_attempts: int
    restarts: int
    gave_up: int
    operations_issued: int
    blocks: int
    store_snapshot: Dict[str, Any]
    committed_serializable: bool
    per_transaction: Dict[str, Dict[str, int]]
    metrics: Optional[Metrics] = None

    @property
    def total_submitted(self) -> int:
        return self.committed + self.gave_up

    @property
    def abort_rate(self) -> float:
        """Fraction of finished transaction *attempts* that aborted.

        Attempt-level, like :attr:`SimulationReport.abort_rate
        <repro.engine.simulator.SimulationReport.abort_rate>`: a
        transaction restarted ``k`` times contributes ``k`` aborted
        attempts plus (at most) one commit.
        """
        attempts = self.committed + self.aborted_attempts
        return self.aborted_attempts / attempts if attempts else 0.0

    def summary(self) -> str:
        return (
            f"{self.protocol_name}: committed={self.committed} "
            f"restarts={self.restarts} blocks={self.blocks} "
            f"abort_rate={self.abort_rate:.2%} serializable={self.committed_serializable}"
        )


def check_run_arguments(
    interleaving: str, max_attempts: int, max_concurrent: Optional[int]
) -> None:
    """Reject the run arguments no executor can honour, with ``ValueError``.

    Called by :class:`TransactionExecutor` and, before it starts any
    worker, by :class:`~repro.engine.parallel.ParallelShardRunner`.
    """
    if interleaving not in ("round-robin", "random", "serial"):
        raise ValueError("interleaving must be 'round-robin', 'random' or 'serial'")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if max_concurrent is not None and max_concurrent < 1:
        raise ValueError("max_concurrent must be at least 1")


class TransactionExecutor:
    """Run transaction programs concurrently under an online protocol."""

    def __init__(
        self,
        protocol: ConcurrencyControl,
        max_attempts: int = 50,
        interleaving: str = "round-robin",
        seed: Optional[int] = None,
        max_concurrent: Optional[int] = None,
        metrics: Optional[Metrics] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        check_run_arguments(interleaving, max_attempts, max_concurrent)
        self.protocol = protocol
        self.kernel = EngineKernel(
            protocol, metrics=metrics, fault_plan=fault_plan, tracer=tracer
        )
        self.metrics = self.kernel.metrics
        #: the kernel's tracer; the executor owns its logical clock,
        #: advancing ``tracer.now`` to the scheduler round so traced
        #: events carry deterministic round stamps.
        self.tracer = self.kernel.tracer
        self._tracing = self.kernel._tracing
        self.max_attempts = max_attempts
        self.interleaving = interleaving
        #: multiprogramming level: how many transactions may be in flight at
        #: once (None = all submitted transactions run concurrently).
        self.max_concurrent = max_concurrent
        self.rng = random.Random(seed)
        # per-run accounting, reset by run()
        self._aborted_attempts = 0
        self._restarts = 0
        # run-queue state, built by _run_queue()
        self._rq: Optional[RunQueue] = None
        self._run_sessions: List[Session] = []
        self._finished_count = 0
        self._admission_limited = False
        self._live_ids: List[int] = []
        self._unadmitted: deque = deque()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, specs: Sequence[TransactionSpec]) -> ExecutionResult:
        """Execute all specs to completion (commit or giving up) and report."""
        sessions = [
            self.kernel.new_session(spec, session_id=i) for i, spec in enumerate(specs)
        ]
        self._aborted_attempts = 0
        self._restarts = 0
        self._run_queue(sessions)

        per_transaction = {}
        committed = gave_up = operations_issued = blocks = 0
        for s in sessions:
            per_transaction[f"{s.spec.name}#{s.session_id}"] = {
                "attempts": s.attempts,
                "blocks": s.blocks,
                "operations": s.operations_issued,
                "committed": int(s.committed),
            }
            committed += s.committed
            gave_up += s.given_up
            operations_issued += s.operations_issued
            blocks += s.blocks
        return ExecutionResult(
            protocol_name=self.protocol.name,
            committed=committed,
            aborted_attempts=self._aborted_attempts,
            restarts=self._restarts,
            gave_up=gave_up,
            operations_issued=operations_issued,
            blocks=blocks,
            store_snapshot=self.protocol.store.snapshot(),
            committed_serializable=self.protocol.committed_history_serializable(),
            per_transaction=per_transaction,
            metrics=self.metrics,
        )

    # ------------------------------------------------------------------
    # the scheduler loop: one round costs O(runnable)
    # ------------------------------------------------------------------
    def _run_queue(self, sessions: List[Session]) -> None:
        rq = self._rq = RunQueue()
        self._run_sessions = sessions
        self._finished_count = 0
        total = len(sessions)
        limit = self.max_concurrent
        if limit is None or limit >= total:
            self._live_ids = []
            self._unadmitted = deque()
            self._admission_limited = False
            for session in sessions:
                rq.push_next(session.session_id)
        else:
            # admission control: each round admits the first
            # ``max_concurrent`` *live* sessions, i.e. the sessions whose
            # ids are at or below the limit-th smallest live id.  Admission
            # is monotone (live ids only leave), so non-admitted sessions
            # wait in creation order and are released as earlier sessions
            # finish.
            self._live_ids = [session.session_id for session in sessions]
            self._admission_limited = True
            for session in sessions[:limit]:
                rq.push_next(session.session_id)
            self._unadmitted = deque(
                session.session_id for session in sessions[limit:]
            )

        random_mode = self.interleaving == "random"
        serial = self.interleaving == "serial"
        tracing = self._tracing
        step = self.kernel.step
        woken = self.kernel.woken
        retire = self._retire_attempt
        rng = self.rng
        blocked = StepKind.BLOCKED
        aborted = StepKind.ABORTED
        while self._finished_count < total:
            if not rq.advance():
                # nothing runnable, nothing cooling, and no wake can come:
                # every remaining session is parked on a peer that will
                # never resolve
                raise ExecutionStuck(
                    f"no progress with {total - self._finished_count} live "
                    f"transactions under {self.protocol.name}"
                )
            if tracing:
                self.tracer.now = rq.round
            for session_id in rq.expired_cooldowns():
                session = sessions[session_id]
                session.cooldown = 0
                # a session can sit out a backoff while *also* parked in
                # the wait index (serial interleaving restarts drive on
                # through the cooldown); its wake owns its re-entry then
                if not session.finished and not session.waiting_on:
                    rq.push_current(session_id)
            # a wake makes its session runnable, so it counts as
            # progress for the stuck detector
            progressed = woke = False
            # advance() swapped the heaps: bind this round's pair now
            current = rq.current
            next_round = rq.next_round
            bucket = rq.drain_current() if random_mode else None
            while True:
                if random_mode:
                    if not bucket:
                        break
                    index = rng.randrange(len(bucket))
                    session_id = bucket[index]
                    last = len(bucket) - 1
                    if index != last:
                        bucket[index] = bucket[last]
                    del bucket[last]
                elif current:
                    session_id = rq.cursor = heappop(current)
                else:
                    break
                session = sessions[session_id]
                first = True
                while True:
                    kind = step(session)
                    if woken:
                        woke = True
                        self._enqueue_woken(woken)
                    # every step but a genuine BLOCK moved: an injected
                    # stall is itself an event (the plan advanced), so it
                    # counts as progress — otherwise a round in which
                    # every live session drew a stall would trip the
                    # stuck detector
                    moved = kind is not blocked
                    if kind is aborted:
                        retire(session)
                    if not serial:
                        break
                    # serial: keep stepping the same transaction until it
                    # finishes or a step after the first one gets nowhere
                    if session.committed or session.given_up or not (first or moved):
                        moved = True
                        break
                    first = False
                if moved:
                    progressed = True
                # requeue the session where it now belongs
                if session.committed or session.given_up:
                    self._note_finished(session)
                elif session.cooldown > 0:
                    rq.schedule_cooldown(session_id, session.cooldown)
                elif not session.waiting_on:
                    # runnable again next round: granted work, or a block
                    # the kernel could not park (no live blockers named, or
                    # an injected stall).  A session parked in the wait
                    # index is *not* requeued: its wake is its only way
                    # back — this is the O(runnable) win
                    heappush(next_round, session_id)
            if (
                not progressed
                and not woke
                and not rq.cooling
                and self._finished_count < total
            ):
                raise ExecutionStuck(
                    f"no progress with {total - self._finished_count} live "
                    f"transactions under {self.protocol.name}"
                )

    def _note_finished(self, session: Session) -> None:
        self._finished_count += 1
        if not self._admission_limited:
            return
        ids = self._live_ids
        index = bisect_left(ids, session.session_id)
        if index < len(ids) and ids[index] == session.session_id:
            del ids[index]
        limit = self.max_concurrent
        while self._unadmitted:
            if len(ids) >= limit and self._unadmitted[0] > ids[limit - 1]:
                break
            # newly admitted sessions join from the next round on: the
            # admitted prefix is recomputed once per round
            self._rq.push_next(self._unadmitted.popleft())

    def _enqueue_woken(self, woken: List[Session]) -> None:
        """Enqueue the sessions a kernel step woke, in wake order, and
        empty the kernel's list."""
        rq = self._rq
        random_mode = self.interleaving == "random"
        for session in woken:
            if session.committed or session.given_up or session.cooldown > 0:
                # the cooldown wheel owns a cooling session's re-entry
                continue
            if random_mode:
                rq.push_next(session.session_id)
            else:
                # ascending drain order lets the queue tell whether this
                # session is still due in the current round
                rq.push_wake(session.session_id)
        woken.clear()

    def _retire_attempt(self, session: Session) -> None:
        """Account one aborted attempt: give up or restart with backoff."""
        self._aborted_attempts += 1
        if session.attempts >= self.max_attempts:
            session.given_up = True
        else:
            self._restarts += 1
            self.kernel.restart(session)


def run_batch(
    protocol_factory,
    store: DataStore,
    specs: Sequence[TransactionSpec],
    interleaving: str = "round-robin",
    seed: Optional[int] = None,
    max_attempts: int = 50,
    max_concurrent: Optional[int] = None,
    fault_plan: Optional[FaultPlan] = None,
    metrics: Optional[Metrics] = None,
    tracer: Optional[Tracer] = None,
) -> ExecutionResult:
    """Convenience helper: build the protocol on ``store`` and run the batch."""
    protocol = protocol_factory(store)
    executor = TransactionExecutor(
        protocol,
        max_attempts=max_attempts,
        interleaving=interleaving,
        seed=seed,
        max_concurrent=max_concurrent,
        fault_plan=fault_plan,
        metrics=metrics,
        tracer=tracer,
    )
    return executor.run(specs)


# ----------------------------------------------------------------------
# sharded execution: one protocol instance per conflict domain
# ----------------------------------------------------------------------


@dataclass
class ShardedExecutionResult:
    """Aggregate of per-shard executions over a :class:`ShardedDataStore`."""

    per_shard: Dict[int, ExecutionResult]
    store_snapshot: Dict[str, Any]

    @property
    def committed(self) -> int:
        return sum(r.committed for r in self.per_shard.values())

    @property
    def aborted_attempts(self) -> int:
        return sum(r.aborted_attempts for r in self.per_shard.values())

    @property
    def restarts(self) -> int:
        return sum(r.restarts for r in self.per_shard.values())

    @property
    def blocks(self) -> int:
        return sum(r.blocks for r in self.per_shard.values())

    @property
    def gave_up(self) -> int:
        return sum(r.gave_up for r in self.per_shard.values())

    @property
    def operations_issued(self) -> int:
        return sum(r.operations_issued for r in self.per_shard.values())

    @property
    def abort_rate(self) -> float:
        """Attempt-level abort rate across all shards.

        Same semantics as :attr:`ExecutionResult.abort_rate`: aborted
        attempts over finished attempts (commits + aborted attempts),
        aggregated over the shard results.
        """
        attempts = self.committed + self.aborted_attempts
        return self.aborted_attempts / attempts if attempts else 0.0

    @property
    def committed_serializable(self) -> bool:
        return all(r.committed_serializable for r in self.per_shard.values())

    def merged_metrics(self) -> Metrics:
        merged = Metrics()
        seen: List[int] = []
        for result in self.per_shard.values():
            if result.metrics is None:
                continue
            if id(result.metrics) in seen:
                # shards executed against one shared registry (the
                # caller passed ``metrics=`` to run_sharded_batch):
                # merging it once per shard would multiply every counter
                continue
            seen.append(id(result.metrics))
            merged.merge(result.metrics)
        return merged

    @classmethod
    def merge(
        cls, store: ShardedDataStore, per_shard: Dict[int, "ExecutionResult"]
    ) -> "ShardedExecutionResult":
        """Assemble the aggregate, overlaying shard results on the store.

        Committed values are reported from the protocols' own stores: a
        factory may wrap a shard (multi-version protocols over plain
        shards via ``ensure_multiversion``), in which case the caller's
        store never sees the commits — the overlay keeps untouched
        shards' keys while preferring what actually ran.  Shared by the
        serial and process-parallel sharded runners so their snapshot
        semantics cannot drift.
        """
        merged_snapshot = store.snapshot()
        for result in per_shard.values():
            merged_snapshot.update(result.store_snapshot)
        return cls(per_shard=per_shard, store_snapshot=merged_snapshot)


def run_sharded_batch(
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
    """Execute a batch with one protocol instance per shard.

    Each shard of a :class:`~repro.engine.storage.ShardedDataStore` is an
    independent conflict domain: transactions confined to one shard never
    conflict with transactions on another, so each shard gets its own
    protocol instance over its own sub-store and the shards execute
    independently.  A spec whose footprint spans shards is rejected —
    cross-shard transactions would need a commit coordinator, which the
    single-scheduler model of the paper deliberately excludes.

    ``fault_spec`` and ``metrics`` reach every shard.  Each shard
    replays a fresh :class:`FaultPlan` built from ``fault_spec``: shards
    are independent conflict domains executed in isolation, so each
    replays the deterministic injection stream from the start of the
    spec — the definition the process-parallel runner also uses (a
    stateful plan cannot be shared across processes), which keeps
    serial and parallel sharded runs identical per shard.  A supplied
    metrics registry is shared by all shard executors so kernel and
    protocol counters land in one report.  For true multi-core
    execution of the same shard batches, see
    :class:`repro.engine.parallel.ParallelShardRunner`.
    """
    groups = store.group_specs(specs)

    per_shard: Dict[int, ExecutionResult] = {}
    for shard_index in sorted(groups):
        shard_seed = None if seed is None else seed + shard_index
        per_shard[shard_index] = run_batch(
            protocol_factory,
            store.shard(shard_index),
            groups[shard_index],
            interleaving=interleaving,
            seed=shard_seed,
            max_attempts=max_attempts,
            max_concurrent=max_concurrent,
            fault_plan=plan_from(fault_spec),
            metrics=metrics,
            tracer=tracer,
        )
    return ShardedExecutionResult.merge(store, per_shard)

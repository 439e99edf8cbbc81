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
itself: it pops the next session id off the run queue, steps the
session, reads the :class:`~repro.engine.kernel.StepKind` it answers
with and hands every abort to
:meth:`TransactionExecutor._retire_attempt` — the single place aborted
attempts, give-ups and restarts are accounted.  Under serial
interleaving the same loop keeps stepping that session until it
finishes.  The loop then requeues the session (finished / cooling /
parked / runnable) by pushing onto the queue itself, so a granted step
costs the kernel's frame and no other Python call.  Interleaving is
controlled by ``interleaving``:

* ``"round-robin"`` — each runnable transaction advances one operation
  per round (the densest fair interleaving);
* ``"random"`` — the next transaction to advance is drawn uniformly using
  the supplied seed (matches the paper's "requests arrive in any order");
* ``"serial"`` — each transaction runs to completion before the next
  starts (the baseline of Section 1).

The run queue is one min-heap of integer keys ``round * N +
session_id`` over the batch's N sessions — the simulator's
``(time, seq, client)`` event heap with integer rounds for time.  A
runnable session is filed under the next round, a session sitting out
an abort backoff of ``c`` rounds under the round ``c + 1`` ahead (the
pop of that key is the backoff's expiry), and a blocked session is
parked in the kernel's wait index and leaves the queue entirely.  It
re-enters when one of its blockers commits or aborts: the step that
finished the blocker lists it in ``kernel.woken``, and the loop files
what that list holds straight after the step, before it requeues the
stepped session — in the current round when its id is above the last
one popped, in the next round otherwise.  A block the kernel could not
park — an injected stall, or a BLOCK naming no live blocker — is
retried the next round.  A round ends where the heap's head reaches the
next round's base, and rounds no key names are never visited, so one
round costs O(runnable): a run with 1,000 clients where 90% are parked
only ever touches the runnable 10%.

Under ``round-robin`` and ``serial`` interleaving each round drains in
ascending session order; under ``random`` interleaving the round is
popped whole when it starts and the next session is drawn uniformly
from it, so every wake joins the next round.  Both orders are
deterministic per seed and pinned by digest in ``tests/pins.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence

from repro.engine.faults import FaultPlan, FaultSpec, plan_from
from repro.engine.kernel import EngineKernel, Session, StepKind
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
        total = len(sessions)
        # the run queue is one min-heap of keys ``round * total +
        # session_id``: a round pops in ascending id order and ends where
        # the head reaches the next round's base, and the head names the
        # next round that holds a session, so empty rounds cost nothing.
        # Admission control starts only the first ``max_concurrent``
        # sessions; each finish admits the next id from the following
        # round, so the admitted sessions stay the smallest live ids.
        limit = self.max_concurrent
        admitted = total if limit is None else min(limit, total)
        heap = list(range(total, total + admitted))  # round 1, sorted
        random_mode = self.interleaving == "random"
        serial = self.interleaving == "serial"
        tracing = self._tracing
        step = self.kernel.step
        woken = self.kernel.woken
        retire = self._retire_attempt
        rng = self.rng
        blocked = StepKind.BLOCKED
        aborted = StepKind.ABORTED
        finished = cooling = 0
        progressed = True
        while finished < total:
            if not heap or not (progressed or cooling):
                # nothing queued, or a round in which no session moved or
                # woke and none is cooling: every remaining session is
                # parked on a peer that will never resolve
                raise ExecutionStuck(
                    f"no progress with {total - finished} live "
                    f"transactions under {self.protocol.name}"
                )
            round_ = heap[0] // total
            base = round_ * total
            end = base + total
            if tracing:
                self.tracer.now = round_
            # a wake counts as progress: it makes its session runnable
            progressed = False
            # a wake joins this round when its id is above the last id
            # popped (it is still due) and the next round otherwise.
            # Under random interleaving the round is popped whole into
            # ``bucket`` before the first draw, so every wake and requeue
            # lands in a later round and the bucket is the round's own.
            cursor = total if random_mode else -1
            bucket: List[int] = []
            while True:
                if heap and heap[0] < end:
                    session_id = heappop(heap) - base
                    session = sessions[session_id]
                    if session.cooldown:
                        # the only entry of a cooling session is its
                        # expiry.  It can sit out a backoff while *also*
                        # parked in the wait index (serial interleaving
                        # drives a restart on through its cooldown); its
                        # wake owns its re-entry then
                        session.cooldown = 0
                        cooling -= 1
                        if session.committed or session.given_up or session.waiting_on:
                            continue
                    if random_mode:
                        bucket.append(session_id)
                        continue
                    cursor = session_id
                elif bucket:
                    index = rng.randrange(len(bucket))
                    session_id = bucket[index]
                    last = len(bucket) - 1
                    if index != last:
                        bucket[index] = bucket[last]
                    del bucket[last]
                    session = sessions[session_id]
                else:
                    break
                first = True
                while True:
                    kind = step(session)
                    if woken:
                        progressed = True
                        for other in woken:
                            # a cooling session's expiry entry owns its
                            # re-entry
                            if not (other.committed or other.given_up or other.cooldown):
                                other_id = other.session_id
                                heappush(heap, (base if other_id > cursor else end) + other_id)
                        woken.clear()
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
                    finished += 1
                    if admitted < total:
                        heappush(heap, end + admitted)
                        admitted += 1
                elif session.cooldown:
                    # aborted in round R with cooldown c: sits out rounds
                    # R+1 .. R+c and steps again in R+c+1
                    cooling += 1
                    heappush(heap, end + session.cooldown * total + session_id)
                elif not session.waiting_on:
                    # runnable again next round: granted work, or a block
                    # the kernel could not park (no live blockers named, or
                    # an injected stall).  A session parked in the wait
                    # index is *not* requeued: its wake is its only way
                    # back — this is the O(runnable) win
                    heappush(heap, end + session_id)

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


class ShardedExecutionResult:
    """Aggregate of per-shard executions over a :class:`ShardedDataStore`."""

    __slots__ = ("per_shard", "store_snapshot")

    def __init__(
        self, per_shard: Dict[int, ExecutionResult], store_snapshot: Dict[str, Any]
    ) -> None:
        self.per_shard = per_shard
        self.store_snapshot = store_snapshot

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

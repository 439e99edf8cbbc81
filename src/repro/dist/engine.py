"""The distributed front end: build the topology, run a batch, report.

:func:`run_distributed_batch` is the distributed sibling of
:func:`repro.engine.runtime.run_batch`: hand it initial data, a list of
(possibly cross-shard) :class:`~repro.engine.operations.TransactionSpec`
programs and a fault configuration, and it assembles the simulated
network, one :class:`~repro.dist.tpc.ShardParticipant` per shard and the
:class:`~repro.dist.tpc.TwoPhaseCommitCoordinator`, drives the run to
quiescence in virtual time, and returns a
:class:`DistributedRunReport`.

The **client** lives in this module too: it is co-located with the
coordinator (completion callbacks are a local function call, not a
network message — the faulty network sits only between coordinator and
shards), resubmits aborted or shed transactions after a retry delay, up
to ``client_max_attempts`` per program, and records every attempt's
outcome and taxonomy code for the oracles.

Everything in the report is derived from virtual-time state, so
:meth:`DistributedRunReport.digest` is byte-stable across reruns of the
same seed — the property the chaos-soak CI job pins.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.dist.network import LatencyModel, SimulatedNetwork
from repro.dist.recovery import ABORT, COMMIT, CrashSpec, RECORD_DECISION, crash_plan_from
from repro.dist.tpc import (
    CLIENT_RETRY_DELAY,
    ShardParticipant,
    TpcConfig,
    TwoPhaseCommitCoordinator,
)
from repro.engine.faults import NetworkFaultSpec, network_plan_from
from repro.engine.metrics import CounterHandles, Metrics
from repro.engine.operations import TransactionSpec
from repro.engine.storage import ShardedDataStore
from repro.obs.trace import Tracer

if TYPE_CHECKING:
    from repro.dist.paxos import ReplicationConfig
    from repro.dist.replication import ChaosController, ReplicaCrashSpec, ReplicaGroup


#: histories or commits per encoder call in :meth:`DistributedRunReport.digest`
DIGEST_CHUNK = 256


class AttemptRecord:
    """One client-visible attempt of one submitted program."""

    __slots__ = ("spec_index", "attempt", "txn_id", "outcome", "code", "reason")

    def __init__(
        self,
        spec_index: int,
        attempt: int,
        txn_id: Optional[int],
        outcome: str,
        code: Optional[str],
        reason: str,
    ) -> None:
        self.spec_index = spec_index
        self.attempt = attempt
        self.txn_id = txn_id
        self.outcome = outcome
        self.code = code
        self.reason = reason

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec_index,
            "attempt": self.attempt,
            "txn": self.txn_id,
            "outcome": self.outcome,
            "code": self.code,
            "reason": self.reason,
        }

    def __repr__(self) -> str:
        return (
            f"AttemptRecord(spec={self.spec_index}, attempt={self.attempt}, "
            f"txn={self.txn_id}, {self.outcome!r}, code={self.code!r})"
        )


class DistributedRunReport:
    """Everything the oracles and tests need to judge one run.

    Attributes
    ----------
    attempts:
        Per original spec, the ordered list of :class:`AttemptRecord`
        (client retries append).
    committed:
        ``(txn_id, {key: value})`` in **decision-log order** — the
        commit serialization order, with each transaction's full
        cross-shard write set stitched back together from the
        participants' applied-write journals.
    final_snapshot:
        The merged committed state of every shard at quiescence.
    participants:
        Name → the live :class:`ShardParticipant`, or in a replicated
        run the shard's :class:`~repro.dist.replication.ReplicaGroup`;
        either way ``.state`` is the shard's :class:`~repro.dist.tpc.
        ParticipantState` (locks, outcomes, applied writes, store).
    groups:
        Logical shard name → :class:`~repro.dist.replication.
        ReplicaGroup` when the run was replicated (empty otherwise);
        the replication oracles' raw material.
    """

    def __init__(
        self,
        attempts: List[List[AttemptRecord]],
        committed: List[Tuple[int, Dict[str, Any]]],
        final_snapshot: Dict[str, Any],
        participants: Dict[str, ShardParticipant],
        coordinator: TwoPhaseCommitCoordinator,
        metrics: Metrics,
        virtual_end: float,
        events_dispatched: int,
        groups: Optional[Dict[str, ReplicaGroup]] = None,
    ) -> None:
        self.attempts = attempts
        self.committed = committed
        self.final_snapshot = final_snapshot
        self.participants = participants
        self.coordinator = coordinator
        self.metrics = metrics
        self.virtual_end = virtual_end
        self.events_dispatched = events_dispatched
        self.groups = groups if groups is not None else {}

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def outcome_of(self, spec_index: int) -> str:
        """The program's final outcome: its last attempt's."""
        history = self.attempts[spec_index]
        return history[-1].outcome if history else ABORT

    @property
    def commit_count(self) -> int:
        return sum(1 for i in range(len(self.attempts)) if self.outcome_of(i) == COMMIT)

    @property
    def abort_records(self) -> List[AttemptRecord]:
        """Every aborted attempt across all programs (taxonomy oracle)."""
        return [
            record
            for history in self.attempts
            for record in history
            if record.outcome == ABORT
        ]

    def digest(self) -> str:
        """A replay-stable fingerprint of the run's observable behaviour.

        The sha256 of one JSON document, ``{"attempts": [...],
        "committed": [...], "snapshot": {...}, "virtual_end": t}`` with
        sorted keys and no spaces.  The two long arrays are encoded
        :data:`DIGEST_CHUNK` entries at a time and fed to the hash slice
        by slice, so the document is never held whole.
        """
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        sha = hashlib.sha256()

        def feed(text: str) -> None:
            sha.update(text.encode("utf-8"))

        def feed_array(rows: Sequence[Any], as_json: Callable[[Any], Any]) -> None:
            feed("[")
            for start in range(0, len(rows), DIGEST_CHUNK):
                if start:
                    feed(",")
                chunk = [as_json(row) for row in rows[start : start + DIGEST_CHUNK]]
                feed(encode(chunk)[1:-1])
            feed("]")

        feed('{"attempts":')
        feed_array(self.attempts, lambda history: [record.to_dict() for record in history])
        # a (txn_id, writes) pair encodes as the array [txn_id, {sorted writes}]
        feed(',"committed":')
        feed_array(self.committed, lambda commit: commit)
        feed(',"snapshot":' + encode(self.final_snapshot))
        feed(',"virtual_end":' + encode(round(self.virtual_end, 9)) + "}")
        return sha.hexdigest()


class _Client:
    """The co-located client node: submits, observes, retries."""

    name = "client"
    accepting_messages = True
    accepting_timers = True

    def __init__(
        self,
        network: SimulatedNetwork,
        coordinator: TwoPhaseCommitCoordinator,
        specs: Sequence[TransactionSpec],
        config: TpcConfig,
        metrics: Metrics,
    ) -> None:
        self.network = network
        self.coordinator = coordinator
        self.specs = list(specs)
        self.config = config
        self._counters = CounterHandles(metrics, "dist.client_retries")
        #: submission index → (spec position, attempt number)
        self._submissions: Dict[int, Tuple[int, int]] = {}
        self.attempts: List[List[AttemptRecord]] = [[] for _ in specs]
        #: spec positions whose final outcome is not yet known (a program
        #: with a scheduled retry is unsettled even while the coordinator
        #: holds nothing for it — the replicated run loop polls this)
        self.unsettled: Set[int] = set(range(len(self.specs)))

    def submit_all(self) -> None:
        for position, spec in enumerate(self.specs):
            self._submit(position, 1)

    def _submit(self, position: int, attempt: int) -> None:
        # Register the submission BEFORE handing it to the coordinator:
        # submit() may complete synchronously (load shedding under a
        # degraded shard calls on_complete re-entrantly), and an
        # unregistered index would silently drop that attempt, leaving
        # the program unsettled forever.
        index = self.coordinator._next_index
        self._submissions[index] = (position, attempt)
        submitted = self.coordinator.submit(self.specs[position])
        if submitted != index:  # pragma: no cover - defensive
            raise RuntimeError("coordinator submission index drifted")

    def on_complete(
        self,
        txn_id: Optional[int],
        index: Optional[int],
        outcome: str,
        code: Optional[str],
        reason: str,
    ) -> None:
        if index is None or index not in self._submissions:
            # a recovered transaction whose begin record predates index
            # logging, or a duplicate — nothing to route
            return
        position, attempt = self._submissions[index]
        self.attempts[position].append(
            AttemptRecord(position, attempt, txn_id, outcome, code, reason)
        )
        if outcome != ABORT or attempt >= self.config.client_max_attempts:
            self.unsettled.discard(position)
        if outcome == ABORT and attempt < self.config.client_max_attempts:
            self._counters.client_retries.value += 1
            # stagger retries deterministically by client slot: rivals
            # aborted by the same conflict would otherwise resubmit at
            # the same virtual instant and recreate the collision every
            # round (the synchronized-retry livelock)
            delay = CLIENT_RETRY_DELAY * (
                1.0 + 0.25 * (position % 7) + 0.5 * (attempt - 1)
            )
            self.network.set_timer(
                self.name,
                delay,
                "client-retry",
                {"position": position, "attempt": attempt + 1},
            )

    def on_message(self, now: float, message: Any) -> None:
        raise ValueError("the client exchanges no network messages")

    def on_timer(self, now: float, kind: str, payload: Dict[str, Any]) -> None:
        if kind != "client-retry":
            raise ValueError(f"client: unknown timer kind {kind!r}")
        self._submit(payload["position"], payload["attempt"])


class DistributedEngine:
    """Topology assembly: network + shards + coordinator + client.

    With ``replicas >= 2`` each logical shard becomes a
    :class:`~repro.dist.replication.ReplicaGroup` of
    :class:`~repro.dist.replication.ReplicatedParticipant` nodes named
    ``shard{i}.r{j}``; the coordinator routes by logical shard name
    through its replica map, and ``replica_crashes`` feed the group's
    crash plan (transition-triggered leader crashes) and the timed
    :class:`~repro.dist.replication.ChaosController`.
    """

    def __init__(
        self,
        initial_data: Dict[str, Any],
        num_shards: int = 2,
        shard_of: Optional[Callable[[str], int]] = None,
        config: Optional[TpcConfig] = None,
        latency: Optional[LatencyModel] = None,
        network_faults: Optional[NetworkFaultSpec] = None,
        crash_specs: Sequence[CrashSpec] = (),
        seed: int = 0,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
        replicas: int = 1,
        replication: Optional[ReplicationConfig] = None,
        replica_crashes: Sequence[ReplicaCrashSpec] = (),
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas!r}")
        self.config = config if config is not None else TpcConfig()
        self.metrics = metrics if metrics is not None else Metrics()
        self.sharded = ShardedDataStore(
            initial_data, num_shards=num_shards, shard_of=shard_of
        )
        fault_plan = (
            network_plan_from(network_faults) if network_faults is not None else None
        )
        self.network = SimulatedNetwork(
            latency=latency,
            seed=seed,
            fault_plan=fault_plan,
            metrics=self.metrics,
            tracer=tracer,
        )
        # the chaos horizon: quiescence cannot be declared while a
        # partition window is still open (traffic would look quiet only
        # because it is being severed)
        self._fault_horizon = 0.0
        if network_faults is not None:
            for window in network_faults.partitions:
                self._fault_horizon = max(self._fault_horizon, window.end)
        shard_names = tuple(f"shard{i}" for i in range(num_shards))
        self.groups: Dict[str, ReplicaGroup] = {}
        self.chaos: Optional[ChaosController] = None
        replica_map: Optional[Dict[str, Sequence[str]]] = None
        if replicas == 1:
            if replica_crashes:
                raise ValueError("replica_crashes requires replicas >= 2")
            self.participants: Dict[str, Any] = {}
            for i, name in enumerate(shard_names):
                participant = ShardParticipant(
                    name, self.sharded.shard(i), self.network, self.metrics
                )
                self.network.register(participant)
                self.participants[name] = participant
        else:
            # a flat run never loads the consensus layer
            from repro.dist.paxos import ReplicationConfig
            from repro.dist.replication import (
                ChaosController,
                ReplicaCrashPlan,
                ReplicaGroup,
                ReplicatedParticipant,
                replica_seed,
            )

            repl_config = replication if replication is not None else ReplicationConfig()
            crash_plan = ReplicaCrashPlan(replica_crashes)
            replica_map = {}
            for i, name in enumerate(shard_names):
                members = [f"{name}.r{j}" for j in range(replicas)]
                shard_initial = self.sharded.shard(i).snapshot()
                group_replicas = []
                for j, member in enumerate(members):
                    rep = ReplicatedParticipant(
                        member,
                        shard=name,
                        peers=members,
                        initial_data=shard_initial,
                        network=self.network,
                        config=repl_config,
                        seed=replica_seed(seed, i, j),
                        crash_plan=crash_plan,
                        metrics=self.metrics,
                        tracer=tracer,
                    )
                    self.network.register(rep)
                    group_replicas.append(rep)
                self.groups[name] = ReplicaGroup(name, group_replicas)
                replica_map[name] = members
            # the oracle view: logical shard name → the group, whose
            # ``.state`` is its authoritative replica's
            self.participants = dict(self.groups)
            self.chaos = ChaosController(self.network, self.groups, crash_plan.timed)
            self.network.register(self.chaos)
        sharded = self.sharded
        # key → shard name for the run; the range check in
        # ShardedDataStore.shard_of runs on a key's first lookup
        shard_name_memo: Dict[str, str] = {}

        def shard_name_of(key: str) -> str:
            name = shard_name_memo.get(key)
            if name is None:
                name = shard_name_memo[key] = shard_names[sharded.shard_of(key)]
            return name

        self.coordinator = TwoPhaseCommitCoordinator(
            self.network,
            shard_name_of,
            shard_names,
            config=self.config,
            crash_plan=crash_plan_from(crash_specs),
            metrics=self.metrics,
            tracer=tracer,
            replica_map=replica_map,
        )
        self.network.register(self.coordinator)

    def run(
        self, specs: Sequence[TransactionSpec], max_events: int = 1_000_000
    ) -> DistributedRunReport:
        """Submit every program and run the network to quiescence, once.

        The run ends by dropping the references back up the topology, so
        reference counting frees the engine with its report."""
        client = _Client(
            self.network, self.coordinator, specs, self.config, self.metrics
        )
        self.network.register(client)
        self.coordinator.on_complete = client.on_complete
        try:
            client.submit_all()
            if not self.groups:
                dispatched = self.network.run(max_events=max_events)
            else:
                dispatched = self._run_replicated(client, max_events)
        finally:
            self.coordinator.on_complete = None
            self.network.detach()
        committed = self._committed_in_decision_order()
        return DistributedRunReport(
            attempts=client.attempts,
            committed=committed,
            final_snapshot=self._final_snapshot(),
            participants=self.participants,
            coordinator=self.coordinator,
            metrics=self.metrics,
            virtual_end=self.network.now,
            events_dispatched=dispatched,
            groups=self.groups,
        )

    #: virtual-time slice per replicated run step — coarse enough that a
    #: step makes protocol progress, fine enough that quiescence is
    #: detected promptly after the last decision lands
    _CHUNK = 40.0
    _MAX_CHUNKS = 2_000

    def _run_replicated(self, client: _Client, max_events: int) -> int:
        """Drive a replicated topology to quiescence.

        A replica group is never heap-idle — heartbeats and election
        timers re-arm forever — so the unreplicated ``run()``-to-empty
        loop would spin. Instead the network runs in fixed virtual-time
        chunks and stops once the *protocol* is quiescent: every client
        program settled, the coordinator empty, all chaos spent, and
        every group converged with nothing in doubt.  Chunk boundaries
        are a pure function of event times, so the chunked loop is as
        deterministic as the heap itself.
        """
        dispatched = 0
        for _ in range(self._MAX_CHUNKS):
            # the livelock guard covers the whole run, not each chunk
            dispatched += self.network.run(
                until=self.network.now + self._CHUNK,
                max_events=max_events - dispatched,
            )
            if self._replication_quiescent(client):
                return dispatched
        raise RuntimeError(
            f"replicated run did not reach quiescence within "
            f"{self._MAX_CHUNKS} chunks (t={self.network.now:g}); "
            f"unsettled={sorted(client.unsettled)} "
            f"in_flight={self.coordinator.in_flight}"
        )

    def _replication_quiescent(self, client: _Client) -> bool:
        if self.network.now < self._fault_horizon:
            return False
        if self.chaos is not None and self.chaos.pending > 0:
            return False
        if client.unsettled:
            return False
        if not self.coordinator.accepting_messages:
            return False
        if self.coordinator.in_flight or self.coordinator._backlog:
            return False
        return all(group.quiescent() for group in self.groups.values())

    def _final_snapshot(self) -> Dict[str, Any]:
        snapshot: Dict[str, Any] = {}
        for name in sorted(self.participants):
            snapshot.update(self.participants[name].state.store.snapshot())
        return snapshot

    def _committed_in_decision_order(self) -> List[Tuple[int, Dict[str, Any]]]:
        """Stitch each committed write set back from the participants.

        The decision log's COMMIT records give the serialization order
        (the order validations passed); the participants' applied-write
        journals supply each transaction's per-shard slice.
        """
        order = [
            record.txn_id
            for record in self.coordinator.log.records
            if record.kind == RECORD_DECISION and record.outcome == COMMIT
        ]
        committed: List[Tuple[int, Dict[str, Any]]] = []
        for txn_id in order:
            writes: Dict[str, Any] = {}
            for name in sorted(self.participants):
                writes.update(self.participants[name].state.applied_writes.get(txn_id, {}))
            committed.append((txn_id, writes))
        return committed


def run_distributed_batch(
    initial_data: Dict[str, Any],
    specs: Sequence[TransactionSpec],
    num_shards: int = 2,
    shard_of: Optional[Callable[[str], int]] = None,
    config: Optional[TpcConfig] = None,
    latency: Optional[LatencyModel] = None,
    network_faults: Optional[NetworkFaultSpec] = None,
    crash_specs: Sequence[CrashSpec] = (),
    seed: int = 0,
    metrics: Optional[Metrics] = None,
    tracer: Optional[Tracer] = None,
    max_events: int = 1_000_000,
    replicas: int = 1,
    replication: Optional[ReplicationConfig] = None,
    replica_crashes: Sequence[ReplicaCrashSpec] = (),
) -> DistributedRunReport:
    """One-call distributed run: assemble, submit, drain, report."""
    engine = DistributedEngine(
        initial_data,
        num_shards=num_shards,
        shard_of=shard_of,
        config=config,
        latency=latency,
        network_faults=network_faults,
        crash_specs=crash_specs,
        seed=seed,
        metrics=metrics,
        tracer=tracer,
        replicas=replicas,
        replication=replication,
        replica_crashes=replica_crashes,
    )
    return engine.run(specs, max_events=max_events)

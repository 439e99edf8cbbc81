"""Distributed transactions: cross-shard 2PC over a simulated network.

The package splits along the same seams as the single-node engine:

* :mod:`repro.dist.network` — the deterministic virtual-time network
  (latency, seeded loss/duplication, partition windows, timers);
* :mod:`repro.dist.tpc` — the presumed-abort two-phase-commit
  coordinator and the participant: one ``ParticipantState`` (distributed
  OCC validation, prepare locks, votes, apply) with two drivers — the
  unreplicated shard applies each command on receipt;
* :mod:`repro.dist.recovery` — the write-ahead decision log and
  deterministic coordinator crash injection;
* :mod:`repro.dist.paxos` — multi-decree consensus with leader leases
  (elections, log replication with quorum acks, catch-up);
* :mod:`repro.dist.replication` — the second driver: the same state
  machine applied when a replica group's log (one group per shard) has
  chosen the command, plus replica-level crash injection;
* :mod:`repro.dist.engine` — the front end assembling a topology,
  running a batch of cross-shard programs and reporting.
"""

from repro.dist.engine import (
    AttemptRecord,
    DistributedEngine,
    DistributedRunReport,
    run_distributed_batch,
)
from repro.dist.network import LatencyModel, Message, SimulatedNetwork
from repro.dist.paxos import (
    CANDIDATE,
    FOLLOWER,
    LEADER,
    PaxosReplica,
    ReplicationConfig,
)
from repro.dist.replication import (
    REPL_CRASH_POINTS,
    ChaosController,
    ReplicaCrashPlan,
    ReplicaCrashSpec,
    ReplicaGroup,
    ReplicatedParticipant,
    replica_seed,
)
from repro.dist.recovery import (
    ABORT,
    AFTER_DECISION,
    AFTER_VOTES,
    BEFORE_PREPARE,
    COMMIT,
    CRASH_POINTS,
    CrashPlan,
    CrashSpec,
    DecisionLog,
    LogRecord,
    MID_BROADCAST,
    crash_plan_from,
)
from repro.dist.tpc import (
    COORDINATOR,
    ParticipantState,
    ShardParticipant,
    TpcConfig,
    TwoPhaseCommitCoordinator,
)

__all__ = [
    "ABORT",
    "AFTER_DECISION",
    "AFTER_VOTES",
    "AttemptRecord",
    "BEFORE_PREPARE",
    "CANDIDATE",
    "COMMIT",
    "COORDINATOR",
    "CRASH_POINTS",
    "ChaosController",
    "CrashPlan",
    "CrashSpec",
    "FOLLOWER",
    "LEADER",
    "ParticipantState",
    "PaxosReplica",
    "REPL_CRASH_POINTS",
    "ReplicaCrashPlan",
    "ReplicaCrashSpec",
    "ReplicaGroup",
    "ReplicatedParticipant",
    "ReplicationConfig",
    "DecisionLog",
    "DistributedEngine",
    "DistributedRunReport",
    "LatencyModel",
    "LogRecord",
    "MID_BROADCAST",
    "Message",
    "ShardParticipant",
    "SimulatedNetwork",
    "TpcConfig",
    "TwoPhaseCommitCoordinator",
    "crash_plan_from",
    "replica_seed",
    "run_distributed_batch",
]

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

# bench/workloads.py imports the batch front end from here; it is the one
# name this package keeps until that file changes.
from repro.dist.engine import run_distributed_batch

"""The cross-protocol abort taxonomy: machine-readable reason codes.

Every abort an online protocol (or the kernel's fault injector) issues
carries one of these codes on its :class:`~repro.engine.protocols.base.
Decision` (``decision.code``), alongside the free-text ``reason``.  The
free text is for humans reading one counterexample; the code is for
machines folding thousands of aborts into an attribution report — the
observability layer (:mod:`repro.obs`) groups abort events by code, and
the metrics registry counts them under ``abort.<code>``.

The taxonomy is deliberately small and *protocol-shaped*: each code
names the mechanism that killed the attempt, not the workload pattern
that triggered it, so the same code means the same thing whether it came
from the executor, the simulator, or a harness cell.  Where the
mechanism has an identifiable culprit (the conflicting writer, the
deadlock peers), the decision also names it in ``conflict_txns`` /
``conflict_key`` so hot-key reports can attribute aborts to blockers.
"""

from __future__ import annotations

from typing import Dict

#: fallback for aborts predating the taxonomy (must never appear in a
#: registered protocol's decisions — pinned by tests/test_obs_trace.py)
ABORT_UNSPECIFIED = "unspecified"

# --- locking ----------------------------------------------------------
#: strict 2PL: the requester's wait would close a wait-for cycle
ABORT_LOCK_DEADLOCK = "lock-deadlock"

# --- serialization graph testing --------------------------------------
#: SGT: waiting for a pending (uncommitted buffered) write would deadlock
ABORT_WAIT_DEADLOCK = "wait-deadlock"
#: SGT: granting the operation would close a serialization-graph cycle
ABORT_SG_CYCLE = "sg-cycle"

# --- timestamp ordering ------------------------------------------------
#: T/O: the key already carries a write timestamp above the reader's
ABORT_TO_READ_TOO_LATE = "to-read-too-late"
#: T/O: the key was already read or written at a timestamp above the writer's
ABORT_TO_WRITE_TOO_LATE = "to-write-too-late"

# --- optimistic validation (Kung & Robinson) ---------------------------
#: OCC: a key in the read set was overwritten by a transaction that
#: committed after this one started (``conflict_txns`` names the writer)
ABORT_OCC_READ_INVALIDATED = "occ-read-invalidated"
#: OCC: the transaction outlived the retained write-index history and
#: must abort conservatively (a pass could not be trusted)
ABORT_OCC_HISTORY_OVERFLOW = "occ-history-overflow"
#: parallel OCC: read/write footprint overlaps the write set of a
#: transaction that was mid-validation when this one entered the pipeline
ABORT_OCC_PIPELINE_OVERLAP = "occ-pipeline-overlap"

# --- snapshot isolation -------------------------------------------------
#: SI: first-committer-wins — a concurrent writer committed a newer
#: version of a write-set key (``conflict_txns`` names the winner)
ABORT_SI_FIRST_COMMITTER = "si-first-committer"
#: serializable SI: committing would complete a dangerous structure
#: (rw-antidependency pivot among concurrent commits)
ABORT_SSI_PIVOT = "ssi-pivot"
#: serializable SI: a kernel fast-path reader's next read would observe
#: a committed pivot's overwrite (Fekete's read-only anomaly)
ABORT_SSI_FASTPATH_PIVOT = "ssi-fastpath-pivot"

# --- multi-version timestamp ordering -----------------------------------
#: MVTO: the version this write would supersede was already read at a
#: timestamp above the writer's
ABORT_MVTO_READ_INVALIDATION = "mvto-read-invalidation"

# --- deterministic epoch scheduling (Calvin-style) -----------------------
#: deterministic: a data operation touched a key outside the declared
#: read/write footprint — the attempt aborts and restarts as a
#: low-priority "reconnaissance" re-submission whose fresh ticket (and
#: now-known footprint) lands at the tail of the sequence order
ABORT_DET_RECON = "det-epoch-recon"
#: deterministic: a data operation arrived before the transaction
#: declared any footprint at all (the sequencer never admitted it, so
#: it holds no place in the epoch order to be granted in)
ABORT_DET_UNDECLARED = "det-epoch-undeclared"

# --- engine-level -------------------------------------------------------
#: the deterministic fault injector forced this attempt to abort
ABORT_FAULT_INJECTED = "fault-injected"

# --- distributed two-phase commit (repro.dist) ---------------------------
#: 2PC: the coordinator exhausted its retry budget waiting for a shard
#: (read replies, votes) and aborted the transaction
ABORT_TPC_TIMEOUT = "2pc-timeout"
#: 2PC: the coordinator crashed before logging a decision; recovery
#: presumed abort (the write-ahead decision log had no outcome)
ABORT_TPC_COORDINATOR_CRASH = "2pc-coordinator-crash"
#: 2PC: a participant voted NO at prepare — validation found a stale
#: read version or a prepare-lock conflict on its shard
ABORT_TPC_PARTICIPANT_NO = "2pc-participant-no"
#: 2PC: admission control shed the transaction — a shard it touches
#: crossed the degradation threshold, or the backpressure queue is full
ABORT_TPC_SHED = "2pc-shed"
#: replication: the shard's replica group could not reach a quorum (the
#: contacted replica is leaderless/minority-partitioned, or the leader's
#: quorum lease lapsed) — the transaction sheds instead of hanging
ABORT_REPL_NO_QUORUM = "repl-no-quorum"

#: every taxonomy code with a one-line description — the README table and
#: the ``python -m repro.obs`` abort summary render from this registry
ABORT_REASONS: Dict[str, str] = {
    ABORT_LOCK_DEADLOCK: "2PL wait-for cycle (requester aborted)",
    ABORT_WAIT_DEADLOCK: "SGT deadlock waiting on a pending buffered write",
    ABORT_SG_CYCLE: "SGT serialization-graph cycle prevented",
    ABORT_TO_READ_TOO_LATE: "T/O read below the key's write timestamp",
    ABORT_TO_WRITE_TOO_LATE: "T/O write below the key's read/write timestamp",
    ABORT_OCC_READ_INVALIDATED: "OCC read-set key overwritten since start",
    ABORT_OCC_HISTORY_OVERFLOW: "OCC conservative abort past the index floor",
    ABORT_OCC_PIPELINE_OVERLAP: "parallel OCC overlap with a concurrent validator",
    ABORT_SI_FIRST_COMMITTER: "SI first-committer-wins lost to a concurrent writer",
    ABORT_SSI_PIVOT: "SSI dangerous structure at commit",
    ABORT_SSI_FASTPATH_PIVOT: "SSI read-only fast path raced a committed pivot",
    ABORT_MVTO_READ_INVALIDATION: "MVTO superseded version already read later",
    ABORT_DET_RECON: "deterministic footprint under-declared (reconnaissance restart)",
    ABORT_DET_UNDECLARED: "deterministic data access before footprint declaration",
    ABORT_FAULT_INJECTED: "deterministic fault injection",
    ABORT_TPC_TIMEOUT: "2PC retry budget exhausted waiting on a shard",
    ABORT_TPC_COORDINATOR_CRASH: "2PC coordinator crashed pre-decision (presumed abort)",
    ABORT_TPC_PARTICIPANT_NO: "2PC participant voted NO at prepare",
    ABORT_TPC_SHED: "2PC admission shed (degraded shard or full backlog)",
    ABORT_REPL_NO_QUORUM: "replica group quorum lost (leaderless or minority side)",
    ABORT_UNSPECIFIED: "legacy/unclassified abort (should not occur)",
}

#: the distributed-commit subset: every abort the 2PC layer issues must
#: carry one of these (pinned by the distributed conformance oracles)
TPC_ABORT_CODES = frozenset(
    {
        ABORT_TPC_TIMEOUT,
        ABORT_TPC_COORDINATOR_CRASH,
        ABORT_TPC_PARTICIPANT_NO,
        ABORT_TPC_SHED,
        ABORT_REPL_NO_QUORUM,
    }
)

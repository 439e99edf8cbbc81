"""Coordinator crash recovery: the decision log and the crash plan.

Two-phase commit is only atomic if the coordinator's *decision* survives
the coordinator.  This module provides the two halves of that story:

* :class:`DecisionLog` — a logical write-ahead log.  It lives in plain
  memory but is deliberately **not** cleared when the coordinator
  crashes: it models the stable storage a real coordinator would fsync,
  while everything else on the coordinator (in-flight transaction state,
  timers, vote tallies) is volatile and lost.  The protocol is
  **presumed abort**: only ``begin`` (with the participant set),
  ``commit`` decisions and ``end`` (fully acknowledged) records are
  logged — an abort needs no log write, because recovery treats any
  begun-but-undecided transaction as aborted.

* :class:`CrashSpec` / :class:`CrashPlan` — deterministic crash
  injection.  The coordinator consults the plan at every logged state
  transition (:data:`CRASH_POINTS`); a matching spec fires exactly once,
  killing the coordinator *at* that transition and scheduling its
  restart ``restart_delay`` later.  Because the whole distributed run is
  virtual-time deterministic, "crash the coordinator after it collected
  votes for the third transaction" is a replayable scenario, not a race.

The recovery pass itself lives on the coordinator
(:meth:`repro.dist.tpc.TwoPhaseCommitCoordinator.recover`): it replays
the log, re-broadcasts logged commit decisions, and presumes abort for
everything else — so no shard can ever disagree with another about a
transaction's outcome, no matter where the crash landed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: coordinator state transitions at which a crash can be injected
BEFORE_PREPARE = "before-prepare"    # reads gathered, prepares not yet sent
AFTER_VOTES = "after-votes"          # vote phase concluded, decision not yet logged
AFTER_DECISION = "after-decision"    # decision logged, broadcast not yet started
MID_BROADCAST = "mid-broadcast"      # decision sent to a strict subset of shards

CRASH_POINTS = (BEFORE_PREPARE, AFTER_VOTES, AFTER_DECISION, MID_BROADCAST)

#: decision-log record kinds
RECORD_BEGIN = "begin"
RECORD_DECISION = "decision"
RECORD_END = "end"

#: decision outcomes
COMMIT = "commit"
ABORT = "abort"


@dataclass(frozen=True)
class LogRecord:
    """One append-only decision-log entry."""

    kind: str
    txn_id: int
    #: RECORD_BEGIN: the participant shard names; empty otherwise
    shards: Tuple[str, ...] = ()
    #: RECORD_DECISION: COMMIT (aborts are presumed, never logged)
    outcome: Optional[str] = None
    #: RECORD_BEGIN: the client submission index, so recovery can route
    #: its completion notification back to the right client slot
    index: Optional[int] = None

    def __str__(self) -> str:
        if self.kind == RECORD_BEGIN:
            return f"begin T{self.txn_id} shards={list(self.shards)}"
        if self.kind == RECORD_DECISION:
            return f"decision T{self.txn_id} {self.outcome}"
        return f"end T{self.txn_id}"


class DecisionLog:
    """The coordinator's logical write-ahead log (crash-survivable)."""

    def __init__(self) -> None:
        self.records: List[LogRecord] = []

    def append(self, record: LogRecord) -> None:
        self.records.append(record)

    def log_begin(
        self, txn_id: int, shards: Tuple[str, ...], index: Optional[int] = None
    ) -> None:
        self.append(LogRecord(RECORD_BEGIN, txn_id, shards=shards, index=index))

    def log_commit(self, txn_id: int) -> None:
        self.append(LogRecord(RECORD_DECISION, txn_id, outcome=COMMIT))

    def log_end(self, txn_id: int) -> None:
        self.append(LogRecord(RECORD_END, txn_id))

    def replay(
        self,
    ) -> Dict[int, Tuple[Tuple[str, ...], Optional[str], bool, Optional[int]]]:
        """Fold the log into ``{txn: (shards, decision, ended, index)}``.

        ``decision`` is ``COMMIT`` or ``None`` (= presumed abort);
        recovery only needs to act on entries with ``ended`` False.
        """
        state: Dict[
            int, Tuple[Tuple[str, ...], Optional[str], bool, Optional[int]]
        ] = {}
        for record in self.records:
            shards, decision, ended, index = state.get(
                record.txn_id, ((), None, False, None)
            )
            if record.kind == RECORD_BEGIN:
                shards = record.shards
                index = record.index
            elif record.kind == RECORD_DECISION:
                decision = record.outcome
            elif record.kind == RECORD_END:
                ended = True
            state[record.txn_id] = (shards, decision, ended, index)
        return state

    def unfinished(
        self,
    ) -> Dict[int, Tuple[Tuple[str, ...], Optional[str], Optional[int]]]:
        """Begun transactions with no ``end`` record — recovery's worklist."""
        return {
            txn_id: (shards, decision, index)
            for txn_id, (shards, decision, ended, index) in self.replay().items()
            if not ended
        }

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class CrashSpec:
    """One injected coordinator crash: where, on which transaction.

    Parameters
    ----------
    transition:
        One of :data:`CRASH_POINTS`.
    txn_index:
        Submission index (0-based) of the transaction whose transition
        triggers the crash; retries of shed/aborted client requests get
        fresh indexes, so an index always names one concrete attempt.
    restart_delay:
        Virtual time between the crash and the recovery pass.
    """

    transition: str
    txn_index: int = 0
    restart_delay: float = 5.0

    def __post_init__(self) -> None:
        if self.transition not in CRASH_POINTS:
            raise ValueError(
                f"transition must be one of {CRASH_POINTS}, got {self.transition!r}"
            )
        if self.txn_index < 0:
            raise ValueError(f"txn_index must be >= 0, got {self.txn_index!r}")
        if self.restart_delay < 0:
            raise ValueError(
                f"restart_delay must be non-negative, got {self.restart_delay!r}"
            )


class CrashPlan:
    """Deterministic crash injection: each spec fires at most once."""

    def __init__(self, specs: Tuple[CrashSpec, ...] = ()) -> None:
        self.specs: List[CrashSpec] = list(specs)
        self.fired: List[CrashSpec] = []

    def should_crash(self, transition: str, txn_index: int) -> Optional[CrashSpec]:
        """Consume and return the matching spec, or ``None``."""
        for index, spec in enumerate(self.specs):
            if spec.transition == transition and spec.txn_index == txn_index:
                self.fired.append(self.specs.pop(index))
                return self.fired[-1]
        return None


def crash_plan_from(specs) -> Optional[CrashPlan]:
    """A fresh plan for a spec sequence, or ``None`` for crash-free runs."""
    if not specs:
        return None
    return CrashPlan(tuple(specs))

"""Replicated shards: the 2PC participant as a Paxos state machine.

PR 8's shards were single processes — one injected crash lost the shard
and stranded the coordinator until presumed-abort recovery cleaned up.
Here each shard becomes a **replica group**: its 2PC endpoint state
(validation verdicts, prepare locks, decisions, applied writes) is a
deterministic state machine driven by the group's replicated log from
:mod:`repro.dist.paxos`, so any replica that holds the chosen log prefix
can reconstruct the shard, and a crash of the leader mid-2PC costs an
election, not an outcome.

The key protocol decision: **2PC actions are durable in the shard log
before they are externalized.**

* A ``prepare`` is answered only after the command ``("prepare", txn,
  reads, writes)`` is *chosen* and applied — validation (OCC backward
  check + prepare-lock conflict) runs at apply time, against replicated
  state, on every replica identically.  The vote the leader then sends
  is a fact of the log: any future leader re-derives the same vote from
  the same chosen entry, so a YES can never be forgotten by a crash and
  a NO can never flip to YES.
* A ``decision`` is likewise chosen as ``("decide", txn, outcome)``
  before the acknowledgement is sent; applying it releases locks and
  installs writes.  Application is **idempotent by txn id**: duplicate
  decision messages are re-acknowledged without burning a log slot, and
  duplicate chosen entries (two successive leaders proposing the same
  decree) are detected and skipped at apply time.

Client traffic handling follows the leader-lease rules: a follower
forwards to its leader hint (one hop, marked ``fwd`` to prevent loops);
a replica that has lost ``suspect_after`` elections in a row — the
signature of being on the minority side of a partition — answers
``unavail`` with the ``repl-no-quorum`` taxonomy code so the
coordinator sheds instead of hanging; an established leader whose
quorum lease lapsed does the same.

Chaos: :class:`ReplicaCrashSpec` extends PR 8's coordinator
``CrashSpec`` idiom to replicas — crash the *leader* at a named
protocol transition (prepare/decide, logged/applied: the four points
where durable and externalized state can diverge) for the nth distinct
transaction, or crash a named replica (or the current leader) at a
virtual time via the :class:`ChaosController` pseudo-node.  Restarts
keep the durable log, so the harness exercises real catch-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.engine.metrics import Metrics
from repro.engine.reasons import ABORT_REPL_NO_QUORUM
from repro.engine.storage import DataStore
from repro.obs.trace import Tracer

from .network import Message, SimulatedNetwork
from .paxos import LEADER, PaxosReplica, ReplicationConfig
from .recovery import ABORT, COMMIT
from .tpc import COORDINATOR, TpcConfig

#: the four replica-group crash points: after a 2PC command is logged
#: (locally appended, possibly before any follower holds it) and after
#: it is applied (state mutated, vote/ack not yet sent) — for each of
#: the two command kinds
REPL_PREPARE_LOGGED = "repl-prepare-logged"
REPL_PREPARE_APPLIED = "repl-prepare-applied"
REPL_DECIDE_LOGGED = "repl-decide-logged"
REPL_DECIDE_APPLIED = "repl-decide-applied"

REPL_CRASH_POINTS = (
    REPL_PREPARE_LOGGED,
    REPL_PREPARE_APPLIED,
    REPL_DECIDE_LOGGED,
    REPL_DECIDE_APPLIED,
)


@dataclass(frozen=True)
class ReplicaCrashSpec:
    """Crash one replica of one shard's group, then restart it.

    Two trigger styles (exactly one must be set):

    * ``transition`` — crash the group's **leader** the ``txn_index``-th
      distinct transaction it carries through that protocol transition
      (mirrors the coordinator's ``CrashSpec``);
    * ``at`` — crash at a virtual time, either the named ``replica`` or
      (``replica=None``) whoever leads the group at that instant.
    """

    shard: str
    transition: Optional[str] = None
    txn_index: int = 0
    at: Optional[float] = None
    replica: Optional[str] = None
    restart_delay: float = 12.0

    def __post_init__(self) -> None:
        if (self.transition is None) == (self.at is None):
            raise ValueError(
                "exactly one of transition= and at= must be set, got "
                f"transition={self.transition!r} at={self.at!r}"
            )
        if self.transition is not None and self.transition not in REPL_CRASH_POINTS:
            raise ValueError(
                f"unknown replica crash transition {self.transition!r}; "
                f"expected one of {REPL_CRASH_POINTS}"
            )
        if self.at is not None and self.at < 0:
            raise ValueError(f"crash time must be non-negative, got {self.at!r}")
        if self.txn_index < 0:
            raise ValueError(f"txn_index must be >= 0, got {self.txn_index!r}")
        if self.restart_delay <= 0:
            raise ValueError(
                f"restart_delay must be positive, got {self.restart_delay!r}"
            )


class ReplicaCrashPlan:
    """Consume :class:`ReplicaCrashSpec` triggers deterministically.

    Transition triggers count *distinct* transactions per (shard,
    transition) — a retried prepare for the same transaction does not
    advance the count — and each spec fires at most once.
    """

    def __init__(self, specs: Sequence[ReplicaCrashSpec] = ()) -> None:
        self._pending: List[ReplicaCrashSpec] = [
            spec for spec in specs if spec.transition is not None
        ]
        self.timed: List[ReplicaCrashSpec] = sorted(
            (spec for spec in specs if spec.at is not None),
            key=lambda spec: (spec.at, spec.shard, spec.replica or ""),
        )
        self._seen: Dict[Tuple[str, str], List[int]] = {}

    def should_crash(
        self, shard: str, transition: str, txn_id: int
    ) -> Optional[ReplicaCrashSpec]:
        seen = self._seen.setdefault((shard, transition), [])
        if txn_id not in seen:
            seen.append(txn_id)
        position = seen.index(txn_id)
        for spec in self._pending:
            if (
                spec.shard == shard
                and spec.transition == transition
                and spec.txn_index == position
            ):
                self._pending.remove(spec)
                return spec
        return None


# ----------------------------------------------------------------------
# the replicated participant
# ----------------------------------------------------------------------


class ReplicatedParticipant(PaxosReplica):
    """One replica of one shard: consensus member + 2PC state machine.

    Exposes the same introspection surface as the unreplicated
    :class:`~repro.dist.tpc.ShardParticipant` (``prepared``, ``locks``,
    ``outcomes``, ``applied``, ``applied_writes``, ``in_doubt``) so the
    PR-8 oracles judge a replica exactly as they judge a shard.
    """

    def __init__(
        self,
        name: str,
        shard: str,
        peers: List[str],
        initial_data: Dict[str, Any],
        network: SimulatedNetwork,
        tpc_config: TpcConfig,
        config: Optional[ReplicationConfig] = None,
        seed: int = 0,
        crash_plan: Optional[ReplicaCrashPlan] = None,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.shard = shard
        self.tpc_config = tpc_config
        self.crash_plan = crash_plan
        self.initial_data = dict(initial_data)
        self.store = DataStore(self.initial_data)
        #: txn → (reads, writes): chosen-and-validated, decision pending
        self.prepared: Dict[int, Tuple[Dict[str, int], Dict[str, Any]]] = {}
        self.locks: Dict[str, int] = {}
        self.outcomes: Dict[int, str] = {}
        self.applied: Set[int] = set()
        self.applied_writes: Dict[int, Dict[str, Any]] = {}
        # leader-local dedupe: commands proposed but not yet applied
        self._pending_prepares: Set[int] = set()
        self._pending_decides: Set[int] = set()
        self._status_timers: Dict[int, int] = {}
        self._status_delays: Dict[int, float] = {}
        self._client_handlers = {
            "read-req": self._on_read_req,
            "prepare": self._on_prepare,
            "decision": self._on_decision,
        }
        super().__init__(
            name,
            group=shard,
            peers=peers,
            network=network,
            config=config,
            seed=seed,
            metrics=metrics,
            tracer=tracer,
        )

    @property
    def in_doubt(self) -> Set[int]:
        """Transactions prepared but not yet decided (locks held)."""
        return set(self.prepared)

    # ------------------------------------------------------------------
    # client (2PC) traffic: gate, forward, or serve
    # ------------------------------------------------------------------
    def on_client_message(self, now: float, message: Message) -> None:
        kind = message.kind
        handler = self._client_handlers.get(kind)
        if handler is None:
            raise ValueError(f"{self.name}: unknown message kind {kind!r}")
        payload = message.payload
        if self.role != LEADER:
            if self.quorum_suspect():
                # repeated failed elections: we are very likely on the
                # minority side of a partition — shed loudly, don't hang
                self._send_unavail(payload)
                return
            hint = self.leader_hint
            if hint is not None and hint != self.name and not payload.get("fwd"):
                forwarded = dict(payload)
                forwarded["fwd"] = True
                self.network.send(self.name, hint, kind, forwarded)
            return
        if not self.is_established_leader():
            # new leader, term no-op not yet chosen: serving now could
            # vote on a log we cannot yet commit into; the coordinator's
            # retry (re-routed here) covers the establishment gap
            return
        if not self.has_lease(now):
            self._send_unavail(payload)
            return
        handler(now, payload)

    def _send_unavail(self, payload: Dict[str, Any]) -> None:
        self.metrics.incr("dist.repl.unavail")
        self.network.send(
            self.name,
            COORDINATOR,
            "unavail",
            {
                "txn": payload["txn"],
                "shard": self.shard,
                "code": ABORT_REPL_NO_QUORUM,
                "replica": self.name,
            },
        )

    def _on_read_req(self, now: float, payload: Dict[str, Any]) -> None:
        values: Dict[str, Any] = {}
        versions: Dict[str, int] = {}
        for key in payload["keys"]:
            version = self.store.read_version(key)
            values[key] = version.value
            versions[key] = version.version
        self.network.send(
            self.name,
            COORDINATOR,
            "read-reply",
            {
                "txn": payload["txn"],
                "shard": self.shard,
                "values": values,
                "versions": versions,
                "replica": self.name,
            },
        )

    def _on_prepare(self, now: float, payload: Dict[str, Any]) -> None:
        txn_id = payload["txn"]
        if txn_id in self.outcomes:
            # decided (or NO-voted: recorded as abort) — re-answer from
            # the record; a forgotten transaction can never flip to YES
            self._send_vote(
                txn_id, self.outcomes[txn_id] == COMMIT, "duplicate prepare after decision"
            )
            return
        if txn_id in self.prepared:
            self._send_vote(txn_id, True, "duplicate prepare while prepared")
            return
        if txn_id in self._pending_prepares:
            return  # already in the log pipeline; the vote follows choice
        self._pending_prepares.add(txn_id)
        self._propose_2pc(
            now,
            ("prepare", txn_id, dict(payload["reads"]), dict(payload["writes"])),
            REPL_PREPARE_LOGGED,
            txn_id,
        )

    def _on_decision(self, now: float, payload: Dict[str, Any]) -> None:
        txn_id = payload["txn"]
        outcome = payload["outcome"]
        if txn_id in self._pending_decides:
            return  # the ack follows choice; don't burn another log slot
        if txn_id in self.outcomes and txn_id not in self.prepared:
            # decision already chosen and applied: idempotent re-ack by
            # txn id, no new log entry for the duplicate
            self._send_ack(txn_id)
            return
        self._pending_decides.add(txn_id)
        self._propose_2pc(
            now, ("decide", txn_id, outcome), REPL_DECIDE_LOGGED, txn_id
        )

    def _propose_2pc(
        self, now: float, command: Tuple[Any, ...], crash_point: str, txn_id: int
    ) -> None:
        # inline `propose` so the crash point sits between the local
        # append and the replication broadcast — the mid-round window
        # where only the (about-to-die) leader holds the entry
        self.log.append((self.current_term, command))
        self.metrics.incr("dist.repl.proposals")
        if self._maybe_crash(now, crash_point, txn_id):
            return
        self._advance_commit(now)
        self._broadcast_appends(now)

    def _send_vote(self, txn_id: int, vote: bool, reason: str) -> None:
        self.network.send(
            self.name,
            COORDINATOR,
            "vote",
            {
                "txn": txn_id,
                "shard": self.shard,
                "vote": vote,
                "reason": reason,
                "replica": self.name,
            },
        )

    def _send_ack(self, txn_id: int) -> None:
        self.network.send(
            self.name,
            COORDINATOR,
            "ack",
            {"txn": txn_id, "shard": self.shard, "replica": self.name},
        )

    # ------------------------------------------------------------------
    # the replicated state machine: apply chosen 2PC commands
    # ------------------------------------------------------------------
    def apply_command(self, now: float, index: int, command: Tuple[Any, ...]) -> None:
        kind = command[0]
        if kind == "noop":
            return
        if kind == "prepare":
            _, txn_id, reads, writes = command
            self._pending_prepares.discard(txn_id)
            self._apply_prepare(now, txn_id, reads, writes)
        elif kind == "decide":
            _, txn_id, outcome = command
            self._pending_decides.discard(txn_id)
            self._apply_decide(now, txn_id, outcome)
        else:
            raise ValueError(f"{self.name}: unknown log command {command!r}")

    def _apply_prepare(
        self, now: float, txn_id: int, reads: Dict[str, int], writes: Dict[str, Any]
    ) -> None:
        if txn_id in self.outcomes or txn_id in self.prepared:
            # duplicate chosen entry (e.g. two successive leaders each
            # proposed the coordinator's retried prepare): the first
            # application decided — re-derive the same vote, mutate nothing
            if self.role == LEADER:
                vote = txn_id in self.prepared or self.outcomes.get(txn_id) == COMMIT
                self._send_vote(txn_id, vote, "duplicate prepare entry")
            return
        reason = self._validate(txn_id, reads, writes)
        if reason is not None:
            # the NO is durable: this chosen entry fixes the verdict on
            # every replica, so no future leader can answer differently
            self.outcomes[txn_id] = ABORT
            self.metrics.incr("dist.participant.no_votes")
            if self.role == LEADER:
                self._send_vote(txn_id, False, reason)
            return
        self.prepared[txn_id] = (dict(reads), dict(writes))
        for key in sorted(set(reads) | set(writes)):
            self.locks[key] = txn_id
        self.metrics.incr("dist.participant.prepares")
        if self.role == LEADER:
            if self._maybe_crash(now, REPL_PREPARE_APPLIED, txn_id):
                return
            self._arm_status_timer(txn_id)
            self._send_vote(txn_id, True, "validated")

    def _validate(
        self, txn_id: int, reads: Dict[str, int], writes: Dict[str, Any]
    ) -> Optional[str]:
        """OCC validation against replicated state — identical on every
        replica because it runs at apply time over the chosen prefix."""
        for key in sorted(set(reads) | set(writes)):
            holder = self.locks.get(key)
            if holder is not None and holder != txn_id:
                return f"{key!r} prepare-locked by T{holder}"
        for key in sorted(reads):
            current = self.store.version_number(key)
            if current != reads[key]:
                return (
                    f"stale read of {key!r}: validated v{reads[key]}, "
                    f"committed is v{current}"
                )
        return None

    def _apply_decide(self, now: float, txn_id: int, outcome: str) -> None:
        record = self.prepared.pop(txn_id, None)
        if record is not None:
            reads, writes = record
            for key in sorted(set(reads) | set(writes)):
                if self.locks.get(key) == txn_id:
                    del self.locks[key]
            if outcome == COMMIT:
                for key in sorted(writes):
                    self.store.write(key, writes[key], writer=txn_id)
                self.applied.add(txn_id)
                self.applied_writes[txn_id] = dict(writes)
                self.metrics.incr("dist.participant.applies")
            self.outcomes[txn_id] = outcome
        elif txn_id not in self.outcomes:
            # a decision for a transaction this shard never prepared can
            # only be an abort (commit requires our YES vote)
            self.outcomes[txn_id] = outcome
        if self.role == LEADER:
            self._cancel_status_timer(txn_id)
            if self._maybe_crash(now, REPL_DECIDE_APPLIED, txn_id):
                return
            self._send_ack(txn_id)

    # ------------------------------------------------------------------
    # status inquiries: a prepared leader must not hold locks forever
    # ------------------------------------------------------------------
    def _arm_status_timer(self, txn_id: int) -> None:
        delay = self._status_delays.get(txn_id, 0.0)
        delay = (
            min(delay * self.tpc_config.backoff, self.tpc_config.max_backoff)
            if delay
            else self.tpc_config.status_timeout
        )
        self._status_delays[txn_id] = delay
        self._status_timers[txn_id] = self.network.set_timer(
            self.name, delay, "repl-status", {"txn": txn_id}
        )

    def _cancel_status_timer(self, txn_id: int) -> None:
        timer_id = self._status_timers.pop(txn_id, None)
        if timer_id is not None:
            self.network.cancel_timer(timer_id)
        self._status_delays.pop(txn_id, None)

    def on_client_timer(self, now: float, kind: str, payload: Dict[str, Any]) -> None:
        if kind != "repl-status":
            raise ValueError(f"{self.name}: unknown timer kind {kind!r}")
        txn_id = payload["txn"]
        self._status_timers.pop(txn_id, None)
        if self.role != LEADER or txn_id not in self.prepared:
            return
        self.metrics.incr("dist.participant.status_inquiries")
        self.network.send(
            self.name,
            COORDINATOR,
            "status-req",
            {"txn": txn_id, "shard": self.shard, "replica": self.name},
        )
        self._arm_status_timer(txn_id)

    # ------------------------------------------------------------------
    # consensus hooks
    # ------------------------------------------------------------------
    def on_elected(self, now: float) -> None:
        # inherited in-doubt transactions (chosen prepares without chosen
        # decisions) restart their status inquiries under the new leader
        for txn_id in sorted(self.prepared):
            self._arm_status_timer(txn_id)

    def on_step_down(self, now: float) -> None:
        for txn_id in sorted(self._status_timers):
            self.network.cancel_timer(self._status_timers[txn_id])
        self._status_timers = {}
        self._status_delays = {}
        # proposed-but-unchosen dedupe guards are leader-local; a command
        # still in our log may yet be chosen, and apply-time dedupe (by
        # txn id) handles the duplicate if a new leader re-proposes it
        self._pending_prepares = set()
        self._pending_decides = set()

    def reset_state(self, now: float) -> None:
        self.store = DataStore(self.initial_data)
        self.prepared = {}
        self.locks = {}
        self.outcomes = {}
        self.applied = set()
        self.applied_writes = {}
        self._pending_prepares = set()
        self._pending_decides = set()
        self._status_timers = {}
        self._status_delays = {}

    # ------------------------------------------------------------------
    # chaos
    # ------------------------------------------------------------------
    def _maybe_crash(self, now: float, transition: str, txn_id: int) -> bool:
        if self.crash_plan is None:
            return False
        spec = self.crash_plan.should_crash(self.shard, transition, txn_id)
        if spec is None:
            return False
        self.crash(now, spec.restart_delay)
        return True


# ----------------------------------------------------------------------
# the group view
# ----------------------------------------------------------------------


class ReplicaGroup:
    """One shard's replica set, plus the adapters the oracles consume.

    The group presents the unreplicated participant's introspection
    surface (``applied``, ``outcomes``, ``locks``, ``in_doubt``,
    ``applied_writes``, ``store``) by delegating to its *authoritative*
    replica — the live replica that has applied the most of the chosen
    log (ties broken by name).  At quiescence every live replica agrees
    with it; the replication oracles check exactly that.
    """

    def __init__(self, shard: str, replicas: Sequence[ReplicatedParticipant]) -> None:
        self.shard = shard
        self.name = shard
        self.replicas = list(replicas)

    def replica(self, name: str) -> ReplicatedParticipant:
        for rep in self.replicas:
            if rep.name == name:
                return rep
        raise KeyError(f"group {self.shard} has no replica {name!r}")

    @property
    def live(self) -> List[ReplicatedParticipant]:
        return [rep for rep in self.replicas if rep.alive]

    def current_leader(self) -> Optional[ReplicatedParticipant]:
        leaders = [rep for rep in self.live if rep.role == LEADER]
        if not leaders:
            return None
        return max(leaders, key=lambda rep: (rep.current_term, rep.name))

    @property
    def authoritative(self) -> ReplicatedParticipant:
        pool = self.live or self.replicas
        return max(pool, key=lambda rep: (rep.last_applied, rep.name))

    # oracle-facing adapters (the ShardParticipant surface)
    @property
    def store(self) -> DataStore:
        return self.authoritative.store

    @property
    def prepared(self) -> Dict[int, Tuple[Dict[str, int], Dict[str, Any]]]:
        return self.authoritative.prepared

    @property
    def locks(self) -> Dict[str, int]:
        return self.authoritative.locks

    @property
    def outcomes(self) -> Dict[int, str]:
        return self.authoritative.outcomes

    @property
    def applied(self) -> Set[int]:
        return self.authoritative.applied

    @property
    def applied_writes(self) -> Dict[int, Dict[str, Any]]:
        return self.authoritative.applied_writes

    @property
    def in_doubt(self) -> Set[int]:
        return self.authoritative.in_doubt

    def quiescent(self) -> bool:
        """All replicas up, one established leader, logs converged,
        everything chosen applied, no in-doubt transactions."""
        if any(not rep.alive for rep in self.replicas):
            return False
        leader = self.current_leader()
        if leader is None or not leader.is_established_leader():
            return False
        length = len(leader.log)
        for rep in self.replicas:
            if len(rep.log) != length:
                return False
            if rep.commit_index != length or rep.last_applied != length:
                return False
            if rep.prepared or rep._pending_prepares or rep._pending_decides:
                return False
        return True


# ----------------------------------------------------------------------
# timed chaos
# ----------------------------------------------------------------------


class ChaosController:
    """A pseudo-node that fires timed :class:`ReplicaCrashSpec` triggers.

    Registered on the network like any node, but never crashes itself,
    so its timers are ordinary events in the deterministic heap.  A
    leader-targeted spec (``replica=None``) resolves its victim at fire
    time: the group's current leader, or — leaderless mid-election — the
    live replica with the highest term (ties by name), which is the most
    likely next leader.
    """

    name = "chaos"
    accepting_messages = True
    accepting_timers = True

    def __init__(
        self,
        network: SimulatedNetwork,
        groups: Dict[str, ReplicaGroup],
        specs: Sequence[ReplicaCrashSpec],
    ) -> None:
        self.network = network
        self.groups = groups
        self.specs = list(specs)
        self.pending = 0
        for index, spec in enumerate(self.specs):
            if spec.shard not in groups:
                raise KeyError(f"chaos spec targets unknown shard {spec.shard!r}")
            self.network.set_timer(self.name, spec.at, "chaos-crash", {"index": index})
            self.pending += 1

    def on_message(self, now: float, message: Message) -> None:
        raise ValueError("the chaos controller exchanges no messages")

    def on_timer(self, now: float, kind: str, payload: Dict[str, Any]) -> None:
        if kind != "chaos-crash":
            raise ValueError(f"chaos: unknown timer kind {kind!r}")
        self.pending -= 1
        spec = self.specs[payload["index"]]
        group = self.groups[spec.shard]
        if spec.replica is not None:
            target: Optional[ReplicatedParticipant] = group.replica(spec.replica)
        else:
            target = group.current_leader()
            if target is None:
                live = group.live
                if live:
                    target = max(live, key=lambda rep: (rep.current_term, rep.name))
        if target is not None and target.alive:
            target.crash(now, spec.restart_delay)


def replica_seed(seed: int, shard_index: int, replica_index: int) -> int:
    """The per-replica RNG seed: arithmetic (never ``hash()``) so runs
    replay byte-for-byte across processes."""
    return seed * 1_000_003 + shard_index * 8_191 + replica_index * 127 + 17

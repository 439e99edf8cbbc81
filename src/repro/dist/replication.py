"""Replicated shards: the 2PC participant as a Paxos state machine.

PR 8's shards were single processes — one injected crash lost the shard
and stranded the coordinator until presumed-abort recovery cleaned up.
Here each shard becomes a **replica group**: its 2PC endpoint state
(validation verdicts, prepare locks, decisions, applied writes) is the
deterministic :class:`~repro.dist.tpc.ParticipantState` — the very class
an unreplicated shard runs — driven by the group's replicated log from
:mod:`repro.dist.paxos` instead of by the message itself, so any replica
that holds the chosen log prefix can reconstruct the shard, and a crash
of the leader mid-2PC costs an election, not an outcome.

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
from .tpc import COORDINATOR, ParticipantEndpoint, ParticipantState

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
        #: per (shard, transition): txn id -> its first-seen position
        self._seen: Dict[Tuple[str, str], Dict[int, int]] = {}

    def should_crash(
        self, shard: str, transition: str, txn_id: int
    ) -> Optional[ReplicaCrashSpec]:
        if not self._pending:
            return None  # every trigger has fired: positions no longer matter
        seen = self._seen.setdefault((shard, transition), {})
        position = seen.setdefault(txn_id, len(seen))
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


class ReplicatedParticipant(PaxosReplica, ParticipantEndpoint):
    """One replica of one shard: gate, propose, apply on choice.

    The log-driven driver of :class:`~repro.dist.tpc.ParticipantState`:
    the leader gates client traffic on its lease and proposes each 2PC
    command into the group's log; once chosen, **every replica applies
    it to its own** ``state``, **only the leader speaks** — through the
    :class:`~repro.dist.tpc.ParticipantEndpoint` half it shares with the
    unreplicated :class:`~repro.dist.tpc.ShardParticipant`.
    """

    def __init__(
        self,
        name: str,
        shard: str,
        peers: List[str],
        initial_data: Dict[str, Any],
        network: SimulatedNetwork,
        config: Optional[ReplicationConfig] = None,
        seed: int = 0,
        crash_plan: Optional[ReplicaCrashPlan] = None,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.crash_plan = crash_plan
        self.initial_data = dict(initial_data)
        #: leader-local dedupe: (kind, txn) of commands proposed, not yet applied
        self._pending: Set[Tuple[str, int]] = set()
        PaxosReplica.__init__(
            self,
            name,
            group=shard,
            peers=peers,
            network=network,
            config=config,
            seed=seed,
            metrics=metrics,
            tracer=tracer,
        )
        ParticipantEndpoint.__init__(self, shard, DataStore(self.initial_data))

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
        handler(self, now, payload)

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

    def _on_prepare(self, now: float, payload: Dict[str, Any]) -> None:
        txn_id = payload["txn"]
        if self._revote(txn_id):
            return  # the verdict is already a fact of the log
        if ("prepare", txn_id) in self._pending:
            return  # already in the log pipeline; the vote follows choice
        self._pending.add(("prepare", txn_id))
        self._propose_2pc(
            now,
            ("prepare", txn_id, dict(payload["reads"]), dict(payload["writes"])),
            REPL_PREPARE_LOGGED,
            txn_id,
        )

    def _on_decision(self, now: float, payload: Dict[str, Any]) -> None:
        txn_id = payload["txn"]
        if ("decide", txn_id) in self._pending:
            return  # the ack follows choice; don't burn another log slot
        if txn_id in self.state.outcomes and txn_id not in self.state.prepared:
            # decision already chosen and applied: idempotent re-ack by
            # txn id, no new log entry for the duplicate
            self._send_ack(txn_id)
            return
        self._pending.add(("decide", txn_id))
        self._propose_2pc(
            now, ("decide", txn_id, payload["outcome"]), REPL_DECIDE_LOGGED, txn_id
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
        self._replicate(now)

    # ------------------------------------------------------------------
    # chosen 2PC commands: every replica applies, only the leader speaks
    # ------------------------------------------------------------------
    def apply_command(self, now: float, index: int, command: Tuple[Any, ...]) -> None:
        kind = command[0]
        if kind == "noop":
            return
        leader = self.role == LEADER
        self._pending.discard(command[:2])
        if kind == "prepare":
            _, txn_id, reads, writes = command
            vote = self.state.recorded_vote(txn_id)
            if vote is not None:
                # duplicate chosen entry (e.g. two successive leaders each
                # proposed the coordinator's retried prepare): the first
                # application decided — re-derive the same vote, mutate nothing
                if leader:
                    self._send_vote(txn_id, vote, "duplicate prepare entry")
                return
            # validation runs at apply time over the chosen prefix, so the
            # verdict — a NO included — is a durable fact of the log: identical
            # on every replica, and no future leader can answer differently
            reason = self.state.prepare(txn_id, reads, writes)
            if not leader:
                return
            if reason is None and self._maybe_crash(now, REPL_PREPARE_APPLIED, txn_id):
                return
            self._vote(txn_id, reason)
        elif kind == "decide":
            _, txn_id, outcome = command
            self.state.decide(txn_id, outcome)
            if leader:
                self._cancel_status_timer(txn_id)
                if not self._maybe_crash(now, REPL_DECIDE_APPLIED, txn_id):
                    self._send_ack(txn_id)
        else:
            raise ValueError(f"{self.name}: unknown log command {command!r}")

    def on_client_timer(self, now: float, kind: str, payload: Dict[str, Any]) -> None:
        if kind != "status":
            raise ValueError(f"{self.name}: unknown timer kind {kind!r}")
        if self.role == LEADER:
            self._on_status_timer(payload["txn"])

    # ------------------------------------------------------------------
    # consensus hooks
    # ------------------------------------------------------------------
    def on_elected(self, now: float) -> None:
        # inherited in-doubt transactions (chosen prepares without chosen
        # decisions) restart their status inquiries under the new leader
        for txn_id in sorted(self.state.prepared):
            self._arm_status_timer(txn_id)

    def on_step_down(self, now: float) -> None:
        for txn_id in sorted(self._status):
            self._cancel_status_timer(txn_id)
        # proposed-but-unchosen dedupe guards are leader-local; a command
        # still in our log may yet be chosen, and apply-time dedupe (by
        # txn id) handles the duplicate if a new leader re-proposes it
        self._pending = set()

    def reset_state(self, now: float) -> None:
        self.state = ParticipantState(DataStore(self.initial_data), self.metrics)
        self._status = {}
        self._pending = set()

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
    """One shard's replica set, plus the one view the oracles consume.

    :attr:`state` is the group's :class:`~repro.dist.tpc.ParticipantState`
    as the oracles should see it — the same object an unreplicated
    :class:`~repro.dist.tpc.ShardParticipant` exposes under that name —
    taken from the *authoritative* replica: the live replica that has
    applied the most of the chosen log (ties broken by name).  At
    quiescence every live replica agrees with it; the replication
    oracles check exactly that.
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

    @property
    def state(self) -> ParticipantState:
        return self.authoritative.state

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
            if rep.state.prepared or rep._pending:
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

"""Multi-decree consensus with leader leases over the simulated network.

Each shard of the distributed engine becomes a **replica group** whose
members run the consensus protocol in this module: a multi-decree
Paxos in its leader-based (Raft-shaped) formulation — one elected
proposer per term batches decrees through a replicated log instead of
running a fresh ballot per slot.  The module is deliberately
paper-shaped rather than library-shaped: everything a replica does is
driven by ``on_message``/``on_timer`` callbacks from the
:class:`~repro.dist.network.SimulatedNetwork`, all randomness (election
timeouts) comes from a per-replica seeded RNG, and every piece of
oracle-relevant history (leader stints, vote grants, the log itself) is
kept on the replica object for the harness to audit after the run.

Protocol summary
----------------
* **Terms and elections.**  A replica that hears nothing from a leader
  for one randomized-but-seeded election timeout increments its term and
  solicits votes (``repl-vote-req``).  Votes obey the election
  restriction: a replica only grants its single vote per term to a
  candidate whose log is at least as up to date as its own, so a leader
  always holds every chosen entry.
* **Log replication.**  The leader appends commands to its log and
  replicates them with ``repl-append`` (which doubles as the heartbeat).
  Appends are **pipelined**: the leader keeps two marks per follower —
  ``next_index``, where the follower is *known* to be (raised by an ack,
  lowered by a reject's hint), and a **send mark**, the end of what has
  been shipped to it — and a new proposal ships only ``log[sent:]``, so
  on the fast path every entry travels to every follower exactly once,
  however many acks are still outstanding.  A successful ack never
  triggers a send.
  An entry is **chosen** once replicas on a quorum hold it *and* the
  leader has established its term by committing an entry of that term —
  leaders commit a no-op on election for exactly this purpose, and never
  count quorums for prior-term entries directly (the classic
  figure-eight anomaly).  Entries travel as the leader's own
  ``(term, command)`` pairs: they are immutable, so a follower's log may
  hold the very objects the leader's does.
* **Catch-up.**  Followers reject appends whose predecessor they do not
  hold — a lost append, or merely two in-flight appends that overtook
  each other under jittered latency, which pipelining makes routine.  A
  reject whose length hint lowers ``next_index`` is answered at once
  with ``log[next_index:]``; one that teaches nothing new re-sends
  nothing, because its repair is already in flight.  The backstop is the
  heartbeat, which ships ``log[next_index:]`` every
  ``heartbeat_interval`` whether or not it was sent before, so a
  restarted replica converges from its durable log without any snapshot
  machinery.  One optimistic index would not do: advance it on send and
  it must fall back to *something* when an ack goes missing, and the
  only safe something (``match_index``, which a term starts at 0) ships
  the whole log on the term's first heartbeat.
* **Leases.**  The leader tracks, per follower, the send timestamp of
  the newest heartbeat that follower acknowledged; the quorum-th newest
  such timestamp plus ``LEASE_DURATION`` is the leader's lease.  The
  lease is a *liveness* device — a leader whose lease lapsed (e.g. it is
  on the minority side of a partition) sheds client work with
  ``repl-no-quorum`` instead of hanging it; safety never depends on it,
  because 2PC prepares are validated against replicated state.

Crash/restart model: ``crash()`` wipes volatile state (role, commit
index, leader bookkeeping), bumps the node's network incarnation so
pre-crash timers cannot fire into the restart, and arms a supervisor
restart timer.  The log, ``current_term`` and ``voted_for`` survive, as
they would on a real replica's stable storage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.metrics import Metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_TRACER, Tracer

from .network import Message, SimulatedNetwork

#: replica roles
FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"

#: message kinds the consensus core exchanges (all prefixed ``repl-``
#: so fault plans can target consensus traffic separately from 2PC)
VOTE_REQ = "repl-vote-req"
VOTE = "repl-vote"
APPEND = "repl-append"
APPEND_REPLY = "repl-append-reply"


# Election and lease timing in virtual time, sized against the network's
# default latency (base 1.0, jitter 0.5) and the 2PC layer's timeouts: an
# election completes in roughly two round trips plus the timeout draw,
# well under the coordinator's retry budget.

#: minimum silence before a follower starts an election
ELECTION_TIMEOUT = 8.0
#: uniform extra randomness on top of ``ELECTION_TIMEOUT`` — this is what
#: breaks split-vote symmetry, seeded per replica
ELECTION_JITTER = 6.0
#: lease length granted by each quorum of heartbeat acks
LEASE_DURATION = 6.0


@dataclass(frozen=True)
class ReplicationConfig:
    """Tunables for one replica group (virtual time units).

    Heartbeats must come often enough that a healthy leader's lease
    never lapses and no follower's election timer fires.
    """

    #: leader heartbeat (empty ``repl-append``) period
    heartbeat_interval: float = 2.0
    #: consecutive failed elections after which a replica tells clients
    #: ``repl-no-quorum`` instead of staying silent (graceful shedding
    #: on the minority side of a partition)
    suspect_after: int = 2
    #: delay before a crashed replica restarts (supervisor timer)
    restart_delay: float = 10.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_interval >= ELECTION_TIMEOUT:
            raise ValueError(
                "heartbeat_interval must be below the election timeout "
                f"({self.heartbeat_interval!r} >= {ELECTION_TIMEOUT!r})"
            )
        if self.suspect_after < 1:
            raise ValueError("suspect_after must be at least 1")
        if self.restart_delay <= 0:
            raise ValueError("restart_delay must be positive")


class PaxosReplica:
    """One member of a replica group: consensus core only.

    Subclasses supply the replicated state machine by overriding
    :meth:`apply_command` (invoked exactly once per chosen log entry, in
    log order, on every live replica) and :meth:`reset_state` (invoked
    on restart before the log is re-applied).

    Log indexing convention: the log is a list of ``(term, command)``
    pairs; ``commit_index`` and ``last_applied`` are *counts* (the log
    prefix ``log[:commit_index]`` is chosen).
    """

    def __init__(
        self,
        name: str,
        group: str,
        peers: List[str],
        network: SimulatedNetwork,
        config: Optional[ReplicationConfig] = None,
        seed: int = 0,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if name not in peers:
            raise ValueError(f"replica {name!r} must be listed in its peers")
        self.name = name
        self.group = group
        self.peers = sorted(peers)
        self.others = [p for p in self.peers if p != name]
        # membership only: sends iterate the sorted list, never the set
        self._other_set = frozenset(self.others)
        self.quorum = len(self.peers) // 2 + 1
        self.network = network
        self.config = config if config is not None else ReplicationConfig()
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._tracing = self.tracer.enabled
        self._rng = random.Random(seed)

        # durable state (survives crash, as if on stable storage)
        self.log: List[Tuple[int, Tuple[Any, ...]]] = []
        self.current_term = 0
        self.voted_for: Optional[str] = None
        #: audit trail for the lease-uniqueness oracle: every (term,
        #: candidate) pair this replica granted its vote to
        self.vote_grants: List[Tuple[int, str]] = []
        #: audit trail: every stint *this* replica served as leader
        self.leader_stints: List[Dict[str, Any]] = []

        # volatile state
        self.role = FOLLOWER
        self.leader_hint: Optional[str] = None
        self.commit_index = 0
        self.last_applied = 0
        self.failed_elections = 0
        self.accepting_messages = True
        self.accepting_timers = True
        self._heard_since_arm = False
        self._votes: Set[str] = set()
        #: peers heard from since the last election started — a lost
        #: election with a quorum of contacts is a split vote, not a
        #: partition, and must not feed quorum suspicion
        self._round_contacts: Set[str] = set()
        #: per follower, where it is *known* to be: raised by an ack,
        #: lowered by a reject's hint; heartbeats and repairs resend from it
        self._next_index: Dict[str, int] = {}
        #: per follower, the send mark: everything below it has been
        #: shipped once, so new entries go out from here
        self._sent_index: Dict[str, int] = {}
        self._match_index: Dict[str, int] = {}
        #: per-follower send-time of the newest heartbeat it acked
        self._acked_heartbeat: Dict[str, float] = {}
        self._lease_until = 0.0
        self._term_start_index = 0
        self._election_timer: Optional[int] = None
        self._heartbeat_timer: Optional[int] = None
        # counter handles, resolved at the first append
        self._appends = None
        self._entries_shipped = None

        self._arm_election_timer()

    # ------------------------------------------------------------------
    # state-machine hooks (subclass responsibility)
    # ------------------------------------------------------------------
    def apply_command(self, now: float, index: int, command: Tuple[Any, ...]) -> None:
        """Apply one chosen command; ``index`` is its log position."""

    def reset_state(self, now: float) -> None:
        """Reset the state machine to its initial state (restart path)."""

    def on_step_down(self, now: float) -> None:
        """Hook: leader-only volatile protocol state must be dropped."""

    def on_elected(self, now: float) -> None:
        """Hook: runs after this replica becomes leader (post no-op append)."""

    # ------------------------------------------------------------------
    # liveness introspection
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self.accepting_messages

    def is_established_leader(self) -> bool:
        """Leader whose term no-op is already chosen (safe to serve)."""
        return self.role == LEADER and self.commit_index > self._term_start_index

    def has_lease(self, now: float) -> bool:
        """Whether the leader's quorum lease covers ``now``."""
        if self.role != LEADER:
            return False
        if not self.others:
            return True
        if now > self._lease_until:
            self._refresh_lease()
        return now <= self._lease_until

    def quorum_suspect(self) -> bool:
        """Repeated failed elections: likely on the minority side."""
        return self.failed_elections >= self.config.suspect_after

    # ------------------------------------------------------------------
    # network callbacks
    # ------------------------------------------------------------------
    def on_message(self, now: float, message: Message) -> None:
        src = message.src
        if src in self._other_set:
            self._round_contacts.add(src)
        handler = self._handlers.get(message.kind)
        if handler is not None:
            handler(self, now, message.payload)
        else:
            self.on_client_message(now, message)

    def on_client_message(self, now: float, message: Message) -> None:
        """Non-consensus traffic (the 2PC layer); subclass overrides."""
        raise ValueError(f"replica {self.name} got unknown message {message!r}")

    def on_timer(self, now: float, kind: str, payload: Dict[str, Any]) -> None:
        if kind == "repl-election":
            self._on_election_timer(now)
        elif kind == "repl-heartbeat":
            self._on_heartbeat_timer(now)
        elif kind == "repl-restart":
            self.restart(now)
        else:
            self.on_client_timer(now, kind, payload)

    def on_client_timer(self, now: float, kind: str, payload: Dict[str, Any]) -> None:
        raise ValueError(f"replica {self.name} got unknown timer kind {kind!r}")

    # ------------------------------------------------------------------
    # elections
    # ------------------------------------------------------------------
    def _arm_election_timer(self) -> None:
        if self._election_timer is not None:
            self.network.cancel_timer(self._election_timer)
        delay = ELECTION_TIMEOUT + self._rng.random() * ELECTION_JITTER
        self._heard_since_arm = False
        self._election_timer = self.network.set_timer(
            self.name, delay, "repl-election", {}
        )

    def _on_election_timer(self, now: float) -> None:
        self._election_timer = None
        if self.role == LEADER:
            return
        if self._heard_since_arm:
            self._arm_election_timer()
            return
        self._start_election(now)

    def _start_election(self, now: float) -> None:
        self.current_term += 1
        self.role = CANDIDATE
        self.voted_for = self.name
        self.vote_grants.append((self.current_term, self.name))
        self._votes = {self.name}
        # only a *quiet* round feeds quorum suspicion: an election lost
        # to a rival whose voters still answered is a split vote the
        # randomized timeouts will resolve, while a full timeout with
        # sub-quorum contact means this side cannot assemble a majority
        if len(self._round_contacts) + 1 < self.quorum:
            self.failed_elections += 1
        else:
            self.failed_elections = 0
        self._round_contacts = set()
        self.metrics.incr("dist.repl.elections")
        last_term = self.log[-1][0] if self.log else 0
        for peer in self.others:
            self.network.send(
                self.name,
                peer,
                VOTE_REQ,
                {
                    "term": self.current_term,
                    "cand": self.name,
                    "last_idx": len(self.log),
                    "last_term": last_term,
                },
            )
        self._arm_election_timer()
        if len(self._votes) >= self.quorum:  # single-replica group
            self._become_leader(now)

    def _log_up_to_date(self, payload: Dict[str, Any]) -> bool:
        my_last_term = self.log[-1][0] if self.log else 0
        if payload["last_term"] != my_last_term:
            return payload["last_term"] > my_last_term
        return payload["last_idx"] >= len(self.log)

    def _on_vote_req(self, now: float, payload: Dict[str, Any]) -> None:
        term = payload["term"]
        if term > self.current_term:
            self._step_down(now, term)
        granted = False
        if (
            term == self.current_term
            and self.role != LEADER
            and self.voted_for in (None, payload["cand"])
            and self._log_up_to_date(payload)
        ):
            granted = True
            if self.voted_for is None:
                self.voted_for = payload["cand"]
                self.vote_grants.append((term, payload["cand"]))
            # granting a vote defers this replica's own candidacy
            self._heard_since_arm = True
        self.network.send(
            self.name,
            payload["cand"],
            VOTE,
            {"term": self.current_term, "voter": self.name, "granted": granted},
        )

    def _on_vote(self, now: float, payload: Dict[str, Any]) -> None:
        if payload["term"] > self.current_term:
            self._step_down(now, payload["term"])
            return
        if (
            self.role != CANDIDATE
            or payload["term"] != self.current_term
            or not payload["granted"]
        ):
            return
        self._votes.add(payload["voter"])
        if len(self._votes) >= self.quorum:
            self._become_leader(now)

    def _become_leader(self, now: float) -> None:
        self.role = LEADER
        self.leader_hint = self.name
        self.failed_elections = 0
        self.leader_stints.append(
            {"term": self.current_term, "replica": self.name, "start": now}
        )
        self.metrics.incr("dist.repl.leaders_elected")
        if self._tracing:
            self.tracer.now = now
            self.tracer.emit(
                obs_trace.ELECT,
                0,
                None,
                0,
                detail=self.group,
                meta={"replica": self.name, "term": self.current_term},
            )
        self._next_index = {p: len(self.log) for p in self.others}
        self._sent_index = dict(self._next_index)
        self._match_index = {p: 0 for p in self.others}
        self._acked_heartbeat = {}
        # the winning votes came from a live quorum within the last
        # election timeout; seed the lease from them
        self._lease_until = now + LEASE_DURATION
        # establish the term: chosen entries are only ever counted for
        # the current term, so commit a no-op of this term first
        self._term_start_index = len(self.log)
        self.log.append((self.current_term, ("noop",)))
        self._replicate(now)
        self._arm_heartbeat_timer()
        self.on_elected(now)

    def _step_down(self, now: float, term: int) -> None:
        was_leader = self.role == LEADER
        if term > self.current_term:
            self.current_term = term
            self.voted_for = None
        self.role = FOLLOWER
        self._votes = set()
        self._next_index = {}
        self._sent_index = {}
        self._match_index = {}
        self._acked_heartbeat = {}
        self._lease_until = 0.0
        if self._heartbeat_timer is not None:
            self.network.cancel_timer(self._heartbeat_timer)
            self._heartbeat_timer = None
        if was_leader:
            self.on_step_down(now)
        if self._election_timer is None:
            self._arm_election_timer()

    # ------------------------------------------------------------------
    # log replication
    # ------------------------------------------------------------------
    def propose(self, now: float, command: Tuple[Any, ...]) -> int:
        """Leader-only: append ``command`` and start replicating it."""
        if self.role != LEADER:
            raise RuntimeError(
                f"replica {self.name} proposed {command!r} while {self.role}"
            )
        index = len(self.log)
        self.log.append((self.current_term, command))
        self.metrics.incr("dist.repl.proposals")
        self._replicate(now)
        return index

    def _arm_heartbeat_timer(self) -> None:
        if self._heartbeat_timer is not None:
            self.network.cancel_timer(self._heartbeat_timer)
        self._heartbeat_timer = self.network.set_timer(
            self.name, self.config.heartbeat_interval, "repl-heartbeat", {}
        )

    def _on_heartbeat_timer(self, now: float) -> None:
        self._heartbeat_timer = None
        if self.role != LEADER:
            return
        # the heartbeat doubles as the retransmit: everything the follower
        # has not acknowledged, whether or not it was sent before
        next_index = self._next_index
        for peer in self.others:
            self._send_append(now, peer, next_index[peer])
        self._arm_heartbeat_timer()

    def _replicate(self, now: float) -> None:
        """Ship each follower the entries it has not been sent yet."""
        if not self.others:
            # a single-replica group chooses instantly; with followers a
            # longer log alone never moves the quorum's match position
            self._advance_commit(now)
            return
        sent_index = self._sent_index
        for peer in self.others:
            self._send_append(now, peer, sent_index[peer])

    def _send_append(self, now: float, peer: str, prev: int) -> None:
        """Send ``log[prev:]`` to ``peer`` and move its send mark to the end."""
        log = self.log
        entries = log[prev:]
        self._sent_index[peer] = len(log)
        appends = self._appends
        if appends is None:
            appends = self._appends = self.metrics.counter("dist.repl.appends")
            self._entries_shipped = self.metrics.counter("dist.repl.entries_shipped")
        appends.value += 1
        self._entries_shipped.value += len(entries)
        prev_term = log[prev - 1][0] if prev > 0 else 0
        self.network.send(
            self.name,
            peer,
            APPEND,
            {
                "term": self.current_term,
                "leader": self.name,
                "prev_idx": prev,
                "prev_term": prev_term,
                "entries": entries,
                "commit": self.commit_index,
                "hb": now,
            },
        )

    def _on_append(self, now: float, payload: Dict[str, Any]) -> None:
        term = payload["term"]
        if term < self.current_term:
            self.network.send(
                self.name,
                payload["leader"],
                APPEND_REPLY,
                {
                    "term": self.current_term,
                    "follower": self.name,
                    "ok": False,
                    "hint": len(self.log),
                    "hb": payload["hb"],
                },
            )
            return
        if term > self.current_term or self.role != FOLLOWER:
            self._step_down(now, term)
        leader = self.leader_hint = payload["leader"]
        self.failed_elections = 0
        self._heard_since_arm = True
        log = self.log
        prev = payload["prev_idx"]
        ok = prev <= len(log) and (
            prev == 0 or log[prev - 1][0] == payload["prev_term"]
        )
        if not ok:
            # missing or mismatched predecessor: hint our length so the
            # leader backtracks next_index in one step instead of one-by-one
            self.network.send(
                self.name,
                leader,
                APPEND_REPLY,
                {
                    "term": self.current_term,
                    "follower": self.name,
                    "ok": False,
                    "hint": min(len(log), max(prev - 1, 0)),
                    "hb": payload["hb"],
                },
            )
            return
        match = prev
        for entry in payload["entries"]:
            if match < len(log):
                if log[match][0] != entry[0]:
                    # conflicting uncommitted suffix from a deposed leader
                    del log[match:]
                    log.append(entry)
                # else: already hold this entry — keep it (a stale
                # retransmission must not truncate newer entries)
            else:
                log.append(entry)
            match += 1
        # only advance commit up to entries this append vouched for — a
        # reordered stale append's commit index may exceed what we hold
        new_commit = min(payload["commit"], match)
        if new_commit > self.commit_index:
            self.commit_index = new_commit
            self._apply(now)
        self.network.send(
            self.name,
            leader,
            APPEND_REPLY,
            {
                "term": self.current_term,
                "follower": self.name,
                "ok": True,
                "match": match,
                "hb": payload["hb"],
            },
        )

    def _on_append_reply(self, now: float, payload: Dict[str, Any]) -> None:
        if payload["term"] > self.current_term:
            self._step_down(now, payload["term"])
            return
        if self.role != LEADER or payload["term"] != self.current_term:
            return
        follower = payload["follower"]
        next_index = self._next_index
        if follower not in next_index:
            return
        if not payload["ok"]:
            self.metrics.incr("dist.repl.append_rejects")
            hint = payload["hint"]
            # a reject that teaches nothing new re-sends nothing: its
            # repair is already in flight, the heartbeat is the backstop
            if hint < next_index[follower]:
                next_index[follower] = hint
                self._send_append(now, follower, hint)
            return
        match = payload["match"]
        if match > next_index[follower]:
            next_index[follower] = match
        # the lease is a function of the ack table, read off it on demand
        # (`has_lease`); the commit index is a function of the match table,
        # so an ack that does not advance that cannot move it
        acked = payload["hb"]
        if acked > self._acked_heartbeat.get(follower, -1.0):
            self._acked_heartbeat[follower] = acked
        if match > self._match_index[follower]:
            self._match_index[follower] = match
            self._advance_commit(now)

    #: consensus traffic by kind; everything else is client traffic.  Plain
    #: functions on the class (bound methods on the instance would be a
    #: reference cycle), re-resolved per subclass so overrides dispatch.
    _handlers = {
        VOTE_REQ: _on_vote_req,
        VOTE: _on_vote,
        APPEND: _on_append,
        APPEND_REPLY: _on_append_reply,
    }

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        handlers = cls._handlers.items()
        cls._handlers = {kind: getattr(cls, fn.__name__) for kind, fn in handlers}

    def _refresh_lease(self) -> None:
        # the lease extends from the send time of the newest heartbeat a
        # quorum acknowledged (the leader acks its own sends implicitly);
        # acks only move forward, so recomputing on demand loses nothing
        needed = self.quorum - 1
        acked = self._acked_heartbeat
        if len(acked) < needed:
            return
        basis = sorted(acked.values())[-needed]
        lease = basis + LEASE_DURATION
        if lease > self._lease_until:
            self._lease_until = lease

    def _advance_commit(self, now: float) -> None:
        if self.role != LEADER:
            return
        log = self.log
        matches = sorted([len(log), *self._match_index.values()])
        candidate = matches[-self.quorum]
        if candidate <= self.commit_index:
            return
        # the quorum rule only proves choice for current-term entries;
        # earlier entries are chosen transitively once one of ours is
        if log[candidate - 1][0] != self.current_term:
            return
        self.commit_index = candidate
        self._apply(now)

    def _apply(self, now: float) -> None:
        # stop applying the moment a chaos hook crashes this replica
        # mid-loop; the restart path re-applies from a reset state machine
        while self.last_applied < self.commit_index and self.accepting_messages:
            index = self.last_applied
            _, command = self.log[index]
            self.last_applied += 1
            self.apply_command(now, index, command)

    # ------------------------------------------------------------------
    # crash and restart
    # ------------------------------------------------------------------
    def crash(self, now: float, restart_delay: Optional[float] = None) -> None:
        """Crash this replica; durable state (log, term, vote) survives."""
        if not self.accepting_messages:
            return
        self.accepting_messages = False
        self.accepting_timers = False
        self.metrics.incr("dist.repl.crashes")
        if self._tracing:
            self.tracer.now = now
            self.tracer.emit(
                obs_trace.CRASH,
                0,
                None,
                0,
                detail=self.name,
                meta={"group": self.group, "term": self.current_term},
            )
        self.network.bump_incarnation(self.name)
        self.role = FOLLOWER
        self.leader_hint = None
        self._votes = set()
        self._next_index = {}
        self._sent_index = {}
        self._match_index = {}
        self._acked_heartbeat = {}
        self._lease_until = 0.0
        self._election_timer = None
        self._heartbeat_timer = None
        delay = self.config.restart_delay if restart_delay is None else restart_delay
        self.network.set_timer(self.name, delay, "repl-restart", {}, supervisor=True)

    def restart(self, now: float) -> None:
        """Come back up: rebuild volatile state by replaying the log."""
        if self.accepting_messages:
            return
        self.accepting_messages = True
        self.accepting_timers = True
        self.metrics.incr("dist.repl.restarts")
        if self._tracing:
            self.tracer.now = now
            self.tracer.emit(
                obs_trace.RECOVER,
                0,
                None,
                0,
                detail=self.name,
                meta={"group": self.group, "term": self.current_term},
            )
        self.commit_index = 0
        self.last_applied = 0
        self.failed_elections = 0
        self._round_contacts = set()
        self.reset_state(now)
        # a restarted replica holds its durable log but does not know how
        # much of it is chosen; it relearns the commit index from the
        # current leader's appends (safe: applying is idempotent from a
        # freshly reset state machine)
        self._arm_election_timer()

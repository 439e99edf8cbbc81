"""The shared oracle stack: serializability checkers plus invariants.

One committed history, several judges:

* **conflict-graph** — the single-version certificate: the committed
  conflict graph (reads at grant positions, writes at commit positions)
  must be acyclic;
* **lifted-mvsg** — the agreement guard: the same single-version history
  *lifted* into a multi-version one (every read is attributed to the
  committed writer whose install it actually observed, version order =
  commit order) must pass the MVSG check too.  Conflict-serializable
  single-version histories are one-copy serializable under this lifting,
  so a disagreement between the two checkers is itself a bug — in a
  protocol or in an oracle;
* **mvsg** — the multi-version certificate over the protocol's actual
  reads-from log and version orders (:mod:`repro.analysis.mvsg`);
* **self-verdict** — the protocol's own
  :meth:`~repro.engine.protocols.base.ConcurrencyControl.
  committed_history_serializable`, which answers from a serial-order
  certificate (:mod:`repro.analysis.certificate`) before it falls back
  to a graph, must equal the graph verdict above — so every cell is a
  differential test of the certificate;
* the scenario's **invariants**, filtered by the protocol's guarantee.

Verdicts carry a ``required`` flag: plain snapshot isolation runs the
MVSG oracle too, but only advisorily — write skew is admitted by design,
and the differential runner must not call a designed-in anomaly a
conformance failure.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.mvsg import MVHistory, explain_mvsg_cycle, one_copy_serializable
from repro.dist.recovery import COMMIT as DIST_COMMIT
from repro.engine.mvstore import VersionedRead
from repro.engine.protocols.base import ConcurrencyControl
from repro.engine.protocols.registry import (
    ONE_COPY_SERIALIZABLE,
    SERIALIZABLE,
    SNAPSHOT_ISOLATION,
)
from repro.engine.reasons import ABORT_REPL_NO_QUORUM, TPC_ABORT_CODES
from repro.harness.recorder import RunContext
from repro.harness.scenarios import SERIALIZABLE_LEVEL, Scenario


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's judgement of one run."""

    oracle: str
    ok: bool
    required: bool
    detail: str = ""

    def __str__(self) -> str:
        status = "ok" if self.ok else ("VIOLATION" if self.required else "advisory-fail")
        text = f"{self.oracle}: {status}"
        if self.detail and not self.ok:
            text += f" — {self.detail}"
        return text


# ----------------------------------------------------------------------
# lifting a single-version history into MVSG form
# ----------------------------------------------------------------------


def lift_single_version_history(protocol: ConcurrencyControl) -> MVHistory:
    """The committed single-version history as a multi-version one.

    Reads the protocol's committed history: per committed transaction,
    in commit order, its commit position and its granted operations with
    their positions, all drawn from one shared sequence.  Writes take
    effect at commit (the engine buffers them), so the version order of
    each key is its committed writers in commit order, and a read at
    position ``s`` observed the version of the last writer whose commit
    position precedes ``s`` — or its own buffered write (read-your-
    writes), or the initial version.
    """
    history = protocol.committed_log()

    # per key: (commit position, writer), in commit order
    writers_by_key: Dict[str, List[Tuple[int, int]]] = {}
    for commit_position, txn_id, trail in history:
        for key in dict.fromkeys(key for _, kind, key in trail if kind == "write"):
            writers_by_key.setdefault(key, []).append((commit_position, txn_id))

    reads: List[VersionedRead] = []
    for _, txn_id, trail in history:
        own_writes: Set[str] = set()
        for position, kind, key in trail:
            if kind == "write":
                own_writes.add(key)
            elif key in own_writes:
                # read-your-writes: attribute to the reader itself (the
                # MVSG builder skips self-edges)
                reads.append(VersionedRead(txn_id, key, txn_id))
            else:
                entries = writers_by_key.get(key, [])
                index = bisect_left(entries, (position, -1))
                writer = entries[index - 1][1] if index else None
                reads.append(VersionedRead(txn_id, key, writer))

    version_orders = {
        key: tuple(txn for _, txn in entries)
        for key, entries in writers_by_key.items()
    }
    return MVHistory(
        committed=frozenset(protocol.committed),
        reads=tuple(reads),
        version_orders=version_orders,
    )


# ----------------------------------------------------------------------
# cycle pretty-printing
# ----------------------------------------------------------------------


def explain_conflict_cycle(protocol: ConcurrencyControl) -> Optional[str]:
    """Render a conflict-graph cycle with a witness key per edge."""
    graph = protocol.committed_conflict_graph()
    cycle = graph.find_cycle()
    if cycle is None:
        return None

    # each transaction's accesses as (position, is_write, key): reads at
    # grant positions, writes at its commit position
    accesses = {
        txn_id: [
            (commit_position if kind == "write" else position, kind == "write", key)
            for position, kind, key in trail
        ]
        for commit_position, txn_id, trail in protocol.committed_log()
    }

    def witness(u: int, v: int) -> str:
        for u_pos, u_write, key in accesses[u]:
            for v_pos, v_write, v_key in accesses[v]:
                if key == v_key and u_pos < v_pos and (u_write or v_write):
                    kinds = ("w" if u_write else "r") + ("w" if v_write else "r")
                    return f"{kinds} on {key!r}"
        return "conflict"

    edges = [
        f"T{u} -[{witness(u, v)}]-> T{v}" for u, v in zip(cycle, cycle[1:])
    ]
    return "cycle: " + "; ".join(edges)


def _mvsg_detail(history: MVHistory) -> str:
    cycle = explain_mvsg_cycle(history)
    if cycle is None:
        return ""
    return "mvsg cycle: " + " -> ".join(f"T{txn}" for txn in cycle)


# ----------------------------------------------------------------------
# the stack
# ----------------------------------------------------------------------


def invariant_verdicts(
    scenario: Scenario, ctx: RunContext, guarantee: str
) -> List[OracleVerdict]:
    """Judge the scenario invariants appropriate to a guarantee level."""
    verdicts = []
    for invariant in scenario.invariants:
        required = not (
            invariant.level == SERIALIZABLE_LEVEL and guarantee == SNAPSHOT_ISOLATION
        )
        detail = invariant.check(ctx)
        verdicts.append(
            OracleVerdict(
                oracle=f"invariant:{invariant.name}",
                ok=detail is None,
                required=required,
                detail=detail or "",
            )
        )
    return verdicts


def evaluate_run(
    protocol: ConcurrencyControl,
    scenario: Scenario,
    ctx: RunContext,
    guarantee: str,
) -> List[OracleVerdict]:
    """Run the full oracle stack over one finished execution."""
    verdicts: List[OracleVerdict] = []
    if guarantee == SERIALIZABLE:
        graph_ok = not protocol.committed_conflict_graph().has_cycle()
        verdicts.append(
            OracleVerdict(
                "conflict-graph",
                graph_ok,
                required=True,
                detail="" if graph_ok else (explain_conflict_cycle(protocol) or ""),
            )
        )
        lifted = lift_single_version_history(protocol)
        lifted_ok = one_copy_serializable(lifted)
        verdicts.append(
            OracleVerdict(
                "lifted-mvsg",
                lifted_ok,
                required=True,
                detail="" if lifted_ok else _mvsg_detail(lifted),
            )
        )
    else:
        history = MVHistory.from_protocol(protocol)
        graph_ok = one_copy_serializable(history)
        verdicts.append(
            OracleVerdict(
                "mvsg",
                graph_ok,
                required=guarantee == ONE_COPY_SERIALIZABLE,
                detail="" if graph_ok else _mvsg_detail(history),
            )
        )
    # the protocol's own verdict answers from a serial-order certificate
    # when it can; it must agree with the graph built here
    self_ok = protocol.committed_history_serializable()
    verdicts.append(
        OracleVerdict(
            "self-verdict",
            self_ok == graph_ok,
            required=True,
            detail=f"protocol says serializable={self_ok}, graph says {graph_ok}",
        )
    )
    if getattr(protocol, "deterministic", False):
        verdicts.extend(deterministic_verdicts(protocol))
    verdicts.extend(invariant_verdicts(scenario, ctx, guarantee))
    return verdicts


def deterministic_verdicts(protocol: ConcurrencyControl) -> List[OracleVerdict]:
    """The deterministic-protocol oracles (Calvin-style epoch scheduling).

    Two properties, both *required* under every plan:

    * **det-epoch-order** — commit order equals sequence (epoch) order:
      walking the committed transactions by commit position, their
      sequencer tickets' sequence numbers must be strictly increasing.
      The fixed pre-order is the protocol's entire claim; a single
      inversion means the commit gate leaked.
    * **det-no-protocol-aborts** — the protocol itself never aborts:
      no deadlock victims, no validation failures.  The
      ``protocol.aborts`` counter counts only protocol-issued ABORT
      decisions (kernel-injected fault aborts are ``kernel.fault_aborts``),
      and every harness cell builds its protocol with its own registry,
      so this holds even under fault plans;
      reconnaissance aborts cannot occur in harness runs because the
      kernel declares exact footprints from the specs.
    """
    tickets = protocol.sequencer.tickets
    seqs = [
        (txn, tickets[txn].seq)
        for _, txn, _ in protocol.committed_log()
        if txn in tickets
    ]
    inversion = ""
    for (prev_txn, prev_seq), (txn, seq) in zip(seqs, seqs[1:]):
        if seq < prev_seq:
            inversion = (
                f"T{txn} (seq {seq}) committed after T{prev_txn} "
                f"(seq {prev_seq})"
            )
            break
    aborts = protocol.metrics.count("protocol.aborts")
    return [
        OracleVerdict(
            "det-epoch-order", not inversion, required=True, detail=inversion
        ),
        OracleVerdict(
            "det-no-protocol-aborts",
            aborts == 0,
            required=True,
            detail="" if aborts == 0 else (
                f"deterministic protocol issued {aborts} abort decision(s); "
                "expected zero (no deadlocks, no validation)"
            ),
        ),
    ]


# ----------------------------------------------------------------------
# distributed-run oracles (repro.dist 2PC cells)
# ----------------------------------------------------------------------


def evaluate_dist_run(scenario, report) -> Tuple[OracleVerdict, ...]:
    """Judge one distributed 2PC run against the five chaos oracles.

    Every oracle is *required* regardless of plan: the whole point of
    the chaos matrix is that loss, duplication, partitions and
    coordinator crashes must never cost atomicity or conservation —
    only throughput.

    1. **dist-conservation** — cross-shard transfers move money, never
       create it: the merged final snapshot sums to the initial sum.
    2. **dist-atomicity** — all-or-nothing per transaction: a committed
       transaction's writes are applied on every shard holding a slice
       of its write set; a presumed-abort transaction is applied
       nowhere.
    3. **dist-replay** — the decision log is a serialization order:
       replaying the committed write sets in log order over the initial
       data reproduces the final snapshot exactly.
    4. **dist-locks** — no orphans: at quiescence no participant holds
       a prepare lock or an undecided prepared transaction.
    5. **dist-taxonomy** — every aborted client attempt carries a
       machine-readable ``2pc-*`` reason code.
    """
    verdicts: List[OracleVerdict] = []

    expected_total = sum(scenario.initial_data.values())
    actual_total = sum(report.final_snapshot.values())
    verdicts.append(
        OracleVerdict(
            "dist-conservation",
            actual_total == expected_total,
            required=True,
            detail=f"sum(balances) = {actual_total}, expected {expected_total}",
        )
    )

    atomicity_detail = ""
    log_state = report.coordinator.log.replay()
    for txn_id in sorted(log_state):
        shards, decision, _ended, _index = log_state[txn_id]
        applied_on = sorted(
            name
            for name, participant in report.participants.items()
            if txn_id in participant.state.applied_writes
        )
        if decision == DIST_COMMIT:
            # a commit needs every shard's YES vote, so every shard of
            # the transaction must have prepared — and therefore must
            # have applied its slice (possibly empty) by quiescence
            missing = [
                name
                for name in shards
                if txn_id not in report.participants[name].state.applied_writes
            ]
            aborted_on = sorted(
                name
                for name, participant in report.participants.items()
                if participant.state.outcomes.get(txn_id) == "abort"
            )
            if aborted_on:
                atomicity_detail = (
                    f"T{txn_id} committed but {aborted_on} recorded abort"
                )
                break
            if missing:
                atomicity_detail = f"T{txn_id} committed but {missing} never applied"
                break
        else:
            if applied_on:
                atomicity_detail = (
                    f"T{txn_id} presumed aborted but applied on {applied_on}"
                )
                break
    verdicts.append(
        OracleVerdict(
            "dist-atomicity", not atomicity_detail, required=True, detail=atomicity_detail
        )
    )

    replayed = dict(scenario.initial_data)
    for _txn_id, writes in report.committed:
        replayed.update(writes)
    replay_detail = ""
    if replayed != report.final_snapshot:
        diff = sorted(
            key
            for key in set(replayed) | set(report.final_snapshot)
            if replayed.get(key) != report.final_snapshot.get(key)
        )
        replay_detail = (
            f"replaying the decision log diverges from the final state on {diff[:5]}"
        )
    verdicts.append(
        OracleVerdict("dist-replay", not replay_detail, required=True, detail=replay_detail)
    )

    lock_detail = ""
    for name in sorted(report.participants):
        state = report.participants[name].state
        if state.locks or state.in_doubt:
            lock_detail = (
                f"{name} still holds locks={sorted(state.locks)} "
                f"in-doubt={sorted(state.in_doubt)} at quiescence"
            )
            break
    verdicts.append(
        OracleVerdict("dist-locks", not lock_detail, required=True, detail=lock_detail)
    )

    taxonomy_detail = ""
    for record in report.abort_records:
        if record.code not in TPC_ABORT_CODES:
            taxonomy_detail = (
                f"aborted attempt (spec {record.spec_index}, attempt "
                f"{record.attempt}) carries code {record.code!r}, "
                f"not a 2pc-* taxonomy code"
            )
            break
    verdicts.append(
        OracleVerdict(
            "dist-taxonomy", not taxonomy_detail, required=True, detail=taxonomy_detail
        )
    )
    if getattr(report, "groups", None):
        verdicts.extend(replication_verdicts(scenario, report))
    return tuple(verdicts)


# ----------------------------------------------------------------------
# replication oracles (Paxos-replicated shards, repro.dist.replication)
# ----------------------------------------------------------------------


def _replay_shard_log(initial, prefix):
    """An independent mini-interpreter for a shard's chosen 2PC log.

    Deliberately *not* the production apply path: it re-derives the
    final key/value state from the committed log prefix with its own
    version bookkeeping, so a bug in :meth:`ReplicatedParticipant.
    apply_command` cannot vouch for itself.
    """
    values = dict(initial)
    versions = {key: 0 for key in initial}
    prepared: Dict[int, Dict] = {}
    locks: Dict[str, int] = {}
    outcomes: Dict[int, str] = {}
    for _term, command in prefix:
        kind = command[0]
        if kind == "noop":
            continue
        if kind == "prepare":
            _, txn_id, reads, writes = command
            if txn_id in outcomes or txn_id in prepared:
                continue  # duplicate chosen entry: first application decided
            footprint = set(reads) | set(writes)
            conflicted = any(
                locks.get(key) not in (None, txn_id) for key in footprint
            )
            stale = any(
                versions.get(key, 0) != version for key, version in reads.items()
            )
            if conflicted or stale:
                outcomes[txn_id] = "abort"
                continue
            prepared[txn_id] = dict(writes)
            for key in footprint:
                locks[key] = txn_id
        elif kind == "decide":
            _, txn_id, outcome = command
            writes = prepared.pop(txn_id, None)
            for key in [k for k, owner in locks.items() if owner == txn_id]:
                del locks[key]
            if writes is not None:
                if outcome == "commit":
                    for key in sorted(writes):
                        values[key] = writes[key]
                        versions[key] = versions.get(key, 0) + 1
                outcomes[txn_id] = outcome
            else:
                outcomes.setdefault(txn_id, outcome)
    return values


def replication_verdicts(scenario, report) -> List[OracleVerdict]:
    """The four replica-group oracles, judged per shard group.

    1. **repl-log-safety** — chosen-prefix agreement: for every pair of
       replicas in a group, their logs agree entry-for-entry up to the
       shorter commit index.  This is the consensus safety property;
       a divergence means two replicas chose different values for the
       same slot.
    2. **repl-lease-uniqueness** — at most one replica ever became
       leader in any given term (from the union of every replica's
       durable ``leader_stints``), and no replica's durable vote
       record grants two different candidates in one term.
    3. **repl-state-agreement** — an independent replay of the
       authoritative replica's committed log prefix over the shard's
       initial slice reproduces its store exactly, and every live
       replica that has applied as much as the authoritative one holds
       a byte-identical snapshot.
    4. **repl-quorum-liveness** — progress was not silently lost: the
       run committed at least one transaction, and under the faultless
       plan no attempt was ever aborted with ``repl-no-quorum`` (a
       quorum-loss report without a fault injection is a false alarm).
    """
    verdicts: List[OracleVerdict] = []

    safety_detail = ""
    for shard in sorted(report.groups):
        group = report.groups[shard]
        replicas = group.replicas
        for left_index in range(len(replicas)):
            for right_index in range(left_index + 1, len(replicas)):
                left, right = replicas[left_index], replicas[right_index]
                agreed = min(left.commit_index, right.commit_index)
                for slot in range(agreed):
                    if left.log[slot] != right.log[slot]:
                        safety_detail = (
                            f"{shard}: {left.name} and {right.name} disagree "
                            f"at committed slot {slot}: "
                            f"{left.log[slot]!r} vs {right.log[slot]!r}"
                        )
                        break
                if safety_detail:
                    break
            if safety_detail:
                break
        if safety_detail:
            break
    verdicts.append(
        OracleVerdict(
            "repl-log-safety", not safety_detail, required=True, detail=safety_detail
        )
    )

    lease_detail = ""
    for shard in sorted(report.groups):
        group = report.groups[shard]
        leaders_by_term: Dict[int, Set[str]] = {}
        for rep in group.replicas:
            for stint in rep.leader_stints:
                leaders_by_term.setdefault(stint["term"], set()).add(stint["replica"])
        for term in sorted(leaders_by_term):
            if len(leaders_by_term[term]) > 1:
                lease_detail = (
                    f"{shard}: term {term} had leaders "
                    f"{sorted(leaders_by_term[term])}"
                )
                break
        if lease_detail:
            break
        for rep in group.replicas:
            grants_by_term: Dict[int, Set[str]] = {}
            for term, candidate in rep.vote_grants:
                grants_by_term.setdefault(term, set()).add(candidate)
            double = [t for t, cands in grants_by_term.items() if len(cands) > 1]
            if double:
                term = min(double)
                lease_detail = (
                    f"{shard}: {rep.name} granted term {term} to "
                    f"{sorted(grants_by_term[term])}"
                )
                break
        if lease_detail:
            break
    verdicts.append(
        OracleVerdict(
            "repl-lease-uniqueness",
            not lease_detail,
            required=True,
            detail=lease_detail,
        )
    )

    agreement_detail = ""
    for shard in sorted(report.groups):
        group = report.groups[shard]
        authority = group.authoritative
        replayed = _replay_shard_log(
            authority.initial_data, authority.log[: authority.last_applied]
        )
        snapshot = authority.state.store.snapshot()
        if replayed != snapshot:
            diff = sorted(
                key
                for key in set(replayed) | set(snapshot)
                if replayed.get(key) != snapshot.get(key)
            )
            agreement_detail = (
                f"{shard}: independent log replay diverges from "
                f"{authority.name}'s store on {diff[:5]}"
            )
            break
        for rep in group.live:
            if rep.last_applied == authority.last_applied and (
                rep.state.store.snapshot() != snapshot
            ):
                agreement_detail = (
                    f"{shard}: {rep.name} applied the same prefix as "
                    f"{authority.name} but holds a different snapshot"
                )
                break
        if agreement_detail:
            break
    verdicts.append(
        OracleVerdict(
            "repl-state-agreement",
            not agreement_detail,
            required=True,
            detail=agreement_detail,
        )
    )

    liveness_detail = ""
    if report.commit_count < 1:
        liveness_detail = "no transaction committed (replication stalled the run)"
    elif scenario.plan == "none":
        false_alarms = [
            record
            for record in report.abort_records
            if record.code == ABORT_REPL_NO_QUORUM
        ]
        if false_alarms:
            record = false_alarms[0]
            liveness_detail = (
                f"faultless plan reported quorum loss: spec "
                f"{record.spec_index} attempt {record.attempt} aborted "
                f"with {ABORT_REPL_NO_QUORUM!r}"
            )
    verdicts.append(
        OracleVerdict(
            "repl-quorum-liveness",
            not liveness_detail,
            required=True,
            detail=liveness_detail,
        )
    )
    return verdicts

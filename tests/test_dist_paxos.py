"""The consensus core: elections, leases, replication, catch-up.

These tests drive :class:`PaxosReplica` groups directly on the
simulated network — no 2PC layer — to pin the consensus properties the
replicated participant builds on: exactly one established leader per
term, chosen-prefix agreement, follower catch-up after a crash, and a
quorum-suspicion signal that fires on partitions but never on healthy
split votes.  The pipelining tests at the end pin what the leader
*sends*: each entry to each follower once, repaired by rejects and
heartbeats under loss, duplication and reordering, and across a leader
crash with appends still in flight.
"""

from __future__ import annotations

import pytest

from repro.dist.network import LatencyModel, Message, SimulatedNetwork
from repro.dist.paxos import (
    APPEND_REPLY,
    FOLLOWER,
    LEADER,
    PaxosReplica,
    ReplicationConfig,
)
from repro.engine.faults import NetworkFaultPlan, NetworkFaultSpec, PartitionWindow
from repro.engine.metrics import Metrics


class Applier(PaxosReplica):
    """A replica whose state machine is just an append-only journal."""

    def __init__(self, *args, **kwargs) -> None:
        self.journal = []
        super().__init__(*args, **kwargs)

    def apply_command(self, now, index, command) -> None:
        self.journal.append((index, command))

    def reset_state(self, now) -> None:
        self.journal = []


def build_group(
    n=3, seed=0, config=None, latency=None, fault_plan=None, replica_cls=Applier
):
    # one registry for the network and every replica, so the tests read
    # dist.net.* and dist.repl.* off ``network.metrics``
    metrics = Metrics()
    network = SimulatedNetwork(
        latency=latency, seed=seed, fault_plan=fault_plan, metrics=metrics
    )
    names = [f"g.r{i}" for i in range(n)]
    replicas = [
        network.register(
            replica_cls(
                name,
                "g",
                names,
                network,
                config=config,
                seed=seed * 1000 + i,
                metrics=metrics,
            )
        )
        for i, name in enumerate(names)
    ]
    return network, replicas


def run_until(network, predicate, limit=400.0, step=20.0):
    # the step must exceed the election timeout: run(until=...) only
    # advances the clock by dispatching events, so a window shorter than
    # the first pending timer would spin without progress
    while network.now < limit:
        network.run(until=network.now + step)
        if predicate():
            return True
    return False


def established_leader(replicas):
    leaders = [
        r for r in replicas if r.alive and r.role == LEADER and r.is_established_leader()
    ]
    if not leaders:
        return None
    return max(leaders, key=lambda r: r.current_term)


def succeeded(replicas, old):
    """Whether an established leader other than ``old`` exists."""
    leader = established_leader(replicas)
    return leader is not None and leader is not old


def assert_committed_prefixes_agree(replicas):
    for a in replicas:
        for b in replicas:
            agreed = min(a.commit_index, b.commit_index)
            assert a.log[:agreed] == b.log[:agreed], (a.name, b.name)


class TestReplicationConfig:
    def test_bad_heartbeat_rejected(self):
        with pytest.raises(ValueError):
            ReplicationConfig(heartbeat_interval=0.0)

    def test_bad_suspect_after_rejected(self):
        with pytest.raises(ValueError):
            ReplicationConfig(suspect_after=0)


class TestElections:
    def test_group_elects_exactly_one_established_leader(self):
        network, replicas = build_group()
        assert run_until(network, lambda: established_leader(replicas))
        leaders = [r for r in replicas if r.role == LEADER]
        assert len(leaders) == 1
        leader = leaders[0]
        # the term no-op is chosen on a quorum
        assert leader.commit_index >= 1
        assert leader.log[leader._term_start_index][1] == ("noop",)

    def test_vote_is_granted_at_most_once_per_term(self):
        network, replicas = build_group(seed=3)
        run_until(network, lambda: established_leader(replicas))
        network.run(until=network.now + 100.0)
        for replica in replicas:
            grants = {}
            for term, candidate in replica.vote_grants:
                grants.setdefault(term, set()).add(candidate)
            for term, candidates in grants.items():
                assert len(candidates) == 1, (replica.name, term, candidates)

    def test_at_most_one_leader_per_term(self):
        network, replicas = build_group(seed=7)
        run_until(network, lambda: established_leader(replicas))
        network.run(until=network.now + 100.0)
        by_term = {}
        for replica in replicas:
            for stint in replica.leader_stints:
                by_term.setdefault(stint["term"], set()).add(stint["replica"])
        for term, names in by_term.items():
            assert len(names) == 1, (term, names)

    def test_healthy_group_never_suspects_quorum_loss(self):
        # even across seeds whose startup elections split, a group whose
        # members answer each other must not report repl-no-quorum
        for seed in range(6):
            network, replicas = build_group(seed=seed)
            run_until(network, lambda: established_leader(replicas))
            network.run(until=network.now + 60.0)
            assert not any(r.quorum_suspect() for r in replicas), seed

    def test_single_replica_group_is_its_own_leader(self):
        network, [replica] = build_group(n=1)
        assert run_until(network, lambda: established_leader([replica]), limit=60.0)
        assert replica.has_lease(network.now)


class TestLogReplication:
    def test_proposals_reach_every_journal_in_order(self):
        network, replicas = build_group()
        run_until(network, lambda: established_leader(replicas))
        leader = established_leader(replicas)
        for i in range(5):
            leader.propose(network.now, ("set", i))
        run_until(
            network,
            lambda: all(
                sum(cmd != ("noop",) for _i, cmd in r.journal) == 5
                for r in replicas
            ),
            limit=network.now + 120.0,
        )
        journals = [
            [cmd for _idx, cmd in r.journal if cmd != ("noop",)] for r in replicas
        ]
        assert journals[0] == [("set", i) for i in range(5)]
        assert all(j == journals[0] for j in journals)

    def test_committed_prefixes_agree_pairwise(self):
        network, replicas = build_group(seed=11)
        run_until(network, lambda: established_leader(replicas))
        leader = established_leader(replicas)
        for i in range(4):
            leader.propose(network.now, ("set", i))
        network.run(until=network.now + 80.0)
        assert_committed_prefixes_agree(replicas)

    def test_leader_holds_a_lease_under_heartbeats(self):
        network, replicas = build_group()
        run_until(network, lambda: established_leader(replicas))
        network.run(until=network.now + 30.0)
        leader = established_leader(replicas)
        assert leader is not None and leader.has_lease(network.now)


class TestCrashAndCatchUp:
    def test_leader_crash_elects_a_successor_and_logs_converge(self):
        network, replicas = build_group(seed=5)
        run_until(network, lambda: established_leader(replicas))
        first = established_leader(replicas)
        for i in range(3):
            first.propose(network.now, ("set", i))
        network.run(until=network.now + 30.0)
        first_term = first.current_term
        first.crash(network.now, restart_delay=40.0)

        assert run_until(network, lambda: succeeded(replicas, first))
        successor = established_leader(replicas)
        assert successor.current_term > first_term

        # the restarted ex-leader catches up to the successor's log
        def converged():
            return (
                first.alive
                and all(len(r.log) == len(successor.log) for r in replicas)
                and all(r.last_applied == len(r.log) for r in replicas)
            )

        assert run_until(network, converged)
        assert all(r.log == successor.log for r in replicas)
        journals = [[cmd for _idx, cmd in r.journal] for r in replicas]
        assert all(j == journals[0] for j in journals)

    def test_chosen_commands_survive_the_crash(self):
        network, replicas = build_group(seed=9)
        run_until(network, lambda: established_leader(replicas))
        leader = established_leader(replicas)
        leader.propose(network.now, ("set", "durable"))
        run_until(
            network,
            lambda: all(("set", "durable") in [c for _i, c in r.journal] for r in replicas),
            limit=network.now + 60.0,
        )
        leader.crash(network.now, restart_delay=20.0)
        run_until(
            network,
            lambda: leader.alive and established_leader(replicas) is not None,
        )
        network.run(until=network.now + 60.0)
        for replica in replicas:
            assert ("set", "durable") in [cmd for _idx, cmd in replica.journal]

    def test_crash_is_idempotent_and_counted(self):
        network, replicas = build_group()
        run_until(network, lambda: established_leader(replicas))
        victim = replicas[0]
        victim.crash(network.now, restart_delay=10.0)
        victim.crash(network.now, restart_delay=10.0)  # no-op while down
        assert victim.crash_count == 1
        assert not victim.alive


class TestDeterminism:
    def test_same_seed_same_history(self):
        def signature(seed):
            network, replicas = build_group(seed=seed)
            run_until(network, lambda: established_leader(replicas))
            leader = established_leader(replicas)
            for i in range(3):
                leader.propose(network.now, ("set", i))
            network.run(until=network.now + 60.0)
            return [
                (r.name, r.current_term, r.log, r.commit_index) for r in replicas
            ]

        assert signature(4) == signature(4)


# ----------------------------------------------------------------------
# pipelined appends: what the leader sends
# ----------------------------------------------------------------------


def commands(replica):
    """The replica's applied journal without the term no-ops."""
    return [cmd for _idx, cmd in replica.journal if cmd != ("noop",)]


class TestAmplification:
    """Entries shipped per proposal per follower, as exact counts."""

    def test_a_burst_ships_each_entry_to_each_follower_once(self):
        # an in-order network (no jitter) with a round trip (1.0) that fits
        # well inside a heartbeat interval (4.0): nothing is lost or
        # overtaken, so every count below is exact
        proposals = 6
        config = ReplicationConfig(heartbeat_interval=4.0)
        network, replicas = build_group(
            config=config, latency=LatencyModel(base=0.5, jitter=0.0)
        )
        count = network.metrics.count
        followers = len(replicas) - 1
        assert run_until(network, lambda: established_leader(replicas))
        leader = established_leader(replicas)
        # step to just after a heartbeat, so none fires inside the burst's
        # round trip and re-ships what is merely unacknowledged
        idle, start = count("dist.repl.appends"), network.now
        for tick in range(1, 18):
            network.run(until=start + 0.25 * tick)
            if count("dist.repl.appends") > idle:
                break
        else:
            pytest.fail("no heartbeat within one heartbeat interval")
        appends, shipped = count("dist.repl.appends"), count("dist.repl.entries_shipped")
        for i in range(proposals):
            leader.propose(network.now, ("set", i))
        # the burst itself: one append per proposal per follower, carrying
        # that proposal alone — not 1 + 2 + ... + N entries, as when every
        # propose re-sent the whole unacknowledged suffix
        assert count("dist.repl.appends") - appends == proposals * followers
        assert count("dist.repl.entries_shipped") - shipped == proposals * followers
        assert run_until(
            network,
            lambda: all(len(commands(r)) == proposals for r in replicas),
            limit=network.now + 60.0,
        )
        assert all(commands(r) == [("set", i) for i in range(proposals)] for r in replicas)
        # the whole run: N + no-op entries per follower, every other append
        # an empty heartbeat, and not one of them answering an ack
        assert sum(len(r.leader_stints) for r in replicas) == 1
        assert count("dist.repl.append_rejects") == 0
        assert count("dist.repl.entries_shipped") == (proposals + 1) * followers
        led_for = network.now - leader.leader_stints[0]["start"]
        # (the epsilon: fire times accumulate float error the division lacks)
        heartbeats = int(led_for / config.heartbeat_interval + 1e-6)
        assert count("dist.repl.appends") <= (proposals + 1 + heartbeats) * followers

    def test_a_successful_ack_sends_nothing(self):
        network, replicas = build_group(latency=LatencyModel(base=0.5, jitter=0.0))
        assert run_until(network, lambda: established_leader(replicas))
        leader = established_leader(replicas)
        for i in range(3):
            leader.propose(network.now, ("set", i))
        sent = network.metrics.count("dist.net.sent")
        follower = leader.others[0]
        ack = {
            "term": leader.current_term,
            "follower": follower,
            "ok": True,
            "match": 2,
            "hb": network.now,
        }
        leader.on_message(
            network.now, Message(follower, leader.name, APPEND_REPLY, ack, uid=0)
        )
        assert leader._match_index[follower] == 2
        assert len(leader.log) > 2  # there *is* an unacknowledged suffix
        assert network.metrics.count("dist.net.sent") == sent


class RejectDeaf(Applier):
    """A broken leader: it never backs ``next_index`` off on a reject."""

    def _on_append_reply(self, now, payload) -> None:
        if payload["ok"] or payload["term"] > self.current_term:
            super()._on_append_reply(now, payload)


def lossy_catch_up(replica_cls, seed=2):
    """Two batches through two leaders under 20% loss + 10% duplication.

    One follower sleeps through the whole first batch and wakes into a
    new term whose leader's ``next_index`` for it is far past its log:
    only a reject's hint can bring it back.  Returns the network, the
    replicas, the laggard and whether every replica converged on both
    batches, exactly once each and in order.
    """
    faults = NetworkFaultPlan(
        NetworkFaultSpec(loss_probability=0.2, duplicate_probability=0.1, seed=seed)
    )
    network, replicas = build_group(
        seed=seed, fault_plan=faults, replica_cls=replica_cls
    )
    batch = 10
    expected = [("set", i) for i in range(2 * batch)]

    def run_batch(leader, start):
        for i in range(start, start + batch):
            leader.propose(network.now, ("set", i))
        return run_until(
            network,
            lambda: all(
                commands(r) == expected[: start + batch] for r in replicas if r.alive
            ),
            limit=network.now + 200.0,
        )

    converged = run_until(network, lambda: established_leader(replicas))
    first = established_leader(replicas)
    laggard = [r for r in replicas if r is not first][-1]
    laggard.crash(network.now, restart_delay=60.0)
    converged = converged and run_batch(first, 0)
    first.crash(network.now, restart_delay=120.0)
    converged = converged and run_until(
        network, lambda: succeeded(replicas, first), limit=network.now + 400.0
    )
    if converged:
        converged = run_batch(established_leader(replicas), batch)
    converged = converged and run_until(
        network,
        lambda: all(r.alive and commands(r) == expected for r in replicas),
        limit=network.now + 400.0,
    )
    return network, replicas, laggard, converged


class TestLossDuplicationReordering:
    def test_every_proposal_is_applied_exactly_once_in_order_everywhere(self):
        network, replicas, laggard, converged = lossy_catch_up(Applier)
        assert converged
        count = network.metrics.count
        assert count("dist.net.dropped") > 0 and count("dist.net.duplicated") > 0
        # the backoff path actually ran
        assert count("dist.repl.append_rejects") >= 1
        assert laggard.crash_count == 1
        expected = [("set", i) for i in range(20)]
        for replica in replicas:
            assert replica.alive
            assert commands(replica) == expected, replica.name
        assert_committed_prefixes_agree(replicas)

    def test_the_scenario_bites_a_leader_that_ignores_rejects(self):
        # the same scenario, a leader deaf to rejects: heartbeats still
        # repair plain loss, but nothing lowers next_index for the replica
        # that woke up behind, so it must be caught not converging
        network, replicas, laggard, converged = lossy_catch_up(RejectDeaf)
        assert not converged
        assert laggard.alive
        leader = established_leader(replicas)
        assert leader is not None and len(laggard.log) < len(leader.log)


class TestLeaderCrashWithAnInFlightWindow:
    def test_successor_log_wins_and_the_conflicting_suffix_is_truncated(self):
        network, replicas = build_group(seed=6)
        assert run_until(network, lambda: established_leader(replicas))
        first = established_leader(replicas)
        network.run(until=network.now + 10.0)
        now = network.now
        # three appends leave the leader, unacknowledged ...
        in_flight = [("set", f"in-flight-{i}") for i in range(3)]
        for command in in_flight:
            first.propose(now, command)
        # ... then it is cut off: three more entries reach nobody ...
        network.fault_plan = NetworkFaultPlan(
            NetworkFaultSpec(
                partitions=(PartitionWindow(now, now + 1.0, frozenset({first.name})),)
            )
        )
        stranded = [("set", f"stranded-{i}") for i in range(3)]
        for command in stranded:
            first.propose(now, command)
        # ... and it dies before a single ack comes back, for long enough
        # that the others elect a successor through any split votes
        first.crash(now, restart_delay=150.0)
        assert [cmd for _term, cmd in first.log[-6:]] == in_flight + stranded

        assert run_until(network, lambda: succeeded(replicas, first))
        second = established_leader(replicas)
        # whatever of the in-flight window the successor held when it won is
        # chosen with its term no-op (the first append always lands: its
        # predecessor is the old term's no-op, which everyone holds)
        survivors = [cmd for _term, cmd in second.log if cmd in in_flight]
        assert in_flight[0] in survivors
        later = [("set", f"later-{i}") for i in range(3)]
        for command in later:
            second.propose(network.now, command)
        assert not first.alive  # still down: its suffix conflicts on restart
        chosen_before_restart = list(second.log[: second.commit_index])

        def converged():
            return all(
                r.alive and r.last_applied == len(r.log) == len(second.log)
                for r in replicas
            )

        assert run_until(network, converged)
        assert second.role == LEADER
        # the successor's log wins everywhere; the stranded suffix is gone
        for replica in replicas:
            assert replica.log == second.log, replica.name
            assert commands(replica) == survivors + later, replica.name
            assert not set(stranded) & {cmd for _term, cmd in replica.log}
            # no chosen entry was lost
            assert replica.log[: len(chosen_before_restart)] == chosen_before_restart
        assert_committed_prefixes_agree(replicas)

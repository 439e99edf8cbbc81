"""The serial-order certificates: sound against the graphs, and on duty.

:mod:`repro.analysis.certificate` answers the serializability verdict
without building a graph when the history is equivalent to the serial
order the protocol claims.  Accepting must imply that the conflict
graph (single-version) or the MVSG (multi-version) is acyclic; these
tests check that on random histories against graphs built here from
the definitions, show the certificates rejecting write skew and a wrong
rank, and show that on the bench's single-node smoke shapes the
certificate — not the graph — gives the verdict.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.mvsg as mvsg
from repro.analysis.certificate import (
    multiversion_order_certified,
    serial_order_certified,
)
from repro.analysis.mvsg import MVHistory, one_copy_serializable
from repro.engine.mvstore import MultiVersionDataStore, VersionedRead
from repro.engine.protocols.base import ConcurrencyControl
from repro.engine.protocols.registry import get_entry
from repro.engine.protocols.snapshot_isolation import SnapshotIsolation
from repro.engine.runtime import run_batch
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore
from repro.engine.workloads import (
    WorkloadConfig,
    analytical_workload,
    hotspot_queue_workload,
    zipfian_generator,
)
from repro.util.graphs import DiGraph

KEYS = ("a", "b", "c")


# ----------------------------------------------------------------------
# single-version histories
# ----------------------------------------------------------------------


def all_pairs_conflict_graph(history) -> DiGraph:
    """The conflict graph by definition: reads where granted, writes at commit."""
    events = []
    graph = DiGraph()
    for commit_position, txn, trail in history:
        graph.add_node(txn)
        for position, kind, key in trail:
            if kind == "read":
                events.append((position, txn, key, False))
            else:
                events.append((commit_position, txn, key, True))
    for first in events:
        for second in events:
            if (
                first[0] < second[0]
                and first[1] != second[1]
                and first[2] == second[2]
                and (first[3] or second[3])
            ):
                graph.add_edge(first[1], second[1])
    return graph


@st.composite
def single_version_histories(draw):
    """A committed history: per-transaction programs, randomly interleaved."""
    count = draw(st.integers(1, 5))
    programs = [
        draw(
            st.lists(
                st.tuples(st.sampled_from(("read", "write")), st.sampled_from(KEYS)),
                max_size=4,
            )
        )
        for _ in range(count)
    ]
    # each transaction issues its operations in order, then commits; the
    # interleaving of those steps is the schedule
    slots = [txn for txn, program in enumerate(programs) for _ in range(len(program) + 1)]
    schedule = draw(st.permutations(slots))
    trails = {txn: [] for txn in range(count)}
    issued = {txn: 0 for txn in range(count)}
    commits = []
    for position, txn in enumerate(schedule):
        if issued[txn] < len(programs[txn]):
            kind, key = programs[txn][issued[txn]]
            trails[txn].append((position, kind, key))
            issued[txn] += 1
        else:
            commits.append((position, txn, trails[txn]))
    ranks = draw(st.none() | st.permutations(range(count)))
    return commits, None if ranks is None else dict(enumerate(ranks))


class TestSingleVersionCertificate:
    @settings(max_examples=400, deadline=None)
    @given(single_version_histories())
    def test_accept_implies_an_acyclic_conflict_graph(self, drawn):
        history, ranks = drawn
        if serial_order_certified(history, ranks):
            assert not all_pairs_conflict_graph(history).has_cycle()

    def test_commit_order_accepts_a_serial_history(self):
        history = [
            (2, 1, [(0, "read", "x"), (1, "write", "x")]),
            (5, 2, [(3, "read", "x"), (4, "write", "y")]),
        ]
        assert serial_order_certified(history)

    def test_a_read_overwritten_by_an_earlier_committer_is_rejected(self):
        # T2 read x at 1, T1 wrote x and committed at 2, T2 wrote y and
        # committed at 4: T2 -rw-> T1 points backwards in commit order
        history = [
            (2, 1, [(0, "write", "x")]),
            (4, 2, [(1, "read", "x"), (3, "write", "y")]),
        ]
        assert not serial_order_certified(history)
        # ... but T2 ranked first is a serial order the history matches
        assert serial_order_certified(history, {2: 0, 1: 1})
        assert not all_pairs_conflict_graph(history).has_cycle()

    def test_read_of_own_write_still_conflicts_with_an_earlier_committer(self):
        # T2 writes x at 0 and reads its own x at 1, T1 writes x at 2 and
        # commits at 3, T2 commits at 4: T2's read precedes T1's write,
        # and T1's write precedes T2's
        history = [
            (3, 1, [(2, "write", "x")]),
            (4, 2, [(0, "write", "x"), (1, "read", "x")]),
        ]
        assert not serial_order_certified(history)
        assert all_pairs_conflict_graph(history).has_cycle()

    def test_a_read_after_a_higher_ranked_commit_is_rejected(self):
        # R reads x at 0 and k at 4; W writes x and k and commits at 3.
        # Ranked R before W, the rw edge on x points forward but the wr
        # edge on k (W committed before R read) points back: a cycle
        history = [
            (3, 2, [(1, "write", "x"), (2, "write", "k")]),
            (5, 1, [(0, "read", "x"), (4, "read", "k")]),
        ]
        assert not serial_order_certified(history, {1: 0, 2: 1})
        assert all_pairs_conflict_graph(history).has_cycle()

    def test_a_transaction_without_a_rank_fails_the_certificate(self):
        history = [(1, 1, [(0, "read", "x")]), (3, 2, [(2, "read", "x")])]
        assert not serial_order_certified(history, {1: 0})

    def test_wrong_ranks_send_the_verdict_to_the_graph(self):
        protocol = get_entry("strict-2pl").factory(DataStore({"x": 0}))
        for txn in (1, 2):
            protocol.begin(txn)
            protocol.write(txn, "x", txn)
            protocol.commit(txn)
        protocol.serial_ranks = {1: 1, 2: 0}  # the reverse of the truth
        assert not serial_order_certified(protocol.committed_log(), protocol.serial_ranks)
        assert protocol.committed_history_serializable()


# ----------------------------------------------------------------------
# multi-version histories
# ----------------------------------------------------------------------


@st.composite
def multiversion_histories(draw):
    count = draw(st.integers(1, 5))
    txns = range(1, count + 1)
    stamps = dict(zip(txns, draw(st.permutations(range(count)))))
    orders = {}
    for key in KEYS[:2]:
        writers = draw(st.lists(st.sampled_from(txns), unique=True, max_size=count))
        if draw(st.booleans()):
            writers.sort(key=stamps.get)
        if writers:
            orders[key] = tuple(writers)
    reads = []
    for reader in txns:
        for key in draw(st.lists(st.sampled_from(KEYS[:2]), unique=True, max_size=2)):
            versions = (None,) + orders.get(key, ())
            reads.append(VersionedRead(reader, key, draw(st.sampled_from(versions))))
    committed = frozenset(draw(st.sets(st.sampled_from(txns)))) | frozenset(
        txn for order in orders.values() for txn in order
    )
    pure_readers = draw(st.sets(st.sampled_from(txns)))
    return MVHistory(
        committed=committed,
        reads=tuple(reads),
        version_orders=orders,
        stamps={
            txn: stamp
            for txn, stamp in stamps.items()
            if txn not in pure_readers or any(txn in order for order in orders.values())
        },
    )


def _history(reads, orders, stamps):
    committed = {read[0] for read in reads} | {t for order in orders.values() for t in order}
    return MVHistory(
        committed=frozenset(committed),
        reads=tuple(VersionedRead(*read) for read in reads),
        version_orders=orders,
        stamps=stamps,
    )


class TestMultiVersionCertificate:
    @settings(max_examples=400, deadline=None)
    @given(multiversion_histories())
    def test_accept_implies_an_acyclic_mvsg(self, history):
        if multiversion_order_certified(history):
            assert one_copy_serializable(history)

    def test_stamp_order_accepts_a_snapshot_reader(self):
        # T3 read x from T1 and y initially, while T2 wrote y: T3 fits
        # between the stamps of T1 and T2
        h = _history([(3, "x", 1), (3, "y", None)], {"x": (1,), "y": (2,)}, {1: 10, 2: 20})
        assert multiversion_order_certified(h)
        assert one_copy_serializable(h)

    def test_an_empty_reader_interval_is_rejected(self):
        # T3 read y from T2 but x before T1, while T1 precedes T2
        h = _history([(3, "x", None), (3, "y", 2)], {"x": (1,), "y": (2,)}, {1: 10, 2: 20})
        assert not multiversion_order_certified(h)

    def test_no_stamps_no_certificate(self):
        h = _history([(3, "x", 1)], {"x": (1,)}, None)
        assert not multiversion_order_certified(h)
        assert one_copy_serializable(h)

    def test_write_skew_under_si_is_rejected_by_both(self):
        protocol = SnapshotIsolation(MultiVersionDataStore({"x": 1, "y": 1}))
        for txn in (1, 2):
            protocol.begin(txn)
        for txn in (1, 2):
            protocol.read(txn, "x")
            protocol.read(txn, "y")
        protocol.write(1, "x", 0)
        protocol.write(2, "y", 0)
        assert protocol.commit(1).granted and protocol.commit(2).granted
        history = MVHistory.from_protocol(protocol)
        assert not multiversion_order_certified(history)
        assert not one_copy_serializable(history)
        assert not protocol.committed_history_serializable()


# ----------------------------------------------------------------------
# on duty: the bench's single-node smoke shapes never build a graph
# ----------------------------------------------------------------------


@pytest.fixture
def no_graphs(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the verdict built a graph")

    monkeypatch.setattr(ConcurrencyControl, "committed_conflict_graph", refuse)
    monkeypatch.setattr(mvsg, "one_copy_serializable", refuse)


def _capturing(name):
    built = []

    def factory(store):
        built.append(get_entry(name).factory(store))
        return built[-1]

    return factory, built


class TestCertificateAnswersOnTheBenchShapes:
    def test_exec_hotspot_2pl(self, no_graphs):
        initial, specs = hotspot_queue_workload(
            num_transactions=60,
            ops_per_transaction=6,
            num_hot=4,
            num_cold=192,
            hotspot_probability=0.9,
            zipf_theta=0.8,
            seed=0,
        )
        result = run_batch(get_entry("strict-2pl").factory, DataStore(initial), specs)
        assert result.committed == len(specs) and result.committed_serializable

    def test_exec_scan_mvto(self, no_graphs):
        config = WorkloadConfig(
            num_keys=256,
            operations_per_transaction=4,
            hotspot_fraction=0.1,
            hotspot_probability=0.3,
        )
        initial, specs = analytical_workload(
            200, config, seed=0, read_fraction=0.9, scan_length=8
        )
        factory, built = _capturing("mvto")
        result = run_batch(
            factory, MultiVersionDataStore(initial), specs, max_concurrent=64
        )
        assert result.committed == len(specs) and result.committed_serializable
        assert multiversion_order_certified(MVHistory.from_protocol(built[0]))

    def test_sim_zipf_occ_parallel_in_ticket_order(self, no_graphs):
        config = WorkloadConfig(
            num_keys=1024, operations_per_transaction=4, read_fraction=0.5, zipf_theta=0.4
        )
        initial, generate = zipfian_generator(config)
        rng = random.Random(0)
        feed = iter([generate(rng) for _ in range(400)])
        protocol = get_entry("occ-parallel").factory(DataStore(initial))
        report = Simulator(
            protocol,
            lambda _rng: next(feed),
            SimulationConfig(
                num_clients=64,
                duration=40.0,
                scheduling_time=0.01,
                validation_probe_time=0.05,
                seed=0,
            ),
        ).run()
        assert report.committed > 0 and report.committed_serializable
        assert set(protocol.serial_ranks) == protocol.committed

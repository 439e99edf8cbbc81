"""The distributed hot path is observably invisible, and stays short.

ISSUE 16 rewrote ``SimulatedNetwork.send``/``run``, ``PaxosReplica``'s
message dispatch and append handling, and ``NetworkFaultPlan.intercept``
for host speed only.  Two things pin that the rewrite changed nothing a
caller can see, and that the path does not grow back:

* **Invisibility digests.**  {flat, 3-replica} x {no faults, loss +
  duplication, partition window, coordinator crash, leader crash, a shard
  cut off long enough to be shed as degraded} x 2 seeds on a small
  cross-shard transfer batch (a flat topology has no leader to crash, so
  that one column is replicated-only): a sha256 over
  ``DistributedRunReport.digest()``, ``events_dispatched``, the full
  ``metrics.snapshot()``, sent-message counts by ``kind``,
  ``NetworkFaultPlan.events`` and, per replica, ``(log, current_term,
  vote_grants, leader_stints)``.  Two more cells hash the whole traced
  event stream, so the SEND/RECV emission points are pinned as well.
  The constants below were generated on the parent commit (``69b0f20``)
  *before* any ``src/`` edit, by running this file as a script
  (``PYTHONPATH=src python tests/test_dist_hotpath.py``); a hot path
  change must leave every one untouched.  ISSUE 17's refactor (one 2PC
  participant state machine, commit ``d8d38f6``) did: all 24 passed
  unedited there.  The four ``*/coord-crash/*`` constants — and no
  other — were then regenerated the same way on the commit after it,
  which changes behaviour on purpose: a coordinator that is down now
  refuses ``submit()`` with ``2pc-coordinator-crash`` instead of
  starting a transaction no timer will ever finish, and in all four
  cells a client retry lands inside a restart window.  ISSUE 18
  (pipelined ``repl-append``s: each entry goes to each follower once, a
  successful ack sends nothing) changes what a replicated group puts on
  the wire, so the 12 ``repl/*`` constants and the ``repl/loss-dup/5``
  traced constant — and no other — were regenerated the same way on the
  commit that makes that change (``23c5986``); the 10 ``flat/*``
  constants and the flat traced one passed unedited, because an
  unreplicated shard never enters ``paxos.py``.
* **Call budget.**  Python-level calls on the benchmark's
  ``dist-repl-chaos`` smoke shape, counted with ``sys.setprofile`` —
  deterministic, no wall clock — per committed transaction and per
  dispatched network event.  Since ISSUE 18 the budget is stated in
  work per *commit*: the events it removed are the cheapest ones (a
  duplicate append and its no-op ack), so calls per event *rose* (8.65
  -> 9.49 over 8,993 -> 6,200 events) while calls per commit fell
  (1,296 -> 981); the per-event figure stays as a ceiling.
"""

import collections
import contextlib
import hashlib
import json

import pytest

from test_engine_hotpath import count_python_calls

from repro.dist.engine import DistributedEngine
from repro.dist.network import SimulatedNetwork
from repro.dist.recovery import AFTER_VOTES, MID_BROADCAST, CrashSpec
from repro.dist.replication import REPL_PREPARE_APPLIED, ReplicaCrashSpec
from repro.dist.tpc import TpcConfig
from repro.engine.faults import NetworkFaultSpec, PartitionWindow
from repro.engine.workloads import cross_shard_transfer_workload, dist_shard_of
from repro.obs.trace import TraceRecorder

TOPOLOGIES = {"flat": 1, "repl": 3}
PLANS = ("none", "loss-dup", "partition", "coord-crash", "leader-crash", "degraded")
SEEDS = (5, 1001)
#: cells whose whole traced event stream is hashed too
TRACED = (("flat", "loss-dup", 5), ("repl", "loss-dup", 5))

NUM_SHARDS = 3


def _chaos(topology: str, plan: str, seed: int) -> dict:
    """The engine's fault arguments for one cell."""
    replicated = TOPOLOGIES[topology] > 1
    if plan == "loss-dup":
        # the injection cap is reached mid-run, so both sides of the
        # plan's ``max_injections`` branch are exercised
        return {
            "network_faults": NetworkFaultSpec(
                loss_probability=0.1,
                duplicate_probability=0.05,
                max_injections=30,
                seed=seed + 1,
            )
        }
    if plan == "partition":
        # replicated: cut a majority off from the coordinator, so the
        # survivor sheds with repl-no-quorum while the pair keeps a leader
        isolated = {"shard1.r0", "shard1.r1"} if replicated else {"shard1"}
        return {
            "network_faults": NetworkFaultSpec(
                partitions=(PartitionWindow(8.0, 30.0, frozenset(isolated)),)
            )
        }
    if plan == "degraded":
        # a shard dead for 60 units under a twitchy health window: the
        # coordinator's admission control (shedding, probes, the reduced
        # in-flight limit, the backlog) does the work
        isolated = {"shard1.r0", "shard1.r1"} if replicated else {"shard1"}
        return {
            "network_faults": NetworkFaultSpec(
                partitions=(PartitionWindow(0.0, 60.0, frozenset(isolated)),)
            ),
            "config": TpcConfig(
                max_retries=0,
                min_health_samples=2,
                health_window=4,
                shed_threshold=0.4,
                probe_every=3,
                max_in_flight=2,
            ),
        }
    if plan == "coord-crash":
        return {
            "crash_specs": (
                CrashSpec(AFTER_VOTES, txn_index=3, restart_delay=6.0),
                CrashSpec(MID_BROADCAST, txn_index=9, restart_delay=4.0),
            )
        }
    if plan == "leader-crash":
        return {
            "replica_crashes": (
                ReplicaCrashSpec(shard="shard0", at=20.0, restart_delay=12.0),
                ReplicaCrashSpec(
                    shard="shard1",
                    transition=REPL_PREPARE_APPLIED,
                    txn_index=2,
                    restart_delay=9.0,
                ),
            )
        }
    return {}


def _cells():
    return [
        (topology, plan, seed)
        for topology in TOPOLOGIES
        for plan in PLANS
        for seed in SEEDS
        if not (topology == "flat" and plan == "leader-crash")
    ]


def _cell_id(cell) -> str:
    return "/".join(str(part) for part in cell)


@contextlib.contextmanager
def counting_sends():
    """Count ``SimulatedNetwork.send`` calls by message kind."""
    counts = collections.Counter()
    original = SimulatedNetwork.send

    def send(self, src, dst, kind, payload):
        counts[kind] += 1
        return original(self, src, dst, kind, payload)

    SimulatedNetwork.send = send
    try:
        yield counts
    finally:
        SimulatedNetwork.send = original


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _run_cell(topology, plan, seed, tracer=None):
    initial, specs = cross_shard_transfer_workload(
        num_shards=NUM_SHARDS,
        accounts_per_shard=4,
        num_transactions=24,
        cross_fraction=0.8,
        seed=seed,
    )
    with counting_sends() as sent:
        engine = DistributedEngine(
            initial,
            num_shards=NUM_SHARDS,
            shard_of=dist_shard_of,
            seed=seed,
            replicas=TOPOLOGIES[topology],
            tracer=tracer,
            **_chaos(topology, plan, seed),
        )
        report = engine.run(specs)
    return engine, report, sent


def dist_digest(topology, plan, seed) -> str:
    engine, report, sent = _run_cell(topology, plan, seed)
    fault_plan = engine.network.fault_plan
    return _sha(
        {
            "digest": report.digest(),
            "events": report.events_dispatched,
            "metrics": report.metrics.snapshot(),
            "sent_by_kind": sorted(sent.items()),
            "fault_events": [
                (e.index, e.src, e.dst, e.kind, e.action, e.time)
                for e in (fault_plan.events if fault_plan is not None else ())
            ],
            "replicas": {
                replica.name: {
                    "log": replica.log,
                    "current_term": replica.current_term,
                    "vote_grants": replica.vote_grants,
                    "leader_stints": replica.leader_stints,
                }
                for group in report.groups.values()
                for replica in group.replicas
            },
        }
    )


def traced_digest(topology, plan, seed) -> str:
    tracer = TraceRecorder()
    _, report, _ = _run_cell(topology, plan, seed, tracer=tracer)
    return _sha({"digest": report.digest(), "trace": tracer.to_jsonl()})


# generated on the parent commit; the four coord-crash cells after ISSUE 17's
# bugfix, the twelve repl cells with ISSUE 18's pipelined appends (see the
# module docstring); do not edit
DIST_DIGESTS = {
    "flat/none/5": "80f5208174e0a3eaa26838f3b1af07a36087477adc5ddcaacdca280eb97cad52",
    "flat/none/1001": "d14a9a5ffd8cd37e47b136dec8e4bef5fa5588e2aae0a1fd898dd7fd4d6eea8b",
    "flat/loss-dup/5": "3e878dca98f16ee860a7852fa815d7de0ba4331ec1452d8f33d2c826da926e05",
    "flat/loss-dup/1001": "86db4eac11c3ce123114b2e83c899ebc1a1627cd3d5e4f0094203bd008ced103",
    "flat/partition/5": "02a69fb09620c478ae5ebb1671a25bd44368079866434d14f6e1ff27a452a275",
    "flat/partition/1001": "a8489c92e0e816779a4810d02acedbd7c8ead6caea5b4b7cd6cf6390ff5cc6ed",
    "flat/coord-crash/5": "b84cfe5a4bc0b9ffd9d73b17dd848ea528b68d4b1f1d495706d89cb1eb92cc28",
    "flat/coord-crash/1001": "ab3909a0ef07b49bf3b6cbea4da46b5b8ed8a8866a32b64977a389da3ea29749",
    "flat/degraded/5": "d784767933f1a8020a5bbee3ce1fce62054f4953dd1374bb2d364d1840e814dc",
    "flat/degraded/1001": "db238a31b9940a6dda37068a2086dfe782b3d6e777015d8a5cb84d1a2b101cab",
    "repl/none/5": "f87309082ddc10f2fd94548ee04a9da66c2cb12fe72d114195e9f1c77d029df9",
    "repl/none/1001": "702e3359cff2676aac301a3cacfd5c17430d7540a6d9f2482e44a660b6eb42f4",
    "repl/loss-dup/5": "03f81464550ab92f99ebf62ad15a7d9b0cf4840bbfee4a505b6f6a35908f443e",
    "repl/loss-dup/1001": "04477d04a058fdd3bb753a4cabacf6b55700d4043ceaf1df68687b546f7dc291",
    "repl/partition/5": "0deb732c9758c3889de61d0e30c05101dc3955992391b82874d701d4426d1458",
    "repl/partition/1001": "f60e93584a21ab56d432a66859375135da59160e1f6956a890dfc723b9e0bf56",
    "repl/coord-crash/5": "29e1bd1cbe65fa2cc5930e61b79c3e0ccea16db746efb01b0268cae827096ff5",
    "repl/coord-crash/1001": "aac90f5fd0ae0a1e176763cd1cfa4d362a305ed447356931c4fb58fef0386667",
    "repl/leader-crash/5": "c8a60c17504a8519759de197282bc7345e24d8a0babbdccb00ea62a53c88b7ea",
    "repl/leader-crash/1001": "c67ff543801f739de423f5c878e0a55782f29c608289132897c5733ebff22993",
    "repl/degraded/5": "4f31460b0cc0ed4ca171d58dacc4048580600528e53655e5e6ad61dcef6d6205",
    "repl/degraded/1001": "869252eb1ea67993f91d4fc772681e7265d7ea29bb41d1683b586f523103b2cf",
}

TRACED_DIGESTS = {
    "flat/loss-dup/5": "a823c081755d6ac1707b71e5d8cc4103510c577c6c861d59daafacebd1dc79f7",
    "repl/loss-dup/5": "af5e5395fb8ee8b63c6005815439afe536d7a9e1a5f9dd57350f6b8142c83bf7",
}


class TestInvisibility:
    def test_every_cell_is_pinned(self):
        assert sorted(DIST_DIGESTS) == sorted(_cell_id(cell) for cell in _cells())
        assert sorted(TRACED_DIGESTS) == sorted(_cell_id(cell) for cell in TRACED)

    @pytest.mark.parametrize("cell", _cells(), ids=_cell_id)
    def test_dist_digest_unchanged(self, cell):
        assert dist_digest(*cell) == DIST_DIGESTS[_cell_id(cell)]

    @pytest.mark.parametrize("cell", TRACED, ids=_cell_id)
    def test_traced_stream_unchanged(self, cell):
        assert traced_digest(*cell) == TRACED_DIGESTS[_cell_id(cell)]

    def test_the_chaos_cells_really_inject(self):
        # a pin over a run in which nothing went wrong would pin nothing
        engine, report, sent = _run_cell("repl", "loss-dup", 5)
        counts = report.metrics.count
        assert counts("dist.net.dropped") > 0 and counts("dist.net.duplicated") > 0
        assert len(engine.network.fault_plan.events) == 30
        assert sent["repl-append"] > 0 and sent["prepare"] > 0
        _, report, _ = _run_cell("repl", "partition", 5)
        assert report.metrics.count("dist.repl.unavail") > 0
        _, report, _ = _run_cell("repl", "leader-crash", 5)
        assert report.metrics.count("dist.repl.crashes") == 2
        _, report, _ = _run_cell("flat", "coord-crash", 5)
        assert report.metrics.count("dist.coordinator_crashes") >= 1
        for topology in TOPOLOGIES:
            _, report, _ = _run_cell(topology, "degraded", 5)
            counts = report.metrics.count
            assert counts("dist.shed") > 0 and counts("dist.backlogged") > 0


# ----------------------------------------------------------------------
# the call budget
# ----------------------------------------------------------------------


def _bench_smoke_chaos():
    # bench/workloads.py's "smoke" sizing of dist-repl-chaos, seed 0
    initial, specs = cross_shard_transfer_workload(
        num_shards=3,
        accounts_per_shard=16,
        num_transactions=60,
        cross_fraction=0.8,
        seed=0,
    )
    engine = DistributedEngine(
        initial,
        num_shards=3,
        shard_of=dist_shard_of,
        seed=0,
        config=TpcConfig(client_max_attempts=16),
        replicas=3,
        network_faults=NetworkFaultSpec(
            loss_probability=0.05, duplicate_probability=0.02, seed=0
        ),
        replica_crashes=[
            ReplicaCrashSpec(shard=f"shard{index}", at=at, restart_delay=12.0)
            for index, at in enumerate((25.0, 225.0, 425.0))
        ],
    )
    return engine, specs


class TestCallBudget:
    #: calls per committed transaction on this shape before ISSUE 18
    PARENT_PER_COMMIT = 1296.0
    #: the post-change figure (980.8) + 5%
    PER_COMMIT_BUDGET = 1030.0
    #: the post-change calls per dispatched event (9.49) + 5%
    PER_EVENT_CEILING = 10.0

    @pytest.fixture(scope="class")
    def measured(self):
        engine, specs = _bench_smoke_chaos()
        calls, _, report = count_python_calls(lambda: engine.run(specs))
        assert report.commit_count == len(specs)
        assert report.metrics.count("dist.repl.crashes") == 3
        return calls, report

    def test_calls_per_commit_on_the_bench_smoke_shape(self, measured):
        calls, report = measured
        per_commit = calls / report.commit_count
        assert self.PER_COMMIT_BUDGET <= 0.8 * self.PARENT_PER_COMMIT
        assert per_commit <= self.PER_COMMIT_BUDGET, (
            f"{per_commit:.0f} Python calls per committed transaction (budget "
            f"{self.PER_COMMIT_BUDGET:.0f}): the replicated path sends or does more"
        )

    def test_calls_per_dispatched_event_on_the_bench_smoke_shape(self, measured):
        calls, report = measured
        per_event = calls / report.events_dispatched
        assert per_event <= self.PER_EVENT_CEILING, (
            f"{per_event:.2f} Python calls per dispatched event (ceiling "
            f"{self.PER_EVENT_CEILING}): the distributed hot path grew back"
        )


if __name__ == "__main__":
    print("DIST_DIGESTS = {")
    for cell in _cells():
        print(f'    "{_cell_id(cell)}": "{dist_digest(*cell)}",')
    print("}\n\nTRACED_DIGESTS = {")
    for cell in TRACED:
        print(f'    "{_cell_id(cell)}": "{traced_digest(*cell)}",')
    print("}")
    engine, specs = _bench_smoke_chaos()
    calls, _, report = count_python_calls(lambda: engine.run(specs))
    print(f"\n# calls per commit: {calls / report.commit_count:.1f}")
    print(f"# calls per dispatched event: {calls / report.events_dispatched:.2f}")

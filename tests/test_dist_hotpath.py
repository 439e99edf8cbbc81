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
  cells a client retry lands inside a restart window.
* **Call budget.**  Python-level calls per dispatched network event on
  the benchmark's ``dist-repl-chaos`` smoke shape, counted with
  ``sys.setprofile`` — deterministic, no wall clock.
"""

import collections
import contextlib
import hashlib
import json
import sys

import pytest

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


# generated on the parent commit, the four coord-crash cells after ISSUE 17's
# bugfix (see the module docstring); do not edit
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
    "repl/none/5": "5f616d2665973745825b44f1cb08e32a55567b51f4bbdd0f9ebc0d41616253d1",
    "repl/none/1001": "7aebffab64e42359e4b7b515a7328dccaa3591f05caa75837077e127ace3c046",
    "repl/loss-dup/5": "b36b04156e04c9ef47dfe1f2609b2a586f6077caecc355afde59dd9b6e9ab1bd",
    "repl/loss-dup/1001": "26ba7073f9de9869789abe55e92735d06befbe4d746c8a4364d1fd268911025a",
    "repl/partition/5": "2ed4e19bfd6309c0669b08ceef6102c5fd019ccf0dfc52b5bbd399a87facde78",
    "repl/partition/1001": "589f97ce78499fa48705913bfdc3bc86a5531b0d9160d87df43191bd2a483e31",
    "repl/coord-crash/5": "b3e3297a70a3fbab0e89d2cf028d1757bb7e77427ae992c6abbdf2902d111fdd",
    "repl/coord-crash/1001": "e44ef30fc04ffdb6cb7053a831c31f023bad0eb5f03957f577869bf083447a04",
    "repl/leader-crash/5": "1d04ad2e79c4c782d5f44fa0e4aacbfe8eb345e84838bebef6d61817fe5637cc",
    "repl/leader-crash/1001": "5ababf32f3c3d7b48f104de3f57a86876fd2107af2caca536d1c84c3fedc78ef",
    "repl/degraded/5": "18b7934ff4f280112d2c008b228149e929cdbdecd93c59c99cc9b74e73eaf81d",
    "repl/degraded/1001": "23a8005d50b1672d2fb9981951373dcf63a5d73e39b223552371b37cc9bf17b4",
}

TRACED_DIGESTS = {
    "flat/loss-dup/5": "a823c081755d6ac1707b71e5d8cc4103510c577c6c861d59daafacebd1dc79f7",
    "repl/loss-dup/5": "00c78ddc9dab8c68d62f0e747ffb979835a1ef70bb6e2c71b76a215a2c915ef9",
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


def count_python_calls(fn):
    """Python-level ``call`` events while ``fn`` runs (C calls excluded)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


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
    #: calls per dispatched event on this shape at the parent commit
    PARENT = 14.61
    #: the post-change figure (8.57) + 5%
    BUDGET = 9.0

    def test_calls_per_dispatched_event_on_the_bench_smoke_shape(self):
        engine, specs = _bench_smoke_chaos()
        calls, report = count_python_calls(lambda: engine.run(specs))
        assert report.commit_count == len(specs)
        assert report.metrics.count("dist.repl.crashes") == 3
        per_event = calls / report.events_dispatched
        assert self.BUDGET <= 0.8 * self.PARENT
        assert per_event <= self.BUDGET, (
            f"{per_event:.2f} Python calls per dispatched event (budget "
            f"{self.BUDGET}): the distributed hot path grew back"
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
    calls, report = count_python_calls(lambda: engine.run(specs))
    print(f"\n# calls per dispatched event: {calls / report.events_dispatched:.2f}")

"""Every behaviour pin in one registry: 177 sha256 digests in nine groups.

A pin hashes what a caller can observe of one small deterministic run, a
*cell*.  Each :class:`Group` declares its cells, their digest function,
whether it is *frozen* (its generator is gone: the code must reproduce it
forever), its provenance and its constants; ``tests/test_pins.py``
asserts each pin once.  ``PYTHONPATH=src python tests/pins.py diff``
recomputes every group, frozen ones too, prints per group ``unchanged N``
and each ``changed``, ``missing`` (cell without pin) or ``extra`` (pin
without cell) key, and exits 1 if anything moved: run it on the parent
and on a change, and paste both outputs.  ``regen GROUP`` rewrites that
group's literal in this file, and refuses a frozen one with exit status 2.
"""

import argparse
import ast
import collections
import hashlib
import json
import re
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence
from unittest import mock

from repro.dist.engine import DistributedEngine
from repro.dist.network import SimulatedNetwork
from repro.dist.recovery import AFTER_VOTES, MID_BROADCAST, CrashSpec
from repro.dist.replication import REPL_PREPARE_APPLIED, ReplicaCrashSpec
from repro.dist.tpc import TpcConfig
from repro.engine.faults import NetworkFaultSpec, PartitionWindow
from repro.engine.protocols.registry import PROTOCOL_ENTRIES
from repro.engine.runtime import TransactionExecutor, run_batch
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore
from repro.engine.workloads import (
    WorkloadConfig,
    cross_shard_transfer_workload,
    dist_shard_of,
    hotspot_queue_workload,
    read_mostly_workload,
    zipfian_hotspot_generator,
    zipfian_hotspot_workload,
)
from repro.harness.recorder import HistoryRecorder
from repro.harness.runner import run_cell
from repro.harness.scenarios import build_scenario
from repro.obs.trace import TraceRecorder


def sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- single node: the executor and the simulator -----------------------


def zipfian_batch(num_transactions=24, seed=5):
    config = WorkloadConfig(num_keys=12, read_fraction=0.4)
    return zipfian_hotspot_workload(num_transactions=num_transactions, config=config, seed=seed)


INTERLEAVINGS = ("round-robin", "random", "serial")

BATCHES = {
    "hotspot": zipfian_batch(),
    "read-mostly": read_mostly_workload(
        num_transactions=30, config=WorkloadConfig(num_keys=16), seed=3
    ),
    "hotspot-queue": hotspot_queue_workload(
        num_transactions=24, ops_per_transaction=4, num_hot=2, num_cold=8, seed=7
    ),
}


def executor_digest(name, interleaving, batch) -> str:
    initial, specs = BATCHES[batch]
    protocol = PROTOCOL_ENTRIES[name].factory(DataStore(initial))
    executor = TransactionExecutor(protocol, max_attempts=400, interleaving=interleaving, seed=9)
    result = executor.run(list(specs))
    return sha(
        {
            "result": {
                "protocol_name": result.protocol_name,
                "committed": result.committed,
                "aborted_attempts": result.aborted_attempts,
                "restarts": result.restarts,
                "gave_up": result.gave_up,
                "operations_issued": result.operations_issued,
                "blocks": result.blocks,
                "store_snapshot": sorted(result.store_snapshot.items()),
                "committed_serializable": result.committed_serializable,
            },
            "per_transaction": result.per_transaction,
            "metrics": result.metrics.to_dict(),
            "history": protocol.committed_log(),
        }
    )


def simulator_digest(name) -> str:
    initial, generate = zipfian_hotspot_generator(WorkloadConfig(num_keys=12, read_fraction=0.4))
    protocol = PROTOCOL_ENTRIES[name].factory(DataStore(initial))
    config = SimulationConfig(num_clients=12, duration=120.0, seed=4, validation_probe_time=0.05)
    report = Simulator(protocol, generate, config).run()
    breakdown = report.mean_breakdown
    return sha(
        {
            "report": {
                "protocol_name": report.protocol_name,
                "duration": report.duration,
                "committed": report.committed,
                "aborts": report.aborts,
                "blocks": report.blocks,
                "operations": report.operations,
                "delay_free_transactions": report.delay_free_transactions,
                "mean_response_time": report.mean_response_time,
                "mean_breakdown": [breakdown.scheduling, breakdown.waiting, breakdown.execution],
                "committed_serializable": report.committed_serializable,
                "final_snapshot": sorted(report.final_snapshot.items()),
                # the report no longer has this field; the literal keeps
                # the digest input, and so the pinned constants, unchanged
                "wait_policy": "event",
                "events_processed": report.events_processed,
            },
            "metrics": report.metrics.to_dict(),
            "history": protocol.committed_log(),
        }
    )


def _executor_cells():
    return {
        f"{name}/{interleaving}/{batch}": (name, interleaving, batch)
        for name in PROTOCOL_ENTRIES for interleaving in INTERLEAVINGS for batch in BATCHES
    }


def _protocol_cells(suffix="", extra=()):
    return {name + suffix: (name, *extra) for name in PROTOCOL_ENTRIES}


# -- single node: the scheduler, judged by the harness's recorder ------


def run_recorded(factory, initial, specs, interleaving, max_concurrent=None):
    """One executor run with the harness's history recorder attached:
    the result, and the recorder's digest of the committed history."""
    protocol = factory(DataStore(initial))
    executor = TransactionExecutor(protocol, max_attempts=400, interleaving=interleaving,
                                   seed=9, max_concurrent=max_concurrent)
    recorder = HistoryRecorder().attach(executor.kernel)
    result = executor.run(list(specs))
    return result, recorder.digest(protocol.store.snapshot())


def random_digest(name) -> str:
    initial, specs = zipfian_batch()
    result, digest = run_recorded(PROTOCOL_ENTRIES[name].factory, initial, specs, "random")
    assert result.committed == len(specs), f"{name} left transactions uncommitted"
    return digest


def admission_digest(name, max_concurrent) -> str:
    initial, specs = zipfian_batch(num_transactions=20, seed=8)
    factory = PROTOCOL_ENTRIES[name].factory
    result, digest = run_recorded(factory, initial, specs, "round-robin", max_concurrent)
    return sha({"per_transaction": result.per_transaction, "history": digest})


def harness_cell_digest(name, scenario_seed, with_faults) -> str:
    scenario = build_scenario(scenario_seed, quick=True, with_faults=with_faults)
    assert (scenario.fault_spec is not None) == with_faults
    entry = PROTOCOL_ENTRIES[name]
    outcome = run_cell(entry, scenario, "executor", quick=True, interleaving="round-robin")
    assert outcome.ok, f"{name} violates an oracle on scenario {scenario_seed}"
    return outcome.digest


def scale_digest(name) -> str:
    initial, specs = hotspot_queue_workload(
        num_transactions=60, ops_per_transaction=6, num_hot=2, num_cold=8, seed=3
    )
    result = run_batch(PROTOCOL_ENTRIES[name].factory, DataStore(initial), specs, seed=3)
    assert result.committed == 60 and result.restarts == 0
    assert result.committed_serializable
    return sha(result.per_transaction)


# -- distributed: 2PC over flat and Paxos-replicated shards, under chaos


TOPOLOGIES = {"flat": 1, "repl": 3}
PLANS = ("none", "loss-dup", "partition", "coord-crash", "leader-crash", "degraded")
SEEDS = (5, 1001)
NUM_SHARDS = 3


def _chaos(topology: str, plan: str, seed: int) -> dict:
    """The engine's fault arguments for one cell."""
    isolated = frozenset({"shard1.r0", "shard1.r1"} if TOPOLOGIES[topology] > 1 else {"shard1"})
    if plan == "loss-dup":
        # the injection cap is reached mid-run, so both sides of the
        # plan's ``max_injections`` branch are exercised
        return {"network_faults": NetworkFaultSpec(
            loss_probability=0.1, duplicate_probability=0.05, max_injections=30, seed=seed + 1
        )}
    if plan == "partition":
        # replicated: cut a majority off from the coordinator, so the
        # survivor sheds with repl-no-quorum while the pair keeps a leader
        window = PartitionWindow(8.0, 30.0, isolated)
        return {"network_faults": NetworkFaultSpec(partitions=(window,))}
    if plan == "degraded":
        # a shard dead for 60 units under a twitchy health window: the
        # coordinator's admission control (shedding, probes, the reduced
        # in-flight limit, the backlog) does the work
        return {
            "network_faults": NetworkFaultSpec(partitions=(PartitionWindow(0.0, 60.0, isolated),)),
            "config": TpcConfig(max_retries=0, min_health_samples=2, health_window=4,
                                shed_threshold=0.4, probe_every=3, max_in_flight=2),
        }
    if plan == "coord-crash":
        return {"crash_specs": (
            CrashSpec(AFTER_VOTES, txn_index=3, restart_delay=6.0),
            CrashSpec(MID_BROADCAST, txn_index=9, restart_delay=4.0),
        )}
    if plan == "leader-crash":
        return {"replica_crashes": (
            ReplicaCrashSpec(shard="shard0", at=20.0, restart_delay=12.0),
            ReplicaCrashSpec(
                shard="shard1", transition=REPL_PREPARE_APPLIED, txn_index=2, restart_delay=9.0
            ),
        )}
    return {}


def _dist_cells(*cells):
    # a flat topology has no leader to crash
    cells = cells or [
        (topology, plan, seed)
        for topology in TOPOLOGIES for plan in PLANS for seed in SEEDS
        if not (topology == "flat" and plan == "leader-crash")
    ]
    return {"/".join(str(part) for part in cell): cell for cell in cells}


def run_dist_cell(topology, plan, seed, tracer=None):
    """One dist cell: the engine, its report and the sends by message kind."""
    initial, specs = cross_shard_transfer_workload(
        num_shards=NUM_SHARDS, accounts_per_shard=4, num_transactions=24,
        cross_fraction=0.8, seed=seed,
    )
    sent = collections.Counter()
    send = SimulatedNetwork.send

    def counting_send(self, src, dst, kind, payload):
        sent[kind] += 1
        return send(self, src, dst, kind, payload)

    with mock.patch.object(SimulatedNetwork, "send", counting_send):
        engine = DistributedEngine(
            initial, num_shards=NUM_SHARDS, shard_of=dist_shard_of, seed=seed,
            replicas=TOPOLOGIES[topology], tracer=tracer, **_chaos(topology, plan, seed),
        )
        report = engine.run(specs)
    return engine, report, sent


def dist_digest(topology, plan, seed) -> str:
    engine, report, sent = run_dist_cell(topology, plan, seed)
    fault_plan = engine.network.fault_plan
    return sha(
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
                    "log": replica.log, "current_term": replica.current_term,
                    "vote_grants": replica.vote_grants, "leader_stints": replica.leader_stints,
                }
                for group in report.groups.values() for replica in group.replicas
            },
        }
    )


def traced_digest(topology, plan, seed) -> str:
    tracer = TraceRecorder()
    _, report, _ = run_dist_cell(topology, plan, seed, tracer=tracer)
    return sha({"digest": report.digest(), "trace": tracer.to_jsonl()})


# -- the registry -------------------------------------------------------


@dataclass(frozen=True)
class Group:
    """One pin group: ``cells()`` maps each key to ``digest``'s arguments."""

    name: str
    cells: Callable[[], Dict[str, tuple]]
    digest: Callable[..., str]
    frozen: bool
    provenance: str
    pins: Dict[str, str]


ROUND_SCAN = """The executor's run queue replaced a loop that rescanned every live
    session each round; under round-robin and serial interleaving the two
    were byte-identical.  These constants were generated by that scan on
    b8547c1, the last commit that had it, with the run queue beside it and
    agreeing.  The scan is gone, so nothing can regenerate them, and the
    run queue must reproduce each one.  (Round-robin/serial equivalence
    over the whole registry needs no group: the executor group's hotspot
    cells run its batch, and their scan and run-queue pins were equal.)"""

GROUPS = {group.name: group for group in (
    Group("executor", _executor_cells, executor_digest, frozen=False, provenance="""
    Every registered protocol x {round-robin, random, serial} on a small
    hotspot, read-mostly and hotspot-queue batch: the result's fields,
    per_transaction, the Metrics dump and the committed history.  First
    generated on bb6097d, before the hot-path rewrite touched src/, over
    the whole operation log.  Changed since only thus: the four
    strict-2pl round-robin/random pins when locks got FIFO request queues;
    the hotspot-queue cells added on b8547c1; the 66 pins of the deleted
    second scheduler loop dropped, no value edited; all regenerated over
    the committed history on the commit before the protocols stopped
    keeping the log, which then passed them unedited.""", pins={
        "serial/round-robin/hotspot": "fc51963e717c0dc8cf837afe55d1f215a281d2cdd2ecd53e29e559a5a85e0d27",
        "serial/round-robin/read-mostly": "de09b3188d7be0154d5362818be15c3a342967955ef345d4d9d47342239dc130",
        "serial/round-robin/hotspot-queue": "26fd99ca105a3eaeb5dbcdf880aaebf37ccd1bf08d23021c5116e408cab9b84a",
        "serial/random/hotspot": "2fe2f26394def347e4260bb64e50af23351eb5e0380967a0e8206d436372e9be",
        "serial/random/read-mostly": "c75d1e4ef104a7b82bbf47e9a562fc49a089b56b3b31a5290b5f2e6b682f0f2d",
        "serial/random/hotspot-queue": "ddea3ae60e2a8d7cfbeba78e669ffcf5d51fe9740a6012c1027c769c65eabffc",
        "serial/serial/hotspot": "e584bc06e7673cd711d3f4c5ed9ec30301a5f88137e5e36f07bba7c6542048e0",
        "serial/serial/read-mostly": "79f71248ddc9d76368a7fd5795b9fc08a5337f33e90d71d225b12c53a2452c25",
        "serial/serial/hotspot-queue": "117ede6c86b9fb81b66b8482581e1cea4db0f892511d3940d5285d0335bcc0b6",
        "strict-2pl/round-robin/hotspot": "009f204a4ee29385efb7d67d00f4078596e6962061fc167edd7da65b147a0cf6",
        "strict-2pl/round-robin/read-mostly": "9211d8077e774916415d16aaf9cc37af4b10db0ec5f9c407143c15319527e5a6",
        "strict-2pl/round-robin/hotspot-queue": "5ef126e7e163e5f5e719152a0bf9a34d25f38b2f03334d91c69cd944c3834bb4",
        "strict-2pl/random/hotspot": "d9a3e2dac356a0d9abad19bf27f6fde1908a0a7d3b2a0cbe3ad95c0c4e01c72b",
        "strict-2pl/random/read-mostly": "8f34c0bc9e91197572eb0d5e224660b45ee5a00811bfdaa9925321add9224746",
        "strict-2pl/random/hotspot-queue": "be048cd4c8164535f29df854ca1143cf996be90f4eaf69cc8f109708fba5d492",
        "strict-2pl/serial/hotspot": "3af0e8841998e1ed599ed7d5d9fd7793342b78d0d9b1c416600e2fc364b0e677",
        "strict-2pl/serial/read-mostly": "c64cdde144b56df99dba385b7253b12f0542609d4596d7f51f75c472e1de6eda",
        "strict-2pl/serial/hotspot-queue": "7303799aadec4cdd4c719fa01b9b8bf2a8185bced86b648ec1526b5a41dd9253",
        "sgt/round-robin/hotspot": "0af9eb679db0730088693f5b9e7a720ff1c89118cc9dc0445eb010c8b2f149e4",
        "sgt/round-robin/read-mostly": "b10cbb242631e331d5a1e0249ff9993b300a08dceed8cfe11adf37171455c2b9",
        "sgt/round-robin/hotspot-queue": "e3534b96d3970cc8368c1a803160c23b19d7681a583856b1e71dba83a7d6dcbe",
        "sgt/random/hotspot": "1e990bbd885610493426867c2c7aa0ca375abc1cf3941982cdd27e09bbbaca1e",
        "sgt/random/read-mostly": "539d09aa76f53052b7a9402308bce382266b75f476fc3d21220907c7a46876f1",
        "sgt/random/hotspot-queue": "787f4ffe337112d511a3dbb98489e4ee2a4799b15cf45bc2866cbb445df5d6ae",
        "sgt/serial/hotspot": "5b5ae6d61d012f1ea69294d23dfa7b7d9b660399bd5ff0359175abe9625f8cac",
        "sgt/serial/read-mostly": "4aa2c4e600dca2689d1510aa61c6774ba21779c0a010aee26cf598b2a9f976ef",
        "sgt/serial/hotspot-queue": "5e232503d941f998ee130d466fb866c36bf52bb4fa6cf0eb0522afb9ba1e387a",
        "timestamp/round-robin/hotspot": "dfc242766d16382651dd66d8d2b10f4df01b3e346658209151bebdd53272f1c9",
        "timestamp/round-robin/read-mostly": "14139df176880d1bc50dbf0d6f6cf86e42505684a887b28d6c7f85cb3b2c6eee",
        "timestamp/round-robin/hotspot-queue": "3765d9462b87f7c99d30234ab993359ddcf4fc9c0bb5b4645e5de8f12cfe40ff",
        "timestamp/random/hotspot": "85a072ee3064bf04c047a457e4105a147f97075b35b9a0b1dfd0ffaf439e228c",
        "timestamp/random/read-mostly": "34c69525969c0cb8594258461fc156fc469fbb7f06bc99c0b4d25aa67e2b4e39",
        "timestamp/random/hotspot-queue": "cbb2183a40b74a5f4f4cfd1ae6b6e4dd957665c58feade4ab676eb71ed11304b",
        "timestamp/serial/hotspot": "fd36a1a728a5295e699a84a00c4bcd1536e902477cfa01ec02aaac9fdcae9c0f",
        "timestamp/serial/read-mostly": "155b1de497b75f8b51d61295b26b4307a50da1570bef7f7e5b56d06f4000549f",
        "timestamp/serial/hotspot-queue": "0ffe961f68e2468bd9e0b8abd21185e48468601782350a23df7dd200ea54c0d2",
        "occ/round-robin/hotspot": "8bec72c41ddb7568d497b4b6e60c8b316d5a03b3bad5b0646485b93bd732e547",
        "occ/round-robin/read-mostly": "1249873221f4bd3bc9e3e38ac0ec7bbdd8de7a46a1573670a9ba8c7cd5f5fe95",
        "occ/round-robin/hotspot-queue": "33d82b0f2ab903d6262659a05e600d965f9ac79427a2b788fc2c0b13d4fda00b",
        "occ/random/hotspot": "2f774448c2a86fcac6bf9e4166bcf0f3e709cc447c220982d7a6470c27a7aa17",
        "occ/random/read-mostly": "54ffb2748ea10a8caeedfd3ca2e4af5a0e585a1f34e4a1048b343c3e8c2aa3da",
        "occ/random/hotspot-queue": "17e683a8efcbcfae958305fee979f1196adec8219532764e256f7d8d1e17984e",
        "occ/serial/hotspot": "3a6ec96bf477c704aba6e255660ba9e85d67c6c060ea3afca9bce01fe645a4ac",
        "occ/serial/read-mostly": "929448a8546590ad41ffa3f0c2af6e2f5d5a0a22a1f28dc20b7e7e2e3cbbdb3d",
        "occ/serial/hotspot-queue": "055c8b92b0b29bdbabe8607906bb4e2c497d59338e74b32c8ca80fe32f8429b8",
        "occ-parallel/round-robin/hotspot": "ce730755b05707016a51404c6a30a010019ba41197f51c4b10a92028f9873c49",
        "occ-parallel/round-robin/read-mostly": "0405aec3241eaa11ba02785f66a015ef63bed96d9e6c963c7742147158483941",
        "occ-parallel/round-robin/hotspot-queue": "c21d2cfc55f3d6c0a54c62b7408f3224f2413d6fba681569a391593c98756ea4",
        "occ-parallel/random/hotspot": "cc71a919697cb27a496a7120b75fdfc42d5f64f4b2e4055654f1b67da9c1b3b6",
        "occ-parallel/random/read-mostly": "27d6951afebb0299e05f5f01e0c475bdce9d9aff9e529e07e8ff597269fc1fba",
        "occ-parallel/random/hotspot-queue": "c04bb9d8d4997aafa2738308408eded88e7393f59568540447eaaf1c5fabecc1",
        "occ-parallel/serial/hotspot": "294538662fbe5332b8eed08b4be4ecf8b19ca60d69837a3d50049886d825680e",
        "occ-parallel/serial/read-mostly": "865670b4bdfdc8735fc0051d2d5c6081e1c4e45d5c60a9dbcf471b12537ca951",
        "occ-parallel/serial/hotspot-queue": "c0f518619cbf37b54076fed80c52de295f55ff4fbea7a3fbb84bb47f95f02c9e",
        "mvto/round-robin/hotspot": "f47dfee215720aa2dc7a774e8f6e954f67558f3a49509ea83938a2ee87d7010b",
        "mvto/round-robin/read-mostly": "0ac30ae1fb1d139af5b87b0e4177350ff6780e85f28d736d271161c83c16f3dd",
        "mvto/round-robin/hotspot-queue": "d2ecb540d2d161a1a88895c0898a55681d389cf35b1799d519596212882480f1",
        "mvto/random/hotspot": "24093a6aabb2531fc94d4d1ee0313e607fb72a4718cd430d64ff28dc0b7ad1dd",
        "mvto/random/read-mostly": "2d8f5f28343c3d26011565558faec967a5d69b0e2920d8ea3d268e6bab8cdead",
        "mvto/random/hotspot-queue": "c28f7001cce3d1316164291ef15e80babc91a17cd070f4c5ef311cb2417b6517",
        "mvto/serial/hotspot": "ce95609af06d636534094d59c34fe9ff29e57e611565667a3d9cd96fea04446f",
        "mvto/serial/read-mostly": "3d942538dc564d44b2f2d89a55a1076ff5478e02ec0779e8ac9522f602cf9454",
        "mvto/serial/hotspot-queue": "0954091fe5cfb92351443b3f758eb2b04bd9c379c39162072b6862a5d4160663",
        "si/round-robin/hotspot": "211f6daf6a559a77d5556e54e14ec6341a341bd34c110f1971adca613d23e9fa",
        "si/round-robin/read-mostly": "94faae5736101813da64aab1538ad6a21a9f1de72d053eb2adca59f5fccf74cf",
        "si/round-robin/hotspot-queue": "c3c595f2894aab40a45f25ebb24221b152ee7561f754ce96a09a78828003cf96",
        "si/random/hotspot": "508130f4e27606d57c917259bf1588df9b9f837e1488ff7df51b6d51104808d7",
        "si/random/read-mostly": "2ab52e864148bb04ab1413bd36d39fa9fff359f0f2537a3303f7efca30a65165",
        "si/random/hotspot-queue": "93adf9cd40e4b54af5345cf20b4eb0e26e24aba46dfbb60a86d9864f5d82e35f",
        "si/serial/hotspot": "29056784f29d1e2b10f967f2614d6ffdadc0d996266ad4bb1413b88562f7dc1f",
        "si/serial/read-mostly": "fa4d2a1535ada5cd498fcf8a1076971260b28f82693fe59c5608368ab828e035",
        "si/serial/hotspot-queue": "b5f93a0fb416dc855d7421aaac4f02476fed7f43d0a5708c65576e2a8d20faee",
        "serializable-si/round-robin/hotspot": "378523cc1622ccba8c18c9d845e580f283b064f1f3666fd1a7ea7d1a2951af0b",
        "serializable-si/round-robin/read-mostly": "31a94107e7bff27846a7af675f7bf06bd392ad772d107855d971a41e8d8deb07",
        "serializable-si/round-robin/hotspot-queue": "1d9c113ce66627b7be86a0650cd1c4420489a74619bc03ec88c9f9a6275009d2",
        "serializable-si/random/hotspot": "03c7dba7d9724607a7466d56f26c09b5f0f294f86b5bd861a537899b39f8942e",
        "serializable-si/random/read-mostly": "36f683f984e79e50b01d4d27afb02abbaae55a7d68a8325cfa47e31d3cc6bee0",
        "serializable-si/random/hotspot-queue": "2e183d41c81e670465cc32b79d7f631154aa5c8e50cbbc132e42ab3362063475",
        "serializable-si/serial/hotspot": "fcd073dfbf3dc5b04083b4b24a2d5b62d4743f4d762ec9fcb13865119177115e",
        "serializable-si/serial/read-mostly": "bfdceac8d46539efb6c4496168aad068c747e3de74d362c54c58d8c314e0a574",
        "serializable-si/serial/hotspot-queue": "c179cfe610249d78684ff9ece8f3d5ffed490faa6a0c64bf717abe2c1c96e1a8",
        "det-epoch/round-robin/hotspot": "0a8ebaf6c39ea32c354a31f39ec7fda5bbe211e925c6d2112f2ecb6c08c92556",
        "det-epoch/round-robin/read-mostly": "d74a0c4d8071f3b95af12c5cb4333680e758fa98879c4761055b2d7f8c00e672",
        "det-epoch/round-robin/hotspot-queue": "868b3d5cf22cee3c433ceb5b8baca158898f472afc6d89d6811eeb68c3c45dd7",
        "det-epoch/random/hotspot": "2e2313f0723cdb5c7aef49fc0d30be5e799f3c6d17b9f81186968511160b23f2",
        "det-epoch/random/read-mostly": "61fb9019c1f24348af9299f3cd5800e8ae1804b6ed908be3f35e8f35ea725b1a",
        "det-epoch/random/hotspot-queue": "1fd376872077939a4abab637009cff0af3eb8e84e3bbc404d030250d3381dbd1",
        "det-epoch/serial/hotspot": "82ac469df23e58e573e96b8d684dec6465fb13e58e8870c54dc70ddff4c3c562",
        "det-epoch/serial/read-mostly": "2c9b8b9bc4886ff9b46f7dcba9f9131c2ba486be769ddd1d0b9781b6b7365488",
        "det-epoch/serial/hotspot-queue": "41c490f5df7b3a083d50e67a56ebf82e7321aae06c86e81ad64c2c32b7a18f13",
        "det-slot/round-robin/hotspot": "7af41f8d727c78839a7a6ab228b35f73d9f7174ad7799e6de3bb9ccde0baa290",
        "det-slot/round-robin/read-mostly": "a14578b83d16d4f78c3f5573c242dfd2626a0724b8913a81753864beaa15deb3",
        "det-slot/round-robin/hotspot-queue": "48894fb98f318275b7e85a69ecd7c7f832a2f048e1676f502de154037c0cc9ea",
        "det-slot/random/hotspot": "9086171bc1036726d0362ae9dc0b32834e42fb3035a26003b0c2ad1066e687e1",
        "det-slot/random/read-mostly": "abf83456970820869d43406649214fcfeaa2b029ae4ca1253087cee83c22e654",
        "det-slot/random/hotspot-queue": "c1b05111b17c016ca455a34c0d95e10657db6357e08590d13a67607b7dc67b0d",
        "det-slot/serial/hotspot": "c2d5edfab961a3018068f120ae735a69e37e0bb63978685a14491ca2bf7b580c",
        "det-slot/serial/read-mostly": "9a2ce522560017388741445c347a1165c6ce2e2ae290392aa85b85b6802a4e6a",
        "det-slot/serial/hotspot-queue": "f04ac017f44e90407d837ff6641c6acffe9bb1f2932be7a99fc3752d7d74001d",
    }),
    Group("simulator", _protocol_cells, simulator_digest, frozen=False, provenance="""
    Every registered protocol under Simulator.run: the report's fields,
    the Metrics dump and the committed history.  strict-2pl, occ-parallel
    and mvto were first generated with the executor group, the rest on
    b8547c1; strict-2pl and then all of them were regenerated as in the
    executor group.""", pins={
        "serial": "d6f334871b4c50f7f4d57b8f3fe58b5a5515e53e7f6c1fd8a3cc1730544ac125",
        "strict-2pl": "3cc92417dcf9e111dd495ce29175d77c19fc89e3f1290bc8a6161c9992dbff61",
        "sgt": "4e2935c20b786b5f5258da739e0dec764f4f2e5839b1d3f29596f4673638d6bc",
        "timestamp": "ff6a88e58af4f5d106042163a77128e2a1e6032a212b0845e897648f59458180",
        "occ": "bda88a8b7bc233e0f340782974dc93b009a90d88e615129ce8edb1a205945e44",
        "occ-parallel": "10d08333d624a71a7db51114447ba90499e4117d5d270eb264773489c1dc31d9",
        "mvto": "f5ddc847f76f8d0c3a914d670cc524914ce692dd494ae49ed645a436efa18815",
        "si": "c32d052919609981a2c73a00a1014b8ba515c084779d86a4d07921bb5e5b60a9",
        "serializable-si": "5555e4e898bc834d7cdab5512260c754c2cc2280f8385b841ee7f212667c8a92",
        "det-epoch": "a62869e798ecebf87884e1c3dea3925dd81c6ce96c51cf5e52d63d046fb774e1",
        "det-slot": "4425fe3cdcda3d7dbd29e37c7df34f29e861bf27f5292dcc5095c293912a5b29",
    }),
    Group("random", lambda: _protocol_cells("/event"), random_digest, frozen=False, provenance="""
    The harness recorder's history digest of each protocol's
    random/hotspot executor run, in which the run queue draws from the
    runnable set.  Changed only when the scheduling sequence changes on
    purpose (last: strict-2pl, with FIFO lock queues).  Stable across
    PYTHONHASHSEED: every ordering decision in the engine is sorted or
    insertion-ordered.  det-epoch and det-slot coincide by design: the
    sequencer pre-orders the batch, so the epoch barrier changes who
    blocks when, never the committed history.""", pins={
        "serial/event": "53743bd92c0df2d3e2f98ff4b85c750e135f5d6258e36cfc23b170f1129332e0",
        "strict-2pl/event": "e6897dbbf3a2e8d7831ad5de738b25d73d944e9441d2ec62cc5ac143970c0ecf",
        "sgt/event": "00211a14a9c02476db3c6b5687a69031492888d1803031a5b6a515ff3651a5c4",
        "timestamp/event": "2a61e93d7d0a2da55426de8ddf5540d8f9735f13a558ca40f473e960a8f73693",
        "occ/event": "024746ed6cd2c9a03e185c71634c3873445e973f979a46f1a771dff753e80ae8",
        "occ-parallel/event": "72f6d9c3394ecabc3f9130cf2f1be0cb7d512464317f78fa7e37f9e4551942f4",
        "mvto/event": "c9c26c3c0e3e7004e7bf3b7163e78007f83d75ec9187a4aea2e74f352c8df658",
        "si/event": "95ff45dfabc7c97daec545734593f23fb1fd294b7576f99657084edcb87f87ca",
        "serializable-si/event": "95ff45dfabc7c97daec545734593f23fb1fd294b7576f99657084edcb87f87ca",
        "det-epoch/event": "319737fdbede02bfe785dfd34b37de3304b10de914e15fbc8b23303e4eb494bd",
        "det-slot/event": "319737fdbede02bfe785dfd34b37de3304b10de914e15fbc8b23303e4eb494bd",
    }),
    Group("round-scan-admission", lambda: {
        f"{name}/{limit}": (name, limit)
        for limit in (1, 3, 7) for name in ("strict-2pl", "sgt", "occ")
    }, admission_digest, frozen=True, provenance=ROUND_SCAN + """
    Here: max_concurrent 1/3/7 under round-robin, so the admission
    threshold replays live[:k] exactly.""", pins={
        "strict-2pl/1": "b7bf5aa7b4202d2457653b2976a87eebab4afa4481160b3ab5571372ee3ce31a",
        "sgt/1": "b7bf5aa7b4202d2457653b2976a87eebab4afa4481160b3ab5571372ee3ce31a",
        "occ/1": "b7bf5aa7b4202d2457653b2976a87eebab4afa4481160b3ab5571372ee3ce31a",
        "strict-2pl/3": "ce34a88223c6a8147f8cbb4c22169bcf06c1b81621ef9f8a56881e8cd4405658",
        "sgt/3": "b50fb9f314f8a6f6bddad742031d576e471d7cfeabd83a109288e2b9161f0878",
        "occ/3": "15c9066df87bc1248801ca9784ffb713158e1be6dafa9ddd2cb9c3bd55ae68c4",
        "strict-2pl/7": "1b2a3bf389f2f45c983be897819493813d9757c41e744e0a2f98ff4f6dc1bded",
        "sgt/7": "fd7663ecf5a6cfbe811395e6c0b6c22b85e8e05f1fb67a6974e508643ea17e4b",
        "occ/7": "3bfca8a34527bf66251ee9829ee06acd1466ff53801e82b05d3392d32dd5726c",
    }),
    Group("round-scan-clean", lambda: _protocol_cells(extra=(3, False)), harness_cell_digest,
          frozen=True, provenance=ROUND_SCAN + """
    Here: the harness's round-robin run_cell on quick scenario 3.""", pins={
        "serial": "2e55b4d51ba5a0ae64406746464493bf1df86109d3cade32de5b7b89b5f6c814",
        "strict-2pl": "8be063d3f40d73335a5f19b3a360e0e9182ddff8af828c7bd186f31e956b0f02",
        "sgt": "e98281ec17059caba58ae57596a13e29087575af925ac0c658bf8c24bd5d4414",
        "timestamp": "29c6de7604fb89b5a2625d237bbde83892abea04f380e9060b60b99c5e4fb256",
        "occ": "8be063d3f40d73335a5f19b3a360e0e9182ddff8af828c7bd186f31e956b0f02",
        "occ-parallel": "8be063d3f40d73335a5f19b3a360e0e9182ddff8af828c7bd186f31e956b0f02",
        "mvto": "252847caeab1ac2890142c444bcf3d63e950db8f67006c0e21df9d0ec86f4284",
        "si": "fcf61bbec79fb75e54ec514790fa54256829bebaae5dd7dd2915ae0763470d56",
        "serializable-si": "8be063d3f40d73335a5f19b3a360e0e9182ddff8af828c7bd186f31e956b0f02",
        "det-epoch": "2e55b4d51ba5a0ae64406746464493bf1df86109d3cade32de5b7b89b5f6c814",
        "det-slot": "2e55b4d51ba5a0ae64406746464493bf1df86109d3cade32de5b7b89b5f6c814",
    }),
    Group("round-scan-faulty", lambda: _protocol_cells(extra=(6, True)), harness_cell_digest,
          frozen=True, provenance=ROUND_SCAN + """
    Here: the same on quick scenario 6, with injected stalls and aborts.""", pins={
        "serial": "a73679ba93896f228045d58729fa2b6455da11a1eb7cc6da072c078f5af45e8e",
        "strict-2pl": "c2373866249f736c5632cf36549a2b678f3f3b14295ef478e3b8fa7a7ca70b7e",
        "sgt": "31f27f3e1363798b079247bce12231844942dc2d7c3327e20cf04006db209f6d",
        "timestamp": "d1ae9a03e5892df0a48b4279547e315aca56f6aa015bcfeac7ec4db23e3f4871",
        "occ": "59b10084cbd6c4ce8a5ccf4aad7b25c5604b99d3df9feb830293307040717d32",
        "occ-parallel": "59b10084cbd6c4ce8a5ccf4aad7b25c5604b99d3df9feb830293307040717d32",
        "mvto": "36744184ae4e0759f6c699a9b21fba616fb8ebd7e69de195ee937cd6d12ad44c",
        "si": "71817cfc1632454e957da2588be4df0ff259072433351cf362e9c0bbd2133c97",
        "serializable-si": "76fec738f3e53156fecb4305adf4f4440bb6c7f91cb24f0b761edff07b347b9b",
        "det-epoch": "a73679ba93896f228045d58729fa2b6455da11a1eb7cc6da072c078f5af45e8e",
        "det-slot": "a73679ba93896f228045d58729fa2b6455da11a1eb7cc6da072c078f5af45e8e",
    }),
    Group("round-scan-scale", lambda: {"strict-2pl": ("strict-2pl",)}, scale_digest,
          frozen=True, provenance=ROUND_SCAN + """
    Here: the benchmark's invariant at test scale, a 60-transaction
    hotspot queue committing restart-free.""", pins={
        "strict-2pl": "2eb9e9dc95acb3a82e6343e523014a9a00121a7263e7068891926dc701e4cf37",
    }),
    Group("dist", _dist_cells, dist_digest, frozen=False, provenance="""
    {flat, 3-replica} x {no faults, loss + duplication, partition,
    coordinator crash, leader crash, a shard shed as degraded} x 2 seeds:
    the report digest, events, counters, sends by kind, injected faults
    and every replica's (log, term, vote grants, leader stints).
    Generated on 69b0f20, before the distributed hot-path rewrite touched
    src/; the one 2PC participant (d8d38f6) passed them all unedited.
    Changed since only thus: the four */coord-crash/* pins on the commit
    after d8d38f6, where a coordinator that is down began refusing
    submit() with 2pc-coordinator-crash; the twelve repl/* pins with
    pipelined repl-appends (23c5986), which a flat shard never enters.""", pins={
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
    }),
    Group("dist-traced", lambda: _dist_cells(("flat", "loss-dup", 5), ("repl", "loss-dup", 5)),
          traced_digest, frozen=False, provenance="""
    Two dist cells with their whole traced event stream, so the SEND/RECV
    emission points are pinned.  Generated with the dist group; the repl
    one changed with the pipelined repl-appends.""", pins={
        "flat/loss-dup/5": "a823c081755d6ac1707b71e5d8cc4103510c577c6c861d59daafacebd1dc79f7",
        "repl/loss-dup/5": "af5e5395fb8ee8b63c6005815439afe536d7a9e1a5f9dd57350f6b8142c83bf7",
    }),
)}


# -- the command --------------------------------------------------------


def diff(groups=None) -> int:
    """Recompute every pin and print what moved; 1 if anything did."""
    moved = total = 0
    for group in GROUPS.values() if groups is None else groups:
        cells = group.cells()
        unchanged, lines = 0, []
        for key, args in cells.items():
            try:
                if key not in group.pins:
                    lines.append(f"  missing {key}")
                elif group.digest(*args) == group.pins[key]:
                    unchanged += 1
                else:
                    lines.append(f"  changed {key}")
            except Exception as error:  # a cell that no longer runs moved too
                lines.append(f"  changed {key} ({type(error).__name__}: {error})")
        lines += [f"  extra {key}" for key in group.pins if key not in cells]
        print(f"{group.name}{' (frozen)' if group.frozen else ''}: unchanged {unchanged}")
        for line in lines:
            print(line)
        moved += len(lines)
        total += unchanged + len(lines)
    print(f"{moved} of {total} moved" if moved else f"all {total} unchanged")
    return 1 if moved else 0


def write_pins(path: str, name: str, pins: Dict[str, str]) -> None:
    """Replace group ``name``'s ``pins={...}`` literal in the file at ``path``."""
    with open(path, "rb") as handle:
        source = handle.read()
    lines = source.splitlines(keepends=True)
    (literal,) = [
        keyword.value
        for call in ast.walk(ast.parse(source))
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "Group"
        and call.args[0].value == name
        for keyword in call.keywords
        if keyword.arg == "pins"
    ]
    indent = re.match(rb"[ \t]*", lines[literal.lineno - 1]).group()
    text = b"{\n" + b"".join(
        indent + b"    %s: %s,\n" % (json.dumps(key).encode(), json.dumps(value).encode())
        for key, value in pins.items()
    ) + indent + b"}"
    begin = sum(map(len, lines[: literal.lineno - 1])) + literal.col_offset
    end = sum(map(len, lines[: literal.end_lineno - 1])) + literal.end_col_offset
    with open(path, "wb") as handle:
        handle.write(source[:begin] + text + source[end:])


def regen(name: str, path: str = __file__) -> int:
    """Recompute group ``name`` and rewrite its literal; 2 if it is frozen."""
    group = GROUPS[name]
    if group.frozen:
        print(f"{name} is frozen, never regenerated:", *group.provenance.split(), file=sys.stderr)
        return 2
    pins = {key: group.digest(*args) for key, args in group.cells().items()}
    write_pins(path, name, pins)
    print(f"{name}: {len(pins)} pins written")
    return 0


def main(argv: Optional[Sequence[str]] = None, path: str = __file__) -> int:
    parser = argparse.ArgumentParser(prog="python tests/pins.py")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("diff", help="recompute every group and print what moved")
    commands.add_parser("regen", help="rewrite one group's constants").add_argument(
        "group", choices=list(GROUPS)
    )
    args = parser.parse_args(argv)
    return diff() if args.command == "diff" else regen(args.group, path)


if __name__ == "__main__":
    sys.exit(main())

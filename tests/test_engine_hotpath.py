"""The single-node hot path is observably invisible, and stays short.

ISSUE 14 rewrote the path from the scheduler loops down to the lock
manager for speed.  Three things pin that the rewrite changed nothing a
caller can see, and that the path does not grow back:

* **Invisibility digests.**  Every registered protocol x {round-robin,
  random, serial} on a small hotspot batch, a small read-mostly batch
  and a small hotspot-queue batch, plus every registered protocol
  under ``Simulator.run``: a sha256 over the
  result's fields, ``per_transaction``, the full ``Metrics`` dump, the
  protocol's whole operation log and its commit positions.  The
  constants below were generated on commit ``bb6097d`` *before* the hot
  path rewrite touched ``src/``, by running this file as a script
  (``PYTHONPATH=src python tests/test_engine_hotpath.py``); a hot path
  change must leave every one untouched.  The FIFO request queue on
  each lock (a release is handed to the head of the queue instead of
  waking every waiter to re-request) changed on purpose which requests
  strict 2PL sees — the same kind of history from far fewer blocks — so
  the four ``strict-2pl/*`` executor constants under round-robin and
  random interleaving (the two serial ones never block and passed
  unedited) and the ``strict-2pl`` simulator constant — and no other —
  were regenerated the same way on the commit that made that change.
  Until the executor's second scheduler loop (a rescan of every live
  session per round) was deleted, each cell was also pinned under it:
  its round-robin and serial constants equalled the ones kept here, its
  random ones pinned that loop's own shuffle.  Deleting the loop removed
  those 66 entries and the ``run-queue`` segment of every key; no
  constant value was edited.  Two additions were generated the same
  way on ``b8547c1``, the last commit with that loop: a third batch,
  ``hotspot-queue`` (the benchmark's lock-queue shape, on which serial,
  strict-2pl, sgt, timestamp and det-epoch park and are woken), under
  every protocol and interleaving — its round-robin and serial
  constants equalled the deleted loop's there too — and the simulator
  cell for every registered protocol, not just the first three.
* **Call budget.**  Python-level calls per kernel step on the benchmark's
  smoke shape, counted with ``sys.setprofile`` — deterministic, no wall
  clock.
* **StepResult's surface.**  It became a hand-rolled class; its
  constructor signature, defaults and ``progressed`` are the contract.
"""

import gc
import hashlib
import inspect
import json
import math
import sys

import pytest

from repro.engine.kernel import EngineKernel, StepKind, StepResult
from repro.engine.protocols.registry import PROTOCOL_ENTRIES, get_entry
from repro.engine.runtime import TransactionExecutor, run_batch
from repro.engine.simulator import SimulationConfig, Simulator
from repro.engine.storage import DataStore
from repro.engine.workloads import (
    WorkloadConfig,
    hotspot_queue_workload,
    read_mostly_workload,
    zipfian_hotspot_generator,
    zipfian_hotspot_workload,
)

INTERLEAVINGS = ("round-robin", "random", "serial")
SIMULATED = tuple(PROTOCOL_ENTRIES)


BATCHES = {
    "hotspot": zipfian_hotspot_workload(
        num_transactions=24,
        config=WorkloadConfig(num_keys=12, read_fraction=0.4),
        seed=5,
    ),
    "read-mostly": read_mostly_workload(
        num_transactions=30, config=WorkloadConfig(num_keys=16), seed=3
    ),
    "hotspot-queue": hotspot_queue_workload(
        num_transactions=24, ops_per_transaction=4, num_hot=2, num_cold=8, seed=7
    ),
}


def _sha(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _protocol_trail(protocol):
    return {
        "log": [(r.sequence, r.txn_id, r.kind, r.key) for r in protocol.log],
        "commit_positions": sorted(protocol.commit_positions.items()),
    }


def executor_digest(name, interleaving, batch) -> str:
    initial, specs = BATCHES[batch]
    protocol = PROTOCOL_ENTRIES[name].factory(DataStore(initial))
    executor = TransactionExecutor(
        protocol,
        max_attempts=400,
        interleaving=interleaving,
        seed=9,
    )
    result = executor.run(list(specs))
    return _sha(
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
            **_protocol_trail(protocol),
        }
    )


def simulator_digest(name) -> str:
    initial, generate = zipfian_hotspot_generator(
        WorkloadConfig(num_keys=12, read_fraction=0.4)
    )
    protocol = PROTOCOL_ENTRIES[name].factory(DataStore(initial))
    config = SimulationConfig(
        num_clients=12, duration=120.0, seed=4, validation_probe_time=0.05
    )
    report = Simulator(protocol, generate, config).run()
    breakdown = report.mean_breakdown
    return _sha(
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
                "mean_breakdown": [
                    breakdown.scheduling,
                    breakdown.waiting,
                    breakdown.execution,
                ],
                "committed_serializable": report.committed_serializable,
                "final_snapshot": sorted(report.final_snapshot.items()),
                # the report no longer has this field; the literal keeps
                # the digest input, and so the pinned constants, unchanged
                "wait_policy": "event",
                "events_processed": report.events_processed,
            },
            "metrics": report.metrics.to_dict(),
            **_protocol_trail(protocol),
        }
    )


def _executor_cells():
    return [
        (name, interleaving, batch)
        for name in PROTOCOL_ENTRIES
        for interleaving in INTERLEAVINGS
        for batch in BATCHES
    ]


# generated on the parent commit, strict-2pl/* on ISSUE 22's (see the module
# docstring); do not edit
EXECUTOR_DIGESTS = {
    "serial/round-robin/hotspot": "ed7b9026b7ddf4931b2b6d4f821105cccd380300fc4eeac3b2cfc8e6aa05d9eb",
    "serial/round-robin/read-mostly": "3ccdcfd5f71a89b585f721a9d317d481ae692c4c18f75aedeaf6e88a97563321",
    "serial/random/hotspot": "3d235ba13ac251674cd193a2c804acb73e212675816dc35397361abdfc9aaae1",
    "serial/random/read-mostly": "7155fb871e7a755fe8d0242e78e364357d668c3d91a5109bf2738286e9acdbf4",
    "serial/serial/hotspot": "c0ea12b4bae4226d0765e4c467696eb1eb65675c21dc54a7b22314ada98631a7",
    "serial/serial/read-mostly": "17e03a78fc00dd37c5ab3352b9262cdb08ab250990ef43b8bb0ee841d8fb7843",
    "strict-2pl/round-robin/hotspot": "aef732ad81550afbcb334f69538e896784e219cc4282b859f3a7293bb05daf4e",
    "strict-2pl/round-robin/read-mostly": "f545cbfcca7ab375ebf2618e32ab5de63777ce6b2dda9a59bb92b9b683866cc2",
    "strict-2pl/random/hotspot": "771f416494d02561e01423a2b0120552e8f413abda09c978794ae07dd699b68c",
    "strict-2pl/random/read-mostly": "778f22f72406548040cefdd77ce0feae75d1249dc537c8944f26758a4fab83fb",
    "strict-2pl/serial/hotspot": "fc491800c9010ed5beffaa611e6a56c74f852e6d127039541ff53a5cb8a13268",
    "strict-2pl/serial/read-mostly": "df4c09416e8adb3c86ec469ed74c90379044178d400893bd888977a8499b574c",
    "sgt/round-robin/hotspot": "9e3b88645aaaac02f17621b8e867d3b3e80b3b5e88b01bc8da3dfc377ce2bee9",
    "sgt/round-robin/read-mostly": "38e49bb201de1b3bf4b4464505d006a7a904210eb3fa46d58e7595e9a1b899d3",
    "sgt/random/hotspot": "95a653cffc8230035b3e8d88c1e5be337271311fd803d1a3f2cb245458625d4b",
    "sgt/random/read-mostly": "526776938f42f717ee446abc9794f149588533374c15297dd8b4ab7426d21782",
    "sgt/serial/hotspot": "4ec220adb1f625514628e371994dfd5e0ea31f86311ac9fae5e60a2688febbc6",
    "sgt/serial/read-mostly": "d7100ed3a544fe74042905145939190c1f8c12e8425629137da510a5a99c40aa",
    "timestamp/round-robin/hotspot": "d9fe063b1f26c38b225e23cd0f5e9eba2854ced7db0884c873e847178c0ad511",
    "timestamp/round-robin/read-mostly": "4abbdc66fde30ed2eb01bd58ecd88ab4c196acf912beed2e50abecc67b1eb00b",
    "timestamp/random/hotspot": "b20fc72adf3f9dd2b6dbcf55e72769386cd1bd7cb39516c86569099f3e0cc4c6",
    "timestamp/random/read-mostly": "1abc8441f86e16dd08cdb3d4d786a2fc3ebf309d79c28dc82933240e914043b6",
    "timestamp/serial/hotspot": "9fbeb59a68fbdb65dc4e29108cbaec70ff1ed6503dbee6c8167d650cc2eb213b",
    "timestamp/serial/read-mostly": "c6a475e10885f2755e9d5539000bba02f755071991bbbfe3ad2358808697777d",
    "occ/round-robin/hotspot": "c473366283b48ce06cf5c03813af93d0df3b3100224076bdb75572e348355a88",
    "occ/round-robin/read-mostly": "7be9475357a78311eddc2859b2021b156a51b9d66f9e6dbca5438a202d44894e",
    "occ/random/hotspot": "0f2586d9ec8c4fb89dc2ffca737c17bf611fbdea7d80f0fa7d8c0bfd1505d8dd",
    "occ/random/read-mostly": "cd31b28bdc66fd1adb42d8eff7d4b0ffb8ce458fc7a8d44a333d5c154a40d754",
    "occ/serial/hotspot": "e1ac675cefc76ed77be7130a50fad1d8478682bf278bee2d284ea8cfe496faa5",
    "occ/serial/read-mostly": "542c5eb9f619f432214ff11888a0747ccc34b3ad67fb806dc21a4aa3223e1f31",
    "occ-parallel/round-robin/hotspot": "0cc3b0a2dd0fd1c1b33ac63ece0997181915b16ca0d05eb761d6f53ba36598c3",
    "occ-parallel/round-robin/read-mostly": "1ad5aababcff64518d56337251f37b6e1d3d75c7d8534c0cc0bc36e30d59092f",
    "occ-parallel/random/hotspot": "dd4d1cfabbf06720e855f1f4ea0e5a29dd843218c928a264d400529265a9ab40",
    "occ-parallel/random/read-mostly": "1e4f0e15c397f68beb4ea98ba50e21777f10999e2f4791c8e0775007879a0a09",
    "occ-parallel/serial/hotspot": "15f2694fab837a2f0ab17daec0d77dceb19d731c27a497e38ae0f951cfcc00e6",
    "occ-parallel/serial/read-mostly": "beca3544703355593fe1493c00e5daf02b16bbd88952ca71934ae94f132ba1bf",
    "mvto/round-robin/hotspot": "6511d8bce8b406246be4f53b768e99f2fb8fd74f6d43c04c0b26c89483597929",
    "mvto/round-robin/read-mostly": "142c21d9ade0a6030b935dd97dbfc6debbd0ef8182558028038a03b396e8479b",
    "mvto/random/hotspot": "ccf6b03c72a533059a3eb5076e95e1ad263096a19f03eb46b08c9de862b78b83",
    "mvto/random/read-mostly": "4ee0f8abfbdfe5860fd190f01bf370ddebea0c5ea064a119e875a9bbc0a8de90",
    "mvto/serial/hotspot": "371418ae84d47f9ebd962716c936e2916dc5b2069e243f1d6487313ee8fc6b89",
    "mvto/serial/read-mostly": "9e35b9c4e6243cd6b091b4b835d97fec246dcfd12dfe0752da731ac20a8b78d7",
    "si/round-robin/hotspot": "33febfd6f420fa70205b173033c4a25de2a183491987b492ebf08a4c14c0addb",
    "si/round-robin/read-mostly": "ac83a5bd3a6f57de98cec5786558bdd4bf6ce0f399a8c3ac79f521b602ae8d9c",
    "si/random/hotspot": "c4d82e95d365624aaf37d643c111cfcb35d6c45c31e6d757cdf4bb9d2dc0a6cf",
    "si/random/read-mostly": "a8c64941bdfe3e11de3a9a2bd1ca80e5b1b4a7528ee6fa0505156297738a29e1",
    "si/serial/hotspot": "d31f046f4e200faf3630765d0212c6786dc77312dc516c86158c25724dc913be",
    "si/serial/read-mostly": "bb4509281fcf930306fc66aebfbaaa6beecea09968158a65c5897b5b8ac8e03a",
    "serializable-si/round-robin/hotspot": "98ac11c50b7b6e74091d89d3baba1bb39631fbeb5b779dfe81cf485ae9b1cb00",
    "serializable-si/round-robin/read-mostly": "8d6d96efbc0a13e62dccec8c6bd782eb4790374f53c847decd0a5b71531a341f",
    "serializable-si/random/hotspot": "929b824a3ad26ada52335b953b9c97318aa8d784fdd0ae21e088637854fddbd5",
    "serializable-si/random/read-mostly": "31049ce00d88f1cb254ef2968f92688d22a97d602bc59ecff7bc6e7581cc805c",
    "serializable-si/serial/hotspot": "6cd3e4637f9ba6969ad24484843a7e940da99174d1e40a89d77c2d284db2747f",
    "serializable-si/serial/read-mostly": "cfeedd0dc424e6bbb92bcf67cbc345364ed72f260845ee048e6e526352ddd71d",
    "det-epoch/round-robin/hotspot": "1a690e02cf22f4d27cdcd5868f296a3adeca64417068f8871417ce3cde1aff9f",
    "det-epoch/round-robin/read-mostly": "c70cc6d5ec0b4a0d64a49baf9e08733bf247a499efe0c2c27b2a2ec6e818dd0a",
    "det-epoch/random/hotspot": "b11ab932dc0b31e9a705573014070999256dd5f219c3c9cb2290c7c1a226fa15",
    "det-epoch/random/read-mostly": "a66995549bea931d3807945dc100380ef1c3a2a57ad2e5070d1228a7d7a48e1c",
    "det-epoch/serial/hotspot": "3ca65f9a1cb92988db647f88e445fba2788b2b58257dc417a7ea3dcadef67505",
    "det-epoch/serial/read-mostly": "c11e28c1813dd712207c09ea86c3b31ebf9ec0e7b9b6dbadf5c7dbaad592f4cd",
    "det-slot/round-robin/hotspot": "cd6b59754746863e55d4be4e31c32620f4437ede47501ebfa752ded16fbe8f9b",
    "det-slot/round-robin/read-mostly": "fa86b7a284b3bad0e5df48754ebedd27e53446e948841aa0dca28f19929ef91f",
    "det-slot/random/hotspot": "1c09d9ae7a7ea81cae27dbe3e00480113d7b668e79b362e5ac99ad2ca7b79169",
    "det-slot/random/read-mostly": "ecb81dbc6fdaf3d28f888319845e5972e1951a676d307279ec704917a9e29a25",
    "det-slot/serial/hotspot": "a18ae7dbba7bf07b53f03e828ca751f5cd6376c6de87fb603d65e261f7608d6e",
    "det-slot/serial/read-mostly": "58345144e448f6a43ce89306aef0a1e6c307ee4c4ccbc790f9b0b99b7d6ef980",
    # the hotspot-queue batch, generated on b8547c1; do not edit
    "serial/round-robin/hotspot-queue": "f329fca08b160f9864a90b11420cf1f19ea229ec2208015a63ae099d75d91717",
    "serial/random/hotspot-queue": "3d746dfca54dd268c0ea79444253ddb6dd16641602b1aa9004aad4e683ad33b4",
    "serial/serial/hotspot-queue": "41f43f8e3ccefaf26da2a91bbda3dae58b464b030505908e742d537d0479bf60",
    "strict-2pl/round-robin/hotspot-queue": "c024e302eac935c76043046c173b8aa0273df6adf6bc986b1bba461e330880cd",
    "strict-2pl/random/hotspot-queue": "53cd3293f245ba7b62315060b606cba93c3721c4bb6c2e4fac59f1aedf84803b",
    "strict-2pl/serial/hotspot-queue": "2d4d2be2b6cb2ea8b4585db9fc58f5469b888c9e82cfc6f483ba0ed42a030032",
    "sgt/round-robin/hotspot-queue": "3a11f6e15b05d05803fc52a6cf432564dd4606f24a26bd35327b1893139ff2e3",
    "sgt/random/hotspot-queue": "91209575ec02c79c2e26f246d088848a45aef9db1f456a26a3f7854dce338a9a",
    "sgt/serial/hotspot-queue": "5615196ed21930ea4285d9ae9be8917184310707a4d6f02541177489ce8af67b",
    "timestamp/round-robin/hotspot-queue": "4a1724244f0f0289b4092e2264669b5c8b5b75cc9c9e6a6a4640c4467cce820c",
    "timestamp/random/hotspot-queue": "e3decbdf87816f71ee58e7eefe1d0cd010fc11955284c5e1fd02a6d69d073d5a",
    "timestamp/serial/hotspot-queue": "3c5fd871bad2f2878da2e82164f2c2f51994e1bcd8b1d7d19ebd26b06a5ecd7d",
    "occ/round-robin/hotspot-queue": "10190eeb9d6899f8a97c1367e3550783ee84857f1eba0c4a2b6b0192fd550842",
    "occ/random/hotspot-queue": "57e19af3fba189c2580f3ed7ed1332f5ab34060f8a8fcad039f055052f9f1944",
    "occ/serial/hotspot-queue": "d42dc1583e18ee08811579dc5f7a0bfe1279e19c094dc496e51ced23e9c5c796",
    "occ-parallel/round-robin/hotspot-queue": "a17028bf181b267f0c2c2f1d5539aa4a06100c68a3beba2af14d54a983b8e04b",
    "occ-parallel/random/hotspot-queue": "61203eab58de6914a8be37e4ef829391d6725fb4cd2db1bac09667dd72a273dc",
    "occ-parallel/serial/hotspot-queue": "66df24f787274367f68ad37f22691e0356f75d1a8ca225862ba8559fdccc7452",
    "mvto/round-robin/hotspot-queue": "23ff5a3208b10515a73d8489a8ee5096131587aeb944cbf3442da86543398db0",
    "mvto/random/hotspot-queue": "5bb5676261e072aa13144e76805a948720639c6cf8ddf085a9d7b97d350a64be",
    "mvto/serial/hotspot-queue": "7690e1b864f97eb51bc6e91a4833de5be3caa6ca4cb6eb6516b084d0033272ca",
    "si/round-robin/hotspot-queue": "1f0d9f62a401c4877276e9eff2c1c6866b712db582cce9dde80e20ab172991be",
    "si/random/hotspot-queue": "f3c7d41e2fc6fea5098b81e0692bd9056b7c2970a27c4b34f06616a2f254896d",
    "si/serial/hotspot-queue": "b8738d8d30a49305cadc98d8a8f1166d30cebdde3467a9a602072e4d1391fdd3",
    "serializable-si/round-robin/hotspot-queue": "c6c90ebfc925fecdc6deef92e2ba52ae8c3e28f8455da3e20f46b39463eb04ab",
    "serializable-si/random/hotspot-queue": "f7be6cbdb80110debfba2e6a196edaa6e749898f9d4087cb6e5fa901e6bfa8aa",
    "serializable-si/serial/hotspot-queue": "ad1fe5e81ffdb75180e690e4ddb80ec8db02db96290c75d2fdba2db3f3e345bd",
    "det-epoch/round-robin/hotspot-queue": "24192346e162d65b9a8541b6a0b81dff60cddbee8846c15decc0d6e7d7be54b5",
    "det-epoch/random/hotspot-queue": "9cb73629223f4c2f57be8cfefdefdb95aebdd9b55f672842d34a66b26a98bf5b",
    "det-epoch/serial/hotspot-queue": "1e03ad5a435c2add509a15da7d78c4c4a22ee21df126f766f9f9bcb1a97c3edd",
    "det-slot/round-robin/hotspot-queue": "86b71cd1507ebb69f916fc42cbe390dc77dadf104b332e904d7c04808fc45440",
    "det-slot/random/hotspot-queue": "36ba71a49497eead12e7279c014abf811a2a84c7bf582a041a53d95be2bd1860",
    "det-slot/serial/hotspot-queue": "f7df062f78b3fbf7379653add23e395be7f340a0924856253181872375f8e75a",
}

SIMULATOR_DIGESTS = {
    "strict-2pl": "8ddead74464b44cc7637d63c150fae92fd826a1ab973847709e3b334c5fc575c",
    "occ-parallel": "dcaf44f05c4a0a981449ba704542879926645297bf36ce09413505becc2686fe",
    "mvto": "39e96ce2b150508ab636d9bd49c28d7576d90684351ffdbddf5688536b42ec93",
    # the rest of the registry, generated on b8547c1; do not edit
    "serial": "a21410f41c516ccd65d846c6e05efa45b1883570a3de872fc541d6b551455d00",
    "sgt": "429044e0edf2eaff3fd3bd86b6cf0688c2468b59a035168f4b17667f2096176e",
    "timestamp": "5eee964adbf8d4ab14434ee6a7cb079cd0e9ffc7636f893ddbb49a28db1d3409",
    "occ": "b4d968473bd2a2b6ca9349a1cb94b1a4870de156fc21bd2adf06979f1772a70a",
    "si": "76cef217768bfdce5cf88b07dd718807bd77d57555263f09ae18cd063180b542",
    "serializable-si": "e1dc1b59919f524692f686bf877cd7f14060aeec576a9a32f64d1c37c6959679",
    "det-epoch": "c469097b8f86a404a400e57b51bdde5b98c3c3b8a415c1034598ae729d61cf97",
    "det-slot": "e74cac58cb4ede314c4230419fd9f390689265f4b8771bafdbbafd50455f5a53",
}


class TestInvisibility:
    def test_every_cell_is_pinned(self):
        assert sorted(EXECUTOR_DIGESTS) == sorted(
            "/".join(cell) for cell in _executor_cells()
        )
        assert sorted(SIMULATOR_DIGESTS) == sorted(SIMULATED)

    @pytest.mark.parametrize("cell", _executor_cells(), ids="/".join)
    def test_executor_digest_unchanged(self, cell):
        assert executor_digest(*cell) == EXECUTOR_DIGESTS["/".join(cell)]

    @pytest.mark.parametrize("name", SIMULATED)
    def test_simulator_digest_unchanged(self, name):
        assert simulator_digest(name) == SIMULATOR_DIGESTS[name]


# ----------------------------------------------------------------------
# the call budget
# ----------------------------------------------------------------------


def count_python_calls(fn):
    """Python-level ``call`` events, and ``EngineKernel.step`` calls among
    them, while ``fn`` runs (C calls excluded).

    The cyclic collector is flushed first and held off while counting:
    a collection that lands mid-run finalizes garbage earlier code left
    behind (closing a suspended generator is a ``call`` event), which
    would charge ``fn`` for calls it never made."""
    step_code = EngineKernel.step.__code__
    calls = steps = 0

    def profiler(frame, event, arg):
        nonlocal calls, steps
        if event == "call":
            calls += 1
            if frame.f_code is step_code:
                steps += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, steps, result


def _bench_smoke_shape():
    # bench/workloads.py's "smoke" sizing of exec-hotspot-2pl
    return hotspot_queue_workload(
        num_transactions=60,
        ops_per_transaction=6,
        num_hot=4,
        num_cold=192,
        hotspot_probability=0.9,
        zipf_theta=0.8,
        seed=0,
    )


class TestCallBudget:
    #: the parent commit measured 36.7 calls per kernel step on this shape
    BUDGET = 24

    def test_calls_per_kernel_step_on_the_bench_smoke_shape(self):
        initial, specs = _bench_smoke_shape()
        factory = get_entry("strict-2pl").factory
        calls, steps, result = count_python_calls(
            lambda: run_batch(factory, DataStore(initial), specs)
        )
        assert result.committed == len(specs) and result.blocks > 0
        assert steps >= result.operations_issued
        per_step = calls / steps
        assert per_step <= self.BUDGET, (
            f"{per_step:.1f} Python calls per kernel step (budget "
            f"{self.BUDGET}): the hot path grew back"
        )


class TestScalingExponent:
    """Work per committed operation must not grow with the batch.

    The first instalment of ROADMAP item 13a: one entry point
    (``run_batch``), one protocol (``strict-2pl``), one shape — every
    session queueing on a single hot key — at n, 4n and 16n sessions.
    Deterministic, no wall clock: Python calls are counted with
    ``sys.setprofile`` like the budget above.

    On the parent of the PR that added it this test fails: without a
    queue on the lock every release woke every waiter to re-request, so
    ``protocol.blocks`` was about n^2/2 (1,225 / 19,900 / 319,600 at
    these sizes) and calls per operation grew linearly in n.
    """

    SIZES = (50, 200, 800)
    MAX_EXPONENT = 1.05

    def test_one_hot_key_costs_the_same_per_operation_at_any_queue_length(self):
        factory = get_entry("strict-2pl").factory
        calls_at, operations_at = {}, {}
        for n in self.SIZES:
            initial, specs = hotspot_queue_workload(
                num_transactions=n,
                ops_per_transaction=4,
                num_hot=1,
                num_cold=1,
                hotspot_probability=1.0,
                seed=0,
            )
            calls, _, result = count_python_calls(
                lambda: run_batch(factory, DataStore(initial), specs)
            )
            assert result.committed == n and result.restarts == 0
            assert result.operations_issued - result.blocks == 4 * n
            assert 0 < result.metrics.count("protocol.blocks") <= n
            calls_at[n], operations_at[n] = calls, 4 * n
        small, large = self.SIZES[0], self.SIZES[-1]
        # total calls ~ operations ** exponent: 1.0 is a flat cost per
        # committed operation, 2.0 is what the herd did
        exponent = math.log(calls_at[large] / calls_at[small]) / math.log(
            operations_at[large] / operations_at[small]
        )
        assert exponent <= self.MAX_EXPONENT, (
            f"Python calls grow as operations^{exponent:.3f} on one hot key "
            f"({ {n: round(calls_at[n] / operations_at[n], 1) for n in self.SIZES} } "
            "calls per committed operation)"
        )


# ----------------------------------------------------------------------
# StepResult's surface
# ----------------------------------------------------------------------


class TestStepResultSurface:
    def test_constructor_signature_and_defaults(self):
        parameters = inspect.signature(StepResult).parameters
        assert list(parameters) == [
            "kind",
            "decision",
            "was_commit",
            "parked",
            "validation_probes",
            "validation_offloaded",
            "fault",
        ]
        assert parameters["kind"].default is inspect.Parameter.empty
        defaults = {
            name: parameter.default
            for name, parameter in parameters.items()
            if name != "kind"
        }
        assert defaults == {
            "decision": None,
            "was_commit": False,
            "parked": False,
            "validation_probes": 0,
            "validation_offloaded": False,
            "fault": None,
        }

    def test_fields_read_back(self):
        result = StepResult(StepKind.BLOCKED, None, True, True, 3, True, "stall")
        assert (
            result.kind,
            result.decision,
            result.was_commit,
            result.parked,
            result.validation_probes,
            result.validation_offloaded,
            result.fault,
        ) == (StepKind.BLOCKED, None, True, True, 3, True, "stall")
        keyword = StepResult(kind=StepKind.GRANTED, parked=True)
        assert keyword.parked and keyword.decision is None and not keyword.was_commit

    def test_progressed(self):
        progressing = {
            StepKind.STARTED,
            StepKind.GRANTED,
            StepKind.VALIDATING,
            StepKind.COMMITTED,
        }
        for kind in StepKind:
            assert StepResult(kind).progressed is (kind in progressing)


if __name__ == "__main__":
    print("EXECUTOR_DIGESTS = {")
    for cell in _executor_cells():
        print(f'    "{"/".join(cell)}": "{executor_digest(*cell)}",')
    print("}\n\nSIMULATOR_DIGESTS = {")
    for name in SIMULATED:
        print(f'    "{name}": "{simulator_digest(name)}",')
    print("}")

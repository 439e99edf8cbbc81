"""The online engine loads only what a run uses.

Each case imports one module in a fresh interpreter and lists the
modules that import left in ``sys.modules``.  The single-node front
ends, the parallel runner, the protocol registry and the distributed
engine must load no ``repro.core``, ``repro.locking``, ``repro.harness``
or ``repro.analysis`` module and no ``multiprocessing``; the
single-node modules load no ``repro.dist`` module.  Importing the
registry loads no protocol, and reading one entry's factory loads that
protocol's modules and no other's.  ``multiprocessing`` is loaded by the
first parallel run, which still matches the serial sharded run.

:class:`TestImportBudget` bounds what importing the benchmark's engine
set costs: the ``repro`` modules it loads and the dataclasses it builds
(each one compiles and runs generated methods at import).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.engine.protocols.registry import PROTOCOL_ENTRIES

SRC = str(Path(__file__).resolve().parent.parent / "src")

NEVER = ("repro.core", "repro.locking", "repro.harness", "repro.analysis", "multiprocessing")

PROTOCOLS = "repro.engine.protocols."


def _run(script: str) -> Any:
    """Run ``script`` in a fresh interpreter; the JSON it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return json.loads(out.stdout)


def _loaded_after(statement: str) -> list:
    return _run(
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )


def _under(modules: list, packages) -> list:
    return [
        name
        for name in modules
        if any(name == package or name.startswith(package + ".") for package in packages)
    ]


@pytest.mark.parametrize(
    "module, statement",
    [
        ("repro.engine.runtime", "import repro.engine.runtime"),
        ("repro.engine.simulator", "import repro.engine.simulator"),
        ("repro.engine.parallel", "import repro.engine.parallel"),
        ("repro.engine.protocols.registry", "import repro.engine.protocols.registry"),
        ("repro.dist.engine", "import repro.dist.engine"),
        # the one name a package keeps: the benchmark imports it from there
        ("repro.dist.engine", "from repro.dist import run_distributed_batch"),
    ],
)
def test_an_engine_import_loads_only_what_it_uses(module, statement):
    loaded = _loaded_after(statement)
    assert module in loaded
    assert _under(loaded, NEVER) == []
    if module.startswith("repro.engine."):
        assert _under(loaded, ("repro.dist",)) == []


def test_the_registry_loads_no_protocol():
    loaded = _loaded_after("import repro.engine.protocols.registry")
    protocols = [name for name in loaded if name.startswith(PROTOCOLS)]
    assert set(protocols) <= {PROTOCOLS + "registry", PROTOCOLS + "base"}


def test_a_flat_distributed_run_loads_no_consensus_layer():
    loaded = _loaded_after(
        "from repro.dist import run_distributed_batch\n"
        "run_distributed_batch({'a': 1, 'b': 2}, [], num_shards=2)"
    )
    assert _under(loaded, ("repro.dist.paxos", "repro.dist.replication")) == []


#: the protocol modules (beyond ``base``) each registered entry runs on
PROTOCOL_MODULES = {
    "serial": (),
    "strict-2pl": ("two_phase_locking",),
    "sgt": ("sgt",),
    "timestamp": ("timestamp_ordering",),
    "occ": ("occ",),
    "occ-parallel": ("occ",),
    "mvto": ("multiversion", "mvto"),
    "si": ("multiversion", "snapshot_isolation"),
    "serializable-si": ("multiversion", "snapshot_isolation"),
    "det-epoch": ("deterministic", "sequencer"),
    "det-slot": ("deterministic", "sequencer"),
}


def test_every_entry_names_its_modules():
    assert set(PROTOCOL_MODULES) == set(PROTOCOL_ENTRIES)


@pytest.mark.parametrize("name", sorted(PROTOCOL_MODULES))
def test_a_factory_loads_only_its_protocol(name):
    loaded = _loaded_after(
        "from repro.engine.protocols.registry import get_entry\n"
        "from repro.engine.storage import DataStore\n"
        f"get_entry({name!r}).factory(DataStore({{'x': 0}}))"
    )
    protocols = {name[len(PROTOCOLS):] for name in loaded if name.startswith(PROTOCOLS)}
    assert protocols == {"registry", "base", *PROTOCOL_MODULES[name]}


def test_a_parallel_run_loads_multiprocessing_and_matches_the_serial_run():
    outcome = _run(
        "import json, sys\n"
        "from repro.engine.parallel import ParallelShardRunner\n"
        "from repro.engine.protocols.registry import get_entry\n"
        "from repro.engine.runtime import run_sharded_batch\n"
        "from repro.engine.storage import ShardedDataStore\n"
        "from repro.engine.workloads import WorkloadConfig, partition_of, partitioned_workload\n"
        "initial, specs = partitioned_workload(num_transactions=24,\n"
        "    config=WorkloadConfig(num_keys=16), seed=3, num_partitions=4)\n"
        "factory = get_entry('strict-2pl').factory\n"
        "store = lambda: ShardedDataStore(initial, num_shards=4, shard_of=partition_of)\n"
        "before = 'multiprocessing' in sys.modules\n"
        "runs = [run_sharded_batch(factory, store(), specs, seed=1),\n"
        "        ParallelShardRunner(workers=2).run(factory, store(), specs, seed=1)]\n"
        "view = lambda r: [r.store_snapshot, r.committed, sorted(\n"
        "    (i, s.per_transaction, s.store_snapshot) for i, s in r.per_shard.items())]\n"
        "print(json.dumps([before, 'multiprocessing' in sys.modules,\n"
        "    [view(run) for run in runs], runs[0].committed == len(specs)], default=repr))\n"
    )
    before, after, (serial, parallel), all_committed = outcome
    assert (before, after) == (False, True)
    assert parallel == serial
    assert all_committed


class TestImportBudget:
    """What importing the benchmark's engine set costs, counted.

    A fresh interpreter wraps ``dataclasses.dataclass`` with a counter,
    then imports every engine module ``bench/workloads.py`` imports.
    Each bound may only fall: a module or dataclass the benchmark needs
    to add is paid for by one it stops loading.
    """

    ENGINE_SET = (
        "repro.dist",
        "repro.dist.replication",
        "repro.dist.tpc",
        "repro.engine.faults",
        "repro.engine.mvstore",
        "repro.engine.parallel",
        "repro.engine.runtime",
        "repro.engine.simulator",
        "repro.engine.storage",
        "repro.engine.workloads",
        "repro.engine.protocols.registry",
    )
    #: 39 while the registry imported every protocol and the protocol
    #: base class its verdict's certificate and graph modules; 25 since
    REPRO_MODULES = 25
    #: 23 while every config, spec, event and result class on the path
    #: was a dataclass; 4 since: ``TransactionSpec``, ``ExecutionResult``,
    #: ``SimulationReport`` and ``LatencyBreakdown``, which tests take
    #: apart with the ``dataclasses`` API
    DATACLASSES = 4

    def test_the_engine_set_stays_within_its_budget(self):
        imports = "".join(f"import {module}\n" for module in self.ENGINE_SET)
        imported = _run(
            "import dataclasses, json, sys\n"
            "made = []\n"
            "real = dataclasses.dataclass\n"
            "def counting(cls=None, **options):\n"
            "    if cls is None:\n"
            "        return lambda cls: counting(cls, **options)\n"
            "    made.append(cls.__module__ + '.' + cls.__qualname__)\n"
            "    return real(cls, **options)\n"
            "dataclasses.dataclass = counting\n"
            f"{imports}"
            "print(json.dumps({'modules': sorted(m for m in sys.modules\n"
            "    if m == 'repro' or m.startswith('repro.')), 'dataclasses': made}))\n"
        )
        repro_dataclasses = [name for name in imported["dataclasses"] if name.startswith("repro.")]
        assert len(imported["modules"]) <= self.REPRO_MODULES, imported["modules"]
        assert len(repro_dataclasses) <= self.DATACLASSES, repro_dataclasses

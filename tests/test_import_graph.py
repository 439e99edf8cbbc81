"""The online engine loads neither the static theory nor the harness.

Each case imports one module in a fresh interpreter and lists the
modules that import left in ``sys.modules``: the single-node front ends
and the distributed engine must load no ``repro.core``,
``repro.locking`` or ``repro.harness`` module, only the process-parallel
runner loads ``multiprocessing``, and the single-node modules load no
``repro.dist`` module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

NEVER = ("repro.core", "repro.locking", "repro.harness")


def _loaded_after(statement: str) -> list:
    script = (
        "import json, sys\n"
        f"{statement}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
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
        ("repro.dist.engine", "import repro.dist.engine"),
        # the one name a package keeps: the benchmark imports it from there
        ("repro.dist.engine", "from repro.dist import run_distributed_batch"),
    ],
)
def test_an_engine_import_loads_only_what_it_uses(module, statement):
    loaded = _loaded_after(statement)
    assert module in loaded
    assert _under(loaded, NEVER) == []
    assert ("multiprocessing" in loaded) == (module == "repro.engine.parallel")
    if module.startswith("repro.engine."):
        assert _under(loaded, ("repro.dist",)) == []

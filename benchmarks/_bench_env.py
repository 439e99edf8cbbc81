"""Shared benchmark-environment knobs.

``QUICK`` is the single parse of the ``REPRO_BENCH_QUICK`` environment
variable (the CI smoke job sets it to 1): reduced client counts and
durations that keep every benchmark's invariants while skipping the
scale-dependent headline bars.  The bench modules import it from here so
the accepted truthy values cannot drift between copies — the same
reasoning that hoisted the duplicated protocol dicts into
``benchmarks/conftest.py``.  (A plain module rather than conftest,
because importing ``conftest`` by name is ambiguous with the repo-root
one; pytest puts this directory on ``sys.path`` when it imports the
benchmark modules, so ``from _bench_env import QUICK`` always resolves
here.)

Summary-file paths follow one three-tier rule (``_summary_path``):

1. an explicit per-file environment variable always wins — the CI smoke
   job points each at a scratch path to upload as an artifact;
2. otherwise, refreshing the **committed** ``benchmarks/BENCH_*.json``
   is opt-in via ``REPRO_BENCH_COMMIT=1`` (and never happens in quick
   mode) — a plain full-scale ``pytest`` run must leave the work tree
   clean, because the tier-1 suite includes this directory and the
   sched summary records wall-clock times that differ every run;
3. else: write nothing.
"""

import json
import os
import shutil

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: simulated client terminals for the at-scale benchmarks (E14/E15);
#: shared so the cross-protocol comparisons always run at the same scale.
#: Durations stay per-module — they genuinely differ per experiment.
NUM_CLIENTS = 24 if QUICK else 120


def _summary_path(env_var, filename):
    """The three-tier path rule for one shared summary file.

    Environment variables are read at call time, not import time, so
    tests (and late ``os.environ`` edits in CI steps) see the current
    values.  Note ``REPRO_BENCH_COMMIT`` refreshes the committed file
    only at full scale — quick-mode numbers would silently shrink the
    committed headline bars.
    """
    explicit = os.environ.get(env_var, "")
    if explicit:
        return explicit
    commit = os.environ.get("REPRO_BENCH_COMMIT", "") not in ("", "0")
    if commit and not QUICK:
        return os.path.join(os.path.dirname(__file__), filename)
    return None


def sched_json_path():
    """Where the scheduler benchmarks write their shared summary.

    ``BENCH_sched.json`` holds sections written by two modules
    (``test_bench_sched.py`` and ``test_bench_shard_parallel.py``), so
    the path logic lives here: ``REPRO_BENCH_SCHED_JSON`` always wins,
    else the committed file only under ``REPRO_BENCH_COMMIT=1``.
    """
    return _summary_path("REPRO_BENCH_SCHED_JSON", "BENCH_sched.json")


def occ_json_path():
    """Where the OCC benchmarks write ``BENCH_occ.json`` (same rule)."""
    return _summary_path("REPRO_BENCH_OCC_JSON", "BENCH_occ.json")


def det_json_path():
    """Where the deterministic benchmarks write ``BENCH_det.json`` (same rule)."""
    return _summary_path("REPRO_BENCH_DET_JSON", "BENCH_det.json")


def repl_json_path():
    """Where the replication benchmarks write ``BENCH_repl.json`` (same rule)."""
    return _summary_path("REPRO_BENCH_REPL_JSON", "BENCH_repl.json")


def update_bench_json(path, section, payload, **top_level):
    """Merge one benchmark's section into a shared summary file.

    A corrupt existing file is **not** silently replaced: these files
    hold sections from several modules, and starting over from ``{}``
    would quietly discard the other modules' results.  The corrupt
    bytes are preserved at ``<path>.bak`` and the error propagates.
    """
    if not path:
        return
    summary = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                summary = json.load(handle)
        except ValueError as exc:
            backup = path + ".bak"
            shutil.copyfile(path, backup)
            raise ValueError(
                f"refusing to overwrite corrupt bench summary {path!r} "
                f"(other modules' sections would be lost); original "
                f"preserved at {backup!r}"
            ) from exc
    summary.update(top_level)
    summary[section] = payload
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

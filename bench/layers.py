"""Per-layer metrics, measured from outside the program.

The traced pass wraps a workload's ``run`` in ``cProfile`` and folds each
function's self time into a *layer* named after the repo module it lives
in.  Code that belongs to no layer of its own — C builtins, the standard
library, ``repro.util`` helpers, the benchmark's own glue — is charged to
whichever layer called it, through the profiler's caller table: a
``heappush`` issued by ``dist/network.py`` is network time, a cycle check
in ``util/graphs.py`` is protocol time when the lock manager asked for it
and oracle time when the serializability check did.  The first level of
that attribution is exact (the profiler records a callee's self time per
caller); deeper levels split in proportion to the time each caller spent
under the helper.

The counters come from the engine's own ``Metrics`` registry, which every
entry point returns with its result, and the parallel runner's wall-clock
spans from the ``TraceRecorder`` it already accepts.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Tuple

LAYERS = (
    "runtime",
    "kernel",
    "protocols",
    "storage",
    "obs",
    "oracle",
    "workloads",
    "simulator",
    "parallel",
    "faults",
    "dist.engine",
    "dist.network",
    "dist.tpc",
    "dist.paxos",
    "dist.replication",
    "dist.recovery",
    "other",
)

#: not a layer: time in this code is charged to the layer that called it
CALLER = "<caller>"

#: path under ``src/repro/`` -> layer; the first matching prefix wins.
#: ``bench/tests`` asserts every source file matches a rule, so a new
#: module cannot land in ``other`` without someone deciding it should.
LAYER_RULES: Tuple[Tuple[str, str], ...] = (
    ("engine/runtime.py", "runtime"),
    ("engine/kernel.py", "kernel"),
    ("engine/protocols/", "protocols"),
    ("locking/", "protocols"),
    ("engine/storage.py", "storage"),
    ("engine/mvstore.py", "storage"),
    ("engine/metrics.py", "obs"),
    ("engine/reasons.py", "obs"),
    ("obs/", "obs"),
    ("core/", "oracle"),
    ("analysis/", "oracle"),
    ("harness/", "oracle"),
    ("engine/workloads.py", "workloads"),
    ("engine/operations.py", "workloads"),
    ("engine/simulator.py", "simulator"),
    ("engine/parallel.py", "parallel"),
    ("engine/faults.py", "faults"),
    ("dist/engine.py", "dist.engine"),
    ("dist/network.py", "dist.network"),
    ("dist/tpc.py", "dist.tpc"),
    ("dist/paxos.py", "dist.paxos"),
    ("dist/replication.py", "dist.replication"),
    ("dist/recovery.py", "dist.recovery"),
    ("util/", CALLER),
    # package __init__ files only re-export; they run at import, not in a repeat
    ("engine/__init__.py", "other"),
    ("dist/__init__.py", "other"),
    ("__init__.py", "other"),
)

#: the serializability oracle's entry points live inside the protocol
#: modules; these functions (and code nested in them) are oracle time, not
#: protocol time.  Everything they call is oracle by module (analysis/,
#: core/) or charged to them as their caller (util/).
ORACLE_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "engine/protocols/base.py": (
        "committed_history_serializable",
        "committed_conflict_graph",
        "committed_log",
    ),
    "engine/protocols/multiversion.py": (
        "committed_history_serializable",
        "committed_version_orders",
        "mvsg_transactions",
    ),
}

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)


def layer_of_source(relative_path: str) -> Optional[str]:
    """The layer of a file given relative to ``src/repro/`` (None: no rule)."""
    relative_path = relative_path.replace(os.sep, "/")
    for prefix, layer in LAYER_RULES:
        if relative_path.startswith(prefix):
            return layer
    return None


def _repo_path(code: Any) -> Optional[str]:
    """A code object's file relative to ``src/repro/`` (None: not repo code)."""
    if isinstance(code, str):
        return None  # a C builtin
    filename = code.co_filename
    if not filename.startswith(SRC_ROOT + os.sep):
        return None  # standard library, generated code, the benchmark's glue
    return filename[len(SRC_ROOT) + 1 :].replace(os.sep, "/")


def _layer_of_code(code: Any) -> str:
    relative = _repo_path(code)
    if relative is None:
        return CALLER
    qualified = getattr(code, "co_qualname", code.co_name).split(".")
    if any(name in qualified for name in ORACLE_FUNCTIONS.get(relative, ())):
        return "oracle"
    return layer_of_source(relative) or "other"


class Fold:
    """One profile folded into layers."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: calls of Python-level functions, builtins excluded
        self.py_calls = 0
        #: (path under src/repro, function name) -> call count
        self.function_calls: Dict[Tuple[str, str], int] = defaultdict(int)

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def share(self, layer: str) -> float:
        total = self.total_s
        return self.self_s[layer] / total if total else 0.0

    def calls_of(self, path: str, names: Iterable[str]) -> int:
        return sum(self.function_calls.get((path, name), 0) for name in names)


def fold_profile(stats: List[Any]) -> Fold:
    """Fold ``cProfile.Profile.getstats()`` into per-layer self time."""
    fold = Fold()
    # callee -> [(caller, callee self time under that caller, total time)]
    callers: Dict[Any, List[Tuple[Any, float, float]]] = defaultdict(list)
    for entry in stats:
        for sub in entry.calls or ():
            callers[sub.code].append((entry.code, sub.inlinetime, sub.totaltime))

    memo: Dict[Any, Dict[str, float]] = {}
    in_progress = set()

    def mix(code: Any) -> Dict[str, float]:
        """Which layers the time spent under ``code`` belongs to."""
        layer = _layer_of_code(code)
        if layer != CALLER:
            return {layer: 1.0}
        if code in memo:
            return memo[code]
        in_progress.add(code)
        # a helper that is its own ancestor (recursion) is not its own caller
        edges = [edge for edge in callers.get(code, ()) if edge[0] not in in_progress]
        weight = sum(total for _caller, _inline, total in edges)
        result: Dict[str, float] = defaultdict(float)
        if weight <= 0.0:
            result["other"] = 1.0  # a root of the profile: nobody to charge
        else:
            for caller, _inline, total in edges:
                for name, fraction in mix(caller).items():
                    result[name] += fraction * total / weight
        in_progress.discard(code)
        memo[code] = result
        return result

    for entry in stats:
        code = entry.code
        layer = _layer_of_code(code)
        if not isinstance(code, str):
            fold.py_calls += entry.callcount
            relative = _repo_path(code)
            if relative is not None:
                fold.function_calls[(relative, code.co_name)] += entry.callcount
        if layer != CALLER:
            fold.self_s[layer] += entry.inlinetime
            fold.calls[layer] += entry.callcount
            continue
        edges = callers.get(code)
        if not edges:
            fold.self_s["other"] += entry.inlinetime
            continue
        for caller, inline, _total in edges:
            for name, fraction in mix(caller).items():
                fold.self_s[name] += inline * fraction
    return fold


# ----------------------------------------------------------------------
# the per-layer metric table
# ----------------------------------------------------------------------

_STORE_READS = ("read", "read_version", "read_as_of")
_STORE_WRITES = ("write", "install")
_STORE_FILES = ("engine/storage.py", "engine/mvstore.py")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(outcome: Any, fold: Fold, spans: List[Any]) -> Dict[str, float]:
    """Every counter-derived per-layer metric for one traced repeat.

    A metric whose layer the workload does not execute reads 0.  Host-time
    aggregates over several repeats (overhead ratio, serial twin, host
    calibration) are added by the caller, which owns the repeats.
    """
    extra = outcome.extra.get
    steps = outcome.steps
    commits = outcome.commits
    out: Dict[str, float] = {}

    def count(name: str) -> float:
        return outcome.counters.get(name, 0)

    for layer in LAYERS:
        out[f"{layer}.self_s"] = fold.self_s[layer]
        out[f"{layer}.share"] = fold.share(layer)
        out[f"{layer}.calls"] = fold.calls[layer]
    out["trace.py_calls_per_step"] = _ratio(fold.py_calls, steps)

    attempts = commits + outcome.aborted_attempts
    out["behaviour.failed_share"] = (
        1.0 if outcome.errors else _ratio(outcome.submitted - commits, outcome.submitted)
    )
    out["behaviour.abort_rate"] = _ratio(outcome.aborted_attempts, attempts)
    out["behaviour.virtual_commits_per_unit"] = _ratio(
        commits, extra("virtual_duration", 0.0)
    )
    out["behaviour.failover_virtual_s"] = extra("failover_virtual_s", 0.0)

    out["kernel.steps"] = fold.calls_of("engine/kernel.py", ("step",))
    out["kernel.parks"] = count("kernel.parks")
    out["kernel.wakeups"] = count("kernel.wakeups")
    out["kernel.restarts"] = count("kernel.restarts")
    out["kernel.readonly_fastpath"] = count("kernel.readonly_fastpath")
    out["kernel.block_height_mean"] = count("kernel.block_height.mean")

    blocks = count("protocol.blocks")
    aborts = count("protocol.aborts")
    grants = (
        count("protocol.reads_granted")
        + count("protocol.writes_granted")
        + count("protocol.commits")
    )
    out["protocols.decisions"] = grants + blocks + aborts
    out["protocols.grant_ratio"] = _ratio(grants, grants + blocks + aborts)
    out["protocols.blocks"] = blocks
    out["protocols.aborts"] = aborts
    out["protocols.validation_failures"] = count("occ.validation_failures") + count(
        "mvto.write_validation_failures"
    )

    out["storage.reads"] = sum(fold.calls_of(f, _STORE_READS) for f in _STORE_FILES)
    out["storage.writes"] = sum(fold.calls_of(f, _STORE_WRITES) for f in _STORE_FILES)
    out["storage.versions_collected"] = count("mvstore.versions_collected")
    out["storage.versions_live"] = extra("versions_live", 0.0)

    out["obs.metric_calls_per_step"] = _ratio(
        fold.calls_of("engine/metrics.py", ("incr", "observe")), steps
    )

    simulated = "sched_mean" in outcome.extra
    out["simulator.events"] = steps if simulated else 0
    out["simulator.events_per_commit"] = _ratio(steps, commits) if simulated else 0.0
    for name in (
        "sched_mean",
        "wait_mean",
        "exec_mean",
        "response_mean",
        "delay_free_fraction",
    ):
        out[f"simulator.{name}"] = extra(name, 0.0)

    by_name: Dict[str, List[Any]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out["parallel.workers"] = extra("workers", 0)
    out["parallel.pickle_bytes"] = sum(
        span.meta.get("bytes", 0) for span in by_name["shard.pickle"]
    )
    out["parallel.pickle_s"] = sum(span.duration for span in by_name["shard.pickle"])
    out["parallel.pool_start_s"] = sum(
        span.duration for span in by_name["shard.pool_start"]
    )
    # collect spans all start at submit; the longest one ends with the last shard
    out["parallel.collect_s"] = max(
        (span.duration for span in by_name["shard.collect"]), default=0.0
    )

    dist_commits = count("dist.commits")
    out["dist.network.events"] = steps if "dist.net.sent" in outcome.counters else 0
    out["dist.network.sent"] = count("dist.net.sent")
    out["dist.network.dropped"] = count("dist.net.dropped") + count(
        "dist.net.dropped_at_node"
    )
    out["dist.network.duplicated"] = count("dist.net.duplicated")
    out["dist.network.msgs_per_commit"] = _ratio(count("dist.net.sent"), dist_commits)
    out["dist.tpc.attempts_per_commit"] = _ratio(
        dist_commits + count("dist.aborts"), dist_commits
    )
    out["dist.tpc.timeouts"] = count("dist.timeouts")
    out["dist.tpc.retries"] = count("dist.retries")
    out["dist.tpc.no_votes"] = count("dist.participant.no_votes")
    out["dist.tpc.shed"] = count("dist.shed")
    out["dist.tpc.status_inquiries"] = count("dist.participant.status_inquiries")
    out["dist.paxos.elections"] = count("dist.repl.elections")
    out["dist.paxos.leaders_elected"] = count("dist.repl.leaders_elected")
    out["dist.paxos.election_win_ratio"] = _ratio(
        count("dist.repl.leaders_elected"), count("dist.repl.elections")
    )
    out["dist.paxos.proposals_per_commit"] = _ratio(
        count("dist.repl.proposals"), dist_commits
    )
    out["dist.replication.crashes"] = count("dist.repl.crashes")
    out["dist.replication.restarts"] = count("dist.repl.restarts")
    out["dist.replication.unavail"] = count("dist.repl.unavail")
    out["dist.replication.no_quorum_reports"] = count("dist.repl.no_quorum_reports")
    out["dist.engine.client_retries"] = count("dist.client_retries")
    out["dist.engine.virtual_end"] = (
        extra("virtual_duration", 0.0) if "dist.net.sent" in outcome.counters else 0.0
    )
    return out

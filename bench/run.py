#!/usr/bin/env python3
"""The repo's benchmark: every entry point, end to end and layer by layer.

Two ways to call it, one measurement protocol::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py [--seed N] [--runs K] [--seconds S] [--no-trace] [--out PATH]

The first form measures one workload in this process and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (``--trace 0``: every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1``: every per-layer metric).  The
line before it carries the raw samples.  The second form runs the first
in a child process for every workload in turn, ``K`` rounds of untraced
runs and then one traced run each, prints every metric by name with its
unit, and writes the whole record to ``--out`` when asked (nowhere
otherwise).

Timing protocol.  The sandbox's speed flips between phases that last
5-15 s and differ by a factor of up to 1.7 (``process_time == wall``, so
it is not pre-emption and cannot be subtracted); the median raw time of
a 10 s run therefore moves by 30% from run to run.  So every timed call
is bracketed by a fixed calibration kernel (pure builtins, nothing from
the repo), and a host-time metric is the **median over the repeats of
(call time / mean of the two adjacent calibration times)**, scaled by
``CALIB_REFERENCE_S`` into *reference-host seconds*: what the call costs
at the speed where one calibration takes 50 ms, the sandbox's fast
phase.  The raw seconds are recorded beside every normalised value.
Work is seed-deterministic, so every repeat does identical work.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: one calibration on the sandbox's fast phase; the unit of "reference-host seconds"
CALIB_REFERENCE_S = 0.05
CALIB_ITERATIONS = 40_000
SETUP_REPEATS = 3


class _CalibNode:
    __slots__ = ("rank", "key")

    def __init__(self, rank: int, key: str) -> None:
        self.rank = rank
        self.key = key

    def bump(self) -> int:
        self.rank += 1
        return self.rank


def calibrate() -> float:
    """Time a fixed interpreter-bound kernel: the host's speed right now.

    The mix (string keys, dict updates, small objects, method calls, a
    bounded heap) resembles what the engine does per step, so the host's
    slow phases stretch it by the same factor as a workload repeat — an
    integer loop tracks them visibly worse.  It must never use repo code:
    an engine change may not move the yardstick.  The collector is off
    while it runs: a full collection costs in proportion to everything the
    *workload* keeps alive, which made the kernel read 0.053 s or 0.082 s
    depending on whether one happened to fall inside it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        heap: List[Tuple[int, int]] = []
        counts: Dict[str, int] = {}
        nodes: List[_CalibNode] = []
        for i in range(CALIB_ITERATIONS):
            key = "k%d" % (i & 1023)
            counts[key] = counts.get(key, 0) + 1
            node = _CalibNode(i, key)
            node.bump()
            heappush(heap, ((i * 7919) % 10007, i))
            if len(heap) > 256:
                heappop(heap)
            nodes.append(node)
            if len(nodes) > 4096:
                nodes.clear()
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


class HostClock:
    """Times calls between calibrations and normalises them."""

    def __init__(self) -> None:
        self.calibrations: List[float] = [calibrate()]

    def timed(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """Run ``fn``; return (its result, raw seconds, reference-host seconds)."""
        before = self.calibrations[-1]
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
        after = calibrate()
        self.calibrations.append(after)
        return result, raw, raw / ((before + after) / 2.0) * CALIB_REFERENCE_S


def load_benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


class CheckFailed(Exception):
    """A correctness check failed; the run is reported as incorrect."""


def _checked(outcome: Any, reference: Any) -> Any:
    if outcome.errors:
        raise CheckFailed("; ".join(outcome.errors))
    if reference is not None and outcome.signature != reference.signature:
        changed = sorted(
            key
            for key in outcome.signature
            if outcome.signature[key] != reference.signature.get(key)
        )
        raise CheckFailed(f"not deterministic across repeats: {changed} changed")
    return outcome


def measure(
    workload: Any,
    seed: int,
    seconds: float,
    trace: bool,
    size: str,
    clock: HostClock,
    import_times: Tuple[float, float],
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Measure one workload; return (the contract's result, the detail record)."""
    import layers
    from repro.obs.trace import TraceRecorder

    if trace:
        # a forked pool worker inherits the parent's active profiler; switch
        # it off there, so workers run at full speed and their time shows up
        # in the parent as the wait for results (parallel.collect_s)
        os.register_at_fork(after_in_child=lambda: sys.setprofile(None))
    sizing = workload.sizes[size]
    setups = [clock.timed(lambda: workload.setup(seed, sizing)) for _ in range(SETUP_REPEATS)]
    inputs = setups[-1][0]
    import_raw_s, import_ref_s = import_times
    setup_ref_s = import_ref_s + statistics.median(ref for _inputs, _raw, ref in setups)

    attempted = failed = 0
    samples: List[Tuple[float, float]] = []  # (raw, reference-host) per timed repeat
    traced: List[Dict[str, float]] = []
    overheads: List[float] = []
    serial_raw: List[float] = []
    speedups: List[float] = []
    error: Optional[str] = None
    reference = None
    try:
        # warm-up: fills caches, and is the reference every repeat must equal
        # (timed only so that the first repeat starts from a fresh calibration)
        reference = _checked(clock.timed(lambda: workload.run(inputs))[0], None)
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            outcome, raw, ref = clock.timed(lambda: workload.run(inputs))
            attempted += outcome.submitted
            failed += outcome.submitted - outcome.commits
            _checked(outcome, reference)
            samples.append((raw, ref))
            if not trace:
                continue
            if workload.serial_twin is not None:
                _twin, twin_raw, _ref = clock.timed(lambda: workload.serial_twin(inputs))
                serial_raw.append(twin_raw)
                speedups.append(twin_raw / raw)
            recorder = TraceRecorder()
            profile = cProfile.Profile()
            started = time.perf_counter()
            profile.enable()
            try:
                outcome = workload.run(inputs, tracer=recorder)
            finally:
                profile.disable()
            overheads.append((time.perf_counter() - started) / raw)
            _checked(outcome, reference)
            traced.append(
                layers.layer_metrics(
                    outcome,
                    layers.fold_profile(profile.getstats()),
                    recorder.spans,
                )
            )
    except CheckFailed as failure:
        error = str(failure)
    attempted = max(attempted, 1)
    if error is not None:
        failed = attempted

    run_raw_s = statistics.median(raw for raw, _ref in samples) if samples else 0.0
    run_ref_s = statistics.median(ref for _raw, ref in samples) if samples else 0.0
    if error is not None:
        metrics: Dict[str, float] = {}
    elif trace:
        metrics = {
            name: statistics.median(row[name] for row in traced) for name in traced[0]
        }
        metrics["trace.overhead_ratio"] = statistics.median(overheads)
        metrics["parallel.serial_run_s"] = statistics.median(serial_raw) if serial_raw else 0.0
        metrics["parallel.speedup_vs_serial"] = statistics.median(speedups) if speedups else 0.0
        metrics["host.calib_min_s"] = min(clock.calibrations)
        metrics["host.calib_max_s"] = max(clock.calibrations)
        metrics["host.run_raw_s"] = run_raw_s
    else:
        metrics = {
            "commits_per_s": reference.commits / run_ref_s,
            "steps_per_s": reference.steps / run_ref_s,
            "run_s": run_ref_s,
            "setup_s": setup_ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    spec = load_benchmark_json()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if error is None and set(metrics) != set(units):
        raise RuntimeError(
            "metrics measured and BENCHMARK.json disagree: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    result = {
        "correct": error is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "seconds": seconds,
        "error": error,
        "repeats": len(samples),
        "run_raw_s": [raw for raw, _ref in samples],
        "run_ref_s": [ref for _raw, ref in samples],
        "setup_raw_s": [raw for _inputs, raw, _ref in setups],
        "import_raw_s": import_raw_s,
        "host.calib_s": clock.calibrations,
        "signature": reference.signature if reference is not None else None,
        "counters": reference.counters if reference is not None else None,
    }
    return result, detail


def run_one(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    for path in (SRC, BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)
    clock = HostClock()
    # the one-off cost a user pays before the first call: importing the engine
    workloads, *import_times = clock.timed(lambda: importlib.import_module("workloads"))
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result, detail = measure(
        workloads.WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        args.size,
        clock,
        tuple(import_times),
    )
    if detail["error"]:
        print(f"bench: {args.workload}: {detail['error']}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# every workload, each run in a child process
# ----------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int, size: str):
    completed = subprocess.run(
        [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--size", size,
        ],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    lines = completed.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload}: the run printed no result (exit {completed.returncode})")
    record = json.loads(lines[-1])
    record["seed"] = seed
    record["detail"] = json.loads(lines[-2])["detail"]
    return record


def _environment() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _print_end_to_end(name: str, runs: List[Dict[str, Any]], spec: Dict[str, Any]) -> None:
    print(f"\n== {name}: end to end ({len(runs)} run(s)) ==")
    for metric in spec["end_to_end"]:
        values = [run["metrics"][metric["name"]]["value"] for run in runs if run["correct"]]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        spread = f"  [q1 {q1:.6g}, q3 {q3:.6g}]" if len(values) > 1 else ""
        print(f"  {metric['name']:<16} {median:>14.6g} {metric['unit']}{spread}")
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(f"  {'failed':<16} {failed:>14} of {attempted} attempted")


def _print_layers(name: str, run: Dict[str, Any], spec: Dict[str, Any]) -> None:
    import layers  # needs no engine: the child processes import that

    values = {key: entry["value"] for key, entry in run["metrics"].items()}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print(f"\n== {name}: layer by layer (traced pass, seed {run['seed']}) ==")
    print(f"  {'layer':<18} {'self_s':>10} {'share':>8} {'calls':>12}")
    for layer in layers.LAYERS:
        if values[f"{layer}.calls"] or values[f"{layer}.self_s"]:
            print(
                f"  {layer:<18} {values[f'{layer}.self_s']:>10.4f} "
                f"{values[f'{layer}.share']:>8.3f} {int(values[f'{layer}.calls']):>12}"
            )
    table = {f"{layer}.{column}" for layer in layers.LAYERS for column in ("self_s", "share", "calls")}
    groups: Dict[str, List[str]] = {}
    for key in values:
        if key not in table:
            groups.setdefault(key.rsplit(".", 1)[0], []).append(key)
    for group, keys in groups.items():
        if any(values[key] for key in keys):  # a layer this workload never enters is omitted
            for key in keys:
                print(f"  {key:<36} {values[key]:>14.6g} {units[key]}")


def run_suite(args: argparse.Namespace) -> int:
    spec = load_benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    record: Dict[str, Any] = {
        "env": _environment(),
        "seed": args.seed,
        "runs": args.runs,
        "seconds": args.seconds,
        "size": args.size,
        "workloads": {name: {"runs": [], "trace": None} for name in names},
    }
    # rounds: one run of every workload in turn, so a slow host phase lands
    # on every workload alike and each workload samples the whole window
    for round_index in range(args.runs):
        for name in names:
            run = _child(name, args.seed + round_index, args.seconds, 0, args.size)
            record["workloads"][name]["runs"].append(run)
    if not args.no_trace:
        for name in names:
            record["workloads"][name]["trace"] = _child(name, args.seed, args.seconds, 1, args.size)

    correct = True
    for name in names:
        entry = record["workloads"][name]
        _print_end_to_end(name, entry["runs"], spec)
        if entry["trace"] is not None:
            _print_layers(name, entry["trace"], spec)
        for run in entry["runs"] + ([entry["trace"]] if entry["trace"] else []):
            if not run["correct"]:
                correct = False
                print(f"  FAILED (seed {run['seed']}): {run['detail']['error']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--runs", type=int, default=1, help="untraced rounds (all workloads)")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced pass")
    parser.add_argument("--out", help="write the full record here (default: nowhere)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_benchmark_json()["run_seconds"])
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    return run_one(args) if args.workload else run_suite(args)


if __name__ == "__main__":
    sys.exit(main())

"""E16 — scheduling cost: run queue vs legacy round scan at 1,000 clients.

The ISSUE-5 tentpole: the executor's legacy loop rescans *every* live
session each round — finished, cooling and parked sessions included — so
a high-multiprogramming run where 90% of the sessions sit in the wait
index still pays O(live) per round.  The run-queue scheduler keeps only
runnable sessions queued (blocked sessions re-enter via kernel wake
notifications, backoffs via the cooldown wheel), making a round
O(runnable).

Workload: :func:`repro.engine.workloads.hotspot_queue_workload` — 1,000
single-key blind-write transactions, 90% of them queueing zipfian on 4
hot keys.  Single-key footprints make the run deadlock-free under
strict 2PL (no lock-order inversions, no upgrades), so the engine's
behaviour is pure queueing: ~900 sessions parked at any time, four lock
holders advancing, zero restarts.  Both schedulers execute the **same
protocol-interaction sequence** under round-robin interleaving
(byte-identical counters, asserted below), so the wall-clock gap is
pure scheduling overhead.

Asserted:

* both schedulers commit every transaction with identical counters
  (committed / blocks / operations / restarts) and serializable
  histories — the equivalence half of the tentpole;
* quick mode (``REPRO_BENCH_QUICK=1``, the CI gate): the run queue is
  at least as fast as the round scan (throughput must not regress
  below the baseline);
* full mode: run queue **>= 3x** faster wall-clock.

The measured walls land in the ``run_queue_vs_round_scan`` section of
``BENCH_sched.json`` (shared with the shard-parallel bench).  Unlike
``BENCH_occ.json`` this file necessarily records wall-clock — that is
the quantity under test — so its numbers differ every run.  For that
reason refreshing the committed copy is opt-in: set
``REPRO_BENCH_COMMIT=1`` (full scale only) to rewrite it with this
machine's numbers (``cpu_count`` is recorded alongside); a plain
``pytest`` run writes nothing and leaves the work tree clean.
"""

import os
import sys
import time

from repro.analysis.reporting import format_table
from repro.engine.metrics import NullMetrics
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.runtime import run_batch
from repro.engine.storage import DataStore
from repro.engine.workloads import hotspot_queue_workload
from repro.obs.trace import NullTracer, TraceRecorder

from _bench_env import QUICK, sched_json_path, update_bench_json

NUM_CLIENTS = 200 if QUICK else 1000
OPS_PER_TXN = 48 if QUICK else 224
NUM_HOT = 4

SCHEDULERS = ("round-scan", "run-queue")


def _run(scheduler, initial, specs, tracer=None):
    store = DataStore(initial)
    started = time.perf_counter()
    result = run_batch(
        StrictTwoPhaseLocking,
        store,
        specs,
        interleaving="round-robin",
        seed=7,
        scheduler=scheduler,
        metrics=NullMetrics(),
        tracer=tracer,
    )
    return result, time.perf_counter() - started


def _best_of(scheduler, initial, specs, repeats):
    """Best-of-N wall clock: wall-clock benches on shared CI runners see
    transient noise, and the minimum is the standard robust estimator of
    the true cost (the work is seed-deterministic, so every repeat does
    byte-identical work)."""
    result, wall = _run(scheduler, initial, specs)
    for _ in range(repeats - 1):
        _, again = _run(scheduler, initial, specs)
        wall = min(wall, again)
    return result, wall


def test_run_queue_beats_round_scan_at_scale(benchmark):
    initial, specs = hotspot_queue_workload(
        num_transactions=NUM_CLIENTS,
        ops_per_transaction=OPS_PER_TXN,
        num_hot=NUM_HOT,
        hotspot_probability=0.9,
        zipf_theta=0.8,
        seed=7,
    )

    # best-of-2 in quick mode too: the quick gate compares sub-second
    # walls, where a single noisy sample could flip a strict inequality
    repeats = 2

    def run_all():
        # sequential on purpose: the two runs must not compete for cores
        return {
            sched: _best_of(sched, initial, specs, repeats)
            for sched in SCHEDULERS
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    modes = {}
    for sched, (result, wall) in results.items():
        rows.append(
            (
                sched,
                result.committed,
                result.blocks,
                result.restarts,
                result.operations_issued,
                "yes" if result.committed_serializable else "NO",
                f"{wall:.2f}s",
            )
        )
        modes[sched] = {
            "committed": result.committed,
            "blocks": result.blocks,
            "restarts": result.restarts,
            "operations_issued": result.operations_issued,
            "serializable": result.committed_serializable,
            "wall_clock_seconds": round(wall, 3),
        }

    print()
    print(
        f"[E16] hotspot queue, {NUM_CLIENTS} clients x {OPS_PER_TXN} writes, "
        f"{NUM_HOT} hot keys, strict 2PL, round-robin"
        + (" [quick mode]" if QUICK else "")
    )
    print(
        format_table(
            ["scheduler", "committed", "blocks", "restarts", "ops", "serializable", "wall"],
            rows,
        )
    )

    scan_result, scan_wall = results["round-scan"]
    rq_result, rq_wall = results["run-queue"]

    # the equivalence half of the tentpole: same interaction sequence
    assert rq_result.committed == scan_result.committed == NUM_CLIENTS
    assert rq_result.blocks == scan_result.blocks
    assert rq_result.restarts == scan_result.restarts == 0
    assert rq_result.operations_issued == scan_result.operations_issued
    assert rq_result.committed_serializable and scan_result.committed_serializable

    speedup = scan_wall / rq_wall if rq_wall else float("inf")
    update_bench_json(
        sched_json_path(),
        "run_queue_vs_round_scan",
        {
            # per-module metadata lives inside the section: the two
            # sections of this file can be regenerated independently
            "benchmark": "E16-sched",
            "quick": QUICK,
            "num_clients": NUM_CLIENTS,
            "ops_per_transaction": OPS_PER_TXN,
            "num_hot_keys": NUM_HOT,
            "protocol": "strict-2pl",
            "interleaving": "round-robin",
            "modes": modes,
            "run_queue_speedup": round(speedup, 3),
        },
        cpu_count=os.cpu_count(),
    )
    print(f"run-queue speedup over round-scan: {speedup:.2f}x")

    # CI bar (quick): the run queue must never be slower than the scan it
    # replaced; the 3x headline needs the full 1,000-client scale.
    assert rq_wall <= scan_wall, (
        f"run-queue wall {rq_wall:.2f}s slower than round-scan {scan_wall:.2f}s"
    )
    if not QUICK:
        # a quiet machine measures 3.2-3.5x (the committed BENCH_sched.json
        # headline); the in-test tripwire sits lower because wall-clock on
        # shared CI runners carries noise even with best-of-2 — anything
        # under 2.5x means the scheduler genuinely regressed
        assert speedup >= 2.5, (
            f"run-queue speedup {speedup:.2f}x below the 2.5x regression bar "
            f"(scan {scan_wall:.2f}s, run-queue {rq_wall:.2f}s)"
        )


class _CountingTracer(NullTracer):
    """A disabled tracer that complains if the engine calls it anyway."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def emit(self, *args, **kwargs):
        self.calls += 1


def _python_calls(fn):
    """How many Python-level calls ``fn`` makes (``sys.setprofile`` ``call``
    events; C calls excluded) — a deterministic stand-in for its cost."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_disabled_tracer_costs_nothing(benchmark):
    """ISSUE-7 guard: disabled tracing adds no work on the hotspot queue
    bench.

    Two halves, both deterministic.  The structural half: a disabled
    tracer's ``emit`` is *never called* — the kernel's ``_tracing``
    fast-path check must skip even the argument packing, which is where
    the real per-step cost would hide.  The cost half: a run with an
    explicit disabled tracer executes **exactly as many Python-level
    calls** as the tracer-less run (counted on a small batch of the same
    shape, where counting is cheap).  The wall-clock ratio at bench scale
    is still measured and written to the bench JSON, as information only:
    on a shared host two ~3 s walls differ by more than any honest bar
    (it failed at +8.7% against 5% with no code change).
    """
    initial, specs = hotspot_queue_workload(
        num_transactions=NUM_CLIENTS,
        ops_per_transaction=OPS_PER_TXN,
        num_hot=NUM_HOT,
        hotspot_probability=0.9,
        zipf_theta=0.8,
        seed=7,
    )
    repeats = 3

    def run_pair():
        walls = {"default": None, "null-tracer": None}
        counting = _CountingTracer()
        for _ in range(repeats):
            _, wall = _run("run-queue", initial, specs)
            walls["default"] = wall if walls["default"] is None else min(
                walls["default"], wall
            )
            _, wall = _run("run-queue", initial, specs, tracer=counting)
            walls["null-tracer"] = wall if walls["null-tracer"] is None else min(
                walls["null-tracer"], wall
            )
        return walls, counting.calls

    walls, calls = benchmark.pedantic(run_pair, rounds=1, iterations=1)

    # structural: the kernel never even packed the event arguments
    assert calls == 0, f"disabled tracer received {calls} emissions"

    # cost: the same number of Python-level calls, tracer or no tracer
    small_initial, small_specs = hotspot_queue_workload(
        num_transactions=60,
        ops_per_transaction=6,
        num_hot=NUM_HOT,
        hotspot_probability=0.9,
        zipf_theta=0.8,
        seed=7,
    )
    disabled = _CountingTracer()
    default_calls = _python_calls(lambda: _run("run-queue", small_initial, small_specs))
    disabled_calls = _python_calls(
        lambda: _run("run-queue", small_initial, small_specs, tracer=disabled)
    )
    assert disabled.calls == 0
    assert disabled_calls == default_calls, (
        f"a disabled tracer cost {disabled_calls - default_calls:+d} Python calls "
        f"({default_calls} without a tracer, {disabled_calls} with)"
    )

    overhead = walls["null-tracer"] / walls["default"] - 1.0
    update_bench_json(
        sched_json_path(),
        "tracing_overhead",
        {
            "benchmark": "E17-tracing",
            "quick": QUICK,
            "num_clients": NUM_CLIENTS,
            "ops_per_transaction": OPS_PER_TXN,
            "wall_default_seconds": round(walls["default"], 3),
            "wall_null_tracer_seconds": round(walls["null-tracer"], 3),
            # information only: the assertion is the call count above
            "null_tracer_overhead": round(overhead, 4),
            "python_calls_default": default_calls,
            "python_calls_null_tracer": disabled_calls,
        },
        cpu_count=os.cpu_count(),
    )
    print(
        f"\n[E17] NullTracer on the hotspot bench: {disabled_calls - default_calls:+d} "
        f"Python calls, wall {overhead:+.2%} (information only)"
    )

    # recording smoke: an enabled recorder actually captures the run
    recorder = TraceRecorder()
    result, _ = _run("run-queue", initial, specs, tracer=recorder)
    assert result.committed == NUM_CLIENTS
    assert len(recorder.events) > NUM_CLIENTS  # at least begin+commit each

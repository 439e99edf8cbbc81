"""E17 — a disabled tracer costs nothing on the hotspot-queue workload.

Workload: :func:`repro.engine.workloads.hotspot_queue_workload` — 1,000
single-key blind-write transactions, 90% of them queueing zipfian on 4
hot keys, under strict 2PL with round-robin interleaving.  Single-key
footprints make the run deadlock-free (no lock-order inversions, no
upgrades), so the engine's behaviour is pure queueing: most sessions
parked in the kernel's wait index at any time, four lock holders
advancing, zero restarts — every step goes through the scheduler loop,
the kernel and the wake path, which is where an emission point would
cost the most.

The measured walls land in the ``tracing_overhead`` section of
``BENCH_sched.json`` (shared with the shard-parallel bench).  Wall-clock
differs every run, so refreshing the committed copy is opt-in: set
``REPRO_BENCH_COMMIT=1`` (full scale only) to rewrite it with this
machine's numbers (``cpu_count`` is recorded alongside); a plain
``pytest`` run writes nothing and leaves the work tree clean.
"""

import os
import sys
import time

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


def _run(initial, specs, tracer=None):
    store = DataStore(initial)
    started = time.perf_counter()
    result = run_batch(
        StrictTwoPhaseLocking,
        store,
        specs,
        interleaving="round-robin",
        seed=7,
        metrics=NullMetrics(),
        tracer=tracer,
    )
    return result, time.perf_counter() - started


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
            _, wall = _run(initial, specs)
            walls["default"] = wall if walls["default"] is None else min(
                walls["default"], wall
            )
            _, wall = _run(initial, specs, tracer=counting)
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
    default_calls = _python_calls(lambda: _run(small_initial, small_specs))
    disabled_calls = _python_calls(
        lambda: _run(small_initial, small_specs, tracer=disabled)
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
    result, _ = _run(initial, specs, tracer=recorder)
    assert result.committed == NUM_CLIENTS
    assert len(recorder.events) > NUM_CLIENTS  # at least begin+commit each

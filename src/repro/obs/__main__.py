"""Trace-analysis CLI: capture engine traces and render reports.

Two subcommands::

    # run a workload under any registered protocol with tracing on and
    # save the event stream (JSON-lines, deterministic per seed)
    python -m repro.obs capture --protocol occ --seed 1 --out occ.trace

    # fold a saved trace into reports, optionally exporting Perfetto JSON
    python -m repro.obs report occ.trace --hot-keys 10 --timeline \
        --chrome occ.trace.json

``report`` prints the contention summary (hot keys + abort taxonomy +
phase latencies) by default; ``--timeline`` adds the per-transaction
event timeline, ``--chrome PATH`` writes Chrome trace-event JSON that
https://ui.perfetto.dev renders as a per-session track view.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.engine.protocols.registry import get_entry
from repro.engine.runtime import run_batch
from repro.engine.storage import DataStore
from repro.engine.workloads import hotspot_queue_workload, zipfian_hotspot_workload
from repro.obs.chrome import chrome_trace
from repro.obs.profile import ContentionProfile, render_timeline
from repro.obs.trace import TraceRecorder


def _capture(args: argparse.Namespace) -> int:
    entry = get_entry(args.protocol)
    if args.workload == "hotspot":
        initial, specs = hotspot_queue_workload(
            num_transactions=args.transactions,
            ops_per_transaction=args.ops,
            seed=args.seed,
        )
    else:
        initial, specs = zipfian_hotspot_workload(
            num_transactions=args.transactions, seed=args.seed
        )

    recorder = TraceRecorder()
    result = run_batch(
        entry.factory,
        DataStore(initial),
        specs,
        seed=args.seed,
        tracer=recorder,
    )
    recorder.save(args.out)
    print(
        f"captured {len(recorder.events)} events from {args.protocol} "
        f"({result.committed}/{len(specs)} committed) -> {args.out}"
    )
    return 0


def _report(args: argparse.Namespace) -> int:
    recorder = TraceRecorder.load(args.trace)
    profile = ContentionProfile.from_events(recorder.events, recorder.spans)

    print(f"trace: {args.trace}")
    print(f"events={profile.events} commits={profile.commits} aborts={profile.aborts}")
    print()
    print("== hot keys ==")
    print(profile.render_hot_keys(args.hot_keys))
    print()
    print("== abort taxonomy ==")
    print(profile.render_abort_summary())
    print()
    print("== phase latencies ==")
    print(profile.render_phases())
    spans = profile.render_spans()
    if spans:
        print()
        print("== wall-clock spans ==")
        print(spans)

    if args.timeline:
        print()
        print("== timeline ==")
        print(
            render_timeline(
                recorder.events, session_id=args.session, limit=args.limit
            )
        )

    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace(recorder.events, recorder.spans), handle)
        print()
        print(f"chrome trace-event JSON -> {args.chrome} (open in ui.perfetto.dev)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="capture and analyse engine traces",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    capture = subparsers.add_parser(
        "capture", help="run a traced workload and save the event stream"
    )
    capture.add_argument(
        "--protocol", default="strict-2pl", help="registered protocol name"
    )
    capture.add_argument(
        "--workload",
        choices=("hotspot", "zipfian"),
        default="hotspot",
        help="workload shape (hotspot = scheduler-bench hot-key queue)",
    )
    capture.add_argument("--transactions", type=int, default=200)
    capture.add_argument("--ops", type=int, default=16)
    capture.add_argument("--seed", type=int, default=0)
    capture.add_argument("--out", default="engine.trace", help="output path")
    capture.set_defaults(func=_capture)

    report = subparsers.add_parser(
        "report", help="render reports from a saved trace"
    )
    report.add_argument("trace", help="path to a saved trace (JSON-lines)")
    report.add_argument(
        "--hot-keys", type=int, default=10, help="rows in the hot-key table"
    )
    report.add_argument(
        "--timeline", action="store_true", help="print the event timeline"
    )
    report.add_argument(
        "--session", type=int, default=None, help="restrict timeline to one session"
    )
    report.add_argument(
        "--limit", type=int, default=None, help="max timeline lines"
    )
    report.add_argument(
        "--chrome", default=None, help="write Chrome trace-event JSON here"
    )
    report.set_defaults(func=_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

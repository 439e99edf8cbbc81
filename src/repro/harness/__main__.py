"""CLI for the conformance harness: ``python -m repro.harness``.

Examples
--------
Quick differential sweep (the CI soak job)::

    python -m repro.harness --seed 0..9 --protocol all --quick

Replay one failing cell from a counterexample's recipe line::

    python -m repro.harness --seed 7 --protocol serializable-si \
        --mode executor

Prove the oracles can catch a seeded bug (exits 0 on detection)::

    python -m repro.harness --mutate ssi-pivot
    python -m repro.harness --mutate occ-parallel-validators

``--report PATH`` writes the rendered counterexample (or an all-clear
summary) to a file, which the CI job uploads as an artifact on failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.engine.protocols.registry import PROTOCOL_ENTRIES
from repro.harness.runner import (
    MODES,
    MUTATIONS,
    mutation_smoke,
    run_dist_seeds,
    run_seeds,
)
from repro.harness.scenarios import DIST_PLANS, scenario_families


def parse_seeds(text: str) -> List[int]:
    """Accept ``7``, ``0..19`` (inclusive), or ``1,4,9``."""
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        elif part:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _parse_axis(value: str, both: Sequence[str], axis: str) -> Sequence[str]:
    if value == "both":
        return tuple(both)
    if value not in both:
        raise argparse.ArgumentTypeError(f"{axis} must be 'both' or one of {both}")
    return (value,)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Cross-protocol conformance: differential fuzzing with shared oracles.",
    )
    parser.add_argument(
        "--seed", type=parse_seeds, default=parse_seeds("0..4"),
        help="seed, inclusive range 'A..B', or comma list (default 0..4)",
    )
    parser.add_argument(
        "--protocol", default="all",
        help="'all' or comma-separated registered names "
             f"({', '.join(PROTOCOL_ENTRIES)})",
    )
    parser.add_argument("--mode", default="both", help="both | executor | simulator")
    parser.add_argument(
        "--family", default=None, choices=scenario_families(),
        help="pin the scenario family (default: seed-chosen)",
    )
    parser.add_argument(
        "--faults", default="auto", choices=["auto", "on", "off"],
        help="pin fault injection (default 'auto': seed-chosen)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller scenarios and simulations",
    )
    parser.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the counterexample (or all-clear summary) to PATH",
    )
    parser.add_argument(
        "--mutate", default=None, choices=list(MUTATIONS),
        help="run the mutation smoke: seed a known bug and demand detection",
    )
    parser.add_argument(
        "--dist", action="store_true",
        help="run the distributed chaos matrix instead (cross-shard 2PC "
             "cells under message loss, partitions, coordinator and "
             "replica crashes)",
    )
    parser.add_argument(
        "--plan", default=None, choices=DIST_PLANS,
        help="with --dist: pin one chaos plan (default: all of "
             f"{', '.join(DIST_PLANS)})",
    )
    parser.add_argument(
        "--replication", default="both", choices=["both", "on", "off"],
        help="with --dist: run shards as Paxos replica groups ('on'), "
             "as single participants ('off'), or both (default)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.dist:
        return _main_dist(args)

    modes = _parse_axis(args.mode, MODES, "--mode")

    if args.mutate:
        counterexample = mutation_smoke(
            seeds=args.seed, quick=args.quick, mutation=args.mutate
        )
        if counterexample is None:
            print(f"mutation smoke FAILED: seeded {args.mutate} bug was not detected")
            return 1
        print(f"mutation smoke ok: seeded {args.mutate} bug detected and shrunk")
        print(counterexample.render())
        if args.report:
            with open(args.report, "w") as handle:
                handle.write(counterexample.render() + "\n")
            _write_trace(args.report, [counterexample])
        return 0

    protocols = None if args.protocol == "all" else [
        name.strip() for name in args.protocol.split(",") if name.strip()
    ]
    with_faults = {"auto": None, "on": True, "off": False}[args.faults]
    reports = run_seeds(
        args.seed,
        protocols=protocols,
        modes=modes,
        quick=args.quick,
        family=args.family,
        with_faults=with_faults,
    )

    failed = [report for report in reports if not report.ok]
    body: List[str] = []
    for report in failed:
        if report.counterexample is not None:
            body.append(report.counterexample.render())
        if not report.replay_ok:
            body.append(
                f"seed {report.seed}: replay mismatch — the same cell produced "
                f"two different history digests (nondeterminism bug)"
            )
    _report(reports, failed, "cell(s)", body, args.report)
    if args.report:
        _write_trace(
            args.report,
            [r.counterexample for r in failed if r.counterexample is not None],
        )
    return 1 if failed else 0


def _main_dist(args) -> int:
    """The distributed chaos sweep: seeds × plans × replication cells."""
    plans = (args.plan,) if args.plan else None
    reports = run_dist_seeds(
        args.seed, plans=plans, quick=args.quick, replication=args.replication
    )
    failed = [report for report in reports if not report.ok]
    body = [report.render_failures() for report in failed]
    _report(reports, failed, "dist cell(s)", body, args.report)
    return 1 if failed else 0


def _report(
    reports, failed, cells_label: str, body: List[str], path: Optional[str]
) -> None:
    """Print each seed's summary, the totals line and the failure bodies,
    and write the bodies (or the all-clear summary) to ``path``."""
    for report in reports:
        print(report.summary())
    cells = sum(len(report.outcomes) for report in reports)
    print(
        f"{len(reports)} seed(s), {cells} {cells_label}: "
        f"{'all conforming' if not failed else f'{len(failed)} seed(s) VIOLATING'}"
    )
    if body:
        print()
        print("\n\n".join(body))
    if path:
        with open(path, "w") as handle:
            if body:
                handle.write("\n\n".join(body) + "\n")
            else:
                handle.write(
                    "all conforming: "
                    + ", ".join(report.summary() for report in reports)
                    + "\n"
                )


def _write_trace(report_path: str, counterexamples) -> None:
    """Save each counterexample's engine trace next to the report file.

    ``<report>.trace.jsonl`` (first counterexample) is the convention the
    CI soak job globs for artifacts; extras get a ``.N`` suffix.  The
    trace is analysable with ``python -m repro.obs report``.
    """
    for index, counterexample in enumerate(counterexamples):
        if counterexample.trace_jsonl is None:
            continue
        suffix = "" if index == 0 else f".{index}"
        path = f"{report_path}.trace{suffix}.jsonl"
        with open(path, "w") as handle:
            handle.write(counterexample.trace_jsonl)
        print(f"counterexample trace -> {path}")


if __name__ == "__main__":
    sys.exit(main())

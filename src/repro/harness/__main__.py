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

The distributed chaos matrix (the CI chaos-soak job) goes through the
same cells, replay check, shrinker and report::

    python -m repro.harness --dist --seed 0..19 --quick

``--report PATH`` writes the rendered counterexamples (or an all-clear
summary) to a file and each counterexample's trace to
``PATH.trace.jsonl``; the CI jobs upload both as artifacts on failure.
Flags that do not apply to the selected run are usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from repro.engine.protocols.registry import PROTOCOL_ENTRIES
from repro.harness.runner import MODES, MUTATIONS, mutation_smoke, run_dist_seed, run_seed
from repro.harness.scenarios import DIST_PLANS, scenario_families

#: the flags that select single-node matrix cells, and dist cells
MATRIX_FLAGS = ("--protocol", "--mode", "--family", "--faults")
DIST_FLAGS = ("--plan", "--replication")


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


def parse_protocols(text: str) -> List[str]:
    """Accept ``all`` or a comma list of registered protocol names."""
    if text == "all":
        return list(PROTOCOL_ENTRIES)
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in PROTOCOL_ENTRIES]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown protocol(s) {', '.join(unknown) or repr(text)}; "
            f"registered: {', '.join(PROTOCOL_ENTRIES)}"
        )
    return names


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
        "--protocol", type=parse_protocols, default=None,
        help="'all' (default) or comma-separated registered names "
             f"({', '.join(PROTOCOL_ENTRIES)})",
    )
    parser.add_argument(
        "--mode", default=None, choices=("both",) + MODES,
        help="execution mode(s) of the matrix (default both)",
    )
    parser.add_argument(
        "--family", default=None, choices=scenario_families(),
        help="pin the scenario family (default: seed-chosen)",
    )
    parser.add_argument(
        "--faults", default=None, choices=["auto", "on", "off"],
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
        "--replication", default=None, choices=["both", "on", "off"],
        help="with --dist: run shards as Paxos replica groups ('on'), "
             "as single participants ('off'), or both (default)",
    )
    return parser


def _stray_flags(args: argparse.Namespace) -> Tuple[List[str], str]:
    """The given flags the selected run would ignore, and why."""
    if args.mutate:
        unused, why = MATRIX_FLAGS + DIST_FLAGS + ("--dist",), "not used by --mutate"
    elif args.dist:
        unused, why = MATRIX_FLAGS, "not used by --dist"
    else:
        unused, why = DIST_FLAGS, "used only with --dist"
    given = [flag for flag in unused if getattr(args, flag[2:]) not in (None, False)]
    return given, why


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stray, why = _stray_flags(args)
    if stray:
        parser.error(f"{', '.join(stray)}: {why}")

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
            _write_report(args.report, counterexample.render(), [counterexample])
        return 0

    if args.dist:
        reports = [
            run_dist_seed(
                seed,
                plans=(args.plan,) if args.plan else None,
                quick=args.quick,
                replication=args.replication or "both",
            )
            for seed in args.seed
        ]
    else:
        modes = MODES if args.mode in (None, "both") else (args.mode,)
        with_faults = {None: None, "auto": None, "on": True, "off": False}[args.faults]
        reports = [
            run_seed(
                seed,
                protocols=args.protocol,
                modes=modes,
                quick=args.quick,
                family=args.family,
                with_faults=with_faults,
            )
            for seed in args.seed
        ]

    failed = [report for report in reports if not report.ok]
    counterexamples = [report.counterexample for report in failed]
    for report in reports:
        print(report.summary())
    cells = sum(len(report.outcomes) for report in reports)
    print(
        f"{len(reports)} seed(s), {cells} cell(s): "
        f"{'all conforming' if not failed else f'{len(failed)} seed(s) VIOLATING'}"
    )
    body = "\n\n".join(counterexample.render() for counterexample in counterexamples)
    if body:
        print()
        print(body)
    if args.report:
        summaries = ", ".join(report.summary() for report in reports)
        _write_report(args.report, body or f"all conforming: {summaries}", counterexamples)
    return 1 if failed else 0


def _write_report(path: str, text: str, counterexamples) -> None:
    """Write ``text`` to ``path`` and each counterexample's trace next to it.

    ``<report>.trace.jsonl`` (first counterexample) is the convention the
    CI soak jobs glob for artifacts; extras get a ``.N`` suffix.  A
    trace is analysable with ``python -m repro.obs report``.
    """
    with open(path, "w") as handle:
        handle.write(text + "\n")
    for index, counterexample in enumerate(counterexamples):
        suffix = "" if index == 0 else f".{index}"
        trace_path = f"{path}.trace{suffix}.jsonl"
        with open(trace_path, "w") as handle:
            handle.write(counterexample.trace_jsonl)
        print(f"counterexample trace -> {trace_path}")


if __name__ == "__main__":
    sys.exit(main())

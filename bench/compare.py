#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json      # A: parent / first set, B: change / second set

For every (end-to-end metric, workload) row the directions and bounds of
``BENCHMARK.json`` give one verdict:

``within``      the medians differ by no more than the bound, and neither
                side's runs spread (interquartile range / median) wider
                than the bound;
``better``/``worse``
                the medians differ by more than the bound and the two
                interquartile ranges do not overlap;
``unresolved``  anything else: the runs are too scattered for the bound to
                tell the two sides apart.  Not the same as unchanged.

The failed share (failed / attempted, an incorrect run counting wholly
as failed) may not rise, and the seed-deterministic record of every run
(commit/abort/step counts, snapshot hash or run digest, every engine
counter) is compared seed by seed and reported as identical or changed.
A change meant only to speed the host up must leave it identical.

Exit status is 1 when any row is ``worse`` or the failed share rose.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from run import load_benchmark_json, quartiles


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """The verdict for one row and B's change relative to A, good positive."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    change = (b_median - a_median) / abs(a_median) if a_median else 0.0
    if better == "lower":
        change = -change
    overlap = a_q1 <= b_q3 and b_q1 <= a_q3
    if abs(change) <= bound:
        spread = max(
            (a_q3 - a_q1) / abs(a_median) if a_median else 0.0,
            (b_q3 - b_q1) / abs(b_median) if b_median else 0.0,
        )
        return ("within" if spread <= bound else "unresolved"), change
    if overlap:
        return "unresolved", change
    return ("better" if change > 0 else "worse"), change


def _values(entry: Dict[str, Any], metric: str) -> List[float]:
    return [
        run["metrics"][metric]["value"]
        for run in entry["runs"]
        if run["correct"] and metric in run["metrics"]
    ]


def _failed_share(entry: Dict[str, Any]) -> float:
    attempted = sum(run["attempted"] for run in entry["runs"])
    failed = sum(
        run["failed"] if run["correct"] else run["attempted"] for run in entry["runs"]
    )
    return failed / attempted if attempted else 0.0


def _deterministic(entry: Dict[str, Any]) -> Dict[int, Any]:
    return {
        run["seed"]: (run["detail"]["signature"], run["detail"]["counters"])
        for run in entry["runs"]
    }


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> Tuple[List[str], bool]:
    """The report's lines and whether B is acceptable against A."""
    lines = [
        f"{'workload':<18} {'metric':<14} {'A median':>12} {'B median':>12} "
        f"{'change':>8}  verdict"
    ]
    acceptable = True
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            lines.append(f"{name:<18} missing from one side")
            continue
        entry_a, entry_b = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            values_a = _values(entry_a, metric["name"])
            values_b = _values(entry_b, metric["name"])
            if not values_a or not values_b:
                continue
            word, change = verdict(values_a, values_b, metric["better"], metric["bound"])
            acceptable = acceptable and word != "worse"
            lines.append(
                f"{name:<18} {metric['name']:<14} {quartiles(values_a)[1]:>12.5g} "
                f"{quartiles(values_b)[1]:>12.5g} {change:>+8.1%}  {word}"
            )
        share_a, share_b = _failed_share(entry_a), _failed_share(entry_b)
        word = "worse" if share_b > share_a else "within"
        acceptable = acceptable and word != "worse"
        lines.append(
            f"{name:<18} {'failed_share':<14} {share_a:>12.5g} {share_b:>12.5g} "
            f"{'':>8}  {word}"
        )
        record_a, record_b = _deterministic(entry_a), _deterministic(entry_b)
        shared = sorted(set(record_a) & set(record_b))
        changed = [seed for seed in shared if record_a[seed] != record_b[seed]]
        if not shared:
            state = "no seed in common"
        elif changed:
            state = f"CHANGED on seed(s) {changed}"
        else:
            state = f"identical on {len(shared)} seed(s)"
        lines.append(f"{name:<18} {'deterministic':<14} {state}")
    return lines, acceptable


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    records = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            records.append(json.load(handle))
    lines, acceptable = compare(records[0], records[1], load_benchmark_json())
    print("\n".join(lines))
    return 0 if acceptable else 1


if __name__ == "__main__":
    sys.exit(main())

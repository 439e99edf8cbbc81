"""Section 6 counting: delay-free probabilities and displacement statistics.

The paper justifies the fixpoint-set measure by noting that, if all
request histories are equally likely, the probability that no transaction
step has to wait is ``|P| / |H|``, and that richer fixpoint sets also make
it easier (cheaper) to rearrange histories that are not in ``P``.  This
module computes both quantities exactly for small systems:

* :func:`delay_free_probability` — ``|P| / |H|`` for a scheduler,
* :func:`expected_displacement` — the expected number of requests a
  scheduler displaces when the history is drawn uniformly from ``H``
  (0 contribution for fixpoint histories), which is the "ease of
  rearrangement" proxy,
* :func:`scheduler_delay_statistics` — both of the above plus the
  fixpoint size, for a list of schedulers, as table-ready rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.reporting import format_table
from repro.core.schedules import all_schedules, count_schedules, random_schedule
from repro.core.schedulers import Scheduler


@dataclass(frozen=True)
class DelayStatistics:
    """Delay-related statistics of a single scheduler."""

    name: str
    fixpoint_size: int
    history_count: int
    delay_free_probability: float
    expected_displacement: float

    def as_row(self) -> tuple:
        return (
            self.name,
            self.fixpoint_size,
            self.history_count,
            f"{self.delay_free_probability:.4f}",
            f"{self.expected_displacement:.3f}",
        )


def delay_free_probability(scheduler: Scheduler) -> float:
    """``|P| / |H|`` — the probability a uniformly random history passes undelayed."""
    total = count_schedules(scheduler.system)
    return len(scheduler.fixpoint_set()) / total if total else 0.0


def expected_displacement(
    scheduler: Scheduler,
    sample_size: Optional[int] = None,
    seed: int = 0,
) -> float:
    """Expected number of displaced requests for a uniformly random history.

    With ``sample_size=None`` the expectation is exact (every history is
    enumerated); otherwise it is a Monte-Carlo estimate over
    ``sample_size`` uniform samples, for formats too large to enumerate.
    """
    if sample_size is None:
        histories = list(all_schedules(scheduler.system))
    else:
        rng = random.Random(seed)
        histories = [
            random_schedule(scheduler.system, rng) for _ in range(sample_size)
        ]
    if not histories:
        return 0.0
    return sum(scheduler.delay_count(h) for h in histories) / len(histories)


def scheduler_delay_statistics(
    schedulers: Sequence[Scheduler],
    sample_size: Optional[int] = None,
    seed: int = 0,
) -> List[DelayStatistics]:
    """Delay statistics for several schedulers over the same system."""
    stats = []
    for scheduler in schedulers:
        stats.append(
            DelayStatistics(
                name=scheduler.name,
                fixpoint_size=len(scheduler.fixpoint_set()),
                history_count=count_schedules(scheduler.system),
                delay_free_probability=delay_free_probability(scheduler),
                expected_displacement=expected_displacement(
                    scheduler, sample_size=sample_size, seed=seed
                ),
            )
        )
    return stats


def delay_statistics_table(
    schedulers: Sequence[Scheduler],
    sample_size: Optional[int] = None,
    seed: int = 0,
) -> str:
    """The E11 table: fixpoint size, delay-free probability and displacement."""
    stats = scheduler_delay_statistics(schedulers, sample_size=sample_size, seed=seed)
    return format_table(
        ["scheduler", "|P|", "|H|", "P(no delay)", "E[displaced requests]"],
        [s.as_row() for s in stats],
    )

"""Pluggable instrumentation for the engine: counters, histograms, monitors.

The geods-analyze simulator (see SNIPPETS.md) threads a hierarchical
``Profiler`` through its lock/transaction runtime and derives blocking
probabilities, block heights and latency histograms from it.  This module
ports that idea into our architecture in a dependency-free form:

* :class:`Counter` — a monotonically increasing event count;
* :class:`Histogram` — streaming moments (mean/std) plus a bucketed
  distribution of observed values (latencies, block heights, queue
  depths);
* :class:`Metrics` — a named registry of both, shared by the kernel, the
  protocols and the simulator.  Components record under dotted names
  (``kernel.wakeups``, ``protocol.blocks``, ``sim.response_time``) so a
  report can be filtered by prefix, mirroring the geods-analyze
  ``Profiler.getMonitor('/')`` pattern.

Everything is optional: every engine component accepts ``metrics=None``
and creates a private registry, so existing call sites keep working and
pay one dict lookup per event when instrumentation is enabled.  To make
disabled instrumentation cost *nothing*, pass a :class:`NullMetrics` —
every recording call is a no-op that touches no dict at all — which is
what the benchmark harnesses use for their "protocol cost only" runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def incr(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.value})"


class Histogram:
    """Streaming mean/std plus a bucketed distribution of observations.

    Buckets are fixed at construction: ``bounds`` are the inclusive upper
    edges of each bucket, with an implicit overflow bucket at the end.
    The default edges form a coarse geometric ladder that suits both
    latencies (simulated time units) and small integer observations such
    as block heights.
    """

    DEFAULT_BOUNDS: Tuple[float, ...] = (
        0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
    )

    def __init__(self, bounds: Optional[Sequence[float]] = None) -> None:
        # kept sorted: observe() bisects the edges, and bucket semantics
        # ("smallest bound >= value") only make sense on ascending bounds
        self.bounds: Tuple[float, ...] = (
            tuple(sorted(bounds)) if bounds else self.DEFAULT_BOUNDS
        )
        self.buckets: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._sum_squares = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self._sum_squares += value * value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # the smallest index with value <= bounds[index]; len(bounds) when
        # the value exceeds every edge, which is exactly the overflow slot
        self.buckets[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        variance = self._sum_squares / self.count - self.mean ** 2
        return math.sqrt(max(0.0, variance))

    def quantile(self, q: float) -> float:
        """An upper-bound estimate of the ``q``-quantile from the buckets."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        running = 0
        for index, bucket_count in enumerate(self.buckets):
            running += bucket_count
            if running >= target:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max if self.max is not None else self.bounds[-1]
        return self.max if self.max is not None else 0.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dump of the full histogram state (buckets included)."""
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "sum_squares": self._sum_squares,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Histogram":
        """Rebuild a histogram from :meth:`to_dict` output, losslessly."""
        histogram = cls(bounds=data["bounds"])
        histogram.buckets = list(data["buckets"])
        histogram.count = data["count"]
        histogram.total = data["total"]
        histogram._sum_squares = data["sum_squares"]
        histogram.min = data["min"]
        histogram.max = data["max"]
        return histogram

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, mean={self.mean:.3f}, "
            f"std={self.std:.3f}, max={self.max})"
        )


class Metrics:
    """A named registry of counters and histograms shared across components.

    The kernel, the protocols and the simulator all record into one
    registry (when given the same instance), so a single ``report()``
    shows the whole picture — the role the root monitor plays in the
    geods-analyze profiler.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter()
        counter.value += amount

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def counter(self, name: str) -> Counter:
        """The named counter itself, registered on first request.

        For hot paths: resolve the handle once — at the first event, so
        the name enters ``snapshot()`` exactly when ``incr`` would have
        put it there — then bump ``handle.value`` with no lookup.
        """
        return self.counters.setdefault(name, Counter())

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def count(self, name: str) -> int:
        counter = self.counters.get(name)
        return counter.value if counter else 0

    def histogram(self, name: str) -> Histogram:
        return self.histograms.get(name, Histogram())

    def names(self, prefix: str = "") -> List[str]:
        all_names = list(self.counters) + list(self.histograms)
        return sorted(name for name in all_names if name.startswith(prefix))

    def snapshot(self, prefix: str = "") -> Dict[str, float]:
        """A flat dict of counter values and histogram summaries."""
        out: Dict[str, float] = {}
        for name, counter in self.counters.items():
            if name.startswith(prefix):
                out[name] = counter.value
        for name, histogram in self.histograms.items():
            if name.startswith(prefix):
                out[f"{name}.count"] = histogram.count
                out[f"{name}.mean"] = histogram.mean
                out[f"{name}.std"] = histogram.std
        return out

    def merge(self, other: "Metrics") -> None:
        """Fold another registry into this one (for sharded aggregation)."""
        for name, counter in other.counters.items():
            self.incr(name, counter.value)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram(histogram.bounds)
            if mine.bounds == histogram.bounds:
                for index, bucket_count in enumerate(histogram.buckets):
                    mine.buckets[index] += bucket_count
            else:
                # incompatible bucket layouts: fold everything into the
                # overflow bucket so sum(buckets) == count stays true
                # (quantiles degrade to upper bounds instead of lying)
                mine.buckets[-1] += histogram.count
            mine.count += histogram.count
            mine.total += histogram.total
            mine._sum_squares += histogram._sum_squares
            for bound in (histogram.min, histogram.max):
                if bound is None:
                    continue
                mine.min = bound if mine.min is None else min(mine.min, bound)
                mine.max = bound if mine.max is None else max(mine.max, bound)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-safe dump of the whole registry.

        Unlike :meth:`snapshot` (flat summaries), this is a *lossless*
        serialization: histogram buckets, streaming moments and extrema
        all survive, so :meth:`from_dict` rebuilds a registry whose
        ``merge``/``quantile``/``report`` behaviour is identical — the
        contract pinned by ``tests/test_engine_metrics.py``.
        """
        return {
            "counters": {name: c.value for name, c in sorted(self.counters.items())},
            "histograms": {
                name: h.to_dict() for name, h in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Metrics":
        """Rebuild a registry from :meth:`to_dict` output."""
        metrics = cls()
        for name, value in data.get("counters", {}).items():
            metrics.incr(name, value)
        for name, dumped in data.get("histograms", {}).items():
            metrics.histograms[name] = Histogram.from_dict(dumped)
        return metrics

    def report(self, prefix: str = "") -> str:
        """A human-readable dump, one metric per line, filtered by prefix."""
        lines: List[str] = []
        for name in sorted(self.counters):
            if name.startswith(prefix):
                lines.append(f"{name} = {self.counters[name].value}")
        for name in sorted(self.histograms):
            if not name.startswith(prefix):
                continue
            h = self.histograms[name]
            lines.append(
                f"{name}: count={h.count} mean={h.mean:.3f} std={h.std:.3f} "
                f"p95<={h.quantile(0.95):g} max={h.max if h.max is not None else 0:g}"
            )
        return "\n".join(lines)


class NullMetrics(Metrics):
    """A registry that records nothing: disabled instrumentation at zero cost.

    ``incr``/``observe`` are pure no-ops — no dict lookup, no counter
    object, nothing allocated — so hot paths instrumented with a shared
    registry can be run "bare" by passing ``metrics=NullMetrics()``.
    All reading methods behave like an empty :class:`Metrics`, and
    merging into a real registry is a no-op, so a ``NullMetrics`` can
    flow anywhere a registry is expected.
    """

    def incr(self, name: str, amount: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> Counter:
        return Counter()  # detached: bumps land nowhere


#: a shared no-op registry for callers that just want instrumentation off
NULL_METRICS = NullMetrics()

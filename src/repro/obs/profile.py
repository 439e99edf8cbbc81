"""Fold a trace's event stream into contention and latency reports.

Two derived views of one :class:`~repro.obs.trace.TraceEvent` stream:

* **phase slices** — each session's lifetime cut into the phases the
  engine actually put it through (``running`` / ``blocked`` /
  ``validating`` / ``committing``), from which per-phase latency
  histograms are built (reusing the engine's streaming
  :class:`~repro.engine.metrics.Histogram`);
* **per-key contention** — for every key: how often requests blocked on
  it, how long they waited, who they waited for, and which aborts (by
  taxonomy code) it is implicated in.  This is the hot-key report that
  turns "OCC loses under contention" from a counter into named keys and
  named blockers.  Under strict 2PL a lock owns a FIFO queue of its
  waiters and a ``BLOCK`` event's ``blockers`` is the *queue
  predecessor* (the conflicting holders only for the head of the
  queue), so a key's "top blockers" names who was directly ahead, each
  about once — the depth of the queue is the ``2pl.queue_depth``
  histogram, one observation per request that joined one.

Durations are in the trace's logical time unit: scheduler rounds for
executor traces, virtual time for simulator traces.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.engine.metrics import Histogram
from repro.engine.reasons import ABORT_REASONS, ABORT_UNSPECIFIED
from repro.obs import trace as ev
from repro.obs.trace import Span, TraceEvent

#: the phases a session can occupy between two trace events
PHASES = ("running", "blocked", "validating", "committing")


class PhaseSlice:
    """One contiguous stretch of a session's life in a single phase."""

    __slots__ = ("session_id", "txn_id", "attempt", "phase", "start", "end", "key")

    def __init__(
        self,
        session_id: int,
        txn_id: Optional[int],
        attempt: int,
        phase: str,
        start: Any,
        end: Any,
        key: Optional[str] = None,
    ) -> None:
        self.session_id = session_id
        self.txn_id = txn_id
        self.attempt = attempt
        self.phase = phase
        self.start = start
        self.end = end
        #: blocked slices remember the contended key for attribution
        self.key = key

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"PhaseSlice(session={self.session_id}, txn={self.txn_id}, "
            f"{self.phase!r}, {self.start}..{self.end})"
        )


class _SessionCursor:
    """Per-session state while slicing: the currently open phase."""

    __slots__ = ("phase", "start", "txn_id", "attempt", "key")

    def __init__(self) -> None:
        self.phase: Optional[str] = None
        self.start: Any = None
        self.txn_id: Optional[int] = None
        self.attempt = 0
        self.key: Optional[str] = None


def phase_slices(events: Iterable[TraceEvent]) -> List[PhaseSlice]:
    """Cut each session's event stream into phase slices.

    The state machine mirrors the kernel's own transitions: a session
    runs from BEGIN (or a WAKE) until it blocks, validates, finishes or
    restarts; a commit-path block counts as ``committing`` (the session
    has finished its program and is queued on the commit itself);
    VALIDATE opens the two-stage-commit ``validating`` window closed by
    the finishing COMMIT/ABORT.  A block the kernel did not park (an
    injected stall, or a BLOCK naming no live blocker) has no WAKE event
    — its block slice closes at its next own event, which is exactly
    when the engine re-drove it.
    """
    cursors: Dict[int, _SessionCursor] = {}
    slices: List[PhaseSlice] = []

    def close(cursor: _SessionCursor, session_id: int, at: Any) -> None:
        if cursor.phase is not None:
            slices.append(
                PhaseSlice(
                    session_id,
                    cursor.txn_id,
                    cursor.attempt,
                    cursor.phase,
                    cursor.start,
                    at,
                    key=cursor.key,
                )
            )
            cursor.phase = None
            cursor.key = None

    def open_phase(
        cursor: _SessionCursor, event: TraceEvent, phase: str, key: Optional[str] = None
    ) -> None:
        cursor.phase = phase
        cursor.start = event.ts
        cursor.txn_id = event.txn_id
        cursor.attempt = event.attempt
        cursor.key = key

    for event in events:
        cursor = cursors.get(event.session_id)
        if cursor is None:
            cursor = cursors[event.session_id] = _SessionCursor()
        etype = event.etype
        if etype in (ev.READ, ev.WRITE):
            if cursor.phase != "running":
                close(cursor, event.session_id, event.ts)
                open_phase(cursor, event, "running")
        elif etype == ev.BEGIN:
            close(cursor, event.session_id, event.ts)
            open_phase(cursor, event, "running")
        elif etype == ev.BLOCK:
            close(cursor, event.session_id, event.ts)
            phase = "committing" if event.meta.get("commit") else "blocked"
            open_phase(cursor, event, phase, key=event.key)
        elif etype == ev.WAKE:
            close(cursor, event.session_id, event.ts)
            open_phase(cursor, event, "running")
        elif etype == ev.VALIDATE:
            close(cursor, event.session_id, event.ts)
            open_phase(cursor, event, "validating")
        elif etype in (ev.COMMIT, ev.ABORT, ev.RESTART):
            close(cursor, event.session_id, event.ts)

    # close anything still open at the last observed timestamp (a run
    # that gave up on a session can leave its final block dangling)
    if slices or cursors:
        last_ts = max(
            (c.start for c in cursors.values() if c.phase is not None),
            default=None,
        )
        for session_id, cursor in sorted(cursors.items()):
            if cursor.phase is not None:
                end = cursor.start if last_ts is None else max(cursor.start, last_ts)
                close(cursor, session_id, end)
    return slices


class KeyContention:
    """The contention record of one key."""

    __slots__ = ("key", "blocks", "wait_time", "blockers", "aborts")

    def __init__(self, key: str) -> None:
        self.key = key
        self.blocks = 0
        self.wait_time = 0.0
        #: blocker txn id -> how many blocks it caused on this key
        self.blockers: TallyCounter = TallyCounter()
        #: taxonomy code -> aborts attributed to this key
        self.aborts: TallyCounter = TallyCounter()

    @property
    def score(self) -> Tuple[float, int, int]:
        """Hot-key ranking: wait time first, then blocks, then aborts."""
        return (self.wait_time, self.blocks, sum(self.aborts.values()))


class ContentionProfile:
    """The folded view of one trace: hot keys, phases, abort taxonomy."""

    def __init__(self) -> None:
        self.per_key: Dict[str, KeyContention] = {}
        self.phase_histograms: Dict[str, Histogram] = {
            phase: Histogram() for phase in PHASES
        }
        self.abort_codes: TallyCounter = TallyCounter()
        #: (code, key) pairs for attribution detail
        self.events = 0
        self.commits = 0
        self.aborts = 0
        self.slices: List[PhaseSlice] = []
        self.span_totals: Dict[str, float] = {}
        self.span_counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        events: Iterable[TraceEvent],
        spans: Iterable[Span] = (),
    ) -> "ContentionProfile":
        profile = cls()
        event_list = list(events)
        profile.events = len(event_list)
        for event in event_list:
            etype = event.etype
            if etype == ev.COMMIT:
                profile.commits += 1
            elif etype == ev.ABORT:
                code = event.code or ABORT_UNSPECIFIED
                profile.aborts += 1
                profile.abort_codes[code] += 1
                if event.key is not None:
                    profile._key(event.key).aborts[code] += 1
            elif etype == ev.BLOCK and event.key is not None:
                record = profile._key(event.key)
                record.blocks += 1
                for blocker in event.blockers:
                    record.blockers[blocker] += 1

        profile.slices = phase_slices(event_list)
        for phase_slice in profile.slices:
            histogram = profile.phase_histograms.get(phase_slice.phase)
            if histogram is not None:
                histogram.observe(phase_slice.duration)
            if (
                phase_slice.phase in ("blocked", "committing")
                and phase_slice.key is not None
            ):
                profile._key(phase_slice.key).wait_time += phase_slice.duration

        for span in spans:
            profile.span_totals[span.name] = (
                profile.span_totals.get(span.name, 0.0) + span.duration
            )
            profile.span_counts[span.name] = profile.span_counts.get(span.name, 0) + 1
        return profile

    def _key(self, key: str) -> KeyContention:
        record = self.per_key.get(key)
        if record is None:
            record = self.per_key[key] = KeyContention(key)
        return record

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def hot_keys(self, limit: int = 10) -> List[KeyContention]:
        """The most contended keys, by wait time then block count."""
        ranked = sorted(
            self.per_key.values(), key=lambda r: r.score, reverse=True
        )
        return ranked[:limit]

    def abort_summary(self) -> List[Tuple[str, int, str]]:
        """(code, count, description) rows, most frequent first."""
        return [
            (code, count, ABORT_REASONS.get(code, "unknown code"))
            for code, count in self.abort_codes.most_common()
        ]

    # ------------------------------------------------------------------
    # text rendering (the CLI's building blocks)
    # ------------------------------------------------------------------
    def render_hot_keys(self, limit: int = 10) -> str:
        rows = self.hot_keys(limit)
        if not rows:
            return "no contended keys (nothing ever blocked)"
        lines = [
            f"{'key':<20} {'blocks':>7} {'wait':>10} {'aborts':>7}  top blockers"
        ]
        for record in rows:
            blockers = ", ".join(
                f"T{txn}x{count}" for txn, count in record.blockers.most_common(3)
            )
            lines.append(
                f"{record.key:<20} {record.blocks:>7} {record.wait_time:>10.2f} "
                f"{sum(record.aborts.values()):>7}  {blockers}"
            )
        return "\n".join(lines)

    def render_abort_summary(self) -> str:
        rows = self.abort_summary()
        if not rows:
            return "no aborts"
        lines = [f"{'reason code':<24} {'count':>7}  description"]
        for code, count, description in rows:
            lines.append(f"{code:<24} {count:>7}  {description}")
        return "\n".join(lines)

    def render_phases(self) -> str:
        lines = [
            f"{'phase':<12} {'slices':>7} {'mean':>10} {'p95<=':>10} {'max':>10}"
        ]
        for phase in PHASES:
            histogram = self.phase_histograms[phase]
            maximum = histogram.max if histogram.max is not None else 0
            lines.append(
                f"{phase:<12} {histogram.count:>7} {histogram.mean:>10.2f} "
                f"{histogram.quantile(0.95):>10g} {maximum:>10g}"
            )
        return "\n".join(lines)

    def render_spans(self) -> str:
        if not self.span_totals:
            return ""
        lines = [f"{'span':<20} {'count':>7} {'total s':>10}"]
        for name in sorted(self.span_totals):
            lines.append(
                f"{name:<20} {self.span_counts[name]:>7} "
                f"{self.span_totals[name]:>10.4f}"
            )
        return "\n".join(lines)

    def render_summary(self) -> str:
        parts = [
            f"events={self.events} commits={self.commits} aborts={self.aborts}",
            "",
            "== hot keys ==",
            self.render_hot_keys(),
            "",
            "== abort taxonomy ==",
            self.render_abort_summary(),
            "",
            "== phase latencies ==",
            self.render_phases(),
        ]
        spans = self.render_spans()
        if spans:
            parts += ["", "== wall-clock spans ==", spans]
        return "\n".join(parts)


def render_timeline(
    events: Iterable[TraceEvent],
    session_id: Optional[int] = None,
    limit: Optional[int] = None,
) -> str:
    """A per-transaction timeline: one line per event, in trace order."""
    lines: List[str] = []
    for event in events:
        if session_id is not None and event.session_id != session_id:
            continue
        if limit is not None and len(lines) >= limit:
            lines.append("... (truncated)")
            break
        txn = f"T{event.txn_id}" if event.txn_id is not None else "-"
        parts = [
            f"[{event.ts:>10}]",
            f"s{event.session_id:<4}",
            f"{txn:<6}",
            f"a{event.attempt:<3}",
            f"{event.etype:<9}",
        ]
        if event.key is not None:
            parts.append(f"key={event.key}")
        if event.blockers:
            parts.append(f"on={','.join(f'T{b}' for b in event.blockers)}")
        if event.code:
            parts.append(f"code={event.code}")
        if event.detail:
            parts.append(f"({event.detail})")
        lines.append(" ".join(parts))
    return "\n".join(lines)

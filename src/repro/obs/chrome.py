"""Export a trace as Chrome trace-event JSON (viewable in Perfetto).

The format is the Trace Event Format's JSON-object flavour: a
``traceEvents`` array of "X" (complete) slices, "i" (instant) markers
and "M" (metadata) records, with microsecond timestamps.  Load the
output at https://ui.perfetto.dev or ``chrome://tracing``.

Mapping:

* each engine session becomes a track (``pid=1``, ``tid=session_id``)
  whose "X" slices are the :func:`~repro.obs.profile.phase_slices` of
  its lifetime — named by phase, coloured by Perfetto automatically;
* BEGIN / COMMIT / ABORT events become "i" instants on the session's
  track (aborts carry their taxonomy code in ``args``);
* wall-clock :class:`~repro.obs.trace.Span` records (parallel-runner
  IPC) land on a separate ``pid=2`` process so logical and wall time
  are never mixed on one track.

Logical timestamps (rounds / virtual time) are scaled by ``TIME_SCALE``
(one logical unit renders as 1ms) purely for readability — Perfetto
needs non-degenerate slice widths.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.obs import trace as ev
from repro.obs.profile import phase_slices
from repro.obs.trace import Span, TraceEvent

#: microseconds per logical time unit
TIME_SCALE = 1000.0

#: instant markers worth flagging on the timeline
_INSTANTS = {ev.BEGIN: "begin", ev.COMMIT: "commit", ev.ABORT: "abort"}


def chrome_trace(
    events: Iterable[TraceEvent],
    spans: Iterable[Span] = (),
) -> Dict[str, Any]:
    """Render a trace as a Chrome trace-event JSON object."""
    event_list = list(events)
    trace_events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": 1, "name": "process_name", "args": {"name": "engine"}},
    ]
    seen_sessions = set()

    for phase_slice in phase_slices(event_list):
        if phase_slice.session_id not in seen_sessions:
            seen_sessions.add(phase_slice.session_id)
            trace_events.append(
                {
                    "ph": "M",
                    "pid": 1,
                    "tid": phase_slice.session_id,
                    "name": "thread_name",
                    "args": {"name": f"session {phase_slice.session_id}"},
                }
            )
        args: Dict[str, Any] = {"attempt": phase_slice.attempt}
        if phase_slice.txn_id is not None:
            args["txn"] = phase_slice.txn_id
        if phase_slice.key is not None:
            args["key"] = phase_slice.key
        trace_events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": phase_slice.session_id,
                "ts": phase_slice.start * TIME_SCALE,
                # zero-duration slices are invisible; give them 1 tick
                "dur": max(phase_slice.duration * TIME_SCALE, 1.0),
                "name": phase_slice.phase,
                "args": args,
            }
        )

    for event in event_list:
        marker = _INSTANTS.get(event.etype)
        if marker is None:
            continue
        args = {"txn": event.txn_id, "attempt": event.attempt}
        if event.code is not None:
            args["code"] = event.code
        if event.detail:
            args["detail"] = event.detail
        trace_events.append(
            {
                "ph": "i",
                "pid": 1,
                "tid": event.session_id,
                "ts": event.ts * TIME_SCALE,
                "s": "t",  # thread-scoped instant
                "name": marker,
                "args": args,
            }
        )

    span_list = list(spans)
    if span_list:
        trace_events.append(
            {
                "ph": "M",
                "pid": 2,
                "name": "process_name",
                "args": {"name": "parallel runner (wall clock)"},
            }
        )
        # wall-clock spans are in seconds; rebase to the earliest start
        # so the track begins near t=0 like the logical tracks
        t0 = min(span.start for span in span_list)
        for span in span_list:
            trace_events.append(
                {
                    "ph": "X",
                    "pid": 2,
                    "tid": 0,
                    "ts": (span.start - t0) * 1e6,
                    "dur": max(span.duration * 1e6, 1.0),
                    "name": span.name,
                    "args": dict(span.meta),
                }
            )

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

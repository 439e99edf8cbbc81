"""Engine observability: structured tracing, contention profiling, export.

The observability layer makes the engine's execution history a
first-class artifact, in three pieces:

* :mod:`repro.obs.trace` — typed :class:`TraceEvent` records, the
  :class:`Tracer` hook interface the kernel and front-ends emit through
  (with a zero-overhead :class:`NullTracer` default), and the capturing
  :class:`TraceRecorder`.  Event timestamps are logical (scheduler
  round / virtual time), so traces are deterministic per seed.
* :mod:`repro.obs.profile` — folds an event stream into per-key hot-key
  contention reports (wait time, blockers, abort attribution by
  taxonomy code) and per-phase latency histograms.
* :mod:`repro.obs.chrome` — exports Chrome trace-event JSON viewable in
  Perfetto (``chrome://tracing``).

``python -m repro.obs`` is the analysis CLI over captured traces.
"""

# .trace must be imported before .profile: the kernel imports
# repro.obs.trace, which executes this package __init__ mid-way through
# repro.engine's own import; .trace is stdlib-only and safe at that
# point, while .profile reaches back into repro.engine.metrics — legal
# only because metrics is fully imported before the kernel is, and
# .trace before .profile here.
from repro.obs.trace import (
    NULL_TRACER,
    EVENT_TYPES,
    NullTracer,
    Span,
    TraceEvent,
    TraceRecorder,
    Tracer,
    load_events,
)
from repro.obs.profile import ContentionProfile, PhaseSlice, phase_slices
from repro.obs.chrome import chrome_trace

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "TraceRecorder",
    "Span",
    "EVENT_TYPES",
    "load_events",
    "ContentionProfile",
    "PhaseSlice",
    "phase_slices",
    "chrome_trace",
]

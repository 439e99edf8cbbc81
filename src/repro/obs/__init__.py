"""Engine observability: structured tracing, contention profiling, export.

The observability layer makes the engine's execution history a
first-class artifact, in three pieces:

* :mod:`repro.obs.trace` — typed :class:`repro.obs.trace.TraceEvent`
  records, the :class:`repro.obs.trace.Tracer` hook interface the kernel
  and front-ends emit through (with a zero-overhead
  :class:`repro.obs.trace.NullTracer` default), and the capturing
  :class:`repro.obs.trace.TraceRecorder`.  Event timestamps are logical
  (scheduler round / virtual time), so traces are deterministic per seed.
* :mod:`repro.obs.profile` — folds an event stream into per-key hot-key
  contention reports (wait time, blockers, abort attribution by
  taxonomy code) and per-phase latency histograms.
* :mod:`repro.obs.chrome` — exports Chrome trace-event JSON viewable in
  Perfetto (``chrome://tracing``).

``python -m repro.obs`` is the analysis CLI over captured traces.
"""

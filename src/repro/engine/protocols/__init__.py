"""Online concurrency-control protocols.

Each protocol implements the
:class:`repro.engine.protocols.base.ConcurrencyControl` interface:
requests arrive one at a time and are granted, blocked, or aborted.
The one list of registered protocols, with the guarantee the harness
holds each to, is
:data:`repro.engine.protocols.registry.PROTOCOL_ENTRIES`; each entry's
factory names the class that implements it.  One module per family:

* :mod:`repro.engine.protocols.base` — the interface and the serial
  protocol;
* :mod:`repro.engine.protocols.two_phase_locking` — strict 2PL with
  wait-for-graph deadlock detection;
* :mod:`repro.engine.protocols.sgt` — serialization-graph testing;
* :mod:`repro.engine.protocols.timestamp_ordering` — basic T/O;
* :mod:`repro.engine.protocols.occ` — optimistic validation (Kung &
  Robinson), serial or parallel;
* :mod:`repro.engine.protocols.mvto` and
  :mod:`repro.engine.protocols.snapshot_isolation` — the multi-version
  protocols, sharing :mod:`repro.engine.protocols.multiversion`;
* :mod:`repro.engine.protocols.deterministic` — the Calvin-style
  epoch-ordered family, ordered by
  :mod:`repro.engine.protocols.sequencer`.
"""

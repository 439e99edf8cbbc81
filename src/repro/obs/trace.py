"""Typed trace events and the tracer hooks the engine emits them through.

The tracing layer mirrors the metrics layer's shape exactly: the kernel
and the front-ends hold a :class:`Tracer` and call :meth:`Tracer.emit`
at every lifecycle transition; the default :class:`NullTracer` is a
no-op whose ``enabled`` flag lets emitters skip even the argument
packing (the kernel guards every emission behind one attribute check).
Swapping in a :class:`TraceRecorder` captures the full stream.

**Determinism contract.**  Event timestamps are *logical*: the untimed
executor stamps its scheduler round, the simulator stamps virtual time.
No wall clock ever enters an event or its ordering, so the same seed
yields a byte-identical serialized trace, and the conformance harness
can attach a trace to every shrunk counterexample without perturbing
replay digests.  The only wall-clock measurements live in
:class:`Span` records (the :class:`~repro.engine.parallel.
ParallelShardRunner`'s pickle/submit/collect instrumentation) which are
kept in a separate stream and excluded from the determinism guarantee.

This module is deliberately stdlib-only — it imports nothing from
:mod:`repro.engine` — so the kernel can import it without creating an
import cycle (``kernel`` → ``obs.trace`` is a leaf edge).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

# ---------------------------------------------------------------------------
# event types: one constant per lifecycle transition the engine reports
# ---------------------------------------------------------------------------
BEGIN = "begin"          # transaction attempt started (txn id assigned)
READ = "read"            # data read granted
WRITE = "write"          # buffered write granted
BLOCK = "block"          # request must wait (key + blockers attached)
WAKE = "wake"            # a parked session's blocker resolved
VALIDATE = "validate"    # two-stage commit: validation stage passed
COMMIT = "commit"        # commit granted (writes installed)
ABORT = "abort"          # attempt aborted (taxonomy code attached)
RESTART = "restart"      # session reset for a fresh attempt

EVENT_TYPES = (BEGIN, READ, WRITE, BLOCK, WAKE, VALIDATE, COMMIT, ABORT, RESTART)

# distributed-layer events (repro.dist): kept in their own tuple so the
# single-engine lifecycle set above stays exactly the kernel's vocabulary
SEND = "send"            # a message entered the simulated network
RECV = "recv"            # a message was delivered to its node
TIMEOUT = "timeout"      # a protocol timer fired (retry/backoff path)
DECIDE = "decide"        # the 2PC coordinator logged a commit/abort decision
CRASH = "crash"          # a node crashed (volatile state lost)
RECOVER = "recover"      # a node restarted and replayed its durable log
ELECT = "elect"          # a replica group elected a leader for a new term

DIST_EVENT_TYPES = (SEND, RECV, TIMEOUT, DECIDE, CRASH, RECOVER, ELECT)


class TraceEvent:
    """One engine lifecycle transition, with logical timing.

    Hand-rolled with ``__slots__`` like :class:`~repro.engine.kernel.
    Session`: tracing-enabled runs allocate one of these per protocol
    interaction, so the per-instance ``__dict__`` is worth avoiding.

    Fields
    ------
    seq:        recorder-assigned global sequence number (total order)
    ts:         logical time — executor round or simulator virtual time
    etype:      one of :data:`EVENT_TYPES`
    session_id: the engine session (stable across restarts)
    txn_id:     the transaction id of this attempt (may be ``None`` for
                a restart event, which happens between attempts)
    attempt:    1-based attempt number of the session
    key:        the key involved, when the event concerns one
    blockers:   BLOCK/ABORT attribution — the transactions waited on,
                or the conflicting transactions named by an abort
    code:       ABORT only — the taxonomy reason code
                (:mod:`repro.engine.reasons`)
    detail:     free-text protocol reason (human-oriented)
    meta:       small JSON-safe mapping for event-specific extras
                (``parked``, ``commit`` flags, probe counts, values)
    """

    __slots__ = (
        "seq",
        "ts",
        "etype",
        "session_id",
        "txn_id",
        "attempt",
        "key",
        "blockers",
        "code",
        "detail",
        "meta",
    )

    def __init__(
        self,
        seq: int,
        ts: Any,
        etype: str,
        session_id: int,
        txn_id: Optional[int],
        attempt: int,
        key: Optional[str] = None,
        blockers: Tuple[int, ...] = (),
        code: Optional[str] = None,
        detail: str = "",
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.seq = seq
        self.ts = ts
        self.etype = etype
        self.session_id = session_id
        self.txn_id = txn_id
        self.attempt = attempt
        self.key = key
        self.blockers = blockers
        self.code = code
        self.detail = detail
        self.meta = meta or {}

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict with stable key order (sorted at dump time)."""
        record: Dict[str, Any] = {
            "seq": self.seq,
            "ts": self.ts,
            "etype": self.etype,
            "session": self.session_id,
            "txn": self.txn_id,
            "attempt": self.attempt,
        }
        # optional fields are omitted when empty so serialized traces
        # stay compact and byte-comparison is not noise-sensitive
        if self.key is not None:
            record["key"] = self.key
        if self.blockers:
            record["blockers"] = list(self.blockers)
        if self.code is not None:
            record["code"] = self.code
        if self.detail:
            record["detail"] = self.detail
        if self.meta:
            record["meta"] = self.meta
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "TraceEvent":
        return cls(
            seq=record["seq"],
            ts=record["ts"],
            etype=record["etype"],
            session_id=record["session"],
            txn_id=record.get("txn"),
            attempt=record.get("attempt", 0),
            key=record.get("key"),
            blockers=tuple(record.get("blockers", ())),
            code=record.get("code"),
            detail=record.get("detail", ""),
            meta=record.get("meta") or {},
        )

    def __repr__(self) -> str:
        return (
            f"TraceEvent(seq={self.seq}, ts={self.ts}, {self.etype!r}, "
            f"session={self.session_id}, txn={self.txn_id}, key={self.key!r}, "
            f"code={self.code!r})"
        )


class Span:
    """One wall-clock measurement (parallel-runner IPC instrumentation).

    Spans live outside the deterministic event stream: they carry real
    durations (seconds) and are serialized separately, so byte-identity
    of the *event* stream across runs is preserved.
    """

    __slots__ = ("name", "start", "duration", "meta")

    def __init__(
        self,
        name: str,
        start: float,
        duration: float,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.duration = duration
        self.meta = meta or {}

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.meta:
            record["meta"] = self.meta
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        return cls(
            name=record["name"],
            start=record["start"],
            duration=record["duration"],
            meta=record.get("meta") or {},
        )

    def __repr__(self) -> str:
        return f"Span({self.name!r}, start={self.start}, duration={self.duration})"


class Tracer:
    """The tracing hook interface the engine emits through.

    ``enabled`` is the emitters' fast-path guard: the kernel caches it
    once at construction and skips argument packing entirely when it is
    False, so a disabled tracer costs one attribute check per step.
    ``tests/test_obs_trace.py`` pins that: a disabled tracer is never
    called, and a run with one makes exactly as many Python calls as a
    run without.

    ``now`` is the logical clock, *pushed* by the front-end rather than
    pulled: the executor sets it to the scheduler round before each
    step, the simulator to the decision's virtual time.  Emitters never
    consult a wall clock.
    """

    enabled = True

    def __init__(self) -> None:
        #: the logical timestamp stamped on the next emitted event
        self.now: Any = 0

    def emit(
        self,
        etype: str,
        session_id: int,
        txn_id: Optional[int],
        attempt: int,
        key: Optional[str] = None,
        blockers: Tuple[int, ...] = (),
        code: Optional[str] = None,
        detail: str = "",
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one lifecycle event (no-op in the base class)."""

    def span(
        self,
        name: str,
        start: float,
        duration: float,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one wall-clock span (no-op in the base class)."""


class NullTracer(Tracer):
    """The default tracer: does nothing, and advertises it via ``enabled``."""

    enabled = False


#: the shared default
NULL_TRACER = NullTracer()


class TraceRecorder(Tracer):
    """A tracer that captures the event stream for analysis or export."""

    enabled = True

    def __init__(self) -> None:
        super().__init__()
        self.events: List[TraceEvent] = []
        self.spans: List[Span] = []
        self._seq = 0

    def emit(
        self,
        etype: str,
        session_id: int,
        txn_id: Optional[int],
        attempt: int,
        key: Optional[str] = None,
        blockers: Tuple[int, ...] = (),
        code: Optional[str] = None,
        detail: str = "",
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.events.append(
            TraceEvent(
                seq=self._seq,
                ts=self.now,
                etype=etype,
                session_id=session_id,
                txn_id=txn_id,
                attempt=attempt,
                key=key,
                blockers=blockers,
                code=code,
                detail=detail,
                meta=meta,
            )
        )
        self._seq += 1

    def span(
        self,
        name: str,
        start: float,
        duration: float,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.spans.append(Span(name, start, duration, meta))

    # ------------------------------------------------------------------
    # serialization: JSON-lines, one event per line, stable key order
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialize the deterministic event stream (spans excluded).

        ``sort_keys`` plus compact separators make the output a pure
        function of the events, so the determinism tests can compare
        whole traces bytewise.
        """
        return "".join(
            json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
            + "\n"
            for event in self.events
        )

    def spans_jsonl(self) -> str:
        """Serialize the wall-clock span stream (non-deterministic)."""
        return "".join(
            json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
            for span in self.spans
        )

    def save(self, path: str) -> None:
        """Write the event stream to ``path`` (and spans alongside, if any).

        Spans land in ``<path>.spans`` so the event file itself stays
        byte-identical across runs of the same seed.
        """
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
        if self.spans:
            with open(path + ".spans", "w", encoding="utf-8") as handle:
                handle.write(self.spans_jsonl())

    @classmethod
    def load(cls, path: str) -> "TraceRecorder":
        """Rehydrate a recorder from a saved event stream."""
        recorder = cls()
        recorder.events = list(load_events(path))
        recorder._seq = len(recorder.events)
        try:
            with open(path + ".spans", "r", encoding="utf-8") as handle:
                recorder.spans = [
                    Span.from_dict(json.loads(line))
                    for line in handle
                    if line.strip()
                ]
        except OSError:
            pass
        return recorder


def load_events(path: str) -> Iterable[TraceEvent]:
    """Stream the events of a saved trace file."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield TraceEvent.from_dict(json.loads(line))

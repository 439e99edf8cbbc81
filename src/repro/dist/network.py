"""A deterministic simulated message-passing network.

The distributed layer's substrate: nodes (the 2PC coordinator, one
participant per shard) exchange :class:`Message` objects through a
single virtual-time event loop.  Three properties make chaos runs
replayable byte-for-byte:

* **one clock** — every delivery and timer lives in one min-heap keyed
  by ``(virtual time, sequence number)``, so dispatch order is a total
  order independent of dict/set iteration;
* **one latency RNG** — per-message latency is drawn from the network's
  private ``random.Random`` in send order, which is itself
  deterministic;
* **one fault plan** — message loss and duplication come from a
  :class:`~repro.engine.faults.NetworkFaultPlan` (the network-side
  sibling of the engine's ``FaultPlan``), consulted exactly once per
  send; partition windows are a pure function of ``(src, dst, now)``.

Reordering needs no dedicated fault: any nonzero latency jitter already
reorders messages, and a duplicated message's two copies draw
independent latencies.  Protocol layers must therefore be duplicate-
and reorder-tolerant by construction — which is exactly what the 2PC
conformance cells exercise.

Nodes implement ``name``, ``on_message(now, message)`` and
``on_timer(now, kind, payload)``.  A node may mark itself crashed via
``accepting_messages`` / ``accepting_timers``; the network then counts
the delivery as dropped-at-node instead of dispatching it (a crashed
coordinator loses in-flight votes — that is the point).

``send`` and ``run`` are the distributed hot path and are written flat
(counter handles resolved once, the latency draw and the heap push
inline, deliveries dispatched from the loop body).  Whatever their shape,
four invariants are what replay digests rest on, and
``tests/test_dist_hotpath.py`` pins them:

* one latency draw **per delivered copy**, in send order (a duplicated
  message draws twice, a dropped one not at all);
* one fault-plan consultation **per send**, before any latency draw;
* events dispatch in ``(time, seq)`` order, ``seq`` counting every heap
  push (deliveries and timers alike), so ties never fall to comparing
  payloads;
* a cancelled timer still counts as one dispatched event — ``run``'s
  return value and ``max_events`` budget see it.

Timers are **incarnation-stamped**: every timer belongs to the
incarnation of its node that armed it.  A crash calls
:meth:`SimulatedNetwork.bump_incarnation`, so a timer armed before the
crash can never fire into the restarted process — it is counted under
``dist.net.stale_timers`` and dropped.  Restart timers are armed with
``supervisor=True``, which exempts them from the stamp (they model the
external supervisor, not the crashed process).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.faults import (
    DROP_ACTION,
    DUPLICATE_ACTION,
    NetworkFaultPlan,
)
from repro.engine.metrics import Counter, Metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import NULL_TRACER, Tracer


@dataclass(frozen=True)
class LatencyModel:
    """A one-way message latency distribution: ``base + U[0, jitter)``.

    The default (base 1.0, jitter 0.5) keeps round trips comfortably
    under the 2PC layer's default timeouts; jitter > 0 is what makes
    message *reordering* happen without a dedicated fault knob.
    """

    base: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"latency base must be non-negative, got {self.base!r}")
        if self.jitter < 0:
            raise ValueError(
                f"latency jitter must be non-negative, got {self.jitter!r}"
            )

    def sample(self, rng: random.Random) -> float:
        if self.jitter == 0:
            return self.base
        return self.base + rng.random() * self.jitter


class Message:
    """One message in flight: source, destination, kind, payload."""

    __slots__ = ("src", "dst", "kind", "payload", "uid")

    def __init__(
        self, src: str, dst: str, kind: str, payload: Dict[str, Any], uid: int
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.uid = uid

    def __repr__(self) -> str:
        return (
            f"Message(#{self.uid} {self.src}->{self.dst} {self.kind!r} "
            f"{self.payload!r})"
        )


#: heap entry tags, compared only after (time, seq) so dispatch order is
#: fully determined by the scheduling order
_DELIVERY = 0
_TIMER = 1


class SimulatedNetwork:
    """The virtual-time event loop connecting distributed nodes.

    Parameters
    ----------
    latency:
        The per-message one-way latency distribution.
    seed:
        Seed of the private latency RNG.
    fault_plan:
        Optional :class:`~repro.engine.faults.NetworkFaultPlan` injecting
        seeded loss/duplication and deterministic partition drops.
    metrics:
        Registry for the ``dist.net.*`` counters (sent, delivered,
        dropped, duplicated, dropped_at_node).
    tracer:
        Optional structured tracer; SEND/RECV events are stamped with
        virtual time, so a traced run's event stream is deterministic.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        fault_plan: Optional[NetworkFaultPlan] = None,
        metrics: Optional[Metrics] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.latency = latency if latency is not None else LatencyModel()
        self.fault_plan = fault_plan
        self.metrics = metrics if metrics is not None else Metrics()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._tracing = self.tracer.enabled
        self.now: float = 0.0
        self._random = random.Random(seed).random
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = 0
        self._next_uid = 1
        self._next_timer_id = 1
        self._cancelled_timers: Set[int] = set()
        self._nodes: Dict[str, Any] = {}
        self._incarnations: Dict[str, int] = {}
        # handles of the two per-message counters, resolved at first bump
        self._sent: Optional[Counter] = None
        self._delivered: Optional[Counter] = None

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def register(self, node: Any) -> Any:
        """Attach a node; its ``name`` becomes its address."""
        name = node.name
        if name in self._nodes:
            raise ValueError(f"a node named {name!r} is already registered")
        self._nodes[name] = node
        return node

    def detach(self) -> None:
        """Forget every node when the run is over: nodes keep the network,
        so this leaves no network ↔ node reference cycle."""
        self._nodes.clear()

    # ------------------------------------------------------------------
    # incarnations
    # ------------------------------------------------------------------
    def incarnation_of(self, name: str) -> int:
        """The node's current incarnation number (0 until its first crash)."""
        return self._incarnations.get(name, 0)

    def bump_incarnation(self, name: str) -> int:
        """Start a new incarnation of ``name`` (call at crash time).

        Every timer armed by the previous incarnation becomes stale: it
        will be dropped at fire time instead of being dispatched into the
        restarted process.
        """
        incarnation = self._incarnations.get(name, 0) + 1
        self._incarnations[name] = incarnation
        return incarnation

    # ------------------------------------------------------------------
    # sending and timers
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, kind: str, payload: Dict[str, Any]) -> None:
        """Submit one message; faults and latency decide what arrives."""
        if dst not in self._nodes:
            raise KeyError(f"unknown destination node {dst!r}")
        counter = self._sent
        if counter is None:
            counter = self._sent = self.metrics.counter("dist.net.sent")
        counter.value += 1
        uid = self._next_uid
        self._next_uid = uid + 1
        message = Message(src, dst, kind, payload, uid)
        if self._tracing:
            self._trace(obs_trace.SEND, message)
        now = self.now
        duplicate = False
        if self.fault_plan is not None:
            action = self.fault_plan.intercept(src, dst, kind, now)
            if action is not None:
                if action == DROP_ACTION:
                    self.metrics.incr("dist.net.dropped")
                    return
                if action == DUPLICATE_ACTION:
                    self.metrics.incr("dist.net.duplicated")
                    duplicate = True
        # LatencyModel.sample inlined: one draw per delivered copy
        base = self.latency.base
        jitter = self.latency.jitter
        seq = self._seq
        delay = base + self._random() * jitter if jitter else base
        heappush(self._heap, (now + delay, seq, _DELIVERY, message))
        if duplicate:
            seq += 1
            delay = base + self._random() * jitter if jitter else base
            heappush(self._heap, (now + delay, seq, _DELIVERY, message))
        self._seq = seq + 1

    def set_timer(
        self,
        node_name: str,
        delay: float,
        kind: str,
        payload: Optional[Dict[str, Any]] = None,
        supervisor: bool = False,
    ) -> int:
        """Schedule ``node.on_timer(now, kind, payload)``; returns a timer id.

        ``supervisor=True`` exempts the timer from incarnation staleness
        (and from the crashed-node timer drop): it belongs to the external
        supervisor that restarts the node, not to the node process itself.
        """
        if delay < 0:
            raise ValueError(f"timer delay must be non-negative, got {delay!r}")
        timer_id = self._next_timer_id
        self._next_timer_id += 1
        incarnation = None if supervisor else self._incarnations.get(node_name, 0)
        item = (timer_id, node_name, kind, payload or {}, incarnation)
        heappush(self._heap, (self.now + delay, self._seq, _TIMER, item))
        self._seq += 1
        return timer_id

    def cancel_timer(self, timer_id: int) -> None:
        """Cancel a pending timer (firing a cancelled timer is a no-op)."""
        self._cancelled_timers.add(timer_id)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(
        self, until: Optional[float] = None, max_events: int = 1_000_000
    ) -> int:
        """Dispatch events in (time, seq) order; returns events dispatched.

        Stops when the heap drains (the distributed protocol reached
        quiescence) or the next event lies past ``until``.  The
        ``max_events`` guard turns a retry livelock into a loud failure
        instead of an infinite loop.
        """
        heap = self._heap
        nodes = self._nodes
        cancelled = self._cancelled_timers
        tracing = self._tracing
        horizon = float("inf") if until is None else until
        now = self.now
        dispatched = 0
        while heap and heap[0][0] <= horizon:
            time, _, tag, item = heappop(heap)
            if time > now:
                now = self.now = time
            dispatched += 1
            if dispatched > max_events:
                raise RuntimeError(
                    f"simulated network exceeded its event budget "
                    f"({max_events} for this run call) at t={now:g} — a retry "
                    f"loop is not converging"
                )
            if tag == _TIMER:
                # a cancelled timer is still a dispatched event, just a no-op
                if item[0] in cancelled:
                    cancelled.discard(item[0])
                else:
                    self._fire_timer(item)
                continue
            node = nodes.get(item.dst)
            if node is None or not getattr(node, "accepting_messages", True):
                # destination crashed (or was never registered in a partial
                # topology): the message is lost exactly as a real crashed
                # host loses its inbound packets
                self.metrics.incr("dist.net.dropped_at_node")
                continue
            counter = self._delivered
            if counter is None:
                counter = self._delivered = self.metrics.counter("dist.net.delivered")
            counter.value += 1
            if tracing:
                self._trace(obs_trace.RECV, item)
            node.on_message(now, item)
        return dispatched

    @property
    def idle(self) -> bool:
        """Whether no delivery or timer remains queued."""
        return not self._heap

    def _trace(self, etype: str, message: Message) -> None:
        txn = message.payload.get("txn")
        self.tracer.now = self.now
        self.tracer.emit(
            etype,
            int(txn or 0),
            txn,
            0,
            detail=message.kind,
            meta={"src": message.src, "dst": message.dst},
        )

    def _fire_timer(
        self, item: Tuple[int, str, str, Dict[str, Any], Optional[int]]
    ) -> None:
        _, node_name, kind, payload, incarnation = item
        node = self._nodes.get(node_name)
        if node is None:
            return
        supervisor = incarnation is None or kind == "recover"
        if incarnation is not None and incarnation != self.incarnation_of(node_name):
            # armed by a pre-crash incarnation: even if the node has since
            # restarted and accepts timers again, this timer belongs to a
            # dead process and must not fire into the new one
            if not supervisor:
                self.metrics.incr("dist.net.stale_timers")
                return
        if not getattr(node, "accepting_timers", True) and not supervisor:
            # a crashed node's pending timers die with its volatile state;
            # only the supervisor's restart timer survives (it models the
            # supervisor, not the crashed process)
            return
        node.on_timer(self.now, kind, payload)

"""Deterministic epoch-based concurrency control (the Calvin family).

Kung & Papadimitriou frame concurrency control as a spectrum of how
much information the scheduler exploits.  The protocols so far sit at
the *reactive* end: they learn a transaction's footprint one request at
a time and pay for it with deadlock detection (2PL, SGT) or validation
aborts (T/O, OCC, SI).  This module implements the other pole — the
maximum-information scheduler that knows every transaction's read/write
footprint *before* it runs, pre-orders transactions into epochs via the
:class:`~repro.engine.protocols.sequencer.EpochSequencer`, and grants
the declared footprints strictly in that order:

* **no wait-for graph** — a transaction only ever waits for an earlier
  sequence position, so waits cannot cycle; the earliest live
  transaction is always runnable, which is the progress guarantee that
  deadlock detection exists to provide elsewhere;
* **no validation phase** — conflicts are resolved by the fixed order
  at grant time, so nothing is ever discovered stale at commit;
* **aborts only for injected faults or mis-declared footprints** — a
  data access outside the declared footprint aborts with
  :data:`~repro.engine.reasons.ABORT_DET_RECON` and restarts as a
  low-priority *reconnaissance* re-submission (Calvin's OLLP): the
  retry re-declares the now-known footprint and its fresh ticket lands
  at the tail of the order, so a mis-declared straggler never stalls
  the epoch it originally belonged to.

Correctness sketch.  Writes are buffered (engine-wide invariant) and
installed at commit; the **commit gate** grants a commit only when no
live earlier-sequence transaction remains, so installs happen in
sequence order.  A **read** of key ``k`` waits until every live earlier
writer of ``k`` has finished, so it observes exactly the latest
earlier-sequence committed value.  Every conflict edge (ww, wr, rw)
therefore points forward in sequence order, and the committed history
is conflict-equivalent to the serial execution in sequence order —
which is also why the harness can hold these protocols to a *stronger*
oracle than serializability: commit order must literally equal epoch
order (see ``repro.harness.oracles``).

Two registered variants span the family the ROADMAP names (the
``cdetmn``/``epdetmn``-style spread):

* ``det-epoch`` (:class:`DeterministicEpoch`) — single-batch: an epoch
  barrier holds back every data operation of epoch *E* until all
  transactions of earlier epochs have finished.  Epochs execute as
  closed batches, the closest analogue of classic Calvin's
  sequence-then-execute rounds.
* ``det-slot`` (:class:`DeterministicSlotted`) — slotted/pipelined: no
  barrier; only the per-key order and the commit gate constrain
  execution, so epoch *E+1* transactions run (and queue) while epoch
  *E* drains.  Same guarantees, shallower waits.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, Optional, Tuple

from repro.engine.metrics import Metrics
from repro.engine.protocols.base import ConcurrencyControl, Decision
from repro.engine.protocols.sequencer import EpochSequencer, FootprintTicket
from repro.engine.reasons import ABORT_DET_RECON, ABORT_DET_UNDECLARED
from repro.engine.storage import DataStore


class DeterministicLockScheduler(ConcurrencyControl):
    """Shared machinery of the deterministic variants.

    Per key, a queue of the footprint entries declared against it, in
    sequence order (declaration order *is* sequence order, so plain
    appends keep it sorted).  A read is granted once no live earlier
    writer of the key remains; a (buffered) write is always granted —
    write order is enforced at install time by the commit gate, not at
    buffering time.  Finished entries are pruned from the queue head,
    so the scan amortises to O(live entries ahead).
    """

    deterministic = True
    #: subclasses: whether data operations wait for earlier epochs to drain
    epoch_barrier = False

    def __init__(
        self,
        store: DataStore,
        metrics: Optional[Metrics] = None,
        epoch_size: int = 8,
    ) -> None:
        super().__init__(store, metrics)
        self.sequencer = EpochSequencer(epoch_size)
        #: per-key footprint queues: (ticket, is_write) in sequence order
        self._queues: Dict[str, Deque[Tuple[FootprintTicket, bool]]] = {}
        self._drained_epochs = 0

    # ------------------------------------------------------------------
    # footprint declaration (the sequencer's admission hook)
    # ------------------------------------------------------------------
    def declare_footprint(
        self, txn_id: int, reads: Iterable[str], writes: Iterable[str]
    ) -> FootprintTicket:
        """Admit an active transaction with its declared read/write sets.

        Must be called once, between :meth:`begin` and the first data
        request (the engine kernel does this automatically from the
        transaction spec).  Returns the ticket carrying the assigned
        sequence number, epoch and slot.
        """
        self._require_active(txn_id)
        ticket = self.sequencer.admit(txn_id, reads, writes)
        for key in sorted(ticket.reads | ticket.writes):
            self._queues.setdefault(key, deque()).append(
                (ticket, key in ticket.writes)
            )
        self.metrics.incr("det.admitted")
        return ticket

    def ticket_of(self, txn_id: int) -> Optional[FootprintTicket]:
        """The ticket admitted for ``txn_id`` (retained after it finishes)."""
        return self.sequencer.tickets.get(txn_id)

    # ------------------------------------------------------------------
    # the deterministic grant rules
    # ------------------------------------------------------------------
    def _guard(self, txn_id: int, key: str, writing: bool) -> Optional[Decision]:
        """Footprint guard + epoch barrier; None means proceed to grant."""
        ticket = self.sequencer.tickets.get(txn_id)
        if ticket is None:
            return Decision.abort(
                reason=f"det: data access to {key!r} before footprint declaration",
                code=ABORT_DET_UNDECLARED,
                key=key,
            )
        declared = ticket.writes if writing else (ticket.reads | ticket.writes)
        if key not in declared:
            self.metrics.incr("det.recon_aborts")
            return Decision.abort(
                reason=(
                    f"det: {'write' if writing else 'read'} of {key!r} outside "
                    f"the declared footprint of T{txn_id} (seq {ticket.seq}); "
                    "restarting as a low-priority reconnaissance re-submission"
                ),
                code=ABORT_DET_RECON,
                key=key,
            )
        if self.epoch_barrier:
            head = self.sequencer.earliest_live()
            if head is not None and head.seq < ticket.epoch * self.sequencer.epoch_size:
                # an earlier epoch is still draining: hold every data
                # operation of this epoch behind its earliest member
                return Decision.block(
                    blocked_on=(head.txn_id,),
                    reason=(
                        f"det: epoch {ticket.epoch} barrier — epoch "
                        f"{head.epoch} still draining (T{head.txn_id})"
                    ),
                )
        return None

    def _earlier_live_writer(
        self, ticket: FootprintTicket, key: str
    ) -> Optional[FootprintTicket]:
        """The first live writer of ``key`` ordered before ``ticket``, if any."""
        queue = self._queues.get(key)
        if not queue:
            return None
        while queue and not queue[0][0].live:
            queue.popleft()
        for entry, is_write in queue:
            if entry.seq >= ticket.seq:
                break
            if is_write and entry.live:
                return entry
        return None

    def on_read(self, txn_id: int, key: str) -> Decision:
        guard = self._guard(txn_id, key, writing=False)
        if guard is not None:
            return guard
        ticket = self.sequencer.tickets[txn_id]
        writer = self._earlier_live_writer(ticket, key)
        if writer is not None:
            return Decision.block(
                blocked_on=(writer.txn_id,),
                reason=(
                    f"det: read of {key!r} ordered after writer "
                    f"T{writer.txn_id} (seq {writer.seq} < {ticket.seq})"
                ),
            )
        return Decision.grant()

    def on_write(self, txn_id: int, key: str, value: Any) -> Decision:
        # writes are buffered until commit, and the commit gate installs
        # them in sequence order — so a declared write is granted
        # immediately; only the footprint guard and barrier apply
        return self._guard(txn_id, key, writing=True) or Decision.grant()

    def on_commit(self, txn_id: int) -> Decision:
        ticket = self.sequencer.tickets.get(txn_id)
        if ticket is None:
            # an empty transaction that never declared: nothing ordered
            # against it, nothing to gate
            return Decision.grant()
        predecessor = self.sequencer.live_predecessor(ticket)
        if predecessor is not None:
            return Decision.block(
                blocked_on=(predecessor.txn_id,),
                reason=(
                    f"det: commit gate — seq {ticket.seq} awaiting "
                    f"T{predecessor.txn_id} (seq {predecessor.seq})"
                ),
            )
        return Decision.grant()

    def on_finished(self, txn_id: int) -> None:
        self.sequencer.retire(txn_id)
        drained = self.sequencer.drained_epochs
        if drained > self._drained_epochs:
            self.metrics.incr("det.epochs_drained", drained - self._drained_epochs)
            self._drained_epochs = drained


class DeterministicEpoch(DeterministicLockScheduler):
    """``det-epoch``: closed epoch batches behind a drain barrier."""

    name = "det-epoch"
    epoch_barrier = True


class DeterministicSlotted(DeterministicLockScheduler):
    """``det-slot``: slotted/pipelined — epochs overlap, order still holds."""

    name = "det-slot"
    epoch_barrier = False

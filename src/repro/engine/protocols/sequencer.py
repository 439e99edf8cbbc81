"""The epoch sequencer: a fixed total order over admitted transactions.

Deterministic (Calvin-style) concurrency control splits the scheduler
in two.  A *sequencer* assigns every admitted transaction a position in
a fixed total order — here a dense sequence number, batched into
numbered **epochs** of ``epoch_size`` consecutive positions — before
any data access happens.  The *lock scheduler*
(:mod:`repro.engine.protocols.deterministic`) then grants each
transaction's declared read/write footprint strictly in that order, so
every replica (or re-run) that receives the same input batch produces
the same history.  Because the order is fixed up front, the scheduler
needs no wait-for graph and no validation phase: the only possible wait
is "a predecessor in the order has not finished yet", and such waits
can never form a cycle.

This module is the bookkeeping half: it hands out
:class:`FootprintTicket` positions at admission, tracks which tickets
are still live in a doubly-linked list ordered by sequence number (so
"my nearest live predecessor" and "the earliest live transaction" —
the two questions the deterministic commit gate and epoch barrier ask —
are O(1)), and retains every ticket permanently so post-hoc oracles can
check that commit order equals sequence order.

A transaction that aborts (an injected fault, or a reconnaissance
restart after an under-declared footprint) and comes back is admitted
*again* under a fresh transaction id: its new ticket lands at the tail
of the order, which is exactly Calvin's low-priority re-submission —
a restart never blocks the epoch it originally belonged to.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional


class FootprintTicket:
    """One admitted transaction's place in the deterministic order.

    Doubles as the node of the sequencer's live list (``prev_txn``/``next``
    link live tickets in sequence order; the predecessor by transaction
    id, so live tickets form no reference cycle); ``live`` flips to False
    at retirement but the ticket itself is retained forever in
    :attr:`EpochSequencer.tickets` for the conformance oracles.
    """

    __slots__ = ("txn_id", "seq", "epoch", "slot", "reads", "writes",
                 "live", "prev_txn", "next")

    def __init__(
        self,
        txn_id: int,
        seq: int,
        epoch: int,
        slot: int,
        reads: FrozenSet[str],
        writes: FrozenSet[str],
    ) -> None:
        self.txn_id = txn_id
        self.seq = seq
        self.epoch = epoch
        self.slot = slot
        self.reads = reads
        self.writes = writes
        self.live = True
        self.prev_txn: Optional[int] = None
        self.next: Optional["FootprintTicket"] = None

    def covers(self, key: str) -> bool:
        """Whether ``key`` is inside the declared footprint."""
        return key in self.reads or key in self.writes

    def __repr__(self) -> str:
        state = "live" if self.live else "done"
        return (
            f"FootprintTicket(txn={self.txn_id}, seq={self.seq}, "
            f"epoch={self.epoch}, slot={self.slot}, {state})"
        )


class EpochSequencer:
    """Assign sequence numbers and epochs; track the live prefix.

    Admission order *is* the total order: ``admit`` hands out dense
    sequence numbers, and ``epoch = seq // epoch_size`` batches them
    into fixed-size epochs (``slot`` is the position within the epoch).
    The live list supports the two ordering queries deterministic
    scheduling needs without any scanning:

    * :meth:`earliest_live` — the head of the list; the epoch barrier
      blocks a transaction while the head still belongs to an earlier
      epoch, and the head transaction itself can never be blocked
      (the progress guarantee that replaces deadlock detection);
    * :meth:`live_predecessor` — the nearest live predecessor; the commit
      gate blocks a commit on exactly this transaction, so commits drain
      in sequence order with one wake per finished predecessor instead
      of a broadcast.
    """

    def __init__(self, epoch_size: int = 8) -> None:
        if epoch_size < 1:
            raise ValueError("epoch_size must be at least 1")
        self.epoch_size = epoch_size
        #: every ticket ever admitted, by transaction id (kept after
        #: retirement: the epoch-order oracle replays commit order
        #: against these sequence numbers)
        self.tickets: Dict[int, FootprintTicket] = {}
        self._next_seq = 0
        self._head: Optional[FootprintTicket] = None
        self._tail: Optional[FootprintTicket] = None

    # ------------------------------------------------------------------
    # admission / retirement
    # ------------------------------------------------------------------
    def admit(
        self, txn_id: int, reads: Iterable[str], writes: Iterable[str]
    ) -> FootprintTicket:
        """Admit a transaction: next sequence number, appended to the live list."""
        if txn_id in self.tickets:
            raise ValueError(f"transaction {txn_id} already holds a ticket")
        seq = self._next_seq
        self._next_seq += 1
        ticket = FootprintTicket(
            txn_id,
            seq,
            seq // self.epoch_size,
            seq % self.epoch_size,
            frozenset(reads),
            frozenset(writes),
        )
        self.tickets[txn_id] = ticket
        if self._tail is None:
            self._head = self._tail = ticket
        else:
            ticket.prev_txn = self._tail.txn_id
            self._tail.next = ticket
            self._tail = ticket
        return ticket

    def retire(self, txn_id: int) -> Optional[FootprintTicket]:
        """A transaction finished (commit or abort): unlink it from the live list."""
        ticket = self.tickets.get(txn_id)
        if ticket is None or not ticket.live:
            return None
        ticket.live = False
        prev = None if ticket.prev_txn is None else self.tickets[ticket.prev_txn]
        if prev is not None:
            prev.next = ticket.next
        else:
            self._head = ticket.next
        if ticket.next is not None:
            ticket.next.prev_txn = ticket.prev_txn
        else:
            self._tail = prev
        ticket.prev_txn = ticket.next = None
        return ticket

    # ------------------------------------------------------------------
    # ordering queries
    # ------------------------------------------------------------------
    def earliest_live(self) -> Optional[FootprintTicket]:
        """The live ticket with the smallest sequence number, if any."""
        return self._head

    def live_predecessor(self, ticket: FootprintTicket) -> Optional[FootprintTicket]:
        """The nearest live ticket ordered before ``ticket`` (None at the head)."""
        prev_txn = ticket.prev_txn if ticket.live else None
        return None if prev_txn is None else self.tickets[prev_txn]

    @property
    def admitted(self) -> int:
        """How many transactions have been admitted so far."""
        return self._next_seq

    @property
    def drained_epochs(self) -> int:
        """Epochs whose every admitted transaction has finished.

        The *contiguous* finished prefix, measured at the head of the
        live list: epochs at or above the earliest live transaction's
        epoch may still have live members, everything below is drained.
        """
        floor = self._head.seq if self._head is not None else self._next_seq
        return floor // self.epoch_size

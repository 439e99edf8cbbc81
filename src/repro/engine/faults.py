"""Deterministic fault injection for the engine kernel.

The conformance harness (:mod:`repro.harness`) hunts for interleaving
windows in which a protocol's bookkeeping and the actual history drift
apart.  Many of those windows only open when something goes *wrong* at
an awkward moment — a client dies just before commit, a commit or
validation is delayed long enough for a rival to slip past, a busy shard
stalls while the rest of the system races ahead.  This module provides
the engine-level hook that manufactures those moments **reproducibly**:

* :class:`FaultSpec` — the declarative description of an injection
  campaign (probabilities, shard bias, caps, seed);
* :class:`FaultPlan` — the stateful interpreter the
  :class:`~repro.engine.kernel.EngineKernel` consults once per protocol
  interaction.  All randomness comes from one private ``random.Random``
  seeded by the spec, and the kernel consults the plan at deterministic
  points, so the same (engine seed, fault seed) pair replays the same
  injections byte-for-byte — a failing fuzzer seed is a complete
  reproduction recipe.

Only *safe* faults are injected: forcing an attempt to abort and
delaying a request are both actions a correct protocol must tolerate at
any time, so every correctness oracle must still pass under an arbitrary
fault plan.  (Faults that could genuinely corrupt state — torn writes,
lost notifications — would be bugs in the engine, not scenarios.)

The kernel skips injection on the read-only fast path (fast-path
sessions can neither block nor abort by contract) and while a session is
mid-validation in a two-stage commit (the pipeline owns the attempt).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

#: interaction stages a fault can intercept
OPERATION_STAGE = "operation"
COMMIT_STAGE = "commit"

#: actions a plan may request
ABORT_ACTION = "abort"
STALL_ACTION = "stall"


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of a deterministic injection campaign.

    Parameters
    ----------
    abort_probability:
        Chance that an interaction is answered with a forced client
        abort (the transaction attempt aborts and restarts as usual).
    stall_probability:
        Chance that a *data operation* is stalled: the request is
        answered BLOCK without being parked, so the caller retries on
        its own schedule (next round for the executor, one
        ``retry_interval`` later for the simulator).
    commit_stall_probability:
        Same, for *commit* interactions — this is what delays commits
        and validations into their rivals' windows.
    biased_keys:
        Keys whose operations stall ``bias_multiplier`` times more often
        — the "one hot shard is slow" shape.
    bias_multiplier:
        Stall-probability multiplier for ``biased_keys``.
    max_injections:
        Overall cap on injected faults (``None`` = unlimited).  Keeps a
        hostile plan from starving a run outright.
    seed:
        Seed of the plan's private RNG.
    """

    abort_probability: float = 0.0
    stall_probability: float = 0.0
    commit_stall_probability: float = 0.0
    biased_keys: FrozenSet[str] = frozenset()
    bias_multiplier: float = 4.0
    max_injections: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("abort_probability", "stall_probability", "commit_stall_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.bias_multiplier < 0:
            raise ValueError("bias_multiplier must be non-negative")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, for the counterexample report."""

    index: int
    txn_id: int
    stage: str
    key: Optional[str]
    action: str

    def __str__(self) -> str:
        where = f" on {self.key!r}" if self.key is not None else ""
        return f"#{self.index}: {self.action} T{self.txn_id} at {self.stage}{where}"


class FaultPlan:
    """The stateful injector the kernel consults once per interaction.

    One plan instance belongs to one run: it owns a private RNG and an
    append-only event log.  Constructing a fresh plan from the same
    :class:`FaultSpec` replays the identical injection sequence as long
    as the engine drives it through the same interaction sequence —
    which the deterministic executor/simulator guarantee for a fixed
    engine seed.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._consults = 0
        self.events: List[FaultEvent] = []

    @property
    def injections(self) -> int:
        return len(self.events)

    def intercept(self, txn_id: int, stage: str, key: Optional[str]) -> Optional[str]:
        """Decide the fate of one interaction; ``None`` = no fault.

        Exactly one RNG draw per consultation keeps the decision stream
        a pure function of the spec seed and the consultation order.
        """
        self._consults += 1
        roll = self._rng.random()
        spec = self.spec
        if spec.max_injections is not None and len(self.events) >= spec.max_injections:
            return None
        if stage == COMMIT_STAGE:
            stall_probability = spec.commit_stall_probability
        else:
            stall_probability = spec.stall_probability
            if key is not None and key in spec.biased_keys:
                stall_probability = min(1.0, stall_probability * spec.bias_multiplier)
        action: Optional[str] = None
        if roll < spec.abort_probability:
            action = ABORT_ACTION
        elif roll < spec.abort_probability + stall_probability:
            action = STALL_ACTION
        if action is not None:
            self.events.append(
                FaultEvent(self._consults, txn_id, stage, key, action)
            )
        return action


def plan_from(spec: Optional[FaultSpec]) -> Optional[FaultPlan]:
    """A fresh plan for ``spec``, or ``None`` for fault-free runs."""
    return None if spec is None else FaultPlan(spec)


# ----------------------------------------------------------------------
# network faults: the simulated-network counterpart of FaultSpec/FaultPlan
# ----------------------------------------------------------------------

#: actions a network plan may request for one message send
DROP_ACTION = "drop"
DUPLICATE_ACTION = "duplicate"


@dataclass(frozen=True)
class PartitionWindow:
    """A virtual-time interval during which a node group is cut off.

    Messages between an ``isolated`` node and any node outside the group
    are dropped while ``start <= now < end`` (messages *within* the
    isolated group still flow — it is a partition, not a crash).
    """

    start: float
    end: float
    isolated: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < 0:
            raise ValueError(
                f"partition window times must be non-negative, got "
                f"[{self.start!r}, {self.end!r})"
            )
        if self.end < self.start:
            raise ValueError(
                f"partition window must have start <= end, got "
                f"[{self.start!r}, {self.end!r})"
            )
        object.__setattr__(self, "isolated", frozenset(self.isolated))

    def severs(self, src: str, dst: str, now: float) -> bool:
        """Whether this window drops a ``src -> dst`` message at ``now``."""
        if not self.start <= now < self.end:
            return False
        return (src in self.isolated) != (dst in self.isolated)


@dataclass(frozen=True)
class NetworkFaultSpec:
    """Declarative description of a deterministic network-chaos campaign.

    The simulated network (:mod:`repro.dist.network`) consults the
    matching :class:`NetworkFaultPlan` once per message send, exactly as
    the engine kernel consults a :class:`FaultPlan` once per protocol
    interaction — same replay contract, same one-draw-per-consult rule.

    Parameters
    ----------
    loss_probability:
        Chance that a message is silently dropped.
    duplicate_probability:
        Chance that a message is delivered twice (with independent
        latency draws, so the copies may also arrive reordered).
    partitions:
        Virtual-time windows during which a node group is unreachable.
    max_injections:
        Overall cap on injected drops/duplicates (``None`` = unlimited);
        partition drops are deterministic and do not count against it.
    seed:
        Seed of the plan's private RNG.
    """

    loss_probability: float = 0.0
    duplicate_probability: float = 0.0
    partitions: Tuple[PartitionWindow, ...] = ()
    max_injections: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("loss_probability", "duplicate_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        total = self.loss_probability + self.duplicate_probability
        if total > 1.0:
            raise ValueError(
                "loss_probability + duplicate_probability must not exceed 1, "
                f"got {total!r}"
            )
        object.__setattr__(self, "partitions", tuple(self.partitions))


@dataclass(frozen=True)
class NetworkFaultEvent:
    """One injected network fault, for the counterexample report."""

    index: int
    src: str
    dst: str
    kind: str
    action: str
    time: float

    def __str__(self) -> str:
        return (
            f"#{self.index}: {self.action} {self.kind!r} "
            f"{self.src}->{self.dst} at t={self.time:g}"
        )


class NetworkFaultPlan:
    """The stateful injector the simulated network consults per send.

    Mirrors :class:`FaultPlan`: one private RNG seeded by the spec, one
    draw per consultation, an append-only event log — so the same
    (network seed, fault seed) pair replays the identical loss and
    duplication stream for the same message sequence.  Partition drops
    are a pure function of ``(src, dst, now)`` and consume no
    randomness, so a partition window never perturbs the loss stream.
    """

    def __init__(self, spec: NetworkFaultSpec) -> None:
        self.spec = spec
        self._rng = random.Random(spec.seed)
        self._consults = 0
        self._seeded = 0
        self.events: List[NetworkFaultEvent] = []
        # the spec is frozen: read its fields once, not once per send
        self._partitions = spec.partitions
        self._cap = spec.max_injections
        self._loss_below = spec.loss_probability
        self._duplicate_below = spec.loss_probability + spec.duplicate_probability

    def intercept(self, src: str, dst: str, kind: str, now: float) -> Optional[str]:
        """Decide the fate of one message send; ``None`` = deliver once."""
        for window in self._partitions:
            if window.severs(src, dst, now):
                return self._inject(src, dst, kind, DROP_ACTION, now)
        self._consults += 1
        roll = self._rng.random()
        if roll >= self._duplicate_below:
            return None
        if self._cap is not None and self._seeded >= self._cap:
            return None
        self._seeded += 1
        action = DROP_ACTION if roll < self._loss_below else DUPLICATE_ACTION
        return self._inject(src, dst, kind, action, now)

    def _inject(self, src: str, dst: str, kind: str, action: str, now: float) -> str:
        self.events.append(
            NetworkFaultEvent(len(self.events), src, dst, kind, action, now)
        )
        return action


def network_plan_from(
    spec: Optional[NetworkFaultSpec],
) -> Optional[NetworkFaultPlan]:
    """A fresh plan for ``spec``, or ``None`` for a reliable network."""
    return None if spec is None else NetworkFaultPlan(spec)

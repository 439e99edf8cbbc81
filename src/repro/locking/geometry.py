"""The geometry of locking (Section 5.3, Figures 3 and 4).

For two transactions, every state of joint progress is a point of the
two-dimensional *progress space* ``[0, L1] x [0, L2]``: coordinate ``i``
counts how many actions of (locked) transaction ``i`` have completed.
Locking forbids rectangular regions — the *blocks* — where both
transactions would simultaneously hold the same locking variable.  A
schedule corresponds to a monotone staircase path from the origin ``O``
to the finish point ``F``; it is lock-feasible exactly when its path
avoids every block.

The same picture explains three of the paper's claims:

* *Deadlock regions* (Figure 3): points from which every monotone path to
  ``F`` runs into a block.  A progress curve trapped there can never
  finish.
* *Serializability as homotopy* (Figure 4(b)/(c)): a lock-feasible
  schedule is serializable iff it can be transformed into a serial
  schedule by *elementary transformations* (adjacent swaps of steps of
  different transactions) without ever passing through a block — i.e.
  iff its path is homotopic to one of the two boundary (serial) paths in
  the block-punctured progress space.  Non-serializable schedules are the
  ones that *separate* blocks.
* *2PL's correctness* (Figure 4(d)): two-phase locking gives all blocks a
  common point (the phase-shift point), so the blocks can never be
  separated and every lock-feasible schedule is serializable.

Everything here is exact for two transactions (the paper's figures); the
block construction generalises to ``n`` transactions as pairwise
projections, which is what :func:`pairwise_progress_spaces` provides.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.schedules import (
    Schedule,
    adjacent_swaps,
    all_serial_schedules,
    is_serial,
    validate_schedule,
)
from repro.core.transactions import StepRef, TransactionSystem
from repro.locking.lock_manager import is_lock_feasible, lock_feasible_schedules
from repro.locking.policies import (
    AccessAction,
    LockAction,
    LockedTransaction,
    LockedTransactionSystem,
    UnlockAction,
)


class GeometryError(ValueError):
    """Raised when the geometric analysis is applied to an unsupported system."""


@dataclass(frozen=True)
class Rectangle:
    """A closed axis-aligned rectangle ``[x_lo, x_hi] x [y_lo, y_hi]`` in progress space.

    ``variable`` records which locking variable the block protects.
    Coordinates are measured in completed actions of each transaction, so
    a transaction holds the lock at progress values ``lock_pos <= p <
    unlock_pos``; the *closed* rectangle ``[lock_pos, unlock_pos] x ...``
    is the paper's drawn block, while the forbidden *grid points* are the
    half-open version (see :meth:`forbids`).
    """

    x_lo: int
    x_hi: int
    y_lo: int
    y_hi: int
    variable: str = ""

    def __post_init__(self) -> None:
        if self.x_lo > self.x_hi or self.y_lo > self.y_hi:
            raise GeometryError(f"degenerate rectangle: {self}")

    def contains(self, x: float, y: float) -> bool:
        """Whether the closed rectangle contains the point."""
        return self.x_lo <= x <= self.x_hi and self.y_lo <= y <= self.y_hi

    def forbids(self, x: int, y: int) -> bool:
        """Whether the grid point is forbidden (both transactions hold the lock)."""
        return self.x_lo <= x < self.x_hi and self.y_lo <= y < self.y_hi

    def intersects(self, other: "Rectangle") -> bool:
        """Whether the two closed rectangles share at least one point."""
        return (
            self.x_lo <= other.x_hi
            and other.x_lo <= self.x_hi
            and self.y_lo <= other.y_hi
            and other.y_lo <= self.y_hi
        )

    def intersection(self, other: "Rectangle") -> Optional["Rectangle"]:
        """The closed intersection rectangle, or ``None`` if disjoint."""
        if not self.intersects(other):
            return None
        return Rectangle(
            max(self.x_lo, other.x_lo),
            min(self.x_hi, other.x_hi),
            max(self.y_lo, other.y_lo),
            min(self.y_hi, other.y_hi),
            variable=f"{self.variable}&{other.variable}",
        )

    @property
    def area(self) -> int:
        return (self.x_hi - self.x_lo) * (self.y_hi - self.y_lo)


def _hold_intervals(
    transaction: LockedTransaction, variable: str
) -> List[Tuple[int, int]]:
    """All (lock, unlock) progress intervals of a variable within one transaction.

    Positions count completed actions (1-based): after executing the
    ``lock`` action as its ``k``-th action the transaction's progress is
    ``k`` and the lock is held until progress reaches the position of the
    matching ``unlock``.  A transaction that locks the same variable
    several times (e.g. the auxiliary lock of 2PL') has several intervals.
    """
    intervals: List[Tuple[int, int]] = []
    open_at: Optional[int] = None
    for position, action in enumerate(transaction.actions, start=1):
        if isinstance(action, LockAction) and action.variable == variable:
            open_at = position
        elif isinstance(action, UnlockAction) and action.variable == variable:
            if open_at is not None:
                intervals.append((open_at, position))
                open_at = None
    return intervals


@dataclass
class ProgressSpace:
    """The two-dimensional progress space of a two-transaction locked system."""

    locked_system: LockedTransactionSystem
    width: int
    height: int
    blocks: Tuple[Rectangle, ...]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_locked_system(
        cls, locked_system: LockedTransactionSystem
    ) -> "ProgressSpace":
        if len(locked_system) != 2:
            raise GeometryError(
                "the two-dimensional progress space requires exactly two transactions; "
                "use pairwise_progress_spaces for larger systems"
            )
        t1, t2 = locked_system[0], locked_system[1]
        blocks: List[Rectangle] = []
        shared = t1.lock_variables & t2.lock_variables
        for variable in sorted(shared):
            for (x_lo, x_hi), (y_lo, y_hi) in itertools.product(
                _hold_intervals(t1, variable), _hold_intervals(t2, variable)
            ):
                blocks.append(
                    Rectangle(x_lo, x_hi, y_lo, y_hi, variable=variable)
                )
        return cls(
            locked_system=locked_system,
            width=len(t1),
            height=len(t2),
            blocks=tuple(blocks),
        )

    # ------------------------------------------------------------------
    # point and path queries
    # ------------------------------------------------------------------
    @property
    def origin(self) -> Tuple[int, int]:
        return (0, 0)

    @property
    def finish(self) -> Tuple[int, int]:
        """The point ``F`` where both transactions have completed."""
        return (self.width, self.height)

    def grid_points(self) -> List[Tuple[int, int]]:
        return [
            (x, y) for x in range(self.width + 1) for y in range(self.height + 1)
        ]

    def is_forbidden(self, x: int, y: int) -> bool:
        """Whether the grid point lies inside some block (both hold a lock)."""
        return any(block.forbids(x, y) for block in self.blocks)

    def path_of_schedule(self, schedule: Sequence[StepRef]) -> List[Tuple[int, int]]:
        """The staircase path (sequence of grid points) traced by a schedule of ``L(T)``."""
        schedule = validate_schedule(self.locked_system.format, schedule)
        x, y = 0, 0
        path = [(x, y)]
        for ref in schedule:
            if ref.transaction == 1:
                x += 1
            else:
                y += 1
            path.append((x, y))
        return path

    def schedule_feasible(self, schedule: Sequence[StepRef]) -> bool:
        """Whether the schedule's path avoids every block.

        Equivalent to :func:`repro.locking.lock_manager.is_lock_feasible`
        — the geometric and the operational views agree, which the test
        suite checks exhaustively.
        """
        return all(not self.is_forbidden(x, y) for x, y in self.path_of_schedule(schedule))

    # ------------------------------------------------------------------
    # safety / deadlock analysis
    # ------------------------------------------------------------------
    def safe_points(self) -> Set[Tuple[int, int]]:
        """Grid points from which some monotone path reaches ``F`` avoiding all blocks."""
        safe: Set[Tuple[int, int]] = set()
        for x in range(self.width, -1, -1):
            for y in range(self.height, -1, -1):
                if self.is_forbidden(x, y):
                    continue
                if (x, y) == self.finish:
                    safe.add((x, y))
                    continue
                right_ok = (x + 1, y) in safe
                up_ok = (x, y + 1) in safe
                if right_ok or up_ok:
                    safe.add((x, y))
        return safe

    def deadlock_region(self) -> Set[Tuple[int, int]]:
        """Grid points that are reachable, not forbidden, yet cannot reach ``F``.

        This is region ``D`` of Figure 3: a progress curve entering it is
        trapped (every continuation runs into a block).
        """
        safe = self.safe_points()
        reachable = self.reachable_points()
        return {
            p
            for p in self.grid_points()
            if p in reachable and not self.is_forbidden(*p) and p not in safe
        }

    def reachable_points(self) -> Set[Tuple[int, int]]:
        """Grid points reachable from the origin by monotone moves avoiding blocks."""
        reachable: Set[Tuple[int, int]] = set()
        if not self.is_forbidden(0, 0):
            reachable.add((0, 0))
        for x in range(self.width + 1):
            for y in range(self.height + 1):
                if (x, y) in reachable or self.is_forbidden(x, y):
                    continue
                if (x - 1, y) in reachable or (x, y - 1) in reachable:
                    reachable.add((x, y))
        return reachable

    def has_deadlock(self) -> bool:
        """Whether the locked system can deadlock (non-empty deadlock region)."""
        return bool(self.deadlock_region())

    def count_monotone_paths(self, avoid_blocks: bool = True) -> int:
        """Count monotone staircase paths from ``O`` to ``F``.

        With ``avoid_blocks=True`` this equals the number of lock-feasible
        schedules of ``L(T)``; with ``False`` it is the total number of
        schedules ``|H(L(T))|``.
        """
        counts: Dict[Tuple[int, int], int] = {}
        for x in range(self.width + 1):
            for y in range(self.height + 1):
                if avoid_blocks and self.is_forbidden(x, y):
                    counts[(x, y)] = 0
                    continue
                if x == 0 and y == 0:
                    counts[(x, y)] = 1
                    continue
                total = 0
                if x > 0:
                    total += counts[(x - 1, y)]
                if y > 0:
                    total += counts[(x, y - 1)]
                counts[(x, y)] = total
        return counts[self.finish]

    # ------------------------------------------------------------------
    # block structure: connectivity and the 2PL common point
    # ------------------------------------------------------------------
    def blocks_connected(self) -> bool:
        """Whether the union of the (closed) blocks is connected.

        An empty or single-block arrangement counts as connected.  The
        paper's correctness condition for a locking policy on two
        transactions is that the blocks cannot be separated by a path —
        i.e. their union is connected (so every feasible path is homotopic
        to a boundary path).
        """
        if len(self.blocks) <= 1:
            return True
        adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(self.blocks))}
        for i, j in itertools.combinations(range(len(self.blocks)), 2):
            if self.blocks[i].intersects(self.blocks[j]):
                adjacency[i].add(j)
                adjacency[j].add(i)
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for neighbour in adjacency[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self.blocks)

    def common_point(self) -> Optional[Tuple[float, float]]:
        """A point contained in every block, if one exists (Figure 4(d)).

        For a 2PL-locked system the phase-shift point ``u = (u1, u2)`` —
        the progress values at which each transaction has acquired all its
        locks and released none — lies in every block, which is the
        geometric reason 2PL is correct.
        """
        if not self.blocks:
            return None
        x_lo = max(b.x_lo for b in self.blocks)
        x_hi = min(b.x_hi for b in self.blocks)
        y_lo = max(b.y_lo for b in self.blocks)
        y_hi = min(b.y_hi for b in self.blocks)
        if x_lo > x_hi or y_lo > y_hi:
            return None
        return (float(x_lo), float(y_lo))

    def phase_shift_point(self) -> Optional[Tuple[int, int]]:
        """The phase-shift point of a two-phase locked system (both coordinates).

        Coordinate ``i`` is the progress of transaction ``i`` just after
        its final lock step (all locks granted, none released).  Returns
        ``None`` when a transaction acquires no locks.
        """
        coordinates = []
        for txn in self.locked_system:
            lock_positions = [
                k
                for k, action in enumerate(txn.actions, start=1)
                if isinstance(action, LockAction)
            ]
            if not lock_positions:
                return None
            coordinates.append(max(lock_positions))
        return (coordinates[0], coordinates[1])

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def ascii_render(self, schedule: Optional[Sequence[StepRef]] = None) -> str:
        """A textual picture of the progress space (used by the examples).

        ``#`` marks forbidden points, ``D`` the deadlock region, ``*`` the
        path of the given schedule, ``.`` everything else; the origin is
        the lower-left corner.
        """
        deadlock = self.deadlock_region()
        path = set(self.path_of_schedule(schedule)) if schedule is not None else set()
        rows = []
        for y in range(self.height, -1, -1):
            row = []
            for x in range(self.width + 1):
                if (x, y) in path:
                    row.append("*")
                elif self.is_forbidden(x, y):
                    row.append("#")
                elif (x, y) in deadlock:
                    row.append("D")
                else:
                    row.append(".")
            rows.append(" ".join(row))
        return "\n".join(rows)


def progress_space(locked_system: LockedTransactionSystem) -> ProgressSpace:
    """Build the :class:`ProgressSpace` of a two-transaction locked system."""
    return ProgressSpace.from_locked_system(locked_system)


def pairwise_progress_spaces(
    locked_system: LockedTransactionSystem,
) -> Dict[Tuple[int, int], ProgressSpace]:
    """Progress spaces of every pair of transactions of a larger locked system.

    The exact condition for correctness in higher dimensions is "somewhat
    less trivial" (Section 5.3); the pairwise projections are the
    standard conservative view.
    """
    spaces: Dict[Tuple[int, int], ProgressSpace] = {}
    for i, j in itertools.combinations(range(1, len(locked_system) + 1), 2):
        restricted = LockedTransactionSystem(
            original=_restrict_system(locked_system, (i, j)),
            locked=(locked_system[i - 1], locked_system[j - 1]),
            policy_name=locked_system.policy_name,
        )
        spaces[(i, j)] = ProgressSpace.from_locked_system(restricted)
    return spaces


def _restrict_system(locked_system, indices: Tuple[int, int]):
    return TransactionSystem(
        tuple(locked_system.original.transactions[i - 1] for i in indices),
        name=f"{locked_system.original.name}|{indices}",
    )


# ----------------------------------------------------------------------
# Homotopy: serializability by elementary transformations (Figure 4(b))
# ----------------------------------------------------------------------


def schedules_homotopic_to_serial(
    locked_system: LockedTransactionSystem,
) -> Set[Schedule]:
    """All lock-feasible schedules homotopic to some serial schedule.

    Computed by a single breadth-first search that starts from every serial
    schedule and applies elementary transformations while staying inside
    the lock-feasible set.  Far cheaper than calling
    :func:`homotopic_to_serial` per schedule when a whole system is being
    classified (the exhaustive experiments do exactly that).
    """
    fmt = locked_system.format
    feasible = set(lock_feasible_schedules(locked_system))
    frontier: deque = deque(
        s for s in all_serial_schedules(fmt) if s in feasible
    )
    reached: Set[Schedule] = set(frontier)
    while frontier:
        current = frontier.popleft()
        for neighbour in adjacent_swaps(fmt, current):
            if neighbour in reached or neighbour not in feasible:
                continue
            reached.add(neighbour)
            frontier.append(neighbour)
    return reached


def homotopic_to_serial(
    locked_system: LockedTransactionSystem,
    schedule: Sequence[StepRef],
    max_expansions: int = 200_000,
) -> bool:
    """Whether a lock-feasible schedule can be deformed into a serial schedule.

    The deformation moves are *elementary transformations*: interchanges
    of neighbouring steps belonging to different transactions, restricted
    so that every intermediate schedule remains lock-feasible (its path
    never passes through a forbidden block).  The paper's claim — checked
    exhaustively in the test suite — is that a schedule of a well-formed
    locked system is serializable iff it is homotopic to a serial
    schedule in this sense.
    """
    fmt = locked_system.format
    start = validate_schedule(fmt, schedule)
    if not is_lock_feasible(locked_system, start):
        raise GeometryError("homotopy is only defined for lock-feasible schedules")
    if is_serial(fmt, start):
        return True
    seen: Set[Schedule] = {start}
    frontier: deque = deque([start])
    expansions = 0
    while frontier:
        current = frontier.popleft()
        for neighbour in adjacent_swaps(fmt, current):
            if neighbour in seen:
                continue
            if not is_lock_feasible(locked_system, neighbour):
                continue
            if is_serial(fmt, neighbour):
                return True
            seen.add(neighbour)
            frontier.append(neighbour)
            expansions += 1
            if expansions > max_expansions:
                raise GeometryError(
                    "homotopy search exceeded the expansion budget; "
                    "the system is too large for the exhaustive check"
                )
    return False

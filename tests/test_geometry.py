"""Experiment E7: the geometry of locking (Figure 3) — blocks, deadlock region, paths."""

import pytest

from repro.core.schedules import all_schedules, count_schedules, serial_schedule
from repro.core.transactions import TransactionSystem, make_system
from repro.locking.geometry import (
    GeometryError,
    ProgressSpace,
    Rectangle,
    pairwise_progress_spaces,
    progress_space,
)
from repro.locking.lock_manager import is_lock_feasible, lock_feasible_schedules
from repro.locking.two_phase import NoLockingPolicy, TwoPhaseLockingPolicy


class TestRectangle:
    def test_contains_closed_boundaries(self):
        rect = Rectangle(1, 3, 2, 4)
        assert rect.contains(1, 2) and rect.contains(3, 4)
        assert not rect.contains(0.5, 3)

    def test_forbids_is_half_open(self):
        rect = Rectangle(1, 3, 2, 4)
        assert rect.forbids(1, 2)
        assert not rect.forbids(3, 4)

    def test_intersection(self):
        a = Rectangle(0, 2, 0, 2)
        b = Rectangle(1, 3, 1, 3)
        c = Rectangle(5, 6, 5, 6)
        assert a.intersects(b)
        inter = a.intersection(b)
        assert (inter.x_lo, inter.x_hi, inter.y_lo, inter.y_hi) == (1, 2, 1, 2)
        assert not a.intersects(c) and a.intersection(c) is None

    def test_degenerate_rectangle_rejected(self):
        with pytest.raises(GeometryError):
            Rectangle(3, 1, 0, 1)

    def test_area(self):
        assert Rectangle(1, 4, 3, 6).area == 9


class TestProgressSpaceConstruction:
    def test_requires_two_transactions(self, banking):
        locked = TwoPhaseLockingPolicy()(banking.system)
        with pytest.raises(GeometryError):
            ProgressSpace.from_locked_system(locked)

    def test_counter_pair_produces_two_blocks(self, counter_pair):
        space = progress_space(TwoPhaseLockingPolicy()(counter_pair))
        assert len(space.blocks) == 2
        assert {b.variable for b in space.blocks} == {"lock:x", "lock:y"}
        assert space.width == space.height == 6  # 2 accesses + 2 locks + 2 unlocks

    def test_no_locking_produces_no_blocks(self, counter_pair):
        space = progress_space(NoLockingPolicy()(counter_pair))
        assert space.blocks == ()
        assert not space.has_deadlock()

    def test_disjoint_transactions_produce_no_blocks(self):
        system = make_system(["x"], ["y"])
        space = progress_space(TwoPhaseLockingPolicy()(system))
        assert space.blocks == ()


class TestPathsAndFeasibility:
    def test_path_starts_at_origin_and_ends_at_finish(self, counter_pair):
        locked = TwoPhaseLockingPolicy()(counter_pair)
        space = progress_space(locked)
        schedule = serial_schedule(locked.format, [1, 2])
        path = space.path_of_schedule(schedule)
        assert path[0] == space.origin
        assert path[-1] == space.finish
        assert len(path) == sum(locked.format) + 1

    def test_geometric_feasibility_matches_lock_manager(self, counter_pair):
        locked = TwoPhaseLockingPolicy()(counter_pair)
        space = progress_space(locked)
        for schedule in all_schedules(locked.format):
            assert space.schedule_feasible(schedule) == is_lock_feasible(
                locked, schedule
            )

    def test_path_count_matches_feasible_schedule_count(self, counter_pair):
        locked = TwoPhaseLockingPolicy()(counter_pair)
        space = progress_space(locked)
        assert space.count_monotone_paths(avoid_blocks=True) == len(
            lock_feasible_schedules(locked)
        )
        assert space.count_monotone_paths(avoid_blocks=False) == count_schedules(
            locked.format
        )


class TestDeadlockRegion:
    def test_opposite_lock_orders_create_deadlock_region(self, counter_pair):
        # T1 locks x then y, T2 locks y then x: the classic Figure 3 deadlock.
        space = progress_space(TwoPhaseLockingPolicy()(counter_pair))
        region = space.deadlock_region()
        assert region, "expected a non-empty deadlock region"
        assert space.has_deadlock()
        # the region sits strictly between the origin and the blocks
        assert all(0 < x < space.width and 0 < y < space.height for x, y in region)

    def test_same_lock_order_has_no_deadlock(self):
        system = make_system(["x", "y"], ["x", "y"])
        space = progress_space(TwoPhaseLockingPolicy()(system))
        assert not space.has_deadlock()

    def test_deadlock_points_are_reachable_but_unsafe(self, counter_pair):
        space = progress_space(TwoPhaseLockingPolicy()(counter_pair))
        safe = space.safe_points()
        reachable = space.reachable_points()
        for point in space.deadlock_region():
            assert point in reachable
            assert point not in safe
            assert not space.is_forbidden(*point)

    def test_origin_and_finish_are_safe_and_reachable(self, counter_pair):
        space = progress_space(TwoPhaseLockingPolicy()(counter_pair))
        assert space.origin in space.safe_points()
        assert space.finish in space.safe_points()
        assert space.finish in space.reachable_points()


class TestBlockStructure:
    def test_2pl_blocks_share_the_phase_shift_point(self, counter_pair):
        space = progress_space(TwoPhaseLockingPolicy()(counter_pair))
        common = space.common_point()
        assert common is not None
        assert all(block.contains(*common) for block in space.blocks)
        assert space.blocks_connected()

    def test_phase_shift_point_inside_every_block(self, counter_pair):
        space = progress_space(TwoPhaseLockingPolicy()(counter_pair))
        u = space.phase_shift_point()
        assert u is not None
        for block in space.blocks:
            assert block.contains(*u)

    def test_ascii_render_marks_blocks_and_deadlock(self, counter_pair):
        space = progress_space(TwoPhaseLockingPolicy()(counter_pair))
        picture = space.ascii_render()
        assert "#" in picture and "D" in picture
        rows = picture.splitlines()
        assert len(rows) == space.height + 1

    def test_ascii_render_overlays_schedule_path(self, counter_pair):
        locked = TwoPhaseLockingPolicy()(counter_pair)
        space = progress_space(locked)
        picture = space.ascii_render(serial_schedule(locked.format, [1, 2]))
        assert "*" in picture


class TestPairwiseProgressSpaces:
    def test_each_pair_is_the_two_transaction_space(self):
        """Three transactions: one progress space per pair, each the space
        of that pair locked on its own."""
        system = make_system(["x", "y"], ["y", "z"], ["x", "z"])
        spaces = pairwise_progress_spaces(TwoPhaseLockingPolicy()(system))
        assert sorted(spaces) == [(1, 2), (1, 3), (2, 3)]
        for (i, j), space in spaces.items():
            pair = TransactionSystem(
                [system.transactions[i - 1], system.transactions[j - 1]]
            )
            alone = progress_space(TwoPhaseLockingPolicy()(pair))
            assert space.blocks == alone.blocks
            assert (space.width, space.height) == (alone.width, alone.height)
        # each pair shares exactly one variable, hence exactly one rectangle
        assert [spaces[pair].blocks[0].variable for pair in sorted(spaces)] == [
            "lock:y",
            "lock:x",
            "lock:z",
        ]

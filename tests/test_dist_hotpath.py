"""The distributed hot path stays short; ``tests/pins.py`` pins its behaviour.

* **The chaos cells inject**, or their pins would pin nothing.
* **Call budget.**  Python-level calls on the benchmark's
  ``dist-repl-chaos`` smoke shape, counted with ``sys.setprofile`` —
  deterministic, no wall clock — per committed transaction and per
  dispatched network event.  Since each replicated entry goes to each
  follower once, the budget is stated in work per *commit*: the events
  that change removed are the cheapest ones (a duplicate append and its
  no-op ack), so calls per event *rose* (8.65 -> 9.49 over 8,993 ->
  6,200 events) while calls per commit fell (1,296 -> 981); the
  per-event figure stays as a ceiling.  A flat twin holds the
  ``dist-2pc-flat`` smoke shape the same way: planning each 2PC
  admission once took it from 187.2 to 137.7 calls per commit and from
  12.67 to 9.32 per event.  Running this file as a script
  (``PYTHONPATH=src python tests/test_dist_hotpath.py``) prints both
  shapes' figures.
"""

import pytest

from pins import TOPOLOGIES, run_dist_cell
from test_engine_hotpath import count_python_calls

from repro.dist.engine import DistributedEngine
from repro.dist.replication import ReplicaCrashSpec
from repro.dist.tpc import TpcConfig
from repro.engine.faults import NetworkFaultSpec
from repro.engine.workloads import cross_shard_transfer_workload, dist_shard_of


class TestInvisibility:
    def test_the_chaos_cells_really_inject(self):
        # a pin over a run in which nothing went wrong would pin nothing
        engine, report, sent = run_dist_cell("repl", "loss-dup", 5)
        counts = report.metrics.count
        assert counts("dist.net.dropped") > 0 and counts("dist.net.duplicated") > 0
        assert len(engine.network.fault_plan.events) == 30
        assert sent["repl-append"] > 0 and sent["prepare"] > 0
        _, report, _ = run_dist_cell("repl", "partition", 5)
        assert report.metrics.count("dist.repl.unavail") > 0
        _, report, _ = run_dist_cell("repl", "leader-crash", 5)
        assert report.metrics.count("dist.repl.crashes") == 2
        _, report, _ = run_dist_cell("flat", "coord-crash", 5)
        assert report.metrics.count("dist.coordinator_crashes") >= 1
        for topology in TOPOLOGIES:
            _, report, _ = run_dist_cell(topology, "degraded", 5)
            counts = report.metrics.count
            assert counts("dist.shed") > 0 and counts("dist.backlogged") > 0


# ----------------------------------------------------------------------
# the call budget
# ----------------------------------------------------------------------


def _bench_smoke_chaos():
    # bench/workloads.py's "smoke" sizing of dist-repl-chaos, seed 0
    initial, specs = cross_shard_transfer_workload(
        num_shards=3,
        accounts_per_shard=16,
        num_transactions=60,
        cross_fraction=0.8,
        seed=0,
    )
    engine = DistributedEngine(
        initial,
        num_shards=3,
        shard_of=dist_shard_of,
        seed=0,
        config=TpcConfig(client_max_attempts=16),
        replicas=3,
        network_faults=NetworkFaultSpec(
            loss_probability=0.05, duplicate_probability=0.02, seed=0
        ),
        replica_crashes=[
            ReplicaCrashSpec(shard=f"shard{index}", at=at, restart_delay=12.0)
            for index, at in enumerate((25.0, 225.0, 425.0))
        ],
    )
    return engine, specs


def _bench_smoke_flat():
    # bench/workloads.py's "smoke" sizing of dist-2pc-flat, seed 0
    initial, specs = cross_shard_transfer_workload(
        num_shards=4,
        accounts_per_shard=64,
        num_transactions=60,
        cross_fraction=0.8,
        seed=0,
    )
    engine = DistributedEngine(
        initial,
        num_shards=4,
        shard_of=dist_shard_of,
        seed=0,
        config=TpcConfig(client_max_attempts=16),
    )
    return engine, specs


class TestCallBudget:
    """The ``dist-repl-chaos`` smoke shape."""

    shape = staticmethod(_bench_smoke_chaos)
    #: leader crashes the run must show: a budget over a run whose
    #: faults never fired would budget nothing
    CRASHES = 3
    #: calls per committed transaction on this shape before ISSUE 18
    PARENT_PER_COMMIT = 1296.0
    #: the post-change figure (980.8) + 5%
    PER_COMMIT_BUDGET = 1030.0
    #: the post-change calls per dispatched event (9.49) + 5%
    PER_EVENT_CEILING = 10.0

    @pytest.fixture(scope="class")
    def measured(self):
        engine, specs = self.shape()
        calls, _, report = count_python_calls(lambda: engine.run(specs))
        assert report.commit_count == len(specs)
        assert report.metrics.count("dist.repl.crashes") == self.CRASHES
        return calls, report

    def test_calls_per_commit_on_the_bench_smoke_shape(self, measured):
        calls, report = measured
        per_commit = calls / report.commit_count
        assert self.PER_COMMIT_BUDGET <= 0.8 * self.PARENT_PER_COMMIT
        assert per_commit <= self.PER_COMMIT_BUDGET, (
            f"{per_commit:.0f} Python calls per committed transaction (budget "
            f"{self.PER_COMMIT_BUDGET:.0f}): the distributed path sends or does more"
        )

    def test_calls_per_dispatched_event_on_the_bench_smoke_shape(self, measured):
        calls, report = measured
        per_event = calls / report.events_dispatched
        assert per_event <= self.PER_EVENT_CEILING, (
            f"{per_event:.2f} Python calls per dispatched event (ceiling "
            f"{self.PER_EVENT_CEILING}): the distributed hot path grew back"
        )


class TestFlatCallBudget(TestCallBudget):
    """The ``dist-2pc-flat`` smoke shape: the coordinator's own cost."""

    shape = staticmethod(_bench_smoke_flat)
    CRASHES = 0
    #: calls per committed transaction on this shape before each 2PC
    #: admission was planned once
    PARENT_PER_COMMIT = 187.2
    #: the post-change figure (137.7) + 5%
    PER_COMMIT_BUDGET = 145.0
    #: the post-change calls per dispatched event (9.32) + 5%
    PER_EVENT_CEILING = 9.8


if __name__ == "__main__":
    for budget in (TestCallBudget, TestFlatCallBudget):
        engine, specs = budget.shape()
        calls, _, report = count_python_calls(lambda: engine.run(specs))
        print(f"# {budget.__name__}")
        print(f"# calls per commit: {calls / report.commit_count:.1f}")
        print(f"# calls per dispatched event: {calls / report.events_dispatched:.2f}")

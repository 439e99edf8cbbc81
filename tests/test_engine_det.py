"""Tests for the deterministic (Calvin-style) protocol family.

Three layers, mirroring how the other protocol suites are organised:

* **sequencer units** — the epoch sequencer's admission order, the
  linked live list (earliest/predecessor queries), and epoch drain
  accounting;
* **direct protocol driving** — the deterministic grant rules one
  decision at a time: reads gate on earlier writers, writes always
  grant, the commit gate drains in sequence order, the epoch barrier
  separates ``det-epoch`` from ``det-slot``, and the two abort codes
  (reconnaissance and undeclared access) surface with the right
  taxonomy entries — the ``tests/test_obs_trace.py`` pattern;
* **engine integration** — full batches through the kernel: everything
  commits with zero protocol aborts, traces carry epoch/slot metadata,
  the harness cell conforms, the hotspot contrast against strict 2PL
  and OCC under one retry budget holds, and the deterministic oracle
  both passes on honest runs and catches seeded violations.
"""

import pytest

from repro.engine.protocols.base import ConcurrencyControl
from repro.engine.protocols.deterministic import (
    DeterministicEpoch,
    DeterministicLockScheduler,
    DeterministicSlotted,
)
from repro.engine.protocols.registry import PROTOCOL_ENTRIES
from repro.engine.protocols.sequencer import EpochSequencer
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.reasons import (
    ABORT_DET_RECON,
    ABORT_DET_UNDECLARED,
    ABORT_REASONS,
)
from repro.engine.runtime import run_batch
from repro.engine.storage import DataStore
from repro.engine.workloads import epoch_batched_workload, hotspot_queue_workload
from repro.harness.oracles import deterministic_verdicts, evaluate_run
from repro.harness.runner import run_cell
from repro.harness.scenarios import build_scenario
from repro.obs.trace import TraceRecorder

import repro.obs.trace as ev


# ----------------------------------------------------------------------
# sequencer units
# ----------------------------------------------------------------------
class TestEpochSequencer:
    def test_admission_assigns_dense_epoch_slot_coordinates(self):
        seq = EpochSequencer(epoch_size=4)
        tickets = [seq.admit(txn, {"a"}, {"b"}) for txn in range(10, 16)]
        assert [t.seq for t in tickets] == [0, 1, 2, 3, 4, 5]
        assert [t.epoch for t in tickets] == [0, 0, 0, 0, 1, 1]
        assert [t.slot for t in tickets] == [0, 1, 2, 3, 0, 1]
        assert seq.admitted == 6

    def test_duplicate_admission_is_rejected(self):
        seq = EpochSequencer()
        seq.admit(1, {"a"}, set())
        with pytest.raises(ValueError, match="already holds a ticket"):
            seq.admit(1, {"a"}, set())

    def test_epoch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            EpochSequencer(epoch_size=0)

    def test_live_list_queries(self):
        seq = EpochSequencer(epoch_size=2)
        t0, t1, t2 = (seq.admit(txn, set(), {"k"}) for txn in (7, 8, 9))
        assert seq.earliest_live() is t0
        assert seq.live_predecessor(t2) is t1
        # retiring the middle element splices the list
        assert seq.retire(8) is t1
        assert not t1.live
        assert seq.live_predecessor(t2) is t0
        assert seq.retire(8) is None  # idempotent
        seq.retire(7)
        assert seq.earliest_live() is t2
        assert seq.live_predecessor(t2) is None
        # tickets are retained after retirement (oracles replay them)
        assert seq.tickets[8] is t1

    def test_drained_epochs_follows_the_live_head(self):
        seq = EpochSequencer(epoch_size=2)
        for txn in range(4):
            seq.admit(txn, set(), {"k"})
        assert seq.drained_epochs == 0
        seq.retire(0)
        assert seq.drained_epochs == 0  # seq 1 still live in epoch 0
        seq.retire(1)
        assert seq.drained_epochs == 1
        seq.retire(2)
        seq.retire(3)
        assert seq.drained_epochs == 2


# ----------------------------------------------------------------------
# direct protocol driving
# ----------------------------------------------------------------------
def _protocol(cls=DeterministicSlotted, epoch_size=8, initial=None):
    store = DataStore(initial or {"a": 0, "b": 0, "c": 0})
    return cls(store, epoch_size=epoch_size)


class TestDeterministicGrantRules:
    def test_read_blocks_on_earlier_writer_then_grants(self):
        proto = _protocol()
        proto.begin(1)
        proto.begin(2)
        proto.declare_footprint(1, set(), {"a"})
        proto.declare_footprint(2, {"a"}, set())
        decision = proto.read(2, "a")
        assert decision.blocked
        assert decision.blocked_on == (1,)
        proto.write(1, "a", 41)
        assert proto.commit(1).granted
        granted = proto.read(2, "a")
        assert granted.granted
        assert granted.value == 41  # the earlier writer's install is visible

    def test_reads_do_not_block_on_earlier_readers_or_later_writers(self):
        proto = _protocol()
        proto.begin(1)
        proto.begin(2)
        proto.begin(3)
        proto.declare_footprint(1, {"a"}, set())
        proto.declare_footprint(2, {"a"}, set())
        proto.declare_footprint(3, set(), {"a"})
        # T2 reads past the earlier reader T1; the writer T3 is *later*
        # in the order, so it cannot gate T2 either
        assert proto.read(2, "a").granted

    def test_writes_always_grant(self):
        proto = _protocol()
        proto.begin(1)
        proto.begin(2)
        proto.declare_footprint(1, set(), {"a"})
        proto.declare_footprint(2, set(), {"a"})
        # both buffered immediately; install order comes from the gate
        assert proto.write(1, "a", 1).granted
        assert proto.write(2, "a", 2).granted

    def test_commit_gate_drains_in_sequence_order(self):
        proto = _protocol()
        for txn in (1, 2, 3):
            proto.begin(txn)
            proto.declare_footprint(txn, set(), {"a"})
            proto.write(txn, "a", txn * 10)
        blocked = proto.commit(3)
        assert blocked.blocked
        assert blocked.blocked_on == (2,)
        assert proto.commit(2).blocked  # gated on T1
        assert proto.commit(1).granted
        assert proto.commit(2).granted
        assert proto.commit(3).granted
        assert proto.store.snapshot()["a"] == 30  # installs in seq order
        assert [txn for _, txn, _ in proto.committed_log()] == [1, 2, 3]

    def test_abort_of_predecessor_unblocks_the_gate(self):
        proto = _protocol()
        for txn in (1, 2):
            proto.begin(txn)
            proto.declare_footprint(txn, set(), {"a"})
        assert proto.commit(2).blocked
        proto.abort(1)  # e.g. an injected fault — the order just closes up
        assert proto.commit(2).granted

    def test_undeclared_transaction_aborts_with_taxonomy_code(self):
        proto = _protocol()
        proto.begin(1)  # begun but never declared
        decision = proto.read(1, "a")
        assert decision.aborted
        assert decision.code == ABORT_DET_UNDECLARED
        assert proto.metrics.count("protocol.aborts") == 1

    def test_footprint_under_declaration_is_a_recon_abort(self):
        proto = _protocol()
        proto.begin(1)
        proto.declare_footprint(1, {"a"}, {"b"})
        decision = proto.read(1, "c")  # key not in the declared footprint
        assert decision.aborted
        assert decision.code == ABORT_DET_RECON
        # a write needs *write* declaration: a declared read is not enough
        proto.begin(2)
        proto.declare_footprint(2, {"a"}, set())
        decision = proto.write(2, "a", 1)
        assert decision.aborted
        assert decision.code == ABORT_DET_RECON
        assert proto.metrics.count("det.recon_aborts") == 2
        # reads may use either set: a declared *write* covers a read
        proto.begin(3)
        proto.declare_footprint(3, set(), {"a"})
        assert proto.read(3, "a").granted

    def test_det_codes_are_in_the_abort_taxonomy(self):
        assert ABORT_DET_RECON in ABORT_REASONS
        assert ABORT_DET_UNDECLARED in ABORT_REASONS
        assert ABORT_DET_RECON.startswith("det-epoch-")
        assert ABORT_DET_UNDECLARED.startswith("det-epoch-")

    def test_reactive_protocols_refuse_footprint_declarations(self):
        store = DataStore({"a": 0})
        proto = StrictTwoPhaseLocking(store)
        proto.begin(1)
        assert proto.deterministic is False
        with pytest.raises(NotImplementedError, match="not a deterministic"):
            proto.declare_footprint(1, {"a"}, set())


class TestEpochBarrier:
    def _pair(self, cls):
        proto = _protocol(cls, epoch_size=2)
        # epoch 0: T1, T2 — epoch 1: T3; disjoint keys, so only the
        # barrier (never a key conflict) can make T3 wait
        for txn, (reads, writes) in {
            1: (set(), {"a"}),
            2: (set(), {"b"}),
            3: ({"c"}, set()),
        }.items():
            proto.begin(txn)
            proto.declare_footprint(txn, reads, writes)
        return proto

    def test_det_epoch_holds_data_ops_behind_draining_epochs(self):
        proto = self._pair(DeterministicEpoch)
        decision = proto.read(3, "c")
        assert decision.blocked
        assert decision.blocked_on == (1,)  # the earliest live member
        for txn in (1, 2):
            proto.commit(txn)
        assert proto.read(3, "c").granted

    def test_det_slot_pipelines_across_the_epoch_boundary(self):
        proto = self._pair(DeterministicSlotted)
        assert proto.read(3, "c").granted  # no barrier, no key conflict


# ----------------------------------------------------------------------
# engine integration
# ----------------------------------------------------------------------
def _batched_run(cls, **kwargs):
    initial, specs = epoch_batched_workload(num_epochs=4, epoch_size=4, seed=3)
    store = DataStore(initial)
    proto = cls(store, epoch_size=4)  # align protocol epochs with the batch
    result = run_batch(lambda _: proto, store, specs, **kwargs)
    return proto, result, specs


class TestKernelIntegration:
    @pytest.mark.parametrize("cls", [DeterministicEpoch, DeterministicSlotted])
    def test_batch_commits_everything_without_protocol_aborts(self, cls):
        proto, result, specs = _batched_run(cls, interleaving="random", seed=11)
        assert result.committed == len(specs)
        assert result.aborted_attempts == 0
        assert result.metrics is proto.metrics  # the run's own registry
        assert proto.metrics.count("protocol.aborts") == 0
        assert proto.metrics.count("det.recon_aborts") == 0
        tickets = proto.sequencer.tickets
        seqs = [tickets[txn].seq for _, txn, _ in proto.committed_log()]
        assert seqs == sorted(seqs)  # commit order == epoch order

    def test_slotted_variant_blocks_no_more_than_the_barrier(self):
        epoch_proto, epoch_result, _ = _batched_run(
            DeterministicEpoch, interleaving="round-robin"
        )
        slot_proto, slot_result, _ = _batched_run(
            DeterministicSlotted, interleaving="round-robin"
        )
        assert slot_result.blocks <= epoch_result.blocks
        # pipelining must not change the outcome, only the waiting
        assert slot_proto.store.snapshot() == epoch_proto.store.snapshot()

    def test_traces_carry_epoch_and_slot_metadata(self):
        recorder = TraceRecorder()
        proto, result, specs = _batched_run(
            DeterministicEpoch, interleaving="round-robin", tracer=recorder
        )
        begins = [e for e in recorder.events if e.etype == ev.BEGIN]
        commits = [e for e in recorder.events if e.etype == ev.COMMIT]
        assert len(begins) == len(specs)
        for event in begins:
            ticket = proto.sequencer.tickets[event.txn_id]
            assert event.meta["epoch"] == ticket.epoch
            assert event.meta["slot"] == ticket.slot
        assert len(commits) == len(specs)
        # the committed trace replays the epoch order: (epoch, slot)
        # coordinates are non-decreasing lexicographically
        coords = [(e.meta["epoch"], e.meta["slot"]) for e in commits]
        assert coords == sorted(coords)

    def test_metrics_count_admissions_and_drained_epochs(self):
        proto, _, specs = _batched_run(DeterministicEpoch, interleaving="round-robin")
        snapshot = proto.metrics.snapshot()
        assert snapshot["det.admitted"] == len(specs)
        assert snapshot["det.epochs_drained"] == 4

    @pytest.mark.parametrize("name", ["det-epoch", "det-slot"])
    def test_harness_cell_conforms(self, name):
        entry = PROTOCOL_ENTRIES[name]
        scenario = build_scenario(3, quick=True, with_faults=False)
        outcome = run_cell(entry, scenario, "executor", quick=True)
        oracle_names = [v.oracle for v in outcome.verdicts]
        assert "det-epoch-order" in oracle_names
        assert "det-no-protocol-aborts" in oracle_names
        assert all(v.ok for v in outcome.verdicts if v.required), outcome.verdicts

    def test_reactive_protocols_do_not_get_det_verdicts(self):
        scenario = build_scenario(3, quick=True, with_faults=False)
        entry = PROTOCOL_ENTRIES["strict-2pl"]
        outcome = run_cell(entry, scenario, "executor", quick=True)
        assert "det-epoch-order" not in [v.oracle for v in outcome.verdicts]


class TestHotspotContrast:
    """Full information against the reactive poles at a write hotspot.

    200 single-key transactions of 48 blind writes, 90% of them queueing
    zipfian on 4 hot keys, round-robin, with one retry budget of 12
    attempts for every protocol.  The sequencer knows every footprint up
    front, so conflicts are resolved by epoch order, never discovered;
    strict 2PL discovers the queue lock by lock but the single-key
    footprints cannot deadlock; OCC discovers the same conflicts at
    validation and part of the batch runs out of attempts.
    """

    PROTOCOLS = ("det-epoch", "det-slot", "strict-2pl", "occ-parallel")
    DETERMINISTIC = ("det-epoch", "det-slot")
    NUM_TRANSACTIONS = 200

    def test_deterministic_commits_where_occ_thrashes(self):
        initial, specs = hotspot_queue_workload(
            num_transactions=self.NUM_TRANSACTIONS,
            ops_per_transaction=48,
            num_hot=4,
            hotspot_probability=0.9,
            zipf_theta=0.8,
            seed=7,
        )
        runs = {}
        for name in self.PROTOCOLS:
            store = DataStore(initial)
            protocol = PROTOCOL_ENTRIES[name].factory(store)
            result = run_batch(
                lambda _, protocol=protocol: protocol,
                store,
                specs,
                interleaving="round-robin",
                seed=7,
                max_attempts=12,
            )
            assert result.committed_serializable, name
            runs[name] = protocol, result

        for name in self.DETERMINISTIC + ("strict-2pl",):
            _, result = runs[name]
            assert result.committed == self.NUM_TRANSACTIONS, name
            assert result.restarts == 0 and result.gave_up == 0, name

        # the determinism claim: zero protocol aborts, commits in sequence order
        for name in self.DETERMINISTIC:
            protocol, result = runs[name]
            assert result.aborted_attempts == 0, name
            assert result.metrics.count("protocol.aborts") == 0, name
            assert result.metrics.count("det.recon_aborts") == 0, name
            tickets = protocol.sequencer.tickets
            seqs = [tickets[txn].seq for _, txn, _ in protocol.committed_log()]
            assert seqs == sorted(seqs), name

        _, occ = runs["occ-parallel"]
        assert occ.restarts > self.NUM_TRANSACTIONS
        assert occ.gave_up > 0
        assert occ.committed < self.NUM_TRANSACTIONS

        # pipelining changes waiting, never outcomes
        epoch_protocol, epoch_result = runs["det-epoch"]
        slot_protocol, slot_result = runs["det-slot"]
        assert slot_result.blocks <= epoch_result.blocks
        assert slot_protocol.store.snapshot() == epoch_protocol.store.snapshot()


class TestDeterministicOracle:
    def test_flags_a_commit_order_inversion(self):
        proto = _protocol()
        for txn in (1, 2):
            proto.begin(txn)
            proto.declare_footprint(txn, set(), {"a"})
        # forge the violation the gate exists to prevent: T2 (seq 1)
        # recorded as committing before T1 (seq 0)
        proto.history.extend([(0, 2, []), (1, 1, [])])
        verdicts = {v.oracle: v for v in deterministic_verdicts(proto)}
        assert not verdicts["det-epoch-order"].ok
        assert "seq" in verdicts["det-epoch-order"].detail

    def test_flags_protocol_aborts(self):
        proto = _protocol()
        proto.begin(1)
        proto.read(1, "a")  # undeclared: a protocol-issued abort
        verdicts = {v.oracle: v for v in deterministic_verdicts(proto)}
        assert not verdicts["det-no-protocol-aborts"].ok
        assert verdicts["det-epoch-order"].ok  # nothing committed yet

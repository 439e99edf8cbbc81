"""The contention profiler, the Chrome exporter and the obs CLI."""

import json

import pytest

from repro.engine.protocols.registry import get_entry
from repro.engine.protocols.two_phase_locking import StrictTwoPhaseLocking
from repro.engine.reasons import ABORT_LOCK_DEADLOCK, ABORT_REASONS
from repro.engine.runtime import run_batch
from repro.engine.storage import DataStore, ShardedDataStore
from repro.engine.workloads import (
    hotspot_queue_workload,
    partitioned_workload,
    zipfian_hotspot_workload,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.chrome import chrome_trace
from repro.obs.profile import ContentionProfile, phase_slices, render_timeline
from repro.obs.trace import TraceRecorder

import repro.obs.trace as ev


def _traced(protocol_name="strict-2pl", seed=5, workload="hotspot"):
    if workload == "hotspot":
        initial, specs = hotspot_queue_workload(
            num_transactions=50, ops_per_transaction=8, seed=seed
        )
    else:
        initial, specs = zipfian_hotspot_workload(num_transactions=50, seed=seed)
    recorder = TraceRecorder()
    run_batch(
        get_entry(protocol_name).factory,
        DataStore(initial),
        specs,
        seed=seed,
        tracer=recorder,
    )
    return recorder


# ----------------------------------------------------------------------
# phase slicing
# ----------------------------------------------------------------------


class TestPhaseSlices:
    def test_slices_partition_each_sessions_lifetime(self):
        recorder = _traced()
        slices = phase_slices(recorder.events)
        assert slices
        by_session = {}
        for phase_slice in slices:
            by_session.setdefault(phase_slice.session_id, []).append(phase_slice)
        for session_slices in by_session.values():
            for earlier, later in zip(session_slices, session_slices[1:]):
                # contiguous and non-overlapping, in trace order
                assert earlier.end <= later.start
            assert all(s.duration >= 0 for s in session_slices)

    def test_blocked_slices_carry_the_contended_key(self):
        recorder = _traced()
        blocked = [s for s in phase_slices(recorder.events) if s.phase == "blocked"]
        assert blocked
        assert all(s.key is not None for s in blocked)

    def test_empty_stream_yields_no_slices(self):
        assert phase_slices([]) == []


# ----------------------------------------------------------------------
# the contention profile
# ----------------------------------------------------------------------


class TestContentionProfile:
    def test_hot_keys_match_the_workload_hot_set(self):
        recorder = _traced()
        profile = ContentionProfile.from_events(recorder.events)
        hot = profile.hot_keys(4)
        assert hot
        # the hotspot workload hammers keys h0..h3; the hottest key must
        # come from that set and carry real wait time and blockers
        assert hot[0].key.startswith("h")
        assert hot[0].blocks > 0
        assert hot[0].wait_time > 0
        assert hot[0].blockers

    def test_abort_summary_uses_the_taxonomy(self):
        recorder = _traced(workload="zipfian")
        profile = ContentionProfile.from_events(recorder.events)
        rows = profile.abort_summary()
        assert rows
        for code, count, description in rows:
            assert code in ABORT_REASONS
            assert count > 0
            assert description == ABORT_REASONS[code]
        assert profile.abort_codes[ABORT_LOCK_DEADLOCK] > 0

    def test_phase_histograms_fill(self):
        recorder = _traced()
        profile = ContentionProfile.from_events(recorder.events)
        assert profile.phase_histograms["running"].count > 0
        assert profile.phase_histograms["blocked"].count > 0
        assert profile.commits == 50

    def test_renderers_return_text(self):
        recorder = _traced(workload="zipfian")
        profile = ContentionProfile.from_events(recorder.events)
        summary = profile.render_summary()
        assert "hot keys" in summary
        assert "abort taxonomy" in summary
        assert "phase latencies" in summary
        timeline = render_timeline(recorder.events, limit=5)
        assert "begin" in timeline
        assert "(truncated)" in timeline

    def test_profile_folds_spans(self):
        from repro.obs.trace import Span

        profile = ContentionProfile.from_events(
            [], spans=[Span("shard.pickle", 0.0, 0.5), Span("shard.pickle", 1.0, 0.25)]
        )
        assert profile.span_counts["shard.pickle"] == 2
        assert profile.span_totals["shard.pickle"] == pytest.approx(0.75)
        assert "shard.pickle" in profile.render_spans()


# ----------------------------------------------------------------------
# parallel-runner spans
# ----------------------------------------------------------------------


class TestParallelSpans:
    def test_parallel_runner_records_ipc_spans(self):
        from repro.engine.parallel import ParallelShardRunner
        from repro.engine.workloads import partition_of

        initial, specs = partitioned_workload(
            num_transactions=24, seed=6, num_partitions=4
        )
        store = ShardedDataStore(initial, num_shards=4, shard_of=partition_of)
        recorder = TraceRecorder()
        result = ParallelShardRunner(workers=2).run(
            StrictTwoPhaseLocking, store, specs, seed=1, tracer=recorder
        )
        assert result.committed > 0
        names = {span.name for span in recorder.spans}
        assert {"shard.build_tasks", "shard.pickle", "shard.pool_start",
                "shard.collect"} <= names
        assert all(span.duration >= 0 for span in recorder.spans)
        # spans live outside the deterministic event stream
        assert recorder.events == []

    def test_spans_saved_in_sidecar_file(self, tmp_path):
        from repro.obs.trace import Span

        recorder = TraceRecorder()
        recorder.now = 1
        recorder.emit(ev.BEGIN, 0, 1, 1)
        recorder.span("shard.pickle", 0.0, 0.5, meta={"shard": 0})
        path = str(tmp_path / "x.trace")
        recorder.save(path)
        loaded = TraceRecorder.load(path)
        assert loaded.to_jsonl() == recorder.to_jsonl()
        assert len(loaded.spans) == 1
        assert loaded.spans[0].name == "shard.pickle"
        # the event file itself contains no span (byte-identity holds)
        with open(path) as handle:
            assert "shard.pickle" not in handle.read()


# ----------------------------------------------------------------------
# chrome trace-event export
# ----------------------------------------------------------------------


class TestChromeExport:
    def test_chrome_trace_is_valid_and_complete(self):
        recorder = _traced(workload="zipfian")
        document = chrome_trace(recorder.events, recorder.spans)
        # survives JSON serialization (the Perfetto input format)
        parsed = json.loads(json.dumps(document))
        entries = parsed["traceEvents"]
        assert parsed["displayTimeUnit"] == "ms"
        phases = {entry["ph"] for entry in entries}
        assert phases <= {"X", "i", "M"}
        slices = [entry for entry in entries if entry["ph"] == "X"]
        instants = [entry for entry in entries if entry["ph"] == "i"]
        assert slices and instants
        for entry in slices:
            assert entry["dur"] > 0
            assert entry["ts"] >= 0
        abort_markers = [
            entry for entry in instants if entry["name"] == "abort"
        ]
        assert abort_markers
        assert all("code" in entry["args"] for entry in abort_markers)

    def test_sessions_become_named_tracks(self):
        recorder = _traced()
        entries = chrome_trace(recorder.events)["traceEvents"]
        thread_names = [
            entry for entry in entries
            if entry["ph"] == "M" and entry["name"] == "thread_name"
        ]
        tracked = {entry["tid"] for entry in thread_names}
        sliced = {entry["tid"] for entry in entries if entry["ph"] == "X"}
        assert sliced <= tracked


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------


class TestObsCli:
    def test_capture_then_report_then_chrome(self, tmp_path, capsys):
        trace_path = str(tmp_path / "cli.trace")
        chrome_path = str(tmp_path / "cli.json")
        assert obs_main([
            "capture", "--protocol", "strict-2pl", "--workload", "zipfian",
            "--transactions", "30", "--seed", "3", "--out", trace_path,
        ]) == 0
        captured = capsys.readouterr().out
        assert "captured" in captured

        assert obs_main([
            "report", trace_path, "--hot-keys", "5", "--timeline",
            "--limit", "10", "--chrome", chrome_path,
        ]) == 0
        report = capsys.readouterr().out
        assert "hot keys" in report
        assert "abort taxonomy" in report
        assert "phase latencies" in report
        assert "timeline" in report
        with open(chrome_path) as handle:
            assert json.load(handle)["traceEvents"]

    def test_capture_is_deterministic_on_disk(self, tmp_path):
        paths = [str(tmp_path / f"d{i}.trace") for i in (0, 1)]
        for path in paths:
            assert obs_main([
                "capture", "--protocol", "occ", "--transactions", "20",
                "--seed", "8", "--out", path,
            ]) == 0
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()

    def test_report_session_filter(self, tmp_path, capsys):
        trace_path = str(tmp_path / "f.trace")
        obs_main([
            "capture", "--transactions", "10", "--seed", "1", "--out", trace_path,
        ])
        capsys.readouterr()
        assert obs_main([
            "report", trace_path, "--timeline", "--session", "0",
        ]) == 0
        out = capsys.readouterr().out
        timeline = out.split("== timeline ==", 1)[1]
        lines = [line for line in timeline.strip().splitlines() if line]
        assert lines
        assert all(" s0 " in f" {line} " or "s0  " in line for line in lines)

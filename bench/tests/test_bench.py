"""Self-tests of the benchmark (``python -m pytest bench/tests -q``).

They run the same six shapes at the fixed tiny ``smoke`` sizing, through
the same ``main()`` the driver calls, and check the benchmark's own
promises: names and schema, the layer map, determinism per seed, the
comparison verdicts, and that a broken check fails the command.
"""

import dataclasses
import json
import os
import re

import pytest

import compare
import layers
import run
import workloads

SPEC = run.load_benchmark_json()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: per-layer metrics that are host time; every other one must repeat exactly
HOST_TIME = re.compile(
    r"\.self_s$|\.share$|^parallel\..*_s$|^parallel\.speedup_vs_serial$"
    r"|^trace\.overhead_ratio$|^host\."
)


def run_main(capsys, *argv):
    """Call the command in-process; return (exit code, detail, result)."""
    code = run.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2])["detail"], json.loads(lines[-1])


def smoke(capsys, name, seed=0, trace=0):
    return run_main(
        capsys,
        "--workload", name,
        "--seed", str(seed),
        "--seconds", "0.05",
        "--trace", str(trace),
        "--size", "smoke",
    )


# ----------------------------------------------------------------------
# names and schema
# ----------------------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert sorted(SPEC) == sorted(
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    )
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"][-1].startswith("bench/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 8) <= 3420  # 8 s: set-up, warm-up, overrun
    names = []
    for workload in SPEC["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert UNIT.match(metric["unit"]), metric
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_benchmark_json():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_run_prints_exactly_the_named_metrics(capsys, name):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, _detail, result = smoke(capsys, name, trace=trace)
        assert code == 0
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


# ----------------------------------------------------------------------
# layers
# ----------------------------------------------------------------------


def test_every_source_file_maps_to_a_named_layer():
    named = set(layers.LAYERS) | {layers.CALLER}
    seen = 0
    for directory, _dirs, files in os.walk(layers.SRC_ROOT):
        for filename in files:
            if filename.endswith(".py"):
                relative = os.path.relpath(os.path.join(directory, filename), layers.SRC_ROOT)
                assert layers.layer_of_source(relative) in named, relative
                seen += 1
    assert seen > 50
    for path, functions in layers.ORACLE_FUNCTIONS.items():
        with open(os.path.join(layers.SRC_ROOT, path), encoding="utf-8") as handle:
            source = handle.read()
        for function in functions:
            assert f"def {function}(" in source, (path, function)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_layer_shares_sum_to_one_and_bypasses_bypass(capsys, name):
    _code, _detail, result = smoke(capsys, name, trace=1)
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert sum(value[f"{layer}.share"] for layer in layers.LAYERS) == pytest.approx(1.0, abs=0.01)
    assert value["trace.overhead_ratio"] > 0
    if name == "exec-scan-mvto":
        assert value["kernel.parks"] == 0 and value["kernel.readonly_fastpath"] > 0
    if name == "exec-hotspot-2pl":
        assert value["kernel.parks"] > 0 and value["storage.share"] < 0.05
    if name == "dist-2pc-flat":
        assert value["dist.paxos.calls"] == 0 and value["dist.tpc.calls"] > 0
    if name == "dist-repl-chaos":
        assert value["dist.paxos.calls"] > 0 and value["dist.replication.crashes"] == 3
        assert value["behaviour.failover_virtual_s"] > 0
    if name == "sim-zipf-occ":
        assert value["simulator.calls"] > 0 and value["runtime.calls"] == 0
    if name == "shard-par-2pl":
        assert value["parallel.pickle_bytes"] > 0 and value["parallel.collect_s"] > 0


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_seed_repeats_exactly_and_another_seed_differs(capsys, name):
    _code, first, _result = smoke(capsys, name, seed=3)
    _code, again, _result = smoke(capsys, name, seed=3)
    _code, other, _result = smoke(capsys, name, seed=4)
    assert first["signature"] == again["signature"]
    assert first["counters"] == again["counters"]
    assert first["signature"] != other["signature"]

    _code, _detail, traced = smoke(capsys, name, seed=3, trace=1)
    _code, _detail, traced_again = smoke(capsys, name, seed=3, trace=1)
    for key, entry in traced["metrics"].items():
        if HOST_TIME.search(key):
            continue
        if name == "shard-par-2pl" and (key.endswith(".calls") or key.startswith("trace.")):
            continue  # the parent's call counts follow how often the pool's wait loop wakes
        assert entry["value"] == traced_again["metrics"][key]["value"], key


def test_different_seeds_give_different_inputs():
    for workload in workloads.WORKLOADS.values():
        size = workload.sizes["smoke"]
        assert repr(workload.setup(1, size)) != repr(workload.setup(2, size))


# ----------------------------------------------------------------------
# a broken check fails the command
# ----------------------------------------------------------------------


def _replace_run(monkeypatch, name, wrapper):
    original = workloads.WORKLOADS[name]
    monkeypatch.setitem(
        workloads.WORKLOADS, name, dataclasses.replace(original, run=wrapper(original.run))
    )


def test_tampered_snapshot_exits_nonzero(capsys, monkeypatch):
    def tamper_after_first(run_workload):
        calls = []

        def tampered(inputs, tracer=None):
            outcome = run_workload(inputs, tracer=tracer)
            calls.append(1)
            if len(calls) > 1:
                outcome.signature["snapshot"] = "tampered"
            return outcome

        return tampered

    _replace_run(monkeypatch, "exec-hotspot-2pl", tamper_after_first)
    code, detail, result = smoke(capsys, "exec-hotspot-2pl")
    assert code != 0
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert "snapshot" in detail["error"]


def test_failed_correctness_check_exits_nonzero(capsys, monkeypatch):
    real = workloads.run_distributed_batch

    def mint_money(*args, **kwargs):
        report = real(*args, **kwargs)
        account = next(iter(report.final_snapshot))
        report.final_snapshot[account] += 1  # the books no longer balance
        return report

    monkeypatch.setattr(workloads, "run_distributed_batch", mint_money)
    code, detail, result = smoke(capsys, "dist-2pc-flat")
    assert code != 0 and result["correct"] is False
    assert "conserved" in detail["error"]


def test_no_program_no_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "exec-hotspot-2pl", "--seconds", "0.05"]) != 0
    assert capsys.readouterr().out == ""


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------


def test_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(steady, [v * 1.03 for v in steady], "lower", 0.10)[0] == "within"
    assert compare.verdict(steady, [v * 0.70 for v in steady], "lower", 0.10)[0] == "better"
    assert compare.verdict(steady, [v * 1.30 for v in steady], "lower", 0.10)[0] == "worse"
    assert compare.verdict(steady, [v * 1.30 for v in steady], "higher", 0.10)[0] == "better"
    # same medians, but one side's runs scatter wider than the bound
    scattered = [0.7, 0.8, 1.0, 1.2, 1.3]
    assert compare.verdict(steady, scattered, "lower", 0.10)[0] == "unresolved"
    # medians more than the bound apart, interquartile ranges overlapping
    slower = [0.9, 1.0, 1.25, 1.5, 1.6]
    assert compare.verdict(scattered, slower, "lower", 0.10)[0] == "unresolved"
    # a single run per side compares by value alone
    assert compare.verdict([1.0], [1.5], "lower", 0.10)[0] == "worse"


def _record(run_s, failed=0, snapshot="a"):
    runs = [
        {
            "seed": seed,
            "correct": True,
            "attempted": 100,
            "failed": failed,
            "metrics": {"run_s": {"value": value, "unit": "s"}},
            "detail": {"signature": {"snapshot": snapshot}, "counters": {}},
        }
        for seed, value in enumerate(run_s)
    ]
    return {"workloads": {"exec-hotspot-2pl": {"runs": runs, "trace": None}}}


def test_compare_exit_conditions():
    base = _record([1.0, 1.01, 0.99])
    lines, acceptable = compare.compare(base, _record([1.02, 1.0, 1.01]), SPEC)
    assert acceptable and any("identical on 3 seed(s)" in line for line in lines)
    _lines, acceptable = compare.compare(base, _record([1.5, 1.51, 1.49]), SPEC)
    assert not acceptable
    lines, acceptable = compare.compare(base, _record([1.0, 1.01, 0.99], failed=1), SPEC)
    assert not acceptable and any("failed_share" in line and "worse" in line for line in lines)
    lines, acceptable = compare.compare(base, _record([1.0, 1.01, 0.99], snapshot="b"), SPEC)
    assert acceptable and any("CHANGED" in line for line in lines)


def test_compare_command(tmp_path, capsys):
    paths = []
    for index, record in enumerate((_record([1.0, 1.01]), _record([2.0, 2.02]))):
        path = tmp_path / f"{index}.json"
        path.write_text(json.dumps(record))
        paths.append(str(path))
    assert compare.main(paths) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([paths[0], paths[0]]) == 0

"""Smoke test for scripts/run_perf_bench.py: its arguments and its JSON, without a perfbench run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "run_perf_bench", ROOT / "scripts" / "run_perf_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_arguments():
    script = load_script()
    args = script.parse_args(["--root", "../parent", "--root", ".", "--out", "BENCH.json"])
    assert args.root == [Path("../parent"), Path(".")]
    assert args.out == Path("BENCH.json") and args.seed == 1
    assert script.parse_args(["--root", ".", "--out", "o.json", "--seed", "9001"]).seed == 9001
    with pytest.raises(SystemExit):
        script.parse_args(["--root", "."])  # --out is required


def test_alternating_runs_aggregate_into_one_record(monkeypatch, tmp_path):
    script = load_script()
    calls = []

    def fake_run(root, workload, seed, seconds, trace):
        calls.append((root.name, workload, trace))
        k = len(calls)
        metric = "solver.busy_s" if trace else "registrations_per_s"
        return {"correct": True, "attempted": 4, "failed": 1,
                "metrics": {metric: {"value": float(k), "unit": "s" if trace else "1/s"}},
                "detail": {"import_s": k / 10, "setup_repeats_s": [k, k + 1, k + 2]},
                "provenance": {"python": "3", "numpy": "2", "scipy": "1", "nproc": 2,
                               "threads": {}, "workload": workload}}

    monkeypatch.setattr(script, "run_perfbench", fake_run)
    monkeypatch.setattr(script, "identity", lambda root: {"commit": root.name})
    monkeypatch.setattr(script, "benchmark", lambda root: (["w1", "w2"], 45))
    parent, change, out = tmp_path / "parent", tmp_path / "change", tmp_path / "bench.json"
    assert script.main(["--root", str(parent), "--root", str(change), "--out", str(out),
                        "--seed", "9001"]) == 0

    reps = script.RUNS + script.TRACED_RUNS
    assert len(calls) == reps * 2 * 2
    # each repetition runs every workload, its checkouts in alternating order
    firsts = [calls[4 * rep][0] for rep in range(reps)]
    assert firsts == ["parent", "change"] * (reps // 2) + ["parent"] * (reps % 2)
    assert [c[2] for c in calls] == [0] * (4 * script.RUNS) + [1] * (4 * script.TRACED_RUNS)

    record = json.loads(out.read_text())
    assert record["seed"] == 9001 and record["seconds"] == 45
    assert (record["runs"], record["traced_runs"]) == (script.RUNS, script.TRACED_RUNS)
    assert record["provenance"] == {"python": "3", "numpy": "2", "scipy": "1", "nproc": 2,
                                    "threads": {}}
    assert [c["commit"] for c in record["checkouts"]] == ["parent", "change"]
    for checkout in record["checkouts"]:
        for w in ("w1", "w2"):
            entry = checkout["workloads"][w]
            mine = [k + 1 for k, c in enumerate(calls) if c[:2] == (checkout["commit"], w)]
            assert entry["attempted"] == 4 * script.RUNS and entry["failed"] == script.RUNS
            e2e = entry["end_to_end"]["registrations_per_s"]
            assert e2e["runs"] == mine[:script.RUNS] and e2e["unit"] == "1/s"
            setup = entry["setup_detail"]
            assert setup["import_s"]["runs"] == [k / 10 for k in mine[:script.RUNS]]
            assert setup["setup_repeats_s"] == [[k, k + 1, k + 2] for k in mine[:script.RUNS]]
            layer = entry["layers"]["solver.busy_s"]
            assert layer["runs"] == mine[script.RUNS:] and layer["unit"] == "s"
            assert layer["median"] == sorted(layer["runs"])[len(layer["runs"]) // 2]
            assert layer["q1"] <= layer["median"] <= layer["q3"]
            assert layer["iqr"] == layer["q3"] - layer["q1"]


def test_a_failed_check_sets_the_exit_code(monkeypatch, tmp_path):
    script = load_script()
    monkeypatch.setattr(script, "RUNS", 2)
    monkeypatch.setattr(script, "TRACED_RUNS", 2)
    outcomes = iter([True, False, True, True, True, True, True, True])

    def fake_run(root, workload, seed, seconds, trace):
        return {"correct": next(outcomes), "attempted": 1, "failed": 0,
                "metrics": {"registrations_per_s": {"value": 1.0, "unit": "1/s"}},
                "detail": {"import_s": 0.5, "setup_repeats_s": [1.0]},
                "provenance": {k: None for k in ("python", "numpy", "scipy", "nproc", "threads")}}

    monkeypatch.setattr(script, "run_perfbench", fake_run)
    monkeypatch.setattr(script, "identity", lambda root: {})
    monkeypatch.setattr(script, "benchmark", lambda root: (["w"], 1))
    out = tmp_path / "bench.json"
    assert script.main(["--root", str(tmp_path / "a"), "--root", str(tmp_path / "b"),
                        "--out", str(out)]) == 1
    assert out.exists()

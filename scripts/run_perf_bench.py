#!/usr/bin/env python3
"""One point of the perf trajectory: perfbench on one or more checkouts, as BENCH_<n>.json.

    python3 scripts/run_perf_bench.py --root ../parent --root . --out BENCH_7.json

For each checkout given with --root, runs that checkout's own
`perfbench/run.py` (which imports the checkout's src/, as
`fingerprint_workloads.py` does) on every workload: RUNS untraced runs,
each as long as BENCHMARK.json's `run_seconds`, then TRACED_RUNS traced
runs. Repetitions alternate the order of the checkouts, so drift of a
shared machine falls on each side evenly; with a parent and a change
given, each repetition is one pair, and RUNS = 10 pairs is what a claimed
gain needs. Run it once per seed: 1, and the hold-out 9001.

The output file holds the provenance (nproc, Python, NumPy and SciPy
versions and the BLAS thread pinning, as perfbench reports them) and,
per checkout and workload:

* the commit, the tree hash of src/ and whether the checkout had
  uncommitted changes;
* every end-to-end metric's runs, median, quartiles and IQR;
* where the untraced runs' `setup_s` went: the import time's summary and
  each run's set-up repeats (scene synthesis plus one warm-up
  registration), from perfbench's `detail`;
* the same for every per-layer metric of the traced runs (busy_s, counts,
  ratios), so a layer's delta can be told from the drift between runs.

The exit code is 1 when any run failed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10
TRACED_RUNS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--root", type=Path, action="append", required=True,
                   help="checkout to measure; repeat for several, parent first")
    p.add_argument("--out", type=Path, required=True, help="output JSON, e.g. BENCH_7.json")
    p.add_argument("--seed", type=int, default=1, help="workload seed: 1, or the hold-out 9001")
    return p.parse_args(argv)


def git(root: Path, *args) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def identity(root: Path) -> dict:
    return {"commit": git(root, "rev-parse", "HEAD"),
            "subject": git(root, "log", "-1", "--format=%s"),
            "src_tree": git(root, "rev-parse", "HEAD:src"),
            "uncommitted_changes": bool(git(root, "status", "--porcelain", "--", "src"))}


def benchmark(root: Path) -> tuple[list[str], float]:
    """The workload names and the run length BENCHMARK.json declares."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]], spec["run_seconds"]


def run_perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its final JSON line plus the provenance it printed."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    for line in lines:
        for key in ("provenance", "detail"):
            if line.startswith(f"# {key} "):
                result[key] = json.loads(line[len(key) + 3:])
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def summaries(runs: list[dict]) -> dict:
    """Every metric of perfbench's `metrics` over several runs: its summary and unit."""
    names = runs[0]["metrics"]
    return {k: summary([x["metrics"][k]["value"] for x in runs]) | {"unit": names[k]["unit"]}
            for k in names}


def workload_record(untraced: list[dict], traced: list[dict]) -> dict:
    """One checkout's record of one workload, from its untraced and traced perfbench results."""
    return {"attempted": sum(x["attempted"] for x in untraced),
            "failed": sum(x["failed"] for x in untraced),
            "end_to_end": summaries(untraced),
            "setup_detail": {"import_s": summary([x["detail"]["import_s"] for x in untraced]),
                             "setup_repeats_s": [x["detail"]["setup_repeats_s"] for x in untraced]},
            "layers": summaries(traced)}


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = [r.resolve() for r in args.root]
    workloads, seconds = benchmark(roots[0])
    results = {(r, w, t): [] for r in roots for w in workloads for t in (0, 1)}
    provenance = None
    correct = True

    for rep in range(RUNS + TRACED_RUNS):
        order = roots if rep % 2 == 0 else roots[::-1]
        trace = int(rep >= RUNS)  # the last TRACED_RUNS repetitions are traced
        for w in workloads:
            for r in order:
                result = run_perfbench(r, w, args.seed, seconds, trace)
                correct &= result["correct"]
                prov = result.pop("provenance")
                provenance = provenance or {k: prov[k] for k in
                                            ("python", "numpy", "scipy", "nproc", "threads")}
                results[r, w, trace].append(result)
                print(f"rep {rep} {w} trace={trace} {r.name}: "
                      + (f"{result['metrics']['registrations_per_s']['value']:.3f} /s"
                         if not trace else "traced"), file=sys.stderr, flush=True)

    checkouts = [identity(r) | {"workloads": {w: workload_record(results[r, w, 0], results[r, w, 1])
                                              for w in workloads}}
                 for r in roots]
    record = {"seed": args.seed, "seconds": seconds, "runs": RUNS, "traced_runs": TRACED_RUNS,
              "provenance": provenance, "checkouts": checkouts}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""lvreg benchmark: one workload, one client, closed loop, BLAS threads pinned to 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Set-up builds the workload's scene pool from the seed and registers one
scene untimed, so lazy imports finish first. The run then calls
`lvreg.engine.run_registration` back to back over the pool and scores
every result against the scene labels.

--trace 0 measures the end-to-end metrics for --seconds, and at least one
whole pass over the pool. --trace 1 registers the first half of the pool
once untraced and once traced (about as long as --trace 0 at the default
length) and reports the per-layer metrics. `all` runs every workload with
both settings, each in its own process.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Results and spans are also written under perfbench/out/. The
exit code is 1 when a correctness check fails and 2 when the package
under src/ cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def provenance(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "numpy": numpy.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def run_one(args) -> int:
    t_start = time.perf_counter()
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    try:
        from lvreg.engine import run_registration
        from measure import CheckFailed, Runner, end_to_end, per_layer
        from workloads import WORKLOADS, make_scenes
    except ImportError as exc:
        print(f"perfbench: cannot import lvreg from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start

    # Set-up is scene synthesis plus one untimed registration, repeated; the median counts.
    setups, scenes = [], None
    for _ in range(SETUP_REPEATS):
        scenes = None  # free the previous pool first
        t0 = time.perf_counter()
        scenes = make_scenes(WORKLOADS[args.workload], args.seed)
        s = scenes[0]
        run_registration(s.corrs, s.source, s.target, s.cfg)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    runner = Runner(scenes[: len(scenes) // 2] if args.trace else scenes)
    metrics, detail, correct = {}, {"import_s": import_s, "setup_repeats_s": setups}, True
    try:
        if args.trace:
            metrics, more, tracer = per_layer(runner)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        else:
            metrics, more = end_to_end(runner, args.seconds, setup_s)
        detail.update(more)
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        correct = False

    record = {"provenance": provenance(args), "detail": detail,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("# provenance " + json.dumps(record["provenance"]))
    print("# detail " + json.dumps(detail))
    for k, (v, u) in metrics.items():
        print(f"# {k:40s} {v:>16.6g} {u}")
    print(json.dumps({"correct": correct, "attempted": max(1, runner.attempted),
                      "failed": runner.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, end to end then traced, each in its own process."""
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print(f"## {name} --trace {trace}")
            if proc.returncode != 0 or not lines:
                print(f"perfbench: {name} --trace {trace} exited with {proc.returncode}",
                      file=sys.stderr)
                merged["correct"] = False
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                merged["metrics"][f"{name}/{k}"] = v
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

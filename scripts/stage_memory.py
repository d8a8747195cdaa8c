#!/usr/bin/env python3
"""Where a benchmark registration's memory goes: tracemalloc peaks per engine boundary.

    python3 scripts/stage_memory.py --workload unfiltered-m800 --seed 1 --scenes 3
    python3 scripts/stage_memory.py --workload filtered-m2000 --seed 9001 --scenes 1 --root ../other

Registers the first K scenes of a perfbench workload's pool under
tracemalloc. For each registration it prints the peak of the whole
`run_registration` call, then one line for each engine-level boundary that
`perfbench/tracing.py` names (the `lvreg.engine` globals its BOUNDARIES
rebind): how often the registration called it and the largest peak inside
one call. A peak is in MB above what was allocated when the call began, so
it counts what the call allocated and not what it was handed. Boundaries
the registration never called are left out.

The boundary names are rebound to measuring wrappers for the length of a
run, as perfbench's tracer rebinds them, and restored after it; the
wrappers read no random numbers, so every registration is the untraced
one. tracemalloc sees what is allocated through Python's and NumPy's
allocators, not C libraries' own buffers (BLAS, the kd-tree) nor what the
process held before, so these peaks sit below `peak_rss_mb`. The first
registration in a process also counts what lazy imports allocate
(SciPy's, inside `annotate_normals` on `filtered-m2000`).

--root names the checkout whose src/ and perfbench/ are imported (default:
the one this script is in). BLAS threads are pinned to 1, as in
perfbench/run.py.
"""

from __future__ import annotations

import argparse
import os
import sys
import tracemalloc
from pathlib import Path

MB = 1e6


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="a perfbench workload name")
    p.add_argument("--seed", type=int, default=1, help="workload seed")
    p.add_argument("--scenes", type=int, default=1, help="scenes to register, from the first")
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    return p.parse_args(argv)


class PeakStack:
    """The tracemalloc peak inside each open call, nested calls included.

    tracemalloc keeps one peak; it is reset at every call's entry and exit,
    and what it read since the last reset is folded into the innermost open
    call, which folds its own into its caller's when it returns.
    """

    def __init__(self):
        self._open: list[list[int]] = []  # [traced bytes at entry, highest traced bytes]

    def _fold(self) -> int:
        current, peak = tracemalloc.get_traced_memory()
        if self._open:
            self._open[-1][1] = max(self._open[-1][1], peak)
        tracemalloc.reset_peak()
        return current

    def call(self, fn, *args, **kwargs):
        """fn(*args, **kwargs) and the peak inside it, in bytes above the entry level."""
        current = self._fold()
        self._open.append([current, current])
        try:
            out = fn(*args, **kwargs)
        finally:
            self._fold()
            base, high = self._open.pop()
            if self._open:
                self._open[-1][1] = max(self._open[-1][1], high)
        return out, high - base


def measured(stack: PeakStack, name: str, fn, peaks: dict):
    """fn, recording each call's peak under `name` in peaks[name] (calls, largest peak)."""
    def wrapped(*args, **kwargs):
        out, peak = stack.call(fn, *args, **kwargs)
        calls, high = peaks.get(name, (0, 0))
        peaks[name] = (calls + 1, max(high, peak))
        return out
    return wrapped


def stage_peaks(engine, names, scene) -> tuple[int, dict]:
    """(the scene's registration's peak, {boundary: (calls, largest peak)}), in bytes."""
    stack, peaks = PeakStack(), {}
    saved = {name: getattr(engine, name) for name in names}
    tracemalloc.start()
    try:
        for name, fn in saved.items():
            setattr(engine, name, measured(stack, name, fn, peaks))
        _, total = stack.call(engine.run_registration, scene.corrs, scene.source, scene.target, scene.cfg)
    finally:
        for name, fn in saved.items():
            setattr(engine, name, fn)
        tracemalloc.stop()
    return total, {name: peaks[name] for name in names if name in peaks}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.run import THREAD_VARS
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    from lvreg import engine
    from perfbench.tracing import BOUNDARIES
    from perfbench.workloads import WORKLOADS, make_scenes

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    names = [name for module, name, _ in BOUNDARIES if module is engine]
    scenes = make_scenes(WORKLOADS[args.workload], args.seed)
    width = max(map(len, names))
    for k, scene in enumerate(scenes[:args.scenes]):
        total, peaks = stage_peaks(engine, names, scene)
        print(f"{args.workload} seed={args.seed} scene={k} peak_mb={total / MB:.3f}", flush=True)
        for name, (calls, peak) in peaks.items():
            print(f"  {name:<{width}}  calls={calls:<5d} peak_mb={peak / MB:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Bit-identity digests of the benchmark workloads' scenes and registrations.

The first line names the kernels the digests were computed with: the
NumPy SIMD targets in use (the baseline and every enabled dispatch target)
and the core NumPy's bundled OpenBLAS runs. Digests compare only between
runs with the same kernel line: other SIMD targets (`NPY_DISABLE_CPU_FEATURES`)
or OpenBLAS cores (`OPENBLAS_CORETYPE`, or another CPU) give other bytes.

Then, for each perfbench workload and each given seed, prints two sha256 lines.
The first covers the bytes of every scene in the workload's pool, in
order: both clouds, the correspondences, the ground truth, the labels and
the engine settings (`pool_sha256`). So a change to synthesis is checked
directly, not only through the registrations.

The second registers the first N scenes of the pool and covers every
result, in scene order: `perfbench.workloads.fingerprint` plus the run counters,
each round's `t_glo`, `t_lcl`, `hypotheses`, `degenerate_samples` and
`branch`, and the angle and scale-ratio histograms (bin width, lower bound
and counts), which that fingerprint leaves out. Two checkouts that print
the same digests returned the same rotation and translation bytes, inlier
sets, weights, round and iteration counts, per-round counts, counters,
histograms, confidences, exit reasons and self-update decisions.

    python3 scripts/fingerprint_workloads.py --scenes 10 --seeds 1 9001
    python3 scripts/fingerprint_workloads.py --root ../other-checkout --scenes 10 --seeds 1
    python3 scripts/fingerprint_workloads.py --kernels --scenes 10 --seeds 1

--root names the checkout whose src/ and perfbench/ are imported (default:
the one this script is in), so one copy of the script compares two
checkouts. BLAS threads are pinned to 1, as in perfbench/run.py.

--kernels reruns the digests in one subprocess per kernel setting: the
default kernels, NumPy's AVX-512 targets disabled, and OpenBLAS's Haswell,
Sandybridge and Prescott cores. It prints each run's kernel line, then one
table with a row per digest and a column per setting: the first 8 hex
digits, marked `*` where they differ from the default column.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

# The kernel switches a process reads when NumPy and its OpenBLAS load.
KERNEL_VARS = ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--scenes", type=int, default=10, help="scenes per workload and seed")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 9001])
    p.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    p.add_argument("--kernels", action="store_true",
                   help="rerun the digests under each kernel setting and print one table")
    return p.parse_args(argv)


def simd_targets() -> list[str]:
    """The NumPy baseline and dispatch targets this process runs."""
    from numpy._core import _multiarray_umath as umath
    return [t for t in umath.__cpu_baseline__ + umath.__cpu_dispatch__
            if umath.__cpu_features__.get(t)]


def kernel() -> str:
    """The NumPy SIMD targets in use and NumPy's OpenBLAS core ("unknown" if not bundled)."""
    import numpy as np
    targets = simd_targets()
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    core = "unknown"
    if libs:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    return f"kernel numpy_simd={','.join(targets)} openblas_core={core}"


def kernel_settings() -> dict[str, dict]:
    """Name -> kernel variables of each setting `--kernels` runs.

    AVX-512 is switched off by disabling this process's AVX-512 dispatch
    targets; on a CPU without them that setting runs the default kernels.
    """
    avx512 = [t for t in simd_targets() if t == "X86_V4" or t.startswith("AVX512")]
    return {"default": {},
            "avx512-off": {"NPY_DISABLE_CPU_FEATURES": ",".join(avx512)} if avx512 else {},
            **{core.lower(): {"OPENBLAS_CORETYPE": core}
               for core in ("Haswell", "Sandybridge", "Prescott")}}


def kernel_table(args) -> int:
    """Run the digests once per kernel setting, each in its own process, and print one table."""
    command = [sys.executable, str(Path(__file__).resolve()), "--root", str(args.root),
               "--scenes", str(args.scenes), "--seeds", *map(str, args.seeds)]
    base = {k: v for k, v in os.environ.items() if k not in KERNEL_VARS}
    kernels, digests = {}, {}
    for name, switches in kernel_settings().items():
        run = subprocess.run(command, env=base | switches, capture_output=True, text=True)
        if run.returncode:
            print(f"setting {name} failed:\n{run.stderr}", file=sys.stderr)
            return 1
        kernels[name], *lines = run.stdout.splitlines()
        digests[name] = dict(line.rsplit("=", 1) for line in lines)
    for name, line in kernels.items():
        print(f"{name:<12} {line}")
    default = digests["default"]
    width = max(map(len, default))
    rows = [("digest", list(digests))]
    rows += [(label, [d[label][:8] + ("*" if d[label] != value else "") for d in digests.values()])
             for label, value in default.items()]
    for label, cells in rows:
        print(f"{label:<{width}}  " + "  ".join(f"{cell:<11}" for cell in cells).rstrip())
    return 0


def histogram_digest(hist) -> tuple | None:
    """(bin width, lower bound, counts bytes) of a result's histogram, or None."""
    if hist is None:
        return None
    return hist.bin_width, hist.lower_bound, hist.counts.tobytes()


def round_counts(result) -> tuple:
    """The run counters, per-round counts and both histograms, in a fixed order."""
    return (tuple(sorted(result.counters.items())),
            tuple((row.t_glo, row.t_lcl, row.hypotheses, row.degenerate_samples, row.branch)
                  for row in result.per_round_trace),
            histogram_digest(result.angle_histogram),
            histogram_digest(result.scale_ratio_histogram))


def scene_bytes(scene) -> bytes:
    """Every array of a perfbench scene, and its engine settings."""
    arrays = (scene.source.points, scene.target.points, scene.corrs.source, scene.corrs.target,
              scene.gt_rotation, scene.gt_translation, scene.inlier_mask)
    return b"".join(a.tobytes() for a in arrays) + repr(scene.cfg).encode()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.kernels:
        return kernel_table(args)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench.run import THREAD_VARS
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    from lvreg.engine import run_registration
    from perfbench.workloads import WORKLOADS, fingerprint, make_scenes

    print(kernel(), flush=True)
    for name, workload in WORKLOADS.items():
        for seed in args.seeds:
            scenes = make_scenes(workload, seed)
            pool = hashlib.sha256(b"".join(scene_bytes(scene) for scene in scenes))
            print(f"{name} seed={seed} pool={len(scenes)} pool_sha256={pool.hexdigest()}",
                  flush=True)
            digest = hashlib.sha256()
            for scene in scenes[:args.scenes]:
                result = run_registration(scene.corrs, scene.source, scene.target, scene.cfg)
                digest.update(repr(fingerprint(result)).encode())
                digest.update(repr(round_counts(result)).encode())
            n = min(args.scenes, len(scenes))
            print(f"{name} seed={seed} scenes={n} sha256={digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

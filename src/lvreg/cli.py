"""Command-line interface: register / synth / bench.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 degenerate
geometry, 4 pair budget exceeded (too many correspondences to pair up).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import io as io_mod
from .engine import RansacConfig, residual_inliers, run_registration
from .errors import (
    DegenerateDistribution,
    DegenerateInput,
    DegenerateNeighborhood,
    EmptyCloud,
    IndexOutOfRange,
    NonFiniteInput,
    PairBudgetExceeded,
    ParseError,
    TooFewCorrespondences,
    UnsupportedFormat,
)
from .local_sets import reduction_ratio
from .metrics import evaluate
from .synthetic import SURFACE_MODELS, SyntheticSpec, synthesize_pair

USAGE_ERROR, PARSE_ERROR, DEGENERATE_ERROR, BUDGET_ERROR = 1, 2, 3, 4

_PARSE_ERRORS = (ParseError, NonFiniteInput, UnsupportedFormat, IndexOutOfRange,
                 json.JSONDecodeError, FileNotFoundError, IsADirectoryError, KeyError)
_DEGENERATE_ERRORS = (DegenerateInput, DegenerateNeighborhood, TooFewCorrespondences,
                      EmptyCloud, DegenerateDistribution)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _build_parser() -> _Parser:
    parser = _Parser(prog="lvreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("register", help="align a source cloud to a target cloud")
    reg.add_argument("--source", required=True)
    reg.add_argument("--target", required=True)
    reg.add_argument("--corr", required=True)
    reg.add_argument("--gt", default=None, help="ground-truth transform JSON for metrics")
    reg.add_argument("--tr", required=True, type=float, help="residual threshold")
    reg.add_argument("--rmax", type=int, default=5)
    reg.add_argument("--alpha", type=float, default=10.0)
    reg.add_argument("--beta", type=float, default=30.0)
    reg.add_argument("--confidence", type=float, default=0.995)
    reg.add_argument("--tau", type=float, default=0.05)
    reg.add_argument("--k-normals", type=int, default=20)
    reg.add_argument("--max-local-iters", type=int, default=10000)
    reg.add_argument("--no-ahs-lvlp", action="store_true", help="disable the local-set filters")
    reg.add_argument("--no-sus", action="store_true", help="disable the per-round self-update")
    reg.add_argument("--sigma-mode", default="per-eval",
                     choices=("per-eval", "per-round", "fixed-half-tr"))
    reg.add_argument("--seed", required=True, type=int)
    reg.add_argument("--out", required=True)
    reg.add_argument("--dump-histograms", default=None, metavar="DIR")
    reg.add_argument("--dump-sus", default=None, metavar="DIR")

    syn = sub.add_parser("synth", help="generate a labeled synthetic scene")
    syn.add_argument("--points", required=True, type=int)
    syn.add_argument("--corrs", required=True, type=int)
    syn.add_argument("--outlier-rate", required=True, type=float)
    syn.add_argument("--noise", required=True, type=float)
    syn.add_argument("--seed", required=True, type=int)
    syn.add_argument("--out-dir", required=True)
    syn.add_argument("--extent", type=float, default=1.0)
    syn.add_argument("--rotation-deg", type=float, default=30.0)
    syn.add_argument("--translation", type=float, default=0.5)
    syn.add_argument("--surface", default="multi-plane", choices=SURFACE_MODELS)
    syn.add_argument("--tr", type=float, default=0.01, help="labeling residual threshold")

    ben = sub.add_parser("bench", help="run the seeded benchmark / ablation grid")
    ben.add_argument("--outlier-rates", default="0.5,0.7,0.8,0.9")
    ben.add_argument("--trials", type=int, default=50)
    ben.add_argument("--seed", required=True, type=int)
    ben.add_argument("--ablate", action="store_true")
    ben.add_argument("--csv", required=True)
    ben.add_argument("--summary", required=True)
    ben.add_argument("--workers", type=int, default=1)
    ben.add_argument("--points", type=int, default=500)
    ben.add_argument("--corrs", type=int, default=200)
    ben.add_argument("--noise", type=float, default=0.003)
    ben.add_argument("--tr", type=float, default=0.01)
    ben.add_argument("--rmax", type=int, default=5)
    ben.add_argument("--max-local-iters", type=int, default=150)
    return parser


def _cmd_register(args) -> int:
    cfg = RansacConfig(
        residual_threshold=args.tr, confidence_target=args.confidence, r_max=args.rmax,
        alpha_pct=args.alpha, beta_pct=args.beta, noise_bound=args.tau,
        rng_seed=args.seed, max_local_iterations=args.max_local_iters,
        k_normals=args.k_normals, use_ahs_lvlp=not args.no_ahs_lvlp,
        use_sus=not args.no_sus, sigma_mode=args.sigma_mode,
    )
    source = io_mod.load_point_cloud(args.source)
    target = io_mod.load_point_cloud(args.target)
    corrs = io_mod.load_correspondences(args.corr, source, target)
    start = time.perf_counter()
    result = run_registration(corrs, source, target, cfg)
    elapsed = time.perf_counter() - start
    report = None
    if args.gt is not None:
        gt = io_mod.load_transform(args.gt)
        true_inliers = residual_inliers(gt, corrs, cfg.residual_threshold)
        report = evaluate(source, gt, result.transform, result.inlier_indices,
                          true_inliers, runtime_seconds=elapsed)
    io_mod.emit_result(result, report, args.out)

    if args.dump_histograms:
        dump = Path(args.dump_histograms)
        dump.mkdir(parents=True, exist_ok=True)
        if result.angle_histogram is not None:
            io_mod.write_histogram_csv(result.angle_histogram, dump / "angle_histogram.csv")
        if result.scale_ratio_histogram is not None:
            io_mod.write_histogram_csv(result.scale_ratio_histogram, dump / "scale_ratio_histogram.csv")
    if args.dump_sus:
        dump = Path(args.dump_sus)
        dump.mkdir(parents=True, exist_ok=True)
        for round_idx, decisions in enumerate(result.sus_decisions, start=1):
            io_mod.write_sus_csv(decisions, dump / f"sus_round_{round_idx}.csv")

    n_corrs = len(result.accumulated_weights)
    kept = result.per_round_trace[0].local_set_size if result.per_round_trace else n_corrs
    print(f"rounds={result.rounds} iterations={result.total_iterations} "
          f"confidence={result.final_confidence:.4f} inliers={len(result.inlier_indices)} "
          f"local_set_reduction={reduction_ratio(n_corrs, kept):.4f} time_s={elapsed:.3f}")
    return 0


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        n_points=args.points, n_correspondences=args.corrs, outlier_rate=args.outlier_rate,
        noise_sigma=args.noise, rotation_magnitude_deg=args.rotation_deg,
        translation_magnitude=args.translation, scene_extent=args.extent,
        surface_model=args.surface, seed=args.seed, residual_threshold=args.tr,
    )
    source, target, corrs, gt, true_inliers = synthesize_pair(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io_mod.write_xyz(source, out / "source.xyz")
    io_mod.write_xyz(target, out / "target.xyz")
    # correspondences are stored as raw coordinate rows so the files stand alone
    rows = np.hstack([corrs.source, corrs.target])
    lines = [" ".join(repr(float(v)) for v in row) for row in rows]
    (out / "corr.txt").write_text("\n".join(lines) + "\n")
    io_mod.write_transform(gt, out / "gt.json",
                           extra={"true_inlier_indices": [int(i) for i in true_inliers]})
    print(f"wrote scene to {out} ({len(source)} points, {len(corrs)} correspondences, "
          f"{len(true_inliers)} true inliers)")
    return 0


def _cmd_bench(args) -> int:
    try:
        rates = tuple(float(r) for r in args.outlier_rates.split(",") if r)
    except ValueError:
        print("bench: bad --outlier-rates list", file=sys.stderr)
        return USAGE_ERROR
    suite = bench_mod.SuiteConfig(
        outlier_rates=rates, trials=args.trials, seed=args.seed, ablate=args.ablate,
        workers=args.workers, n_points=args.points, n_correspondences=args.corrs,
        noise_sigma=args.noise, residual_threshold=args.tr, r_max=args.rmax,
        max_local_iterations=args.max_local_iters,
    )
    rows, summary = bench_mod.run_benchmark(suite)
    bench_mod.write_csv(rows, args.csv)
    bench_mod.write_summary(summary, args.summary)
    n_failed = sum(r["failed"] for r in rows)
    print(f"{len(rows)} trials -> {args.csv} ({n_failed} failed); summary -> {args.summary}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "register":
            return _cmd_register(args)
        if args.command == "synth":
            return _cmd_synth(args)
        return _cmd_bench(args)
    except _DEGENERATE_ERRORS as exc:
        print(f"lvreg: degenerate geometry: {exc}", file=sys.stderr)
        return DEGENERATE_ERROR
    except _PARSE_ERRORS as exc:
        print(f"lvreg: input error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except PairBudgetExceeded as exc:
        print(f"lvreg: pair budget exceeded: {exc}", file=sys.stderr)
        return BUDGET_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: register / synth / bench.

Each setting flag fills one field of its command's config
(`RansacConfig`, `SyntheticSpec` or `bench.SuiteConfig`), named by the
flag's dest; a flag left out keeps that dataclass's default, and a value
the dataclass rejects is a usage error.

Exit codes: 0 success, 1 usage error (a bad flag or a rejected setting),
2 input parse error, 3 degenerate geometry, 4 pair budget exceeded (too
many correspondences to pair up).
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
from .engine import RansacConfig, residual_inliers, run_registration, settings
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
from .metrics import evaluate
from .self_update import SIGMA_MODES
from .synthetic import SURFACE_MODELS, SyntheticSpec, synthesize_pair

USAGE_ERROR, PARSE_ERROR, DEGENERATE_ERROR, BUDGET_ERROR = 1, 2, 3, 4

_PARSE_ERRORS = (ParseError, NonFiniteInput, UnsupportedFormat, IndexOutOfRange,
                 json.JSONDecodeError, FileNotFoundError, IsADirectoryError)
_DEGENERATE_ERRORS = (DegenerateInput, DegenerateNeighborhood, TooFewCorrespondences,
                      EmptyCloud, DegenerateDistribution)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def float_list(text: str) -> tuple:
    """A comma-separated list of floats, such as "0.5,0.7"."""
    return tuple(float(v) for v in text.split(",") if v)


def _build_parser() -> _Parser:
    # A setting flag's dest is its config field, and it has no default of its
    # own: a flag left out is None, and the field keeps its dataclass default.
    parser = _Parser(prog="lvreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("register", help="align a source cloud to a target cloud")
    reg.add_argument("--source", required=True)
    reg.add_argument("--target", required=True)
    reg.add_argument("--corr", required=True)
    reg.add_argument("--gt", help="ground-truth transform JSON for metrics")
    reg.add_argument("--tr", dest="residual_threshold", required=True, type=float,
                     help="residual threshold")
    reg.add_argument("--rmax", dest="r_max", type=int)
    reg.add_argument("--alpha", dest="alpha_pct", type=float)
    reg.add_argument("--beta", dest="beta_pct", type=float)
    reg.add_argument("--confidence", dest="confidence_target", type=float)
    reg.add_argument("--tau", dest="noise_bound", type=float)
    reg.add_argument("--k-normals", type=int)
    reg.add_argument("--max-local-iters", dest="max_local_iterations", type=int)
    reg.add_argument("--no-ahs-lvlp", dest="use_ahs_lvlp", action="store_false", default=None,
                     help="disable the local-set filters")
    reg.add_argument("--no-sus", dest="use_sus", action="store_false", default=None,
                     help="disable the per-round self-update")
    reg.add_argument("--sigma-mode", choices=SIGMA_MODES)
    reg.add_argument("--seed", dest="rng_seed", required=True, type=int)
    reg.add_argument("--out", required=True)
    reg.add_argument("--dump-histograms", metavar="DIR")
    reg.add_argument("--dump-sus", metavar="DIR")

    syn = sub.add_parser("synth", help="generate a labeled synthetic scene")
    syn.add_argument("--points", dest="n_points", required=True, type=int)
    syn.add_argument("--corrs", dest="n_correspondences", required=True, type=int)
    syn.add_argument("--outlier-rate", required=True, type=float)
    syn.add_argument("--noise", dest="noise_sigma", required=True, type=float)
    syn.add_argument("--seed", required=True, type=int)
    syn.add_argument("--out-dir", required=True)
    syn.add_argument("--extent", dest="scene_extent", type=float)
    syn.add_argument("--rotation-deg", dest="rotation_magnitude_deg", type=float)
    syn.add_argument("--translation", dest="translation_magnitude", type=float)
    syn.add_argument("--surface", dest="surface_model", choices=SURFACE_MODELS)
    syn.add_argument("--tr", dest="residual_threshold", type=float,
                     help="labeling residual threshold")

    ben = sub.add_parser("bench", help="run the seeded benchmark / ablation grid")
    ben.add_argument("--outlier-rates", type=float_list)
    ben.add_argument("--trials", type=int)
    ben.add_argument("--seed", required=True, type=int)
    ben.add_argument("--ablate", action="store_true", default=None)
    ben.add_argument("--csv", required=True)
    ben.add_argument("--summary", required=True)
    ben.add_argument("--workers", type=int)
    ben.add_argument("--points", dest="n_points", type=int)
    ben.add_argument("--corrs", dest="n_correspondences", type=int)
    ben.add_argument("--noise", dest="noise_sigma", type=float)
    ben.add_argument("--tr", dest="residual_threshold", type=float)
    ben.add_argument("--rmax", dest="r_max", type=int)
    ben.add_argument("--max-local-iters", dest="max_local_iterations", type=int)
    return parser


def _cmd_register(args, cfg: RansacConfig) -> int:
    source = io_mod.load_point_cloud(args.source)
    target = io_mod.load_point_cloud(args.target)
    corrs = io_mod.load_correspondences(args.corr, source, target)
    gt = None if args.gt is None else io_mod.load_transform(args.gt)
    start = time.perf_counter()
    result = run_registration(corrs, source, target, cfg)
    elapsed = time.perf_counter() - start
    report = None
    if gt is not None:
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
          f"local_set_reduction={(n_corrs - kept) / n_corrs:.4f} time_s={elapsed:.3f}")
    return 0


def _cmd_synth(args, spec: SyntheticSpec) -> int:
    source, target, corrs, gt, true_inliers = synthesize_pair(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io_mod.write_rows(source.points, out / "source.xyz")
    io_mod.write_rows(target.points, out / "target.xyz")
    # correspondences are stored as raw coordinate rows so the files stand alone
    io_mod.write_rows(np.hstack([corrs.source, corrs.target]), out / "corr.txt")
    io_mod.write_transform(gt, out / "gt.json",
                           extra={"true_inlier_indices": [int(i) for i in true_inliers]})
    print(f"wrote scene to {out} ({len(source)} points, {len(corrs)} correspondences, "
          f"{len(true_inliers)} true inliers)")
    return 0


def _cmd_bench(args, suite: bench_mod.SuiteConfig) -> int:
    rows, summary = bench_mod.run_benchmark(suite)
    bench_mod.write_csv(rows, args.csv)
    bench_mod.write_summary(summary, args.summary)
    n_failed = sum(r["failed"] for r in rows)
    print(f"{len(rows)} trials -> {args.csv} ({n_failed} failed); summary -> {args.summary}")
    return 0


_COMMANDS = {"register": (RansacConfig, _cmd_register), "synth": (SyntheticSpec, _cmd_synth),
             "bench": (bench_mod.SuiteConfig, _cmd_bench)}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config, command = _COMMANDS[args.command]
    try:
        cfg = settings(config, args)
    except ValueError as exc:
        print(f"lvreg: usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return command(args, cfg)
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

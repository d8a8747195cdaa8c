#!/usr/bin/env python3
"""Robustness sweep: success rate vs outlier rate on unit-extent scenes."""

import argparse
from pathlib import Path

from lvreg.bench import SuiteConfig, run_benchmark, write_csv, write_summary
from lvreg.cli import float_list
from lvreg.engine import settings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    # Settings left out keep their SuiteConfig defaults; the seed has its own.
    parser.add_argument("--outlier-rates", type=float_list)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--workers", type=int)
    parser.add_argument("--out-dir", default="sweep_out")
    args = parser.parse_args()

    try:
        suite = settings(SuiteConfig, args)
    except ValueError as exc:
        parser.error(str(exc))
    rows, summary = run_benchmark(suite)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(rows, out / "sweep.csv")
    write_summary(summary, out / "sweep_summary.json")

    print(f"{'rate':>5} {'success':>8} {'med R_err':>10} {'med T_err':>10} {'med time':>9}")
    for rate in suite.outlier_rates:
        bucket = [r for r in rows if r["outlier_rate"] == rate]
        ok = [r for r in bucket
              if not r["failed"] and r["r_err_deg"] < 2.0 and r["t_err"] < 0.03]
        entry = next(e for e in summary["cells"] if e["outlier_rate"] == rate)
        print(f"{rate:>5} {len(ok) / len(bucket):>7.0%} {entry['median_r_err_deg']:>9.3f}d "
              f"{entry['median_t_err']:>10.4f} {entry['median_time_s']:>8.3f}s")


if __name__ == "__main__":
    main()

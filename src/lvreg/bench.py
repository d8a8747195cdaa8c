"""Seeded benchmark/ablation harness over synthetic scenes.

Every trial owns an RNG derived from (suite seed, cell, rate, trial), so
results are independent of scheduling: rows are identical for any worker
count and across repeated runs, except for the wall-clock column.
"""

from __future__ import annotations

import json
import numbers
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import RansacConfig, run_registration, settings
from .errors import LvregError
from .metrics import evaluate
from .synthetic import SyntheticSpec, synthesize_pair

CSV_COLUMNS = (
    "cell", "ahs_lvlp", "sus", "outlier_rate", "trial", "seed",
    "r_err_deg", "t_err", "rmse", "mese", "precision", "recall", "f1",
    "time_s", "rounds", "iterations", "final_confidence", "failed", "error",
)


@dataclass(frozen=True)
class SuiteConfig:
    outlier_rates: tuple = (0.5, 0.7, 0.8, 0.9)
    trials: int = 50
    seed: int = 0
    ablate: bool = False
    workers: int = 1
    n_points: int = 500
    n_correspondences: int = 200
    noise_sigma: float = 0.003
    scene_extent: float = 1.0
    rotation_magnitude_deg: float = 30.0
    translation_magnitude: float = 0.5
    surface_model: str = "multi-plane"
    residual_threshold: float = 0.01
    r_max: int = 5
    alpha_pct: float = 10.0
    beta_pct: float = 30.0
    confidence_target: float = 0.995
    noise_bound: float = 0.05
    max_local_iterations: int = 150
    sigma_mode: str = "per-eval"

    def __post_init__(self):
        # Reject a bad setting here, not in the first trial that uses it.
        for name in ("trials", "workers"):
            if not isinstance(getattr(self, name), numbers.Integral) or getattr(self, name) < 1:
                raise ValueError(f"{name} must be an integer of at least 1")
        settings(RansacConfig, self)
        for rate in self.outlier_rates:
            settings(SyntheticSpec, self, outlier_rate=rate)

    def cells(self) -> list[tuple[bool, bool]]:
        """(use_ahs_lvlp, use_sus) combinations; the full pipeline when not ablating."""
        if self.ablate:
            return [(False, False), (False, True), (True, False), (True, True)]
        return [(True, True)]


def _trial_seeds(suite: SuiteConfig, cell_idx: int, rate_idx: int, trial: int) -> tuple[int, int]:
    ss = np.random.SeedSequence(entropy=suite.seed, spawn_key=(cell_idx, rate_idx, trial))
    synth_seed, engine_seed = ss.generate_state(2, dtype=np.uint64)
    return int(synth_seed), int(engine_seed)


def run_trial(suite: SuiteConfig, cell_idx: int, rate_idx: int, trial: int) -> dict:
    """One seeded registration trial; failures become flagged rows, not aborts."""
    ahs, sus = suite.cells()[cell_idx]
    rate = suite.outlier_rates[rate_idx]
    synth_seed, engine_seed = _trial_seeds(suite, cell_idx, rate_idx, trial)
    spec = settings(SyntheticSpec, suite, outlier_rate=rate, seed=synth_seed)
    source, target, corrs, gt, true_inliers = synthesize_pair(spec)
    cfg = settings(RansacConfig, suite, rng_seed=engine_seed, use_ahs_lvlp=ahs, use_sus=sus)
    row = {
        "cell": cell_idx, "ahs_lvlp": int(ahs), "sus": int(sus),
        "outlier_rate": rate, "trial": trial, "seed": engine_seed,
    }
    start = time.perf_counter()
    try:
        result = run_registration(corrs, source, target, cfg)
    except LvregError as exc:
        row.update({k: float("nan") for k in ("r_err_deg", "t_err", "rmse", "mese",
                                              "precision", "recall", "f1", "final_confidence")})
        row.update({"time_s": time.perf_counter() - start, "rounds": 0, "iterations": 0,
                    "failed": 1, "error": type(exc).__name__})
        return row
    elapsed = time.perf_counter() - start
    report = evaluate(source, gt, result.transform, result.inlier_indices, true_inliers,
                      runtime_seconds=elapsed)
    row.update({
        "r_err_deg": report.rotation_error_deg, "t_err": report.translation_error,
        "rmse": report.rmse, "mese": report.mese, "precision": report.precision,
        "recall": report.recall, "f1": report.f1, "time_s": elapsed,
        "rounds": result.rounds, "iterations": result.total_iterations,
        "final_confidence": result.final_confidence, "failed": 0, "error": "",
    })
    return row


def _run_trial_task(args) -> dict:
    suite, cell_idx, rate_idx, trial = args
    return run_trial(suite, cell_idx, rate_idx, trial)


def run_benchmark(suite: SuiteConfig) -> tuple[list[dict], dict]:
    """Run the whole grid; returns (rows, summary). Rows are sorted deterministically."""
    tasks = [
        (suite, cell_idx, rate_idx, trial)
        for cell_idx in range(len(suite.cells()))
        for rate_idx in range(len(suite.outlier_rates))
        for trial in range(suite.trials)
    ]
    if suite.workers > 1:
        with ProcessPoolExecutor(max_workers=suite.workers) as pool:
            rows = list(pool.map(_run_trial_task, tasks, chunksize=4))
    else:
        rows = [_run_trial_task(t) for t in tasks]
    rows.sort(key=lambda r: (r["cell"], r["outlier_rate"], r["trial"]))
    return rows, summarize(suite, rows)


def summarize(suite: SuiteConfig, rows: list[dict]) -> dict:
    """Per-(cell, rate) means and medians over the non-failed trials."""
    cells = suite.cells()
    summary = {"config": {"trials": suite.trials, "seed": suite.seed,
                          "outlier_rates": list(suite.outlier_rates),
                          "ablate": suite.ablate}, "cells": []}
    metric_keys = ("r_err_deg", "t_err", "rmse", "mese", "precision", "recall", "f1",
                   "time_s", "rounds", "iterations")
    for cell_idx, (ahs, sus) in enumerate(cells):
        for rate in suite.outlier_rates:
            bucket = [r for r in rows if r["cell"] == cell_idx and r["outlier_rate"] == rate]
            ok = [r for r in bucket if not r["failed"]]
            entry = {
                "ahs_lvlp": bool(ahs), "sus": bool(sus), "outlier_rate": rate,
                "n_trials": len(bucket), "n_failed": len(bucket) - len(ok),
            }
            for key in metric_keys:
                values = [float(r[key]) for r in ok]
                entry[f"mean_{key}"] = statistics.fmean(values) if values else float("nan")
                entry[f"median_{key}"] = statistics.median(values) if values else float("nan")
            summary["cells"].append(entry)
    return summary


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(rows: list[dict], path):
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row[c]) for c in CSV_COLUMNS))
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary(summary: dict, path):
    Path(path).write_text(json.dumps(summary, indent=2) + "\n")

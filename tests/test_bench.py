import json

import numpy as np
import pytest

import lvreg.bench as bench
from lvreg.bench import CSV_COLUMNS, SuiteConfig, run_benchmark, run_trial, write_csv, write_summary
from lvreg.engine import RansacConfig
from lvreg.errors import DegenerateInput
from lvreg.synthetic import SyntheticSpec


def tiny_suite(**kw):
    defaults = dict(outlier_rates=(0.5, 0.7), trials=2, seed=123, ablate=True,
                    n_points=120, n_correspondences=60, max_local_iterations=40)
    defaults.update(kw)
    return SuiteConfig(**defaults)


def strip_time_column(csv_text):
    lines = csv_text.strip().splitlines()
    header = lines[0].split(",")
    drop = header.index("time_s")
    return ["," .join(v for k, v in enumerate(line.split(",")) if k != drop) for line in lines]


class TestGrid:
    def test_row_count_matches_grid(self, tmp_path):
        suite = tiny_suite()
        rows, summary = run_benchmark(suite)
        assert len(rows) == 2 * 2 * 4  # rates x trials x ablation cells
        path = tmp_path / "bench.csv"
        write_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 16 + 1
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_cells_cover_all_toggle_combinations(self):
        suite = tiny_suite()
        assert suite.cells() == [(False, False), (False, True), (True, False), (True, True)]
        assert tiny_suite(ablate=False).cells() == [(True, True)]

    def test_baseline_cell_skips_filters(self):
        # the both-off cell degenerates to plain interaction RANSAC over the
        # full sets: the local set must equal the input set
        suite = tiny_suite(outlier_rates=(0.5,), trials=1)
        row = run_trial(suite, cell_idx=0, rate_idx=0, trial=0)
        assert row["ahs_lvlp"] == 0 and row["sus"] == 0
        assert not row["failed"]

    def test_summary_shape(self, tmp_path):
        suite = tiny_suite(outlier_rates=(0.5,), trials=2)
        rows, summary = run_benchmark(suite)
        assert len(summary["cells"]) == 4
        entry = summary["cells"][0]
        assert {"mean_rmse", "median_rmse", "mean_time_s", "n_failed"} <= set(entry)
        path = tmp_path / "summary.json"
        write_summary(summary, path)
        assert json.loads(path.read_text())["config"]["trials"] == 2

    def test_failed_trials_become_flagged_rows(self, monkeypatch):
        def boom(*args, **kwargs):
            from lvreg.errors import DegenerateInput
            raise DegenerateInput("forced failure")

        monkeypatch.setattr(bench, "run_registration", boom)
        suite = tiny_suite(outlier_rates=(0.5,), trials=1, ablate=False)
        rows, summary = run_benchmark(suite)
        assert rows[0]["failed"] == 1
        assert rows[0]["error"] == "DegenerateInput"
        assert np.isnan(rows[0]["rmse"])
        assert summary["cells"][0]["n_failed"] == 1


class TestTrialSettings:
    def test_trial_configs_take_the_suite_settings_and_the_trial_seeds(self, monkeypatch):
        suite = SuiteConfig(outlier_rates=(0.3, 0.6), seed=77, ablate=True, n_points=300,
                            n_correspondences=90, noise_sigma=0.002, scene_extent=2.0,
                            rotation_magnitude_deg=12.0, translation_magnitude=0.25,
                            surface_model="random-blobs", residual_threshold=0.02, r_max=3,
                            alpha_pct=20.0, beta_pct=40.0, confidence_target=0.9,
                            noise_bound=0.07, max_local_iterations=60, sigma_mode="per-round")
        seen = {}
        real_synthesize = bench.synthesize_pair

        def synthesize(spec):
            seen["spec"] = spec
            return real_synthesize(spec)

        def register(corrs, source, target, cfg):
            seen["cfg"] = cfg
            raise DegenerateInput("stub")

        monkeypatch.setattr(bench, "synthesize_pair", synthesize)
        monkeypatch.setattr(bench, "run_registration", register)
        run_trial(suite, cell_idx=2, rate_idx=1, trial=3)
        synth_seed, engine_seed = bench._trial_seeds(suite, 2, 1, 3)
        assert seen["spec"] == SyntheticSpec(
            n_points=300, n_correspondences=90, outlier_rate=0.6, noise_sigma=0.002,
            rotation_magnitude_deg=12.0, translation_magnitude=0.25, scene_extent=2.0,
            surface_model="random-blobs", seed=synth_seed, residual_threshold=0.02)
        assert seen["cfg"] == RansacConfig(
            residual_threshold=0.02, confidence_target=0.9, r_max=3, alpha_pct=20.0,
            beta_pct=40.0, noise_bound=0.07, rng_seed=engine_seed, max_local_iterations=60,
            use_ahs_lvlp=True, use_sus=False, sigma_mode="per-round")

    @pytest.mark.parametrize("kw", [dict(seed=-1), dict(outlier_rates=(0.5, 1.5)),
                                    dict(n_points=40, n_correspondences=100), dict(r_max=0),
                                    dict(trials=2.5), dict(workers=1.5), dict(seed=1.5),
                                    dict(n_points=100.0), dict(n_correspondences=20.5),
                                    dict(max_local_iterations=1.5), dict(noise_bound=1e-170),
                                    dict(trials=0), dict(trials=-2), dict(workers=0)],
                             ids=["seed", "rate", "corrs-over-points", "rmax", "trials-float",
                                  "workers-float", "seed-float", "points-float", "corrs-float",
                                  "max-local-iterations-float", "tau-squared-underflows",
                                  "trials-zero", "trials-negative", "workers-zero"])
    def test_bad_settings_rejected_when_the_suite_is_built(self, kw):
        with pytest.raises(ValueError):
            tiny_suite(**kw)


class TestSelfUpdateDirection:
    def test_full_pipeline_beats_filter_only_on_hard_scenes(self):
        # small hard scenes at 0.8 outliers: without the per-round
        # self-update, the filtered set often stays too impure to recover,
        # so the full pipeline's mean RMSE must come out lower
        suite = tiny_suite(outlier_rates=(0.8,), trials=50, seed=31,
                          n_points=120, n_correspondences=40,
                          max_local_iterations=25)
        rows, summary = run_benchmark(suite)

        def mean_rmse(ahs, sus):
            entry = next(e for e in summary["cells"]
                         if e["ahs_lvlp"] == bool(ahs) and e["sus"] == bool(sus))
            return entry["mean_rmse"]

        assert mean_rmse(1, 1) <= mean_rmse(1, 0)


class TestDeterminism:
    def test_rows_identical_across_runs_and_worker_counts(self, tmp_path):
        suite1 = tiny_suite(ablate=False, trials=3, workers=1)
        suite4 = tiny_suite(ablate=False, trials=3, workers=4)
        paths = []
        for i, suite in enumerate((suite1, suite1, suite4)):
            rows, _ = run_benchmark(suite)
            p = tmp_path / f"run{i}.csv"
            write_csv(rows, p)
            paths.append(p)
        texts = [strip_time_column(p.read_text()) for p in paths]
        assert texts[0] == texts[1] == texts[2]

    def test_trial_seed_depends_only_on_indices(self):
        suite = tiny_suite()
        a = bench._trial_seeds(suite, 1, 0, 7)
        b = bench._trial_seeds(suite, 1, 0, 7)
        c = bench._trial_seeds(suite, 1, 1, 7)
        assert a == b and a != c

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from lvreg import synthetic
from lvreg.errors import DegenerateInput
from lvreg.geometry import RigidTransform, residuals
from lvreg.synthetic import OUTLIER_MARGIN, SURFACE_MODELS, SyntheticSpec, synthesize_pair

from conftest import random_transform, stable_geodesic
from synthetic_reference import synthesize_pair_reference, truncated_noise_reference

ROOT = Path(__file__).resolve().parent.parent


class TestSynthesizePair:
    def test_exact_outlier_count(self):
        spec = SyntheticSpec(n_points=1000, n_correspondences=1000, outlier_rate=0.7, seed=1)
        *_, true_inliers = synthesize_pair(spec)
        assert len(true_inliers) == 300

    def test_labels_exact_for_seed_grid(self):
        for seed in range(10):
            spec = SyntheticSpec(n_points=300, n_correspondences=200, outlier_rate=0.6,
                                 noise_sigma=0.003, seed=seed)
            source, target, corrs, gt, true_inliers = synthesize_pair(spec)
            res = residuals(gt, corrs.source, corrs.target)
            inlier_mask = np.zeros(len(corrs), dtype=bool)
            inlier_mask[true_inliers] = True
            assert np.all(res[inlier_mask] < spec.residual_threshold)
            assert np.all(res[~inlier_mask] >= spec.residual_threshold)
            # outliers carry the full construction margin
            assert np.all(res[~inlier_mask] >= OUTLIER_MARGIN * spec.residual_threshold)

    def test_deterministic_under_seed(self):
        spec = SyntheticSpec(n_points=200, n_correspondences=80, outlier_rate=0.5,
                             noise_sigma=0.002, seed=77)
        a = synthesize_pair(spec)
        b = synthesize_pair(spec)
        assert np.array_equal(a[0].points, b[0].points)
        assert np.array_equal(a[1].points, b[1].points)
        assert np.array_equal(a[2].source, b[2].source)
        assert np.array_equal(a[3].rotation, b[3].rotation)
        assert np.array_equal(a[4], b[4])

    def test_noiseless_residual_bound(self):
        # with a loose labeling threshold the Gaussian tail is intact:
        # virtually every inlier residual stays below 4 * sigma * sqrt(3)
        spec = SyntheticSpec(n_points=10_000, n_correspondences=10_000, outlier_rate=0.0,
                             noise_sigma=0.003, residual_threshold=0.05, seed=3)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        res = residuals(gt, corrs.source, corrs.target)
        bound = 4 * spec.noise_sigma * np.sqrt(3.0)
        assert np.mean(res <= bound) >= 0.999

    def test_requested_transform_magnitudes(self):
        spec = SyntheticSpec(n_points=100, n_correspondences=50, seed=5,
                             rotation_magnitude_deg=25.0, translation_magnitude=0.4)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        assert np.degrees(stable_geodesic(gt.rotation, np.eye(3))) == pytest.approx(25.0, abs=1e-6)
        assert np.linalg.norm(gt.translation) == pytest.approx(0.4, abs=1e-9)

    def test_zero_noise_means_exact_correspondences(self):
        spec = SyntheticSpec(n_points=150, n_correspondences=150, outlier_rate=0.0,
                             noise_sigma=0.0, seed=8)
        source, target, corrs, gt, true_inliers = synthesize_pair(spec)
        assert len(true_inliers) == 150
        assert np.allclose(residuals(gt, corrs.source, corrs.target), 0.0, atol=1e-12)

    def test_surface_models_respect_extent(self):
        for model in ("multi-plane", "random-blobs"):
            spec = SyntheticSpec(n_points=500, n_correspondences=100, seed=2,
                                 surface_model=model, scene_extent=1.0)
            source, *_ = synthesize_pair(spec)
            # loose sanity bound: points concentrate within a few extents
            assert np.percentile(np.abs(source.points), 99) < 2.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n_points=10, n_correspondences=20)
        with pytest.raises(ValueError):
            SyntheticSpec(outlier_rate=1.0)
        with pytest.raises(ValueError):
            SyntheticSpec(surface_model="torus")

    @pytest.mark.parametrize("field, value", [
        ("n_points", 100.0), ("n_correspondences", 20.5), ("seed", 1.5), ("seed", "3")])
    def test_integer_fields_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticSpec(**{field: value})

    def test_numpy_integers_are_integers(self):
        spec = SyntheticSpec(n_points=np.int64(50), n_correspondences=np.int32(20),
                             seed=np.uint64(7))
        assert len(synthesize_pair(spec)[2]) == 20

    def test_outlier_cap_raises_degenerate_input(self):
        # In a 0.001-wide scene no pairing can clear the 0.03 margin.
        spec = SyntheticSpec(n_points=50, n_correspondences=40, outlier_rate=0.5,
                             noise_sigma=0.003, seed=1, scene_extent=0.001)
        with pytest.raises(DegenerateInput, match="margin"):
            synthesize_pair(spec)


def scene_bytes(scene) -> list[bytes]:
    source, target, corrs, gt, true_inliers = scene
    return [source.points.tobytes(), target.points.tobytes(), corrs.source.tobytes(),
            corrs.target.tobytes(), gt.rotation.tobytes(), gt.translation.tobytes(),
            true_inliers.tobytes()]


# (n_points, n_correspondences, outlier_rate, noise_sigma, scene_extent). The
# labeling threshold is 0.01: noise from none, below and at it to far above it
# (every row then falls back after 100 rejections), and small scenes where
# most outlier draws miss the 0.03 margin and are redrawn.
GRID = [
    (300, 200, 0.0, 0.0, 1.0),
    (300, 200, 0.5, 0.003, 1.0),
    (300, 200, 0.9, 0.01, 1.0),
    (200, 150, 0.8, 0.05, 1.0),
    (200, 150, 0.8, 0.5, 1.0),
    (60, 60, 0.95, 0.003, 0.05),
    (40, 40, 0.9, 0.0, 0.04),
    (1, 1, 0.0, 0.003, 1.0),
]


class TestMatchesRowByRowReference:
    @pytest.mark.parametrize("model", SURFACE_MODELS)
    @pytest.mark.parametrize("n_points, n_corrs, rate, sigma, extent", GRID)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scene_bytes(self, model, n_points, n_corrs, rate, sigma, extent, seed):
        spec = SyntheticSpec(n_points=n_points, n_correspondences=n_corrs, outlier_rate=rate,
                             noise_sigma=sigma, scene_extent=extent, surface_model=model,
                             seed=seed)
        assert scene_bytes(synthesize_pair(spec)) == scene_bytes(synthesize_pair_reference(spec))

    @pytest.mark.parametrize("workload", ["filtered-m2000", "unfiltered-m800"])
    @pytest.mark.parametrize("seed", [1, 9001])
    def test_first_perfbench_scene(self, monkeypatch, workload, seed):
        monkeypatch.syspath_prepend(str(ROOT))
        from perfbench import workloads
        specs = []

        def recording(spec):
            specs.append(spec)
            return synthesize_pair(spec)

        monkeypatch.setattr(workloads, "synthesize_pair", recording)
        workloads.make_scenes(dataclasses.replace(workloads.WORKLOADS[workload], scenes=1), seed)
        (spec,) = specs
        assert scene_bytes(synthesize_pair(spec)) == scene_bytes(synthesize_pair_reference(spec))

    @pytest.mark.parametrize("sigma", [0.003, 0.01, 0.03, 0.05, 0.5])
    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_truncated_noise_bytes_and_stream(self, sigma, n):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        noise = synthetic._truncated_noise(rng, sigma, 0.01, n)
        assert noise.tobytes() == truncated_noise_reference(ref_rng, sigma, 0.01, n).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_grid_reaches_the_fallback_the_carry_over_and_the_redraws(self, monkeypatch):
        seen = []

        def recording(ok, rejected):
            seen.append((ok.copy(), rejected))
            return rejection_runs(ok, rejected)

        rejection_runs = synthetic._rejection_runs
        monkeypatch.setattr(synthetic, "_rejection_runs", recording)
        # sigma 50 x the bound: a draw below it has probability ~1e-6, so
        # every row falls back and its norm is half the bound.
        noise = synthetic._truncated_noise(np.random.default_rng(0), 0.5, 0.01, 200)
        assert np.allclose(np.linalg.norm(noise, axis=1), 0.005, rtol=1e-12, atol=0)
        # sigma 5 x the bound: some rows fall back, others accept, and runs
        # of rejections carry over from one round of draws to the next.
        seen.clear()
        noise = synthetic._truncated_noise(np.random.default_rng(0), 0.05, 0.01, 200)
        fell_back = np.abs(np.linalg.norm(noise, axis=1) - 0.005) < 1e-15
        assert fell_back.any() and not fell_back.all()
        assert any(rejected > 0 for _, rejected in seen)
        # A noise-free small scene: only outlier draws reach the recorder.
        seen.clear()
        synthesize_pair(SyntheticSpec(n_points=40, n_correspondences=40, outlier_rate=0.9,
                                      noise_sigma=0.0, scene_extent=0.04, seed=0))
        assert len(seen) > 1 and not seen[0][0].all()


class ScriptedDraws:
    """Stands in for a Generator whose `integers` returns the next rows of a script."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=np.int64)

    def integers(self, n, size):
        drawn, self.rows = self.rows[:size[0]], self.rows[size[0]:]
        assert len(drawn) == size[0], "drew past the script"
        return drawn


class TestOutlierCap:
    """A row refuses the scene at its OUTLIER_TRIES-th rejection, counted across rounds."""

    POINTS = np.eye(3) * 10.0  # (i, i) has residual 0; (i, j) clears the margin

    def pairs(self, monkeypatch, n, script):
        monkeypatch.setattr(synthetic, "OUTLIER_TRIES", 3)
        return synthetic._outlier_pairs(ScriptedDraws(script), RigidTransform.identity(),
                                        self.POINTS, self.POINTS, n, 0.03)

    def test_accepted_after_one_rejection_fewer(self, monkeypatch):
        assert self.pairs(monkeypatch, 1, [[0, 0], [1, 1], [0, 1]]).tolist() == [[0, 1]]

    def test_refused_at_the_cap(self, monkeypatch):
        with pytest.raises(DegenerateInput):
            self.pairs(monkeypatch, 1, [[0, 0], [1, 1], [2, 2]])

    def test_rejections_carry_over_between_rounds(self, monkeypatch):
        # rounds of 2, 1 and 1 draws; the second row's rejections add up
        assert self.pairs(monkeypatch, 2, [[0, 1], [0, 0], [1, 1], [1, 2]]).tolist() == \
            [[0, 1], [1, 2]]
        with pytest.raises(DegenerateInput):
            self.pairs(monkeypatch, 2, [[0, 1], [0, 0], [1, 1], [2, 2]])


class TestChunkedNormsMatchScalarNorms:
    @pytest.mark.parametrize("scale", [1e-160, 1e-3, 1.0, 1e3, 1e154, 1e160])
    def test_row_norms(self, scale):
        v = np.random.default_rng(3).normal(size=(500, 3)) * scale
        v[:3] = [[0.0, 0.0, 0.0], [-0.0, 1e-320, 0.0], [scale, -scale, scale]]
        with np.errstate(over="ignore"):  # the two largest scales overflow to inf
            assert synthetic._row_norms(v).tobytes() == \
                np.array([np.linalg.norm(row) for row in v]).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_motion_is_the_one_point_motion(self, seed):
        rng = np.random.default_rng(seed)
        gt = random_transform(rng, translation_scale=10.0 ** rng.uniform(-3, 3))
        src = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-3, 3)
        moved = gt.apply(src[:, None])[:, 0]
        assert moved.tobytes() == np.array([gt.apply(p) for p in src]).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_outlier_residuals(self, seed):
        rng = np.random.default_rng(seed)
        gt = random_transform(rng)
        src, tgt = rng.normal(size=(300, 3)), rng.normal(size=(300, 3))
        ij = rng.integers(300, size=(1000, 2))
        expected = [np.linalg.norm(gt.apply(src[i]) - tgt[j]) for i, j in ij]
        assert synthetic._outlier_residuals(gt, src, tgt, ij).tobytes() == \
            np.array(expected).tobytes()


class TestDrawsConsumeTheScalarStream:
    @pytest.mark.parametrize("n", [1, 3, 2000, 5000, 2**31 + 5, 2**40])
    def test_integers(self, n):
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        rng.normal(), ref.normal()  # start on a used stream
        for k in (1, 2, 37, 800):
            pairs = rng.integers(n, size=(k, 2))
            assert pairs.tolist() == [[int(ref.integers(n)), int(ref.integers(n))]
                                      for _ in range(k)]
            assert rng.normal(size=2).tobytes() == ref.normal(size=2).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_normal(self):
        rng, ref = np.random.default_rng(12), np.random.default_rng(12)
        for k in (1, 5, 300):
            rows = rng.normal(scale=0.003, size=(k, 3))
            assert rows.tobytes() == \
                np.array([ref.normal(scale=0.003, size=3) for _ in range(k)]).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

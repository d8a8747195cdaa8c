import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvreg.correspondences import CorrespondenceSet
from lvreg.errors import DegenerateInput
from lvreg.geometry import RigidTransform
from lvreg.local_sets import LineVectorSet, build_line_vectors
from lvreg.solver import GncConfig, estimate_local_transform, estimate_rotation_gnc, estimate_translation

from conftest import random_rotation, random_transform, stable_geodesic


def make_line_vectors(rng, rotation, n, outlier_fraction=0.0, noise=0.0, scale=0.5):
    """Forward-generate line vectors under a rotation, with optional outliers."""
    v_src = rng.normal(scale=scale, size=(n, 3))
    v_tgt = v_src @ rotation.T
    if noise:
        v_tgt = v_tgt + rng.normal(scale=noise, size=(n, 3))
    n_out = int(round(outlier_fraction * n))
    if n_out:
        rows = rng.choice(n, size=n_out, replace=False)
        v_tgt[rows] = rng.normal(scale=scale, size=(n_out, 3))
    ratio = np.linalg.norm(v_src, axis=1) / np.linalg.norm(v_tgt, axis=1)
    idx = np.arange(n)
    return LineVectorSet(idx, idx + n, v_src, v_tgt, ratio)


class TestRotationGnc:
    def test_noiseless_recovery(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = random_rotation(rng)
            lvs = make_line_vectors(rng, g, 40)
            rot, converged = estimate_rotation_gnc(lvs, GncConfig())
            assert converged
            assert stable_geodesic(rot, g) < 1e-6

    def test_two_orthogonal_pairs(self):
        g = random_rotation(np.random.default_rng(7))
        v_src = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        lvs = LineVectorSet([0, 1], [2, 3], v_src, v_src @ g.T, [1.0, 1.0])
        rot, _ = estimate_rotation_gnc(lvs, GncConfig())
        assert stable_geodesic(rot, g) < 1e-6

    def test_sixty_percent_outliers(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            g = random_rotation(rng)
            lvs = make_line_vectors(rng, g, 100, outlier_fraction=0.6, noise=0.002)
            rot, _ = estimate_rotation_gnc(lvs, GncConfig(noise_bound=0.05))
            assert np.degrees(stable_geodesic(rot, g)) < 0.5, f"seed {seed}"

    def test_parallel_sources_rejected(self, rng):
        v_src = np.outer(np.linspace(1, 2, 10), [1.0, 1.0, 0.0])
        lvs = LineVectorSet(np.arange(10), np.arange(10) + 10, v_src, v_src, np.ones(10))
        with pytest.raises(DegenerateInput):
            estimate_rotation_gnc(lvs, GncConfig())

    def test_output_always_proper_rotation(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = random_rotation(rng)
            lvs = make_line_vectors(rng, g, 30, outlier_fraction=0.9)
            rot, _ = estimate_rotation_gnc(lvs, GncConfig(max_iterations=5))
            assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-9)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)

    def test_weights_in_unit_interval_and_ls_step_descends(self, rng):
        g = random_rotation(rng)
        lvs = make_line_vectors(rng, g, 60, outlier_fraction=0.4, noise=0.003)
        trace = []
        estimate_rotation_gnc(lvs, GncConfig(), trace=trace)
        assert len(trace) > 0
        for step in trace:
            assert np.all(step["weights"] >= 0.0) and np.all(step["weights"] <= 1.0)
            # the weighted solve is a global optimum: never worse than the prior iterate
            assert step["wsse_after"] <= step["wsse_before"] * (1 + 1e-12) + 1e-15

    def test_equivariance_under_target_rotation(self, rng):
        g = random_rotation(rng)
        q = random_rotation(rng)
        lvs = make_line_vectors(rng, g, 30)
        rot, _ = estimate_rotation_gnc(lvs, GncConfig())
        rotated = LineVectorSet(lvs.i, lvs.j, lvs.v_source, lvs.v_target @ q.T, lvs.scale_ratio)
        rot2, _ = estimate_rotation_gnc(rotated, GncConfig())
        assert stable_geodesic(rot2, q @ rot) < 1e-6

    def test_initial_rotation_accepted(self, rng):
        g = random_rotation(rng)
        lvs = make_line_vectors(rng, g, 40, noise=0.001)
        rot, converged = estimate_rotation_gnc(lvs, GncConfig(), initial_rotation=g)
        assert converged
        assert stable_geodesic(rot, g) < 1e-3


class TestTranslationMedian:
    def test_exact_on_pure_translation(self, rng):
        g = random_transform(rng)
        src = rng.normal(size=(15, 3))
        assert np.allclose(estimate_translation(src, g.apply(src), g.rotation), g.translation, atol=1e-12)

    def test_median_rejects_minority(self):
        src = np.zeros((3, 3))
        tgt = np.array([[0.0, 0, 0], [0, 0, 0], [9.0, 9, 9]])
        assert np.allclose(estimate_translation(src, tgt, np.eye(3)), (0, 0, 0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_sort_based_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        src = rng.normal(size=(n, 3))
        tgt = rng.normal(size=(n, 3))
        rot = random_rotation(rng)
        got = estimate_translation(src, tgt, rot)
        cand = tgt - src @ rot.T
        for axis in range(3):
            vals = np.sort(cand[:, axis])
            mid = n // 2
            expected = vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])
            assert got[axis] == pytest.approx(expected, abs=1e-12)

    def test_seventy_percent_inliers_with_noise(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = random_transform(rng, translation_scale=0.5)
            src = rng.normal(size=(100, 3))
            tgt = g.apply(src) + rng.normal(scale=0.005, size=(100, 3))
            rows = rng.choice(100, size=30, replace=False)
            tgt[rows] = rng.normal(size=(30, 3))
            got = estimate_translation(src, tgt, g.rotation)
            assert np.linalg.norm(got - g.translation) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            estimate_translation(np.empty((0, 3)), np.empty((0, 3)), np.eye(3))


class TestLocalTransform:
    def _setup(self, rng, n, outlier_fraction, noise):
        g = random_transform(rng, translation_scale=0.5)
        src = rng.normal(scale=0.5, size=(n, 3))
        tgt = g.apply(src) + (rng.normal(scale=noise, size=(n, 3)) if noise else 0.0)
        n_out = int(round(outlier_fraction * n))
        if n_out:
            rows = rng.choice(n, size=n_out, replace=False)
            tgt[rows] = rng.normal(scale=0.5, size=(n_out, 3))
        corrs = CorrespondenceSet(src, tgt)
        return g, corrs, build_line_vectors(corrs)

    def test_full_inlier_recovery(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g, corrs, lvs = self._setup(rng, 25, 0.0, 0.0)
            est = estimate_local_transform(lvs, corrs.source, corrs.target, GncConfig())
            assert stable_geodesic(est.rotation, g.rotation) < 1e-6
            assert np.linalg.norm(est.translation - g.translation) < 1e-6

    def test_half_outlier_line_vectors(self):
        # corrupting ~29% of correspondences leaves (1 - 0.29)^2 ~ 50% of the
        # pairwise line vectors intact, the regime the solver must handle
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            g, corrs, lvs = self._setup(rng, 40, 0.29, 0.002)
            est = estimate_local_transform(lvs, corrs.source, corrs.target, GncConfig())
            assert np.degrees(stable_geodesic(est.rotation, g.rotation)) < 1.0, f"seed {seed}"
            assert np.linalg.norm(est.translation - g.translation) < 0.02, f"seed {seed}"

    def test_degenerate_parallel_basic_set(self):
        src = np.outer(np.linspace(0, 4, 5), [1.0, 0, 0])
        corrs = CorrespondenceSet(src, src + [0.0, 0.0, 1.0])
        lvs = build_line_vectors(corrs)
        with pytest.raises(DegenerateInput):
            estimate_local_transform(lvs, corrs.source, corrs.target, GncConfig())

    def test_result_satisfies_transform_invariants(self, rng):
        g, corrs, lvs = self._setup(rng, 30, 0.3, 0.003)
        est = estimate_local_transform(lvs, corrs.source, corrs.target, GncConfig())
        assert isinstance(est, RigidTransform)  # constructor validates orthonormality

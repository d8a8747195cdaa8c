"""Metamorphic oracles: a registration against the registration of a transformed scene.

Unit scaling. Scaling both clouds, `residual_threshold` and `noise_bound`
by a power of two s = 2^k changes no bit of any relative quantity, so the
run takes the same draws and the same decisions: the rotation keeps its
bytes, the translation is s times the unscaled one exactly, and the
inliers, the round trace, the counters and the self-update records are
equal, out to 2^±480.

Source/target swap. Registering the target onto the source, with the
correspondence columns swapped, estimates the inverse motion: the swapped
estimate composed with the forward one lies within the success tolerance
(2 degrees, 0.03) of the identity.

Change of world frame. Moving both clouds by one rigid G moves the ground
truth T to G T G^-1, and the estimate should move with it. It does not
keep its bytes: each normal is signed so that its largest world-axis
component is positive, G changes which axis that is, and so the angle
filter keeps other rows and the run draws other samples. The success rate
does not move; the kept set's equality is pinned as a strict xfail.

Row permutation. Permuting the correspondences with the engine seed fixed
changes the draws, and Scott's widths may move in the last bit (`np.std`
sums pairwise, in row order), so the oracle compares success rates only.
"""

from functools import lru_cache

import numpy as np
import pytest

from lvreg.correspondences import CorrespondenceSet
from lvreg.engine import RansacConfig, run_registration
from lvreg.geometry import RigidTransform
from lvreg.local_sets import angle_histogram_filter, build_angle_histogram
from lvreg.normals import PointCloud, annotate_normals
from lvreg.synthetic import SyntheticSpec, synthesize_pair

from conftest import compose, random_transform, stable_geodesic


def register_scaled(seed, use_ahs_lvlp, k):
    """One registration of scene `seed` with coordinates and both settings scaled by 2^k."""
    s = 2.0 ** k
    source, target, corrs, _, _ = synthesize_pair(SyntheticSpec(
        n_points=400, n_correspondences=150, outlier_rate=0.7, noise_sigma=0.003, seed=seed))
    cfg = RansacConfig(r_max=4, max_local_iterations=150, use_ahs_lvlp=use_ahs_lvlp,
                       residual_threshold=0.01 * s, noise_bound=0.05 * s)
    return run_registration(CorrespondenceSet(corrs.source * s, corrs.target * s),
                            PointCloud(source.points * s), PointCloud(target.points * s), cfg)


@lru_cache(maxsize=8)
def unscaled(seed, use_ahs_lvlp):
    return register_scaled(seed, use_ahs_lvlp, 0)


def scaling_mismatches(seed, use_ahs_lvlp, k):
    """The parts of the 2^k-scaled run that differ from the unscaled run's, scaled."""
    base, scaled = unscaled(seed, use_ahs_lvlp), register_scaled(seed, use_ahs_lvlp, k)
    checks = {
        "rotation": base.transform.rotation.tobytes() == scaled.transform.rotation.tobytes(),
        "translation": ((base.transform.translation * 2.0 ** k).tobytes()
                        == scaled.transform.translation.tobytes()),
        "inliers": base.inlier_indices.tobytes() == scaled.inlier_indices.tobytes(),
        "weights": base.accumulated_weights.tobytes() == scaled.accumulated_weights.tobytes(),
        "trace": (base.per_round_trace == scaled.per_round_trace
                  and base.exit_reason == scaled.exit_reason
                  and base.total_iterations == scaled.total_iterations),
        "counters": base.counters == scaled.counters,
        "decisions": base.sus_decisions == scaled.sus_decisions,
    }
    return [name for name, same in checks.items() if not same]


class TestUnitScaling:
    @pytest.mark.parametrize("k", [-480, -400, -230, -200, -60, 60, 200, 230, 400, 480])
    @pytest.mark.parametrize("use_ahs_lvlp", [True, False])
    @pytest.mark.parametrize("seed", range(3))
    def test_scaled_run_is_the_run_scaled(self, seed, use_ahs_lvlp, k):
        assert scaling_mismatches(seed, use_ahs_lvlp, k) == []

    def test_the_scenes_exercise_the_self_update(self):
        # with the filters on the loop revises the local sets, so the
        # decision records above compare drawn probabilities
        assert all(sum(map(len, unscaled(seed, True).sus_decisions)) > 0 for seed in range(3))


def swap_error(seed, use_ahs_lvlp, outlier_rate):
    """(degrees, distance) from the identity of the swapped estimate after the forward one."""
    source, target, corrs, _, _ = synthesize_pair(SyntheticSpec(
        n_points=400, n_correspondences=150, outlier_rate=outlier_rate, noise_sigma=0.003,
        seed=seed))
    cfg = RansacConfig(r_max=4, max_local_iterations=150, use_ahs_lvlp=use_ahs_lvlp)
    forward = run_registration(corrs, source, target, cfg).transform
    swapped = run_registration(CorrespondenceSet(corrs.target, corrs.source), target, source,
                               cfg).transform
    loop = compose(swapped, forward)
    return stable_geodesic(loop.rotation, np.eye(3)) * 180.0 / np.pi, np.linalg.norm(loop.translation)


class TestSourceTargetSwap:
    @pytest.mark.parametrize("outlier_rate", [0.5, 0.7, 0.8])
    @pytest.mark.parametrize("use_ahs_lvlp", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_swapped_run_is_the_inverse(self, seed, use_ahs_lvlp, outlier_rate):
        degrees, distance = swap_error(seed, use_ahs_lvlp, outlier_rate)
        assert degrees <= 2.0 and distance <= 0.03, (degrees, distance)


# The setup of ROADMAP item 2. The default engine settings run up to
# 10,000 local iterations a round: at 0.9 and 0.95 outliers, ten scenes
# registered three times each (both frames, one permutation) took 29 s
# and 83 s, so the oracles run the two rates that take about a second.
FRAME_SEEDS = range(10)
FRAME_RATES = (0.5, 0.8)


@lru_cache(maxsize=32)
def frame_scene(seed, outlier_rate):
    """(source, target, correspondences, ground truth, G): a scene and its frame change."""
    source, target, corrs, gt, _ = synthesize_pair(SyntheticSpec(
        n_points=2000, n_correspondences=400, outlier_rate=outlier_rate, noise_sigma=0.003,
        seed=seed))
    return source, target, corrs, gt, random_transform(np.random.default_rng(1000 + seed))


def moved(g, source, target, corrs):
    """Both clouds and the correspondences in the frame G moves them to."""
    return (PointCloud(g.apply(source.points)), PointCloud(g.apply(target.points)),
            CorrespondenceSet(g.apply(corrs.source), g.apply(corrs.target)))


def conjugate(g, t):
    """G T G^-1: the motion T as seen in the frame G moves the scene to."""
    inverse = RigidTransform(g.rotation.T, -g.rotation.T @ g.translation)
    return compose(compose(g, t), inverse)


def succeeded(corrs, source, target, gt, seed):
    est = run_registration(corrs, source, target, RansacConfig(rng_seed=seed)).transform
    return (stable_geodesic(est.rotation, gt.rotation) * 180.0 / np.pi <= 2.0
            and np.linalg.norm(est.translation - gt.translation) <= 0.03)


@lru_cache(maxsize=4)
def successes(outlier_rate):
    """Scenes of `FRAME_SEEDS` registered within (2 degrees, 0.03), in the scene's frame."""
    count = 0
    for seed in FRAME_SEEDS:
        source, target, corrs, gt, _ = frame_scene(seed, outlier_rate)
        count += succeeded(corrs, source, target, gt, seed)
    return count


def angle_kept(corrs, source, target):
    """Ids the angle filter keeps, with normals from the default neighbourhood."""
    corrs = annotate_normals(corrs, source, target, RansacConfig().k_normals)
    return angle_histogram_filter(corrs, build_angle_histogram(corrs)).indices


class TestChangeOfWorldFrame:
    @pytest.mark.parametrize("outlier_rate", FRAME_RATES)
    def test_success_rate_does_not_move(self, outlier_rate):
        moved_successes = 0
        for seed in FRAME_SEEDS:
            source, target, corrs, gt, g = frame_scene(seed, outlier_rate)
            ms, mt, mc = moved(g, source, target, corrs)
            moved_successes += succeeded(mc, ms, mt, conjugate(g, gt), seed)
        assert moved_successes == successes(outlier_rate) == len(FRAME_SEEDS)

    @pytest.mark.xfail(strict=True, reason=(
        "normals are signed by their largest world-axis component, which G changes: the "
        "kept set's median Jaccard index against the unmoved frame's was 0.66, 0.57, 0.47 "
        "and 0.56 at 0.5, 0.8, 0.9 and 0.95 outliers (ROADMAP items 2 and 4)"))
    def test_angle_filter_keeps_the_same_rows(self):
        for outlier_rate in FRAME_RATES:
            for seed in FRAME_SEEDS:
                source, target, corrs, _, g = frame_scene(seed, outlier_rate)
                ms, mt, mc = moved(g, source, target, corrs)
                assert np.array_equal(angle_kept(mc, ms, mt), angle_kept(corrs, source, target))


class TestRowPermutation:
    @pytest.mark.parametrize("outlier_rate", FRAME_RATES)
    def test_success_rate_does_not_move(self, outlier_rate):
        permuted_successes = 0
        for seed in FRAME_SEEDS:
            source, target, corrs, gt, _ = frame_scene(seed, outlier_rate)
            rows = np.random.default_rng(2000 + seed).permutation(len(corrs))
            permuted = CorrespondenceSet(corrs.source[rows], corrs.target[rows])
            permuted_successes += succeeded(permuted, source, target, gt, seed)
        assert permuted_successes == successes(outlier_rate) == len(FRAME_SEEDS)

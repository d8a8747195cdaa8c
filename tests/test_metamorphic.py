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
"""

from functools import lru_cache

import numpy as np
import pytest

from lvreg.correspondences import CorrespondenceSet
from lvreg.engine import RansacConfig, run_registration
from lvreg.normals import PointCloud
from lvreg.synthetic import SyntheticSpec, synthesize_pair

from conftest import compose, stable_geodesic


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

"""The benchmark's workloads: seeded labeled scenes and the engine settings for each.

Every workload is a pool of scenes drawn from the workload seed. Settings
a workload does not name are `lvreg.bench.SuiteConfig` defaults (noise
sigma 0.003, `max_local_iterations=150`, five rounds). The engine receives
only the generated scene; the labels stay with the benchmark, which scores
every result against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lvreg.bench import SuiteConfig
from lvreg.engine import RansacConfig, RegistrationResult
from lvreg.normals import PointCloud
from lvreg.synthetic import SyntheticSpec, synthesize_pair

# Acceptance criterion 2's success gates.
SUCCESS_ROTATION_DEG = 2.0
SUCCESS_TRANSLATION = 0.03
ROTATION_TOL = 1e-9


# Scene and engine settings the workloads do not override: SuiteConfig's defaults.
SUITE = SuiteConfig()


@dataclass(frozen=True)
class Workload:
    n_points: int
    n_correspondences: int
    outlier_rate: float
    use_ahs_lvlp: bool
    scenes: int          # pool size; one pass registers every scene once


# A pass over a pool takes about 40 s on a 2-core machine, inside the default
# 45 s run, so the first pass (which every accuracy metric covers) ends in time.
WORKLOADS = {
    "filtered-m2000": Workload(5000, 2000, 0.8, True, 54),
    "unfiltered-m800": Workload(2000, 800, 0.8, False, 52),
}


@dataclass(frozen=True, eq=False)
class Scene:
    source: PointCloud
    target: PointCloud
    corrs: object
    gt_rotation: np.ndarray
    gt_translation: np.ndarray
    inlier_mask: np.ndarray  # true where the correspondence is a labeled inlier
    cfg: RansacConfig


def make_scenes(workload: Workload, seed: int) -> list[Scene]:
    """The workload's scene pool; the same seed gives bit-identical scenes."""
    s, w = SUITE, workload
    scenes = []
    for child in np.random.SeedSequence(seed).spawn(w.scenes):
        synth_seed, engine_seed = (int(v) for v in child.generate_state(2, dtype=np.uint64))
        spec = SyntheticSpec(
            n_points=w.n_points, n_correspondences=w.n_correspondences,
            outlier_rate=w.outlier_rate, noise_sigma=s.noise_sigma,
            rotation_magnitude_deg=s.rotation_magnitude_deg,
            translation_magnitude=s.translation_magnitude, scene_extent=s.scene_extent,
            surface_model=s.surface_model, seed=synth_seed, residual_threshold=s.residual_threshold,
        )
        cfg = RansacConfig(
            residual_threshold=s.residual_threshold, confidence_target=s.confidence_target,
            r_max=s.r_max, alpha_pct=s.alpha_pct, beta_pct=s.beta_pct, noise_bound=s.noise_bound,
            rng_seed=engine_seed, max_local_iterations=s.max_local_iterations,
            use_ahs_lvlp=w.use_ahs_lvlp, use_sus=True, sigma_mode=s.sigma_mode,
        )
        source, target, corrs, gt, true_inliers = synthesize_pair(spec)
        mask = np.zeros(len(corrs), dtype=bool)
        mask[true_inliers] = True
        scenes.append(Scene(source, target, corrs, gt.rotation, gt.translation, mask, cfg))
    return scenes


def pose_errors(scene: Scene, result: RegistrationResult) -> tuple[float, float]:
    """Rotation error in degrees and translation error against ground truth."""
    rot = result.transform.rotation
    c = (np.trace(scene.gt_rotation @ rot.T) - 1.0) / 2.0
    r_err = float(np.degrees(np.arccos(np.clip(c, -1.0, 1.0))))
    t_err = float(np.linalg.norm(result.transform.translation - scene.gt_translation))
    return r_err, t_err


def is_success(r_err: float, t_err: float) -> bool:
    return r_err < SUCCESS_ROTATION_DEG and t_err < SUCCESS_TRANSLATION


def check_result(scene: Scene, result: RegistrationResult) -> list[str]:
    """Invariants every returned registration must hold; empty when all pass."""
    problems = []
    rot = np.asarray(result.transform.rotation)
    if rot.shape != (3, 3) or not np.all(np.abs(rot.T @ rot - np.eye(3)) <= ROTATION_TOL) \
            or abs(np.linalg.det(rot) - 1.0) > ROTATION_TOL:
        problems.append("rotation is not orthonormal with det +1")
    tr = np.asarray(result.transform.translation)
    if tr.shape != (3,) or not np.all(np.isfinite(tr)):
        problems.append("translation is not a finite 3-vector")
    idx = np.asarray(result.inlier_indices)
    if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= len(scene.corrs)):
        problems.append("inlier index out of range")
    return problems


def fingerprint(result: RegistrationResult) -> tuple:
    """Everything a repeat of the same registration must reproduce exactly."""
    decisions = [(d.correspondence_index, d.action.value, d.rule.value, d.probability, d.threshold)
                 for round_decisions in result.sus_decisions for d in round_decisions]
    return (result.transform.rotation.tobytes(), result.transform.translation.tobytes(),
            np.asarray(result.inlier_indices).tobytes(), result.accumulated_weights.tobytes(),
            result.rounds, result.total_iterations, result.final_confidence, result.exit_reason,
            tuple(decisions))

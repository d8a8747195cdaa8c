"""Synthetic registration scenes with exact inlier/outlier labels.

The generator samples a desk-scale source cloud on a chosen surface model,
applies a random rigid motion of the requested magnitudes, adds isotropic
Gaussian noise to the target copy, and pairs correspondences so that the
labels are unambiguous: inlier noise is redrawn until the residual stays
strictly below the labeling threshold, and outlier pairings are redrawn
until their residual exceeds a 3x margin above it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correspondences import CorrespondenceSet
from .geometry import RigidTransform, rotation_about_axis
from .normals import PointCloud

SURFACE_MODELS = ("multi-plane", "random-blobs")


@dataclass(frozen=True)
class SyntheticSpec:
    n_points: int = 1000
    n_correspondences: int = 200
    outlier_rate: float = 0.0
    noise_sigma: float = 0.0
    rotation_magnitude_deg: float = 30.0
    translation_magnitude: float = 0.5
    scene_extent: float = 1.0
    surface_model: str = "multi-plane"
    seed: int = 0
    residual_threshold: float = 0.01   # labeling threshold for inliers/outliers
    outlier_margin_factor: float = 3.0

    def __post_init__(self):
        if self.n_correspondences > self.n_points:
            raise ValueError("cannot draw more correspondences than points")
        if not (0.0 <= self.outlier_rate < 1.0):
            raise ValueError("outlier_rate must lie in [0, 1)")
        if self.surface_model not in SURFACE_MODELS:
            raise ValueError(f"surface_model must be one of {SURFACE_MODELS}")
        for name in ("scene_extent", "residual_threshold", "outlier_margin_factor"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive")
        if not (0 <= self.noise_sigma < np.inf
                and np.isfinite([self.rotation_magnitude_deg, self.translation_magnitude]).all()):
            raise ValueError("noise_sigma must be finite and non-negative, the motion finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


def _sample_multi_plane(rng: np.random.Generator, n: int, extent: float, n_planes: int = 8) -> np.ndarray:
    """Points spread over several randomly oriented planar patches."""
    normals = np.stack([_random_unit(rng) for _ in range(n_planes)])
    centers = rng.uniform(-extent / 2, extent / 2, size=(n_planes, 3))
    assignment = rng.integers(0, n_planes, size=n)
    points = np.empty((n, 3))
    for k in range(n_planes):
        rows = np.nonzero(assignment == k)[0]
        if rows.size == 0:
            continue
        u = _random_unit(rng)
        u = u - np.dot(u, normals[k]) * normals[k]
        u /= np.linalg.norm(u)
        v = np.cross(normals[k], u)
        ab = rng.uniform(-extent / 2, extent / 2, size=(rows.size, 2)) * 0.7
        points[rows] = centers[k] + ab[:, :1] * u + ab[:, 1:] * v
    return points


def _sample_random_blobs(rng: np.random.Generator, n: int, extent: float, n_blobs: int = 6) -> np.ndarray:
    """Gaussian blobs scattered through the scene volume."""
    centers = rng.uniform(-extent / 2, extent / 2, size=(n_blobs, 3))
    assignment = rng.integers(0, n_blobs, size=n)
    return centers[assignment] + rng.normal(scale=extent / 8, size=(n, 3))


def _truncated_noise(rng: np.random.Generator, sigma: float, bound: float, n: int) -> np.ndarray:
    """Isotropic Gaussian noise with norm strictly below `bound` (exact labels)."""
    noise = np.zeros((n, 3))
    if sigma == 0.0:
        return noise
    for row in range(n):
        for _ in range(100):
            v = rng.normal(scale=sigma, size=3)
            if np.linalg.norm(v) < bound:
                noise[row] = v
                break
        else:
            v = rng.normal(scale=sigma, size=3)
            noise[row] = v * (0.5 * bound / np.linalg.norm(v))
    return noise


def synthesize_pair(spec: SyntheticSpec):
    """Generate a labeled scene.

    Returns (source_cloud, target_cloud, correspondences, gt_transform,
    true_inlier_indices). Bit-identical for a fixed seed.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.surface_model == "multi-plane":
        src = _sample_multi_plane(rng, spec.n_points, spec.scene_extent)
    else:
        src = _sample_random_blobs(rng, spec.n_points, spec.scene_extent)

    gt = RigidTransform(
        rotation_about_axis(_random_unit(rng), np.radians(spec.rotation_magnitude_deg)),
        _random_unit(rng) * spec.translation_magnitude,
    )
    noise = _truncated_noise(rng, spec.noise_sigma, spec.residual_threshold, spec.n_points)
    tgt = gt.apply(src) + noise

    m = spec.n_correspondences
    n_inliers = int(round((1.0 - spec.outlier_rate) * m))
    inlier_ids = rng.choice(spec.n_points, size=n_inliers, replace=False)

    margin = spec.outlier_margin_factor * spec.residual_threshold
    pairs = np.empty((m, 2), dtype=np.int64)
    pairs[:n_inliers, 0] = inlier_ids
    pairs[:n_inliers, 1] = inlier_ids
    for row in range(n_inliers, m):
        for _ in range(100000):
            i = int(rng.integers(spec.n_points))
            j = int(rng.integers(spec.n_points))
            if np.linalg.norm(gt.apply(src[i]) - tgt[j]) >= margin:
                pairs[row] = (i, j)
                break
        else:
            raise RuntimeError("could not place an outlier beyond the residual margin")

    perm = rng.permutation(m)
    pairs = pairs[perm]
    true_inliers = np.sort(np.nonzero(perm < n_inliers)[0])

    corrs = CorrespondenceSet(src[pairs[:, 0]], tgt[pairs[:, 1]])
    return PointCloud(src), PointCloud(tgt), corrs, gt, true_inliers

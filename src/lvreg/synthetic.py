"""Synthetic registration scenes with exact inlier/outlier labels.

The generator samples a desk-scale source cloud on a chosen surface model,
applies a random rigid motion of the requested magnitudes, adds isotropic
Gaussian noise to the target copy, and pairs correspondences so that the
labels are unambiguous: inlier noise is redrawn until the residual stays
strictly below the labeling threshold, and outlier pairings are redrawn
until their residual exceeds a 3x margin above it.

Both redraw loops run on arrays but consume the random stream row by row,
as a loop over rows would: each round draws one candidate per row still
missing (each row takes one draw at least, so no round draws past the
last row's end) and hands the accepted candidates to the rows in stream
order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .correspondences import CorrespondenceSet
from .errors import DegenerateInput
from .geometry import RigidTransform, rotation_about_axis
from .normals import PointCloud

SURFACE_MODELS = ("multi-plane", "random-blobs")

# Rejections a row may meet: a noise row then takes its next draw scaled to
# half the bound, and an outlier row refuses the scene.
NOISE_TRIES = 100
OUTLIER_TRIES = 100_000
# An outlier pairing's residual is at least this many residual thresholds.
OUTLIER_MARGIN = 3.0


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

    def __post_init__(self):
        for name in ("n_points", "n_correspondences", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.n_correspondences > self.n_points:
            raise ValueError("cannot draw more correspondences than points")
        if not (0.0 <= self.outlier_rate < 1.0):
            raise ValueError("outlier_rate must lie in [0, 1)")
        if self.surface_model not in SURFACE_MODELS:
            raise ValueError(f"surface_model must be one of {SURFACE_MODELS}")
        for name in ("scene_extent", "residual_threshold"):
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


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Each row's norm as `np.linalg.norm` takes it of one vector: the sqrt of its dot product."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0, 0]


def _rejection_runs(ok: np.ndarray, rejected: int) -> np.ndarray:
    """The current row's rejections in front of each draw, and after the last one.

    Draws are in stream order and a row ends at its first accepted draw
    (`ok`); `rejected` counts the row's rejections before `ok[0]`.
    """
    at = rejected + np.arange(len(ok) + 1)
    starts = np.maximum.accumulate(np.concatenate(([0], np.where(ok, at[1:], 0))))
    return at - starts


def _truncated_noise(rng: np.random.Generator, sigma: float, bound: float, n: int) -> np.ndarray:
    """Isotropic Gaussian noise with norm strictly below `bound` (exact labels).

    A row takes its first draw with a norm below `bound`; after NOISE_TRIES
    rejections it takes the next draw scaled to a norm of 0.5 * bound.
    """
    noise = np.zeros((n, 3))
    if sigma == 0.0:
        return noise
    filled, rejected = 0, 0
    while filled < n:
        draws = rng.normal(scale=sigma, size=(n - filled, 3))
        ok = _row_norms(draws) < bound
        while True:
            runs = _rejection_runs(ok, rejected)
            forced = np.flatnonzero(runs[:-1] == NOISE_TRIES)
            stop = forced[0] if forced.size else len(ok)
            kept = draws[:stop][ok[:stop]]
            noise[filled:filled + len(kept)] = kept
            filled += len(kept)
            if not forced.size:
                rejected = runs[-1]
                break
            v = draws[stop]
            noise[filled] = v * (0.5 * bound / np.linalg.norm(v))
            filled, rejected = filled + 1, 0
            draws, ok = draws[stop + 1:], ok[stop + 1:]
    return noise


def _outlier_residuals(gt: RigidTransform, src: np.ndarray, tgt: np.ndarray,
                       ij: np.ndarray) -> np.ndarray:
    """The norm of gt.apply(src[i]) - tgt[j] for each (i, j) row of `ij`.

    gt moves a stack of one-point arrays, so each row gets the bytes of
    gt.apply(src[i]); moving the (k, 3) array runs through GEMM, which
    rounds differently.
    """
    moved = gt.apply(src[ij[:, 0], None])[:, 0]
    return _row_norms(moved - tgt[ij[:, 1]])


def _outlier_pairs(rng: np.random.Generator, gt: RigidTransform, src: np.ndarray,
                   tgt: np.ndarray, n: int, margin: float) -> np.ndarray:
    """n (source row, target row) pairs whose residual under `gt` is at least `margin`.

    A row draws i, then j, until the pair clears the margin. One
    `integers(size=(k, 2))` call consumes the stream of 2k scalar calls.
    """
    pairs = np.empty((n, 2), dtype=np.int64)
    filled, rejected = 0, 0
    while filled < n:
        ij = rng.integers(len(src), size=(n - filled, 2))
        ok = _outlier_residuals(gt, src, tgt, ij) >= margin
        runs = _rejection_runs(ok, rejected)
        if runs.max() >= OUTLIER_TRIES:
            raise DegenerateInput(
                f"no outlier pairing cleared the residual margin {margin:g} in {OUTLIER_TRIES} "
                "draws; the scene is too small for it")
        kept = ij[ok]
        pairs[filled:filled + len(kept)] = kept
        filled += len(kept)
        rejected = runs[-1]
    return pairs


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

    margin = OUTLIER_MARGIN * spec.residual_threshold
    pairs = np.empty((m, 2), dtype=np.int64)
    pairs[:n_inliers, 0] = inlier_ids
    pairs[:n_inliers, 1] = inlier_ids
    pairs[n_inliers:] = _outlier_pairs(rng, gt, src, tgt, m - n_inliers, margin)

    perm = rng.permutation(m)
    pairs = pairs[perm]
    true_inliers = np.sort(np.nonzero(perm < n_inliers)[0])

    corrs = CorrespondenceSet(src[pairs[:, 0]], tgt[pairs[:, 1]])
    return PointCloud(src), PointCloud(tgt), corrs, gt, true_inliers

"""The row-by-row scene synthesis, kept as the oracle for `lvreg.synthetic`.

`synthesize_pair_reference` is `synthesize_pair` as it was written before
its noise and outlier loops became array code: one `rng.normal(size=3)`
and one `np.linalg.norm` per noise draw, and two scalar `rng.integers`
calls and one one-point `RigidTransform.apply` per outlier draw. The
surface samplers and the ground-truth motion are shared with the package.
"""

import numpy as np

from lvreg.correspondences import CorrespondenceSet
from lvreg.geometry import RigidTransform, rotation_about_axis
from lvreg.normals import PointCloud
from lvreg.synthetic import OUTLIER_MARGIN, _random_unit, _sample_multi_plane, _sample_random_blobs


def truncated_noise_reference(rng, sigma, bound, n):
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


def synthesize_pair_reference(spec):
    rng = np.random.default_rng(spec.seed)
    if spec.surface_model == "multi-plane":
        src = _sample_multi_plane(rng, spec.n_points, spec.scene_extent)
    else:
        src = _sample_random_blobs(rng, spec.n_points, spec.scene_extent)

    gt = RigidTransform(
        rotation_about_axis(_random_unit(rng), np.radians(spec.rotation_magnitude_deg)),
        _random_unit(rng) * spec.translation_magnitude,
    )
    noise = truncated_noise_reference(rng, spec.noise_sigma, spec.residual_threshold, spec.n_points)
    tgt = gt.apply(src) + noise

    m = spec.n_correspondences
    n_inliers = int(round((1.0 - spec.outlier_rate) * m))
    inlier_ids = rng.choice(spec.n_points, size=n_inliers, replace=False)

    margin = OUTLIER_MARGIN * spec.residual_threshold
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

"""Robust local transform estimation from line vectors.

Rotation is estimated on translation-invariant line vectors by graduated
non-convexity over a truncated-least-squares loss (iteratively reweighted
closed-form alignment with the continuation parameter annealed each
iteration). Translation is the component-wise median of the rotated
residual vectors, robust to up to 50% outliers per axis.

Layout. Each GNC call copies the source line vectors once into a
contiguous (3, n) array `a_t`, and the targets into `b_t`, while keeping
the targets `b` as a C-contiguous (n, 3) array; every iteration reuses two
(3, n) scratch buffers. Per iteration:

* squared residuals are `R @ a_t - b_t`, squared in place and summed as
  `(d[0] + d[1]) + d[2]`;
* the weighted cross-covariance is `(b.T @ (w * a_t).T).T`.

The operand order is fixed because it fixes the rounding. On OpenBLAS
these forms give the same bits as the textbook (n, 3) forms
`np.sum((a @ R.T - b) ** 2, axis=1)` and `(w[:, None] * a).T @ b`, so the
solver's output does not depend on the layout. `d[0] + (d[1] + d[2])`,
`einsum`, `(w * a_t) @ b`, or a (3, n) copy of `b` as the left operand
each round differently. `tests/test_solver.py` keeps the (n, 3) solver
as the reference and requires equal bytes.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput
from .geometry import RigidTransform, rotation_from_cross_covariance
from .local_sets import LineVectorSet


# The annealing schedule of Yang et al., "Graduated Non-Convexity for Robust
# Spatial Perception" (RA-L 2020): mu grows by MU_FACTOR per iteration, at
# most MAX_ITERATIONS iterations, converged once the weights move by less
# than CONVERGENCE_TOL in total.
MU_FACTOR = 1.4
MAX_ITERATIONS = 100
CONVERGENCE_TOL = 1e-6


def _tls_weights(res_sq: np.ndarray, mu: float, eps_sq: float) -> np.ndarray:
    """Closed-form weights of the truncated-least-squares surrogate at mu."""
    lo = mu / (mu + 1.0) * eps_sq
    hi = (mu + 1.0) / mu * eps_sq
    # The middle-band formula on every entry (elementwise, so the same bits
    # as on the band alone), then the two outer bands written over it.
    with np.errstate(divide="ignore", over="ignore"):
        w = np.sqrt(eps_sq * mu * (mu + 1.0) / res_sq) - mu
    w[~(res_sq < hi)] = 0.0
    w[res_sq <= lo] = 1.0
    return np.clip(w, 0.0, 1.0, out=w)


def _check_source_span(v_source: np.ndarray):
    s = np.linalg.svd(v_source, compute_uv=False)
    if len(s) < 2 or s[1] <= s[0] * 1e-9 or s[0] == 0.0:
        raise DegenerateInput("line-vector source directions are parallel; rotation underdetermined")


def _squared_residuals(rot, a_t, b_t, diff) -> np.ndarray:
    """||R a_i - b_i||^2 per column of the (3, n) arrays; `diff` is scratch space."""
    np.matmul(rot, a_t, out=diff)
    np.subtract(diff, b_t, out=diff)
    np.multiply(diff, diff, out=diff)
    return (diff[0] + diff[1]) + diff[2]


def _solve_rotation(b, weighted_a_t) -> np.ndarray:
    """Rotation from h = sum_i w_i a_i b_i^T, with `b` (n, 3) C-contiguous and w*a as (3, n)."""
    return rotation_from_cross_covariance((b.T @ weighted_a_t.T).T)


def estimate_rotation_gnc(lvs: LineVectorSet, noise_bound: float,
                          initial_rotation: np.ndarray | None = None,
                          trace: list | None = None) -> tuple[np.ndarray, bool]:
    """Robust rotation aligning the source line vectors onto the target ones.

    Minimizes sum_i min(||R v_src_i - v_tgt_i||^2, tau^2) by graduated
    non-convexity: weighted closed-form alignment alternated with the
    truncated-least-squares weight update while the continuation parameter
    grows geometrically; tau is `noise_bound`. The best iterate under the
    truncated loss is returned together with a convergence flag;
    non-convergence still yields a proper rotation.

    Raises DegenerateInput when the source directions are all parallel.
    """
    if not noise_bound > 0:
        raise ValueError("noise_bound must be positive")
    if len(lvs) < 2:
        raise DegenerateInput("need at least 2 line vectors to estimate a rotation")
    _check_source_span(lvs.v_source)

    # See the module docstring for the layout and the fixed operand order.
    b = np.ascontiguousarray(lvs.v_target)
    a_t = np.ascontiguousarray(lvs.v_source.T)
    b_t = np.ascontiguousarray(b.T)
    diff = np.empty_like(a_t)
    weighted_a_t = np.empty_like(a_t)

    eps_sq = noise_bound ** 2
    rot = np.eye(3) if initial_rotation is None else np.asarray(initial_rotation, dtype=np.float64)
    res_sq = _squared_residuals(rot, a_t, b_t, diff)

    max_res_sq = float(res_sq.max())
    if 2.0 * max_res_sq <= eps_sq:
        # Everything already within the noise bound: one plain solve suffices.
        return _solve_rotation(b, a_t), True

    mu = eps_sq / (2.0 * max_res_sq - eps_sq)
    best_rot = rot
    best_cost = float(np.minimum(res_sq, eps_sq).sum())
    prev_weights = None
    converged = False

    for _ in range(MAX_ITERATIONS):
        weights = _tls_weights(res_sq, mu, eps_sq)
        if np.count_nonzero(weights) < 2:
            break  # surrogate support collapsed; keep the best iterate
        np.multiply(a_t, weights, out=weighted_a_t)
        try:
            rot = _solve_rotation(b, weighted_a_t)
        except DegenerateInput:
            break
        res_sq_before = res_sq
        res_sq = _squared_residuals(rot, a_t, b_t, diff)
        cost = float(np.minimum(res_sq, eps_sq).sum())
        if cost < best_cost:
            best_cost = cost
            best_rot = rot
        if trace is not None:
            trace.append({"mu": mu, "weights": weights.copy(),
                          "wsse_before": float(np.sum(weights * res_sq_before)),
                          "wsse_after": float(np.sum(weights * res_sq)),
                          "tls_cost": cost})
        if prev_weights is not None and float(np.abs(weights - prev_weights).sum()) < CONVERGENCE_TOL:
            converged = True
            break
        prev_weights = weights
        mu *= MU_FACTOR

    return best_rot, converged


def estimate_translation(source: np.ndarray, target: np.ndarray, rotation: np.ndarray) -> np.ndarray:
    """Component-wise median of target - R @ source over paired (N, 3) points.

    Exactly the per-axis median (middle two averaged for even counts), so
    the estimate tolerates up to 50% outliers per axis.
    """
    if len(source) == 0:
        raise DegenerateInput("cannot estimate a translation from zero correspondences")
    rotation = np.asarray(rotation, dtype=np.float64)
    candidates = target - source @ rotation.T
    return np.median(candidates, axis=0)


def estimate_local_transform(basic_lvs: LineVectorSet, source: np.ndarray, target: np.ndarray,
                             noise_bound: float,
                             initial_rotation: np.ndarray | None = None) -> RigidTransform:
    """Rigid transform from a basic line-vector sample plus its endpoint points."""
    rot, _ = estimate_rotation_gnc(basic_lvs, noise_bound, initial_rotation=initial_rotation)
    return RigidTransform(rot, estimate_translation(source, target, rot))

"""Robust local transform estimation from line vectors.

Rotation is estimated on translation-invariant line vectors by graduated
non-convexity over a truncated-least-squares loss (iteratively reweighted
closed-form alignment with the continuation parameter annealed each
iteration). Translation is the component-wise median of the rotated
residual vectors, robust to up to 50% outliers per axis.

Layout. Each GNC call copies the source line vectors once into a
contiguous (3, n) array `a_t`, and the targets into `b_t`, while keeping
the targets `b` as a C-contiguous (n, 3) array. Per iteration:

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

Buffers. A call allocates its arrays once and the iterations write into
them: two (3, n) scratch arrays (the residual differences and w * a_t),
one residual vector, two weight vectors used in turn (the previous
weights are still read by the convergence test), one scratch vector and
one boolean band mask. The weights are written in place (`_tls_weights`);
the support count is taken on the mask `w > 0`, which counts what
`count_nonzero(w)` would (the weights hold no NaN or -0.0) in a fraction
of the time. The truncated cost
and the convergence sum reduce a contiguous scratch vector with
`np.add.reduce`, the pairwise summation `ndarray.sum` uses, so they keep
their bits.

Span check. The parallel-sources test is the exact SVD's decision, but a
Gram-matrix screen settles almost every sample without the (n, 3) SVD;
see `_check_source_span`.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput
from .geometry import RigidTransform, rotation_from_cross_covariance


# The annealing schedule of Yang et al., "Graduated Non-Convexity for Robust
# Spatial Perception" (RA-L 2020): mu grows by MU_FACTOR per iteration, at
# most MAX_ITERATIONS iterations, converged once the weights move by less
# than CONVERGENCE_TOL in total.
MU_FACTOR = 1.4
MAX_ITERATIONS = 100
CONVERGENCE_TOL = 1e-6

# The ufunc `np.clip` calls for float bounds, without the wrapper's dispatch.
_clip = np._core.umath.clip
_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal float64


def squared_noise_bound(noise_bound: float) -> float:
    """tau squared, as the GNC uses it; ValueError unless it is a normal float.

    A square that underflows (to 0 or a subnormal) or overflows has no place
    in the annealing schedule, which divides by it and by mu, its multiple.
    """
    if not noise_bound > 0:
        raise ValueError("noise_bound must be positive")
    try:
        with np.errstate(over="ignore", under="ignore"):
            eps_sq = noise_bound ** 2
    except OverflowError:  # a Python float's power raises; a NumPy float's is inf
        eps_sq = np.inf
    if not _TINY <= eps_sq < np.inf:
        raise ValueError(f"noise_bound {noise_bound!r} squared is not a normal float")
    return eps_sq


def _tls_weights(res_sq: np.ndarray, mu: float, eps_sq: float, out: np.ndarray,
                 band: np.ndarray) -> np.ndarray:
    """Closed-form weights of the truncated-least-squares surrogate at mu, into `out`.

    `band` is boolean scratch space. The middle-band formula is computed on
    every entry (elementwise, so the same bits as on the band alone), then
    the two outer bands are written over it and the result is clipped.
    """
    lo = mu / (mu + 1.0) * eps_sq
    hi = (mu + 1.0) / mu * eps_sq
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(eps_sq * mu * (mu + 1.0), res_sq, out=out)
    np.sqrt(out, out=out)
    np.subtract(out, mu, out=out)
    np.less(res_sq, hi, out=band)
    np.logical_not(band, out=band)  # not below hi, NaN included
    np.copyto(out, 0.0, where=band)
    np.less_equal(res_sq, lo, out=band)
    np.copyto(out, 1.0, where=band)
    return _clip(out, 0.0, 1.0, out=out)


# Spanning screen of `_check_source_span`: the Gram matrix's eigenvalues are
# the squared singular values, so a second eigenvalue above this fraction of
# the largest (a singular-value ratio near 1e-4) is far from the 1e-9 bound.
_SPAN_SCREEN_RATIO = 1e-8
# Below this largest Gram eigenvalue, underflow in the Gram products could
# matter; such sources take the exact test.
_SPAN_SCREEN_FLOOR = 1e-250
_EPS = float(np.finfo(np.float64).eps)


def _check_source_span(v_source: np.ndarray, a_t: np.ndarray):
    """Raise DegenerateInput unless the (n, 3) source directions span a plane.

    `a_t` is `v_source.T` as a contiguous (3, n) array. The decision is the
    exact SVD's: singular values s0 >= s1 of `v_source`, degenerate unless
    s1 > 1e-9 * s0 (so also when s0 == 0, or when an inf entry makes the
    singular values NaN). A cheap screen passes most samples first:
    the eigenvalues of the 3x3 Gram matrix `a_t @ v_source` are s**2,
    computed with an absolute error of at most about 3 n eps s0**2 (the
    products) plus eps s0**2 (the symmetric eigensolver). A second
    eigenvalue above (1e-8 + 4 n eps) times the largest therefore means
    s1 / s0 > ~1e-4, which the exact SVD, accurate to about eps s0, cannot
    put at or below 1e-9. A non-finite Gram matrix (overflow, NaN), a
    largest eigenvalue near the underflow range or a ratio below the margin
    is not conclusive and runs the exact SVD.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a_t @ v_source  # a GEMM: `a_t @ a_t.T` takes a slower path
    if np.isfinite(gram).all():
        _, mid, top = np.linalg.eigvalsh(gram).tolist()
        margin = _SPAN_SCREEN_RATIO + 4.0 * len(v_source) * _EPS
        if top >= _SPAN_SCREEN_FLOOR and mid > margin * top:
            return
    s = np.linalg.svd(v_source, compute_uv=False)
    if not s[1] > s[0] * 1e-9:  # NaN singular values (an inf entry) fail too
        raise DegenerateInput("line-vector source directions are parallel; rotation underdetermined")


def _squared_residuals(rot, a_t, b_t, diff, out) -> np.ndarray:
    """||R a_i - b_i||^2 per column of the (3, n) arrays, into `out`; `diff` is scratch space."""
    np.matmul(rot, a_t, out=diff)
    np.subtract(diff, b_t, out=diff)
    np.multiply(diff, diff, out=diff)
    np.add(diff[0], diff[1], out=out)
    return np.add(out, diff[2], out=out)


def _solve_rotation(b, weighted_a_t) -> np.ndarray:
    """Rotation from h = sum_i w_i a_i b_i^T, with `b` (n, 3) C-contiguous and w*a as (3, n)."""
    return rotation_from_cross_covariance((b.T @ weighted_a_t.T).T)


def estimate_rotation_gnc(v_source: np.ndarray, v_target: np.ndarray, noise_bound: float,
                          initial_rotation: np.ndarray | None = None) -> tuple[np.ndarray, bool]:
    """Robust rotation aligning the (n, 3) source line vectors onto the target ones.

    Minimizes sum_i min(||R v_src_i - v_tgt_i||^2, tau^2) by graduated
    non-convexity: weighted closed-form alignment alternated with the
    truncated-least-squares weight update while the continuation parameter
    grows geometrically; tau is `noise_bound`. The best iterate under the
    truncated loss is returned together with a convergence flag;
    non-convergence still yields a proper rotation. The two arrays are
    copied into the layout of the module docstring, so any strides give the
    same bytes. Each iteration looks up the module globals
    `_tls_weights` and then `_solve_rotation` at call time, so a test can
    wrap them to see every iterate.

    Raises ValueError unless tau squared is a normal float, and
    DegenerateInput when the source directions are all parallel.
    """
    eps_sq = squared_noise_bound(noise_bound)
    if len(v_source) < 2:
        raise DegenerateInput("need at least 2 line vectors to estimate a rotation")
    # See the module docstring for the layout, the buffers and the fixed
    # operand and summation orders.
    a_t = np.ascontiguousarray(v_source.T)
    _check_source_span(v_source, a_t)
    b = np.ascontiguousarray(v_target)
    b_t = np.ascontiguousarray(b.T)
    diff = np.empty_like(a_t)
    weighted_a_t = np.empty_like(a_t)
    n = a_t.shape[1]
    weight_bufs = (np.empty(n), np.empty(n))
    scratch = np.empty(n)
    band = np.empty(n, dtype=bool)

    rot = np.eye(3) if initial_rotation is None else np.asarray(initial_rotation, dtype=np.float64)
    res_sq = _squared_residuals(rot, a_t, b_t, diff, np.empty(n))

    max_res_sq = float(res_sq.max())
    if 2.0 * max_res_sq <= eps_sq:
        # Everything already within the noise bound: one plain solve suffices.
        return _solve_rotation(b, a_t), True

    mu = eps_sq / (2.0 * max_res_sq - eps_sq)
    if mu == 0.0:
        # Underflowed: tau is far below the residuals. The schedule divides
        # by mu, so it starts at the smallest normal float instead.
        mu = _TINY
    best_rot = rot
    best_cost = float(np.add.reduce(np.minimum(res_sq, eps_sq, out=scratch)))
    prev_weights = None
    converged = False

    for k in range(MAX_ITERATIONS):
        weights = _tls_weights(res_sq, mu, eps_sq, weight_bufs[k % 2], band)
        if np.count_nonzero(np.greater(weights, 0.0, out=band)) < 2:
            break  # surrogate support collapsed; keep the best iterate
        np.multiply(a_t, weights, out=weighted_a_t)
        try:
            rot = _solve_rotation(b, weighted_a_t)
        except DegenerateInput:
            break
        _squared_residuals(rot, a_t, b_t, diff, res_sq)
        cost = float(np.add.reduce(np.minimum(res_sq, eps_sq, out=scratch)))
        if cost < best_cost:
            best_cost = cost
            best_rot = rot
        if prev_weights is not None:
            np.subtract(weights, prev_weights, out=scratch)
            if float(np.add.reduce(np.abs(scratch, out=scratch))) < CONVERGENCE_TOL:
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


def estimate_local_transform(v_source: np.ndarray, v_target: np.ndarray, source: np.ndarray,
                             target: np.ndarray, noise_bound: float,
                             initial_rotation: np.ndarray | None = None) -> RigidTransform:
    """Rigid transform from a basic sample's line vectors plus its endpoint points."""
    rot, _ = estimate_rotation_gnc(v_source, v_target, noise_bound, initial_rotation)
    return RigidTransform(rot, estimate_translation(source, target, rot))

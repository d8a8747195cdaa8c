"""Rigid 3D transforms, residuals, and (weighted) Kabsch/SVD alignment.

Points and translations are float64 arrays of shape (3,), point sets are
(N, 3). Rotations are proper orthonormal 3x3 matrices; `RigidTransform`
validates both properties on construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DegenerateInput

_ORTHO_TOL = 1e-9

# The full-matrices SVD kernel behind `np.linalg.svd`, and the two values of
# diag(1, 1, d) the rotation can need.
_svd_f = _umath_linalg.svd_f
_KEEP = np.eye(3)
_FLIP = np.diag([1.0, 1.0, -1.0])


def as_vec3(p) -> np.ndarray:
    """Coerce to a float64 (3,) vector."""
    v = np.asarray(p, dtype=np.float64).reshape(3)
    return v


def is_rotation(r: np.ndarray, tol: float = _ORTHO_TOL) -> bool:
    """True if r is orthonormal with determinant +1 within tol per entry."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (3, 3):
        return False
    if not np.all(np.abs(r.T @ r - np.eye(3)) <= tol):
        return False
    return abs(np.linalg.det(r) - 1.0) <= tol


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """A proper rigid motion p -> rotation @ p + translation."""

    rotation: np.ndarray
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        tr = as_vec3(self.translation)
        if not is_rotation(rot):
            raise ValueError("rotation must be orthonormal with det +1")
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one point (3,) or a stack of points (N, 3)."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation


def residuals(t: RigidTransform, source: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-row Euclidean residuals for stacked (N, 3) source/target points."""
    diff = t.apply(np.asarray(source, dtype=np.float64)) - np.asarray(target, dtype=np.float64)
    return np.linalg.norm(diff, axis=1)


def _svd_did_not_converge(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


def rotation_from_cross_covariance(h: np.ndarray) -> np.ndarray:
    """Best rotation R maximizing tr(R h) where h = sum w_i a_i b_i^T.

    Solves min sum w_i ||R a_i - b_i||^2 for centered/origin-anchored pairs.
    The reflection case (det = -1) is corrected by flipping the singular
    vector of the smallest singular value, so the result is always proper.

    The result is `vt.T @ diag(1, 1, d) @ u.T` with `u, s, vt =
    np.linalg.svd(h)` and d the sign of det(vt.T @ u.T), computed without
    the wrappers' overhead and with the same bytes:

    * the SVD calls the LAPACK gufunc `np.linalg.svd` calls for a float64
      matrix (`svd_f`, signature 'd->ddd') under the same error state, so
      `u`, `s` and `vt` are its bytes, and a non-finite result still raises
      `LinAlgError("SVD did not converge")`;
    * vt.T @ u.T is orthogonal, so its determinant is +-1 up to rounding
      and the sign of a cofactor expansion equals the LU determinant's;
    * diag(1, 1, d) is one of two constant matrices, the same bytes as
      `np.diag` builds, in the same product order.

    `tests/test_geometry.py` pins these bytes to the `np.linalg` form.

    LAPACK rescales a matrix whose largest entry lies outside about
    [6.7e-139, 1.5e138] by a factor that is not a power of two, so the
    rotation of h * 2^k would differ from h's in its last bits. The largest
    singular value s0 lies in [max|h|, 3 max|h|], so where s0 is outside
    [1e-137, 1e137] the SVD is redone on h divided by the power of two
    nearest above max|h|: the same bytes as any in-band power-of-two
    multiple of h gives, which makes unit scaling exact to 2^+-480.

    Raises DegenerateInput when rank(h) < 2 (rotation not determined) and
    when an inf entry makes the singular values NaN.
    """
    with np.errstate(call=_svd_did_not_converge, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        u, s, vt = _svd_f(h, signature="d->ddd")
        if s[0] > 0.0 and not 1e-137 <= s[0] <= 1e137:  # NaN and zero skip the redo
            u, s, vt = _svd_f(np.ldexp(h, -np.frexp(np.abs(h).max())[1]), signature="d->ddd")
    s0, s1, _ = s.tolist()
    if not (s0 > 0.0 and s1 > s0 * 1e-12):  # NaN singular values (an inf entry) fail too
        raise DegenerateInput("cross-covariance rank < 2; rotation is underdetermined")
    v = vt.T
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = (v @ u.T).tolist()
    det = (m00 * (m11 * m22 - m12 * m21) - m01 * (m10 * m22 - m12 * m20)
           + m02 * (m10 * m21 - m11 * m20))
    return v @ (_FLIP if det < 0.0 else _KEEP) @ u.T


def weighted_kabsch(source: np.ndarray, target: np.ndarray, weights) -> RigidTransform:
    """Weighted least-squares rigid alignment of source onto target.

    Minimizes sum_i w_i ||R x_i + T - y_i||^2 over proper rigid (R, T).

    Parameters
    ----------
    source, target : (N, 3) arrays of paired points.
    weights : (N,) non-negative weights; zero-weight pairs are ignored exactly.

    Raises
    ------
    DegenerateInput
        Fewer than 3 pairs with positive weight, or the weighted
        cross-covariance has rank < 2 (collinear/coincident support).
    """
    src = np.asarray(source, dtype=np.float64).reshape(-1, 3)
    tgt = np.asarray(target, dtype=np.float64).reshape(-1, 3)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if src.shape != tgt.shape or len(w) != len(src):
        raise ValueError("source, target, and weights must have matching lengths")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")

    positive = w > 0
    if int(np.count_nonzero(positive)) < 3:
        raise DegenerateInput("need at least 3 correspondences with positive weight")
    src = src[positive]
    tgt = tgt[positive]
    w = w[positive]

    wsum = w.sum()
    centroid_src = (w[:, None] * src).sum(axis=0) / wsum
    centroid_tgt = (w[:, None] * tgt).sum(axis=0) / wsum
    a = src - centroid_src
    b = tgt - centroid_tgt
    h = (w[:, None] * a).T @ b  # sum w_i a_i b_i^T
    rot = rotation_from_cross_covariance(h)
    tr = centroid_tgt - rot @ centroid_src
    return RigidTransform(rot, tr)


def rotation_geodesic_angle(r1: np.ndarray, r2: np.ndarray) -> float:
    """Geodesic angle in [0, pi] between two rotations: arccos((tr(r1 r2^T) - 1) / 2).

    The arccos argument is clamped to [-1, 1]; floating-point traces can
    exceed the domain by ~1e-15.
    """
    r1 = np.asarray(r1, dtype=np.float64)
    r2 = np.asarray(r2, dtype=np.float64)
    c = (np.trace(r1 @ r2.T) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for a right-handed rotation by `angle` about `axis`."""
    a = as_vec3(axis)
    n = np.linalg.norm(a)
    if n == 0:
        raise ValueError("axis must be non-zero")
    x, y, z = a / n
    c, s = np.cos(angle), np.sin(angle)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) * c + s * k + (1 - c) * np.outer([x, y, z], [x, y, z])

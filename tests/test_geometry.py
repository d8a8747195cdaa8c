import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.linalg import _umath_linalg

from lvreg.errors import DegenerateInput
from lvreg.geometry import (
    RigidTransform,
    residuals,
    rotation_about_axis,
    rotation_from_cross_covariance,
    rotation_geodesic_angle,
    weighted_kabsch,
)

from conftest import apply_transform, random_rotation, random_transform, residual, stable_geodesic


class TestApplyTransform:
    def test_identity(self):
        t = RigidTransform.identity()
        assert np.allclose(apply_transform(t, (1, 2, 3)), (1, 2, 3))

    def test_pure_translation(self):
        t = RigidTransform(np.eye(3), (0, 0, 5))
        assert np.allclose(apply_transform(t, (1, 2, 3)), (1, 2, 8))

    def test_quarter_turn_about_z(self):
        t = RigidTransform(rotation_about_axis((0, 0, 1), np.pi / 2))
        assert np.allclose(apply_transform(t, (1, 0, 0)), (0, 1, 0), atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_preserves_pairwise_distances(self, seed):
        rng = np.random.default_rng(seed)
        t = random_transform(rng)
        p, q = rng.normal(size=3), rng.normal(size=3)
        before = np.linalg.norm(p - q)
        after = np.linalg.norm(t.apply(p) - t.apply(q))
        assert after == pytest.approx(before, abs=1e-9)

    def test_invalid_rotation_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))
        with pytest.raises(ValueError):
            RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # reflection


class TestResidual:
    def test_exact_alignment_is_zero(self, rng):
        t = random_transform(rng)
        src = rng.normal(size=3)
        assert residual(t, src, t.apply(src)) == pytest.approx(0.0, abs=1e-12)

    def test_axis_aligned_offset(self):
        t = RigidTransform.identity()
        assert residual(t, (0, 0, 0), (0, 0, 0.3)) == pytest.approx(0.3)

    def test_direct_norm(self):
        t = RigidTransform.identity()
        assert residual(t, (1, 1, 1), (2, 2, 2)) == pytest.approx(np.sqrt(3.0))

    def test_vectorized_matches_scalar(self, rng):
        t = random_transform(rng)
        src = rng.normal(size=(10, 3))
        tgt = rng.normal(size=(10, 3))
        vec = residuals(t, src, tgt)
        for k in range(10):
            assert vec[k] == pytest.approx(residual(t, src[k], tgt[k]), abs=1e-12)


class TestWeightedKabsch:
    def test_recovers_known_transform(self, rng):
        g = random_transform(rng)
        src = rng.normal(size=(20, 3))
        est = weighted_kabsch(src, g.apply(src), np.ones(20))
        assert stable_geodesic(est.rotation, g.rotation) < 1e-9
        assert np.linalg.norm(est.translation - g.translation) < 1e-9

    def test_identity_on_equal_clouds(self, rng):
        src = rng.normal(size=(8, 3))
        est = weighted_kabsch(src, src, np.ones(8))
        assert stable_geodesic(est.rotation, np.eye(3)) < 1e-9
        assert np.linalg.norm(est.translation) < 1e-9

    def test_zero_weights_exactly_ignored(self, rng):
        g = random_transform(rng)
        src = rng.normal(size=(30, 3))
        tgt = g.apply(src)
        # corrupt half the pairs but zero them out
        w = np.ones(30)
        tgt[::2] += rng.normal(scale=5.0, size=(15, 3))
        w[::2] = 0.0
        est = weighted_kabsch(src, tgt, w)
        assert stable_geodesic(est.rotation, g.rotation) < 1e-9
        assert np.linalg.norm(est.translation - g.translation) < 1e-9

    def test_reflection_input_yields_proper_rotation(self, rng):
        src = rng.normal(size=(12, 3))
        mirrored = src * np.array([-1.0, 1.0, 1.0])
        est = weighted_kabsch(src, mirrored, np.ones(12))
        assert np.linalg.det(est.rotation) == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(est.rotation.T @ est.rotation, np.eye(3), atol=1e-9)

    @given(st.integers(0, 2**32 - 1), st.floats(0.1, 100.0))
    @settings(max_examples=25, deadline=None)
    def test_weight_scaling_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        g = random_transform(rng)
        src = rng.normal(size=(10, 3))
        tgt = g.apply(src) + rng.normal(scale=0.01, size=(10, 3))
        w = rng.uniform(0.5, 2.0, size=10)
        a = weighted_kabsch(src, tgt, w)
        b = weighted_kabsch(src, tgt, w * scale)
        assert np.allclose(a.rotation, b.rotation, atol=1e-9)
        assert np.allclose(a.translation, b.translation, atol=1e-9)

    def test_too_few_positive_weights(self, rng):
        src = rng.normal(size=(5, 3))
        with pytest.raises(DegenerateInput):
            weighted_kabsch(src, src, [1, 1, 0, 0, 0])

    def test_collinear_points_rejected(self):
        src = np.outer(np.arange(5, dtype=float), [1.0, 0.0, 0.0])
        with pytest.raises(DegenerateInput):
            weighted_kabsch(src, src + [0, 0, 1.0], np.ones(5))


class TestGeodesicAngle:
    def test_zero_for_equal(self):
        assert rotation_geodesic_angle(np.eye(3), np.eye(3)) == 0.0

    def test_half_turn(self):
        r = rotation_about_axis((0, 0, 1), np.pi)
        assert rotation_geodesic_angle(np.eye(3), r) == pytest.approx(np.pi)

    def test_quarter_turn(self):
        r = rotation_about_axis((1, 0, 0), np.pi / 2)
        assert rotation_geodesic_angle(np.eye(3), r) == pytest.approx(np.pi / 2)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        r1, r2 = random_rotation(rng), random_rotation(rng)
        assert rotation_geodesic_angle(r1, r2) == pytest.approx(
            rotation_geodesic_angle(r2, r1), abs=1e-12)

    def test_clamps_out_of_domain_trace(self):
        # a rotation whose self-trace lands one ulp above 3 must not NaN
        r = rotation_about_axis((1, 1, 1), 1e-9)
        angle = rotation_geodesic_angle(r, r)
        assert np.isfinite(angle)
        assert angle == pytest.approx(0.0, abs=1e-7)


# The np.linalg form of the 3x3 solve, kept as the reference: the direct
# LAPACK form must return the same bytes, or raise the same error.


def reference_rotation_from_cross_covariance(h):
    u, s, vt = np.linalg.svd(h)
    if s[0] <= 0.0 or s[1] <= s[0] * 1e-12:
        raise DegenerateInput("cross-covariance rank < 2; rotation is underdetermined")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    if d == 0:
        d = 1.0
    return vt.T @ np.diag([1.0, 1.0, d]) @ u.T


def in_band(h):
    """True unless h's largest singular value is positive and outside [1e-137, 1e137].

    Outside it LAPACK rescales h by a factor that is not a power of two, and
    the solver solves h divided by the power of two above its largest entry.
    """
    if not np.isfinite(h).all():
        return True
    s0 = np.linalg.svd(h, compute_uv=False)[0]
    return not (s0 > 0.0 and not 1e-137 <= s0 <= 1e137)


def solve_both(h):
    """Rotation bytes, or the raised (type, message), from the reference and the solver.

    The reference solves h in band and h's power-of-two prescale out of it.
    """
    outs = []
    ref_h = h if in_band(h) else np.ldexp(h, -math.frexp(np.abs(h).max())[1])
    for solve, arg in ((reference_rotation_from_cross_covariance, ref_h),
                       (rotation_from_cross_covariance, h)):
        try:
            outs.append(solve(arg).tobytes())
        except (DegenerateInput, np.linalg.LinAlgError) as exc:
            outs.append((type(exc), str(exc)))
    return outs


def random_cross_covariances(rng, count):
    """3x3 matrices of several kinds: dense, scaled, rank 2, near rank 2, sparse, integer."""
    for k in range(count):
        kind = k % 6
        if kind == 0:
            h = rng.normal(size=(3, 3))
        elif kind == 1:
            h = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-150, 150)
        elif kind == 2:
            x, y = rng.normal(size=(2, 3, 2))
            h = x @ y.T  # rank 2
        elif kind == 3:
            h = rng.normal(size=(3, 3))
            h[2] = h[0] * rng.normal() + h[1] * rng.normal() + rng.normal(size=3) * 1e-13
        elif kind == 4:
            h = rng.normal(size=(3, 3)) * (rng.random((3, 3)) < 0.5)
        else:
            h = rng.integers(-3, 4, size=(3, 3)).astype(float)
        yield np.asfortranarray(h) if k % 7 == 0 else h


class TestRotationFromCrossCovarianceMatchesReference:
    def test_random_matrices(self):
        rng = np.random.default_rng(2026)
        kinds = {"rotation": 0, "reflection": 0, "degenerate": 0}
        for h in random_cross_covariances(rng, 12000):
            ref, got = solve_both(h)
            assert got == ref, h
            if isinstance(ref, tuple):
                kinds["degenerate"] += 1
            else:
                u, _, vt = np.linalg.svd(h)
                kinds["reflection" if np.linalg.det(vt.T @ u.T) < 0 else "rotation"] += 1
        assert min(kinds.values()) >= 100, kinds

    @pytest.mark.parametrize("k", [-240, -230, 230, 240, -300, 300, -400, 400, -480, 480])
    def test_unit_scaled_cross_covariances_keep_the_rotation_bytes(self, k):
        # Scaling a scene by 2^k scales h by 2^(2k): past k = +-225 LAPACK would rescale it.
        rng = np.random.default_rng(abs(k) + (k < 0))
        for _ in range(200):
            h = rng.normal(size=(3, 3))
            assert (rotation_from_cross_covariance(np.ldexp(h, 2 * k)).tobytes()
                    == rotation_from_cross_covariance(h).tobytes())

    def test_reflection(self):
        h = np.diag([3.0, 2.0, -1.0])
        ref, got = solve_both(h)
        assert got == ref
        rot = rotation_from_cross_covariance(h)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_rank_two(self):
        for h in (np.diag([2.0, 1.0, 0.0]), np.diag([1.0, 0.0, 5.0]),
                  np.outer([1.0, 2, 3], [0, 1.0, 1]) + np.outer([0, 1.0, 0], [1.0, 0, 0])):
            ref, got = solve_both(h)
            assert isinstance(ref, bytes) and got == ref

    def test_signed_zeros(self):
        for h in (np.diag([1.0, 2.0, -0.0]), -np.eye(3), np.where(np.eye(3) > 0, 1.0, -0.0),
                  np.array([[0.0, -0.0, 1.0], [-0.0, 1.0, 0.0], [1.0, 0.0, -0.0]])):
            ref, got = solve_both(h)
            assert isinstance(ref, bytes) and got == ref

    def test_rank_boundary_sweep(self):
        # Second singular value around the 1e-12 degeneracy bound.
        rng = np.random.default_rng(5)
        raised = 0
        for ratio in np.logspace(-13, -11, 201):
            u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            h = (u * [1.0, ratio, ratio * rng.random()]) @ v.T
            ref, got = solve_both(h)
            assert got == ref, ratio
            raised += isinstance(ref, tuple)
        assert 0 < raised < 201

    @pytest.mark.parametrize("h", [np.zeros((3, 3)), np.outer([1.0, 2, 3], [3.0, -1, 2]),
                                   np.diag([1.0, 1e-13, 0.0])])
    def test_rank_below_two_raises(self, h):
        ref, got = solve_both(h)
        assert ref[0] is DegenerateInput and got == ref

    def test_nan_raises_linalg_error(self):
        h = np.eye(3)
        h[1, 2] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            rotation_from_cross_covariance(h)
        ref, got = solve_both(h)
        assert got == ref

    def test_infinite_entry_as_reference(self):
        # The SVD of a matrix with an inf entry has NaN singular values.
        # They pass the reference's `<=` rank tests, which then returns a
        # NaN matrix; the solver's `not >` test raises instead.
        h = np.eye(3)
        h[1, 2] = np.inf
        with np.errstate(invalid="ignore"):  # the reference's det of a NaN matrix
            ref, got = solve_both(h)
        assert isinstance(ref, bytes) and np.isnan(np.frombuffer(ref)).all()
        assert got == (DegenerateInput, "cross-covariance rank < 2; rotation is underdetermined")


class TestPrivateKernelsMatchPublicApi:
    """The solver calls two NumPy internals directly; a NumPy upgrade that changes them fails here."""

    def test_svd_f_gufunc_is_np_linalg_svd(self):
        rng = np.random.default_rng(11)
        for h in random_cross_covariances(rng, 600):
            u, s, vt = _umath_linalg.svd_f(h, signature="d->ddd")
            ref = np.linalg.svd(h)
            assert (u.tobytes(), s.tobytes(), vt.tobytes()) == tuple(a.tobytes() for a in ref)

    def test_clip_ufunc_is_np_clip(self):
        from lvreg import solver
        rng = np.random.default_rng(12)
        w = np.concatenate([rng.normal(size=1000), [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan]])
        expected = np.clip(w, 0.0, 1.0)
        got = w.copy()
        assert solver._clip(got, 0.0, 1.0, out=got) is got
        assert got.tobytes() == expected.tobytes()

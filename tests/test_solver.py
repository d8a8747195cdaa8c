from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvreg.correspondences import MAX_COORDINATE, CorrespondenceSet
from lvreg.errors import DegenerateInput
from lvreg.geometry import RigidTransform, is_rotation, rotation_from_cross_covariance
from lvreg.local_sets import build_line_vectors
from lvreg import solver
from lvreg.solver import estimate_local_transform, estimate_rotation_gnc, estimate_translation

from conftest import random_rotation, random_transform, stable_geodesic


def make_line_vectors(rng, rotation, n, outlier_fraction=0.0, noise=0.0, scale=0.5):
    """(source, target) line vectors under a rotation, with optional outliers."""
    v_src = rng.normal(scale=scale, size=(n, 3))
    v_tgt = v_src @ rotation.T
    if noise:
        v_tgt = v_tgt + rng.normal(scale=noise, size=(n, 3))
    n_out = int(round(outlier_fraction * n))
    if n_out:
        rows = rng.choice(n, size=n_out, replace=False)
        v_tgt[rows] = rng.normal(scale=scale, size=(n_out, 3))
    return v_src, v_tgt


class TestRotationGnc:
    def test_noiseless_recovery(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = random_rotation(rng)
            rot, converged = estimate_rotation_gnc(*make_line_vectors(rng, g, 40), 0.05)
            assert converged
            assert stable_geodesic(rot, g) < 1e-6

    def test_two_orthogonal_pairs(self):
        g = random_rotation(np.random.default_rng(7))
        v_src = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        rot, _ = estimate_rotation_gnc(v_src, v_src @ g.T, 0.05)
        assert stable_geodesic(rot, g) < 1e-6

    def test_sixty_percent_outliers(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            g = random_rotation(rng)
            vectors = make_line_vectors(rng, g, 100, outlier_fraction=0.6, noise=0.002)
            rot, _ = estimate_rotation_gnc(*vectors, 0.05)
            assert np.degrees(stable_geodesic(rot, g)) < 0.5, f"seed {seed}"

    def test_parallel_sources_rejected(self, rng):
        v_src = np.outer(np.linspace(1, 2, 10), [1.0, 1.0, 0.0])
        with pytest.raises(DegenerateInput):
            estimate_rotation_gnc(v_src, v_src, 0.05)

    @pytest.mark.parametrize("noise_bound", [0.0, -0.05, np.nan])
    def test_non_positive_noise_bound_rejected(self, rng, noise_bound):
        vectors = make_line_vectors(rng, random_rotation(rng), 10)
        with pytest.raises(ValueError, match="noise_bound"):
            estimate_rotation_gnc(*vectors, noise_bound)

    @pytest.mark.parametrize("noise_bound", [1e-170, 1e-154, 1e160, np.float64(1e160)])
    def test_noise_bound_squared_must_be_a_normal_float(self, rng, noise_bound):
        vectors = make_line_vectors(rng, random_rotation(rng), 10)
        with pytest.raises(ValueError, match="noise_bound"):
            estimate_rotation_gnc(*vectors, noise_bound)

    def test_underflowing_mu_starts_at_the_smallest_normal_float(self, rng, monkeypatch):
        # tau^2 = 1e-200 against squared residuals near 1e200: the initial mu
        # tau^2 / (2 max r^2 - tau^2) underflows to 0.
        v_src, v_tgt = make_line_vectors(rng, random_rotation(rng), 30, outlier_fraction=0.3)
        mus = []
        tls_weights = solver._tls_weights

        def recording(res_sq, mu, *args):
            mus.append(mu)
            return tls_weights(res_sq, mu, *args)

        monkeypatch.setattr(solver, "_tls_weights", recording)
        rot, converged = estimate_rotation_gnc(v_src * 1e100, v_tgt * 1e100, 1e-100)
        assert mus[0] == np.finfo(np.float64).tiny
        assert is_rotation(rot) and not converged

    def test_output_always_proper_rotation(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 5)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = random_rotation(rng)
            rot, _ = estimate_rotation_gnc(*make_line_vectors(rng, g, 30, outlier_fraction=0.9), 0.05)
            assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-9)
            assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)

    def test_weights_in_unit_interval_and_ls_step_descends(self, rng, monkeypatch):
        g = random_rotation(rng)
        v_src, v_tgt = make_line_vectors(rng, g, 60, outlier_fraction=0.4, noise=0.003)
        steps = []
        record_solver_steps(monkeypatch, steps)
        estimate_rotation_gnc(v_src, v_tgt, 0.05)
        # each rotation with the weights it was solved for and the residuals those came from
        iterates = [(steps[k - 1], step[1]) for k, step in enumerate(steps) if step[0] == "rotation"]
        assert len(iterates) > 1
        for (_, _, res_sq_before, weights), rot in iterates:
            weights, res_sq_before = np.frombuffer(weights), np.frombuffer(res_sq_before)
            rot = np.frombuffer(rot).reshape(3, 3)
            assert np.all(weights >= 0.0) and np.all(weights <= 1.0)
            # the weighted solve is a global optimum: never worse than the prior iterate
            res_sq_after = np.sum((v_src @ rot.T - v_tgt) ** 2, axis=1)
            wsse_before = float(np.sum(weights * res_sq_before))
            assert float(np.sum(weights * res_sq_after)) <= wsse_before * (1 + 1e-12) + 1e-15

    def test_equivariance_under_target_rotation(self, rng):
        g = random_rotation(rng)
        q = random_rotation(rng)
        v_src, v_tgt = make_line_vectors(rng, g, 30)
        rot, _ = estimate_rotation_gnc(v_src, v_tgt, 0.05)
        rot2, _ = estimate_rotation_gnc(v_src, v_tgt @ q.T, 0.05)
        assert stable_geodesic(rot2, q @ rot) < 1e-6

    def test_initial_rotation_accepted(self, rng):
        g = random_rotation(rng)
        vectors = make_line_vectors(rng, g, 40, noise=0.001)
        rot, converged = estimate_rotation_gnc(*vectors, 0.05, initial_rotation=g)
        assert converged
        assert stable_geodesic(rot, g) < 1e-3


class TestTranslationMedian:
    def test_exact_on_pure_translation(self, rng):
        g = random_transform(rng)
        src = rng.normal(size=(15, 3))
        assert np.allclose(estimate_translation(src, g.apply(src), g.rotation), g.translation, atol=1e-12)

    def test_median_rejects_minority(self):
        src = np.zeros((3, 3))
        tgt = np.array([[0.0, 0, 0], [0, 0, 0], [9.0, 9, 9]])
        assert np.allclose(estimate_translation(src, tgt, np.eye(3)), (0, 0, 0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_sort_based_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        src = rng.normal(size=(n, 3))
        tgt = rng.normal(size=(n, 3))
        rot = random_rotation(rng)
        got = estimate_translation(src, tgt, rot)
        cand = tgt - src @ rot.T
        for axis in range(3):
            vals = np.sort(cand[:, axis])
            mid = n // 2
            expected = vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])
            assert got[axis] == pytest.approx(expected, abs=1e-12)

    def test_seventy_percent_inliers_with_noise(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = random_transform(rng, translation_scale=0.5)
            src = rng.normal(size=(100, 3))
            tgt = g.apply(src) + rng.normal(scale=0.005, size=(100, 3))
            rows = rng.choice(100, size=30, replace=False)
            tgt[rows] = rng.normal(size=(30, 3))
            got = estimate_translation(src, tgt, g.rotation)
            assert np.linalg.norm(got - g.translation) < 0.01

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            estimate_translation(np.empty((0, 3)), np.empty((0, 3)), np.eye(3))


class TestLocalTransform:
    def _setup(self, rng, n, outlier_fraction, noise):
        g = random_transform(rng, translation_scale=0.5)
        src = rng.normal(scale=0.5, size=(n, 3))
        tgt = g.apply(src) + (rng.normal(scale=noise, size=(n, 3)) if noise else 0.0)
        n_out = int(round(outlier_fraction * n))
        if n_out:
            rows = rng.choice(n, size=n_out, replace=False)
            tgt[rows] = rng.normal(scale=0.5, size=(n_out, 3))
        corrs = CorrespondenceSet(src, tgt)
        lvs = build_line_vectors(corrs)
        return g, corrs, (lvs.v_source, lvs.v_target)

    def test_full_inlier_recovery(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g, corrs, vectors = self._setup(rng, 25, 0.0, 0.0)
            est = estimate_local_transform(*vectors, corrs.source, corrs.target, 0.05)
            assert stable_geodesic(est.rotation, g.rotation) < 1e-6
            assert np.linalg.norm(est.translation - g.translation) < 1e-6

    def test_half_outlier_line_vectors(self):
        # corrupting ~29% of correspondences leaves (1 - 0.29)^2 ~ 50% of the
        # pairwise line vectors intact, the regime the solver must handle
        for seed in range(20):
            rng = np.random.default_rng(500 + seed)
            g, corrs, vectors = self._setup(rng, 40, 0.29, 0.002)
            est = estimate_local_transform(*vectors, corrs.source, corrs.target, 0.05)
            assert np.degrees(stable_geodesic(est.rotation, g.rotation)) < 1.0, f"seed {seed}"
            assert np.linalg.norm(est.translation - g.translation) < 0.02, f"seed {seed}"

    def test_degenerate_parallel_basic_set(self):
        src = np.outer(np.linspace(0, 4, 5), [1.0, 0, 0])
        corrs = CorrespondenceSet(src, src + [0.0, 0.0, 1.0])
        lvs = build_line_vectors(corrs)
        with pytest.raises(DegenerateInput):
            estimate_local_transform(lvs.v_source, lvs.v_target, corrs.source, corrs.target,
                                     0.05)

    def test_result_satisfies_transform_invariants(self, rng):
        g, corrs, vectors = self._setup(rng, 30, 0.3, 0.003)
        est = estimate_local_transform(*vectors, corrs.source, corrs.target, 0.05)
        assert isinstance(est, RigidTransform)  # constructor validates orthonormality


# The (n, 3) GNC solver, kept as the reference: the (3, n) solver must
# return the same bytes.


@dataclass(frozen=True)
class ReferenceGncConfig:
    """The reference solver's settings; the defaults are the solver's schedule."""

    noise_bound: float = 0.05
    mu_update_factor: float = 1.4
    max_iterations: int = 100
    convergence_tol: float = 1e-6

def reference_tls_weights(res_sq, mu, eps_sq):
    lo = mu / (mu + 1.0) * eps_sq
    hi = (mu + 1.0) / mu * eps_sq
    w = np.zeros_like(res_sq)
    w[res_sq <= lo] = 1.0
    mid = (res_sq > lo) & (res_sq < hi)
    w[mid] = np.sqrt(eps_sq * mu * (mu + 1.0) / res_sq[mid]) - mu
    return np.clip(w, 0.0, 1.0)


PARALLEL_MESSAGE = "line-vector source directions are parallel; rotation underdetermined"


def reference_check_source_span(v_source):
    s = np.linalg.svd(v_source, compute_uv=False)
    if len(s) < 2 or s[1] <= s[0] * 1e-9 or s[0] == 0.0:
        raise DegenerateInput(PARALLEL_MESSAGE)


def reference_solve_rotation(v_source, v_target, weights):
    h = (weights[:, None] * v_source).T @ v_target
    return rotation_from_cross_covariance(h)


def reference_gnc(a, b, cfg, initial_rotation, steps):
    """The (n, 3) solver; appends its weight and rotation steps to `steps` (see `run_both`)."""
    if len(a) < 2:
        raise DegenerateInput("need at least 2 line vectors to estimate a rotation")
    reference_check_source_span(a)

    eps_sq = cfg.noise_bound ** 2
    rot = np.eye(3) if initial_rotation is None else np.asarray(initial_rotation, dtype=np.float64)
    res_sq = np.sum((a @ rot.T - b) ** 2, axis=1)

    max_res_sq = float(res_sq.max())
    if 2.0 * max_res_sq <= eps_sq:
        # Everything already within the noise bound: one plain solve suffices.
        rot = reference_solve_rotation(a, b, np.ones(len(a)))
        steps.append(("rotation", rot.tobytes()))
        return rot, True

    mu = eps_sq / (2.0 * max_res_sq - eps_sq)
    best_rot = rot
    best_cost = float(np.minimum(res_sq, eps_sq).sum())
    prev_weights = None
    converged = False

    for _ in range(cfg.max_iterations):
        weights = reference_tls_weights(res_sq, mu, eps_sq)
        steps.append(("weights", mu, res_sq.tobytes(), weights.tobytes()))
        if np.count_nonzero(weights) < 2:
            break  # surrogate support collapsed; keep the best iterate
        try:
            rot = reference_solve_rotation(a, b, weights)
        except DegenerateInput:
            break
        steps.append(("rotation", rot.tobytes()))
        res_sq = np.sum((a @ rot.T - b) ** 2, axis=1)
        cost = float(np.minimum(res_sq, eps_sq).sum())
        if cost < best_cost:
            best_cost = cost
            best_rot = rot
        if prev_weights is not None and float(np.abs(weights - prev_weights).sum()) < cfg.convergence_tol:
            converged = True
            break
        prev_weights = weights
        mu *= cfg.mu_update_factor

    return best_rot, converged


def record_solver_steps(mp, steps):
    """Wrap the solver's weight and rotation steps to append what the reference appends.

    Both are module globals that `estimate_rotation_gnc` looks up at call
    time. A solve that raises appends nothing, as in the reference.
    """
    tls_weights, solve_rotation = solver._tls_weights, solver._solve_rotation

    def recording_weights(res_sq, mu, *args):
        weights = tls_weights(res_sq, mu, *args)
        # bytes now: the solver reuses both buffers
        steps.append(("weights", mu, res_sq.tobytes(), weights.tobytes()))
        return weights

    def recording_solve(*args):
        rot = solve_rotation(*args)
        steps.append(("rotation", rot.tobytes()))
        return rot

    mp.setattr(solver, "_tls_weights", recording_weights)
    mp.setattr(solver, "_solve_rotation", recording_solve)


def run_both(vectors, cfg=ReferenceGncConfig(), initial_rotation=None):
    """(rotation bytes, converged, steps) or the raised (type, message), for both solvers.

    `vectors` is the (source, target) pair of (n, 3) line-vector arrays.

    `steps` holds each iteration's ("weights", mu, residual bytes, weight
    bytes) and ("rotation", rotation bytes), in call order. The solver runs
    with its iteration cap set to `cfg.max_iterations`.
    """
    outs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "MAX_ITERATIONS", cfg.max_iterations)
        ref_steps, solver_steps = [], []
        record_solver_steps(mp, solver_steps)
        for solve, steps in (
                (lambda: reference_gnc(*vectors, cfg, initial_rotation, ref_steps), ref_steps),
                (lambda: estimate_rotation_gnc(*vectors, cfg.noise_bound, initial_rotation),
                 solver_steps)):
            try:
                rot, converged = solve()
            except DegenerateInput as exc:
                outs.append((type(exc), str(exc)))
                continue
            outs.append((rot.tobytes(), converged, steps))
    return outs


class TestGncMatchesReference:
    """The (3, n) solver returns the reference's rotation bytes and flag, through the same iterates."""

    @pytest.mark.parametrize("max_iterations", [1, 5, 100])
    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("outlier_fraction", [0.0, 0.6, 0.9])
    @pytest.mark.parametrize("n", [2, 3, 40, 2110, 9580])
    def test_bit_identical(self, n, outlier_fraction, seeded, max_iterations):
        rng = np.random.default_rng(n * 1000 + int(outlier_fraction * 10) + 7 * seeded + max_iterations)
        g = random_rotation(rng)
        vectors = make_line_vectors(rng, g, n, outlier_fraction=outlier_fraction, noise=0.003)
        initial = random_rotation(rng) if seeded else None
        ref, got = run_both(vectors, ReferenceGncConfig(max_iterations=max_iterations), initial)
        assert got == ref

    def test_within_noise_fast_path(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            g = random_rotation(rng)
            ref, got = run_both(make_line_vectors(rng, g, 50, noise=1e-4), initial_rotation=g)
            assert ref[1] is True and ref[2] == [("rotation", ref[0])]  # the one-solve path
            assert got == ref

    def test_support_collapse(self):
        # Two independent pairs no rotation fits: both residuals stay far
        # above the noise bound, so the band shrinks past them.
        ref, got = run_both((np.array([[1.0, 0, 0], [0, 1.0, 0]]),
                             np.array([[1.0, 0, 0], [0, -3.0, 2.0]])))
        kinds = [step[0] for step in ref[2]]
        assert ref[1] is False and 0 < kinds.count("rotation") < solver.MAX_ITERATIONS
        assert kinds[-2:] == ["rotation", "weights"]  # the last weights stopped the loop
        assert got == ref

    def test_rank_deficient_cross_covariance_in_loop(self):
        # Spanning sources but parallel targets: the first weighted solve is
        # degenerate, so the loop stops with the initial rotation.
        src = np.eye(3)
        ref, got = run_both((src, np.array([[2.0, 0, 0]] * 3)))
        assert ref[0] == np.eye(3).tobytes() and ref[1] is False
        assert [step[0] for step in ref[2]] == ["weights"]  # its solve raised
        assert got == ref

    def test_rank_deficient_cross_covariance_on_fast_path(self):
        ref, got = run_both((np.array([[1e-3, 0, 0], [0, 1e-3, 0]]),
                             np.array([[1e-3, 0, 0], [1e-3, 0, 0]])))
        assert ref[0] is DegenerateInput and "cross-covariance" in ref[1]
        assert got == ref

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_line_vectors(self, n):
        ref, got = run_both((np.ones((n, 3)), np.ones((n, 3))))
        assert ref[0] is DegenerateInput
        assert got == ref

    def test_parallel_sources(self):
        v_src = np.outer(np.linspace(1, 2, 10), [1.0, 1.0, 0.0])
        ref, got = run_both((v_src, v_src))
        assert ref[0] is DegenerateInput and "parallel" in ref[1]
        assert got == ref

    def test_strided_inputs_match_contiguous_reference(self):
        # The reference's (n, 3) products round differently on a strided view
        # than on a C-contiguous array; the (3, n) solver copies its inputs,
        # so it returns the reference's bytes for the C-contiguous copy
        # whatever layout it is given.
        rng = np.random.default_rng(5)
        g = random_rotation(rng)
        v_src, v_tgt = make_line_vectors(rng, g, 400, outlier_fraction=0.6, noise=0.003)
        strided = (np.asfortranarray(v_src)[::2], v_tgt[::2])
        contiguous = tuple(np.ascontiguousarray(v) for v in strided)
        initial = random_rotation(rng)
        ref, _ = run_both(contiguous, initial_rotation=initial)
        _, got = run_both(strided, initial_rotation=np.asfortranarray(initial))
        assert got == ref


def span_decisions(v_source):
    """The raised (type, message) or None, from the exact reference and the screened check."""
    outs = []
    for check in (reference_check_source_span,
                  lambda v: solver._check_source_span(v, np.ascontiguousarray(v.T))):
        try:
            check(v_source)
            outs.append(None)
        except (DegenerateInput, np.linalg.LinAlgError) as exc:
            outs.append((type(exc), str(exc)))
    return outs


def sources_with_ratio(rng, n, ratio, scale=1.0):
    """(n, 3) sources whose second singular value is `ratio` times the first."""
    u, _ = np.linalg.qr(rng.normal(size=(n, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    s = np.array([1.0, ratio, ratio * rng.uniform(0.0, 1.0)])
    return (u * s) @ v.T * scale


class TestSourceSpanScreenMatchesExactSvd:
    """The Gram screen never changes the exact SVD's raise-or-pass decision."""

    def test_ratio_sweep(self):
        rng = np.random.default_rng(77)
        raised = passed = 0
        for ratio in np.concatenate([np.logspace(-12, -3, 91), 1e-9 * (1 + np.linspace(-1e-6, 1e-6, 9))]):
            for n in (3, 5, 40, 2300):
                ref, got = span_decisions(sources_with_ratio(rng, n, ratio))
                assert got == ref, (ratio, n)
                raised += ref is not None
                passed += ref is None
        assert raised and passed

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_and_three_rows(self, n):
        rng = np.random.default_rng(n)
        for _ in range(300):
            v = rng.normal(size=(n, 3))
            if rng.random() < 0.5:
                v[1] = v[0] * rng.normal()  # parallel rows
            ref, got = span_decisions(v)
            assert got == ref
        assert span_decisions(np.eye(3)[:n]) == [None, None]

    def test_all_zero(self):
        ref, got = span_decisions(np.zeros((10, 3)))
        assert ref is not None and got == ref

    # Line vectors of points within MAX_COORDINATE reach 2 * MAX_COORDINATE.
    @pytest.mark.parametrize("scale", [2 * MAX_COORDINATE, 1e100, 1e-150, 1e-160, 1e-300])
    def test_extreme_magnitudes(self, scale):
        rng = np.random.default_rng(9)
        for ratio in (1e-12, 1e-9, 1e-6, 1e-3, 0.5):
            ref, got = span_decisions(sources_with_ratio(rng, 50, ratio, scale=scale))
            assert got == ref, (scale, ratio)

    def test_gram_overflow_and_non_finite_sources(self):
        v = np.eye(3)
        v[2, 1] = np.nan
        ref, got = span_decisions(v)
        assert ref[0] is np.linalg.LinAlgError and got == ref
        # An inf entry gives NaN singular values, which pass the reference's
        # `<=` tests; the check's `not >` test raises instead.
        v[2, 1] = np.inf
        ref, got = span_decisions(v)
        assert ref is None and got == (DegenerateInput, PARALLEL_MESSAGE)
        overflow = np.array([[1e160, 0.0, 0.0], [0.0, 1e160, 0.0], [1e160, 1e160, 0.0]])
        with np.errstate(over="ignore"):
            assert not np.isfinite(overflow.T @ overflow).all()
        assert span_decisions(overflow) == [None, None]

    def test_well_spread_sources_skip_the_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the screen should have been conclusive")

        rng = np.random.default_rng(3)
        v = rng.normal(size=(500, 3))
        monkeypatch.setattr(np.linalg, "svd", no_svd)
        solver._check_source_span(v, np.ascontiguousarray(v.T))

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lvreg.correspondences import MAX_COORDINATE, CorrespondenceSet
from lvreg.engine import (
    LocalRoundResult,
    RansacConfig,
    RegistrationResult,
    _sample_size,
    confidence_level,
    estimate_local_transform,
    residual_inliers,
    run_local_ransac,
    run_registration,
    transforms_converged,
)
from lvreg.errors import (
    DegenerateInput,
    DegenerateNeighborhood,
    LvregError,
    NonFiniteInput,
    PairBudgetExceeded,
    TooFewCorrespondences,
)
from lvreg.geometry import RigidTransform, rotation_about_axis
from lvreg.io import result_to_dict
from lvreg import engine, local_sets
from lvreg.local_sets import RatioRange, build_line_vectors
from lvreg.self_update import UpdateAction, UpdateRule
from lvreg.synthetic import SyntheticSpec, synthesize_pair

from conftest import random_transform, stable_geodesic
from pairs import vector_set


class TestConfidenceLevel:
    def test_exact_arithmetic(self):
        assert confidence_level(0.5, 7) == pytest.approx(1.0 - 1.0 / 128.0)
        assert confidence_level(0.5, 7) == 0.9921875

    def test_trivial_cases(self):
        assert confidence_level(1.0, 1) == 1.0
        assert confidence_level(0.0, 50) == 0.0
        assert confidence_level(0.7, 0) == 0.0

    @given(st.floats(0.0, 1.0), st.integers(0, 200), st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_iterations(self, rate, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert confidence_level(rate, lo) <= confidence_level(rate, hi) + 1e-15


class TestResidualInliers:
    def test_ground_truth_recovers_planted_set(self, rng):
        g = random_transform(rng)
        src = rng.normal(size=(50, 3))
        tgt = g.apply(src)
        tgt[10:25] += 1.0  # offset well beyond any threshold
        corrs = CorrespondenceSet(src, tgt)
        got = residual_inliers(g, corrs, 0.01)
        assert np.array_equal(got, np.concatenate([np.arange(10), np.arange(25, 50)]))

    def test_threshold_is_strict(self):
        src = np.zeros((3, 3))
        tgt = np.array([[0.01, 0, 0], [0.009, 0, 0], [0.011, 0, 0]])
        got = residual_inliers(RigidTransform.identity(), CorrespondenceSet(src, tgt), 0.01)
        assert np.array_equal(got, [1])

    def test_all_far_targets_empty(self, rng):
        src = rng.normal(size=(10, 3))
        corrs = CorrespondenceSet(src, src + [0.1, 0, 0])
        assert len(residual_inliers(RigidTransform.identity(), corrs, 0.01)) == 0


class TestLocalEarlyTermination:
    def test_identical_transforms(self, rng):
        t = random_transform(rng)
        assert transforms_converged(t, t, 0.01, 0.05)

    def test_rotation_gap_fails(self):
        a = RigidTransform.identity()
        b = RigidTransform(rotation_about_axis((0, 0, 1), 0.02))
        assert not transforms_converged(a, b, 0.01, 0.05)

    def test_translation_boundary_inclusive(self):
        a = RigidTransform.identity()
        b = RigidTransform(np.eye(3), (0.049, 0, 0))
        assert transforms_converged(a, b, 0.01, 0.05)
        c = RigidTransform(np.eye(3), (0.051, 0, 0))
        assert not transforms_converged(a, c, 0.01, 0.05)


def all_inlier_setup(seed, n=40):
    rng = np.random.default_rng(seed)
    g = random_transform(rng, translation_scale=0.5)
    src = rng.normal(scale=0.5, size=(n, 3))
    corrs = CorrespondenceSet(src, g.apply(src))
    return g, corrs, build_line_vectors(corrs)


class TestRunLocalRansac:
    def test_early_termination_on_agreement(self):
        g, corrs, lvs = all_inlier_setup(0)
        res = run_local_ransac(lvs, corrs, g, cfg=RansacConfig(rng_seed=0),
                               rng=np.random.default_rng(0))
        assert res.branch == "early-termination"
        assert res.hypotheses == 1
        assert stable_geodesic(res.transform.rotation, g.rotation) < 1e-5

    def test_confidence_branch_iteration_count(self):
        # 90% local inliers and a received transform too far for agreement:
        # 1 - 0.1^t >= 0.995 first holds at t = 3
        rng = np.random.default_rng(2)
        g, corrs, lvs = all_inlier_setup(2, n=40)
        corrs.target[:4] += 5.0  # 10% local outliers
        far = RigidTransform(rotation_about_axis((0, 1, 0), 1.5), (3.0, 3.0, 3.0))
        res = run_local_ransac(lvs, corrs, far, cfg=RansacConfig(rng_seed=2), rng=rng)
        assert res.branch == "confidence"
        assert res.hypotheses == 3
        assert confidence_level(res.n_local_inliers / len(corrs), 3) >= 0.995

    def test_iteration_cap_branch(self):
        rng = np.random.default_rng(3)
        src = rng.normal(size=(20, 3))
        corrs = CorrespondenceSet(src, rng.normal(size=(20, 3)))  # pure noise
        lvs = build_line_vectors(corrs)
        far = RigidTransform(rotation_about_axis((0, 1, 0), 1.5), (3.0, 3.0, 3.0))
        cfg = RansacConfig(rng_seed=3, max_local_iterations=10)
        res = run_local_ransac(lvs, corrs, far, cfg=cfg, rng=rng)
        assert res.branch == "iteration-cap"
        assert res.hypotheses <= 10


@dataclass(frozen=True)
class ReferenceRoundResult:
    transform: RigidTransform
    iterations: int          # hypotheses, plus the entry t_glo on early termination
    raw_iterations: int      # hypotheses evaluated
    degenerate_samples: int
    branch: str
    n_local_inliers: int


def reference_local_ransac(l_sul, c_sul, received_glo, t_glo, cfg, rng):
    """A per-hypothesis local round, kept as the reference.

    Each hypothesis gathers its sample with fancy indexing and looks its
    endpoints up by id (`np.unique` of both ends, then `rows_for`); the
    round itself credits an early termination with the entry `t_glo`.
    """
    def take(lvs, rows):
        return vector_set(lvs.i[rows], lvs.j[rows], lvs.v_source[rows], lvs.v_target[rows])

    if len(l_sul) < 2:
        raise DegenerateInput("need at least 2 line vectors for local hypotheses")
    if len(c_sul) == 0:
        raise DegenerateInput("local correspondence set is empty")

    sub_rows = rng.choice(len(l_sul), _sample_size(cfg.alpha_pct, len(l_sul)), replace=False)
    l_sub = take(l_sul, sub_rows)
    basic_size = _sample_size(cfg.beta_pct, len(l_sub))

    best = None
    best_count = -1
    t_lcl = 0
    attempts = 0
    while True:
        attempts += 1
        rows = rng.choice(len(l_sub), basic_size, replace=False)
        basic = take(l_sub, rows)
        endpoint_rows = c_sul.rows_for(np.unique(np.concatenate([basic.i, basic.j])))
        try:
            candidate = estimate_local_transform(basic.v_source, basic.v_target,
                                                 c_sul.source[endpoint_rows],
                                                 c_sul.target[endpoint_rows], cfg.noise_bound,
                                                 initial_rotation=received_glo.rotation)
        except DegenerateInput:
            if attempts >= cfg.max_local_iterations:
                if best is None:
                    raise DegenerateInput(
                        "no well-posed basic line-vector sample found within the iteration cap")
                return ReferenceRoundResult(best, t_lcl, t_lcl, attempts - t_lcl,
                                            "iteration-cap", best_count)
            continue
        t_lcl += 1
        count = len(residual_inliers(candidate, c_sul, cfg.residual_threshold))
        if count > best_count:
            best, best_count = candidate, count
        if transforms_converged(received_glo, best, 0.01, cfg.noise_bound):  # 0.01 rad
            return ReferenceRoundResult(best, t_glo + t_lcl, t_lcl, attempts - t_lcl,
                                        "early-termination", best_count)
        cl = confidence_level(best_count / len(c_sul), t_lcl)
        if cl >= cfg.confidence_target:
            return ReferenceRoundResult(best, t_lcl, t_lcl, attempts - t_lcl, "confidence",
                                        best_count)
        if attempts >= cfg.max_local_iterations:
            return ReferenceRoundResult(best, t_lcl, t_lcl, attempts - t_lcl, "iteration-cap",
                                        best_count)


def local_round_case(seed):
    """A seeded local round: sets, received transform and settings vary with the seed.

    `c_sul` is a random subset of a set with sparse ids, so its ids are
    not row positions; some scenes put most source points on one line, so many
    basic samples are parallel and get redrawn. On odd seeds the line-vector
    set is over the full set's table, as after a self-update, with the same
    pairs.
    """
    rng = np.random.default_rng(seed)
    g = random_transform(rng, translation_scale=0.5)
    n = int(rng.integers(8, 50))
    src = rng.normal(scale=0.5, size=(n, 3))
    if seed % 3 == 0:
        on_line = rng.random(n) < 0.85
        src[on_line] = np.outer(rng.normal(size=on_line.sum()), rng.normal(size=3))
    tgt = g.apply(src) + rng.normal(scale=0.002, size=(n, 3))
    bad = rng.random(n) < rng.choice([0.0, 0.3, 0.6, 0.9])
    tgt[bad] = rng.normal(scale=0.5, size=(int(bad.sum()), 3))
    full = CorrespondenceSet(src, tgt, indices=np.sort(rng.choice(10 * n, n, replace=False)))
    keep = np.sort(rng.choice(n, int(rng.integers(max(3, n // 2), n + 1)), replace=False))
    c_sul = full.subset(keep)
    pairs = build_line_vectors(c_sul)
    l_sul = pairs.take(np.sort(rng.choice(len(pairs), int(rng.integers(2, len(pairs) + 1)),
                                          replace=False)))
    if seed % 2:
        none = np.zeros(0, dtype=np.int64)
        l_sul = l_sul.revised(full, none, keep, none, RatioRange.everything())
    received = [g, RigidTransform.identity(),
                RigidTransform(rotation_about_axis((0, 1, 0), 1.5), (3.0, 3.0, 3.0))][seed % 3 - 1]
    cfg = RansacConfig(rng_seed=seed, alpha_pct=float(rng.choice([5.0, 10.0, 50.0, 100.0])),
                       beta_pct=float(rng.choice([1.0, 30.0, 60.0])),
                       max_local_iterations=int(rng.choice([1, 3, 10, 200])))
    return l_sul, c_sul, received, int(rng.integers(0, 50)), cfg


def local_round_outcome(run, case, seed):
    """The round's result, with the reference's two counts, or the raised error; and the RNG state.

    For `run_local_ransac`, the reported count is `run_registration`'s
    credit: the hypotheses, plus the entry t_glo on early termination.
    """
    l_sul, c_sul, received, t_glo, cfg = case
    rng = np.random.default_rng(seed)
    try:
        if run is reference_local_ransac:
            res = run(l_sul, c_sul, received, t_glo, cfg, rng)
            counts = (res.iterations, res.raw_iterations)
        else:
            res = run(l_sul, c_sul, received, cfg, rng)
            credit = t_glo if res.branch == "early-termination" else 0
            counts = (res.hypotheses + credit, res.hypotheses)
    except DegenerateInput as exc:
        return (type(exc), str(exc)), rng.bit_generator.state
    return (res.transform.rotation.tobytes(), res.transform.translation.tobytes(), *counts,
            res.degenerate_samples, res.branch, res.n_local_inliers), rng.bit_generator.state


class TestLocalRansacMatchesReference:
    def test_results_and_draws_match_per_hypothesis_reference(self):
        branches, degenerate_rounds, raised = set(), 0, 0
        for seed in range(150):
            case = local_round_case(seed)
            assert not np.array_equal(case[1].indices, np.arange(len(case[1])))
            assert (case[0].table is case[1]) == (seed % 2 == 0)
            ref = local_round_outcome(reference_local_ransac, case, seed)
            got = local_round_outcome(run_local_ransac, case, seed)
            assert got == ref, f"seed {seed}"
            if ref[0][0] is DegenerateInput:
                raised += 1
            else:
                branches.add(ref[0][5])
                degenerate_rounds += ref[0][4] > 0
        assert branches == {"early-termination", "confidence", "iteration-cap"}
        assert degenerate_rounds >= 10 and raised >= 1

    def test_makes_no_rows_for_call(self, monkeypatch):
        # A basic subset's endpoints are rows of the round sample's own table.
        calls = []
        rows_for = CorrespondenceSet.rows_for

        def counting(self, ids):
            calls.append(len(np.atleast_1d(ids)))
            return rows_for(self, ids)

        monkeypatch.setattr(CorrespondenceSet, "rows_for", counting)
        rng = np.random.default_rng(3)
        corrs = CorrespondenceSet(rng.normal(size=(30, 3)), rng.normal(size=(30, 3)))
        lvs = build_line_vectors(corrs)
        far = RigidTransform(rotation_about_axis((0, 1, 0), 1.5), (3.0, 3.0, 3.0))
        for cap in (1, 40):
            res = run_local_ransac(lvs, corrs, far, RansacConfig(max_local_iterations=cap),
                                   np.random.default_rng(cap))
            assert res.hypotheses == cap
        assert calls == []


def quick_cfg(**kw):
    defaults = dict(rng_seed=0, max_local_iterations=100)
    defaults.update(kw)
    return RansacConfig(**defaults)


class TestRejectedConfig:
    @pytest.mark.parametrize("field, value", [
        ("r_max", 2.5), ("k_normals", 2.5), ("max_local_iterations", 1.5), ("rng_seed", 1.5),
        ("r_max", "3")])
    def test_integer_settings_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            RansacConfig(**{field: value})

    @pytest.mark.parametrize("tau", [1e-170, 1e-154, 1e160, 1.35e154, np.float64(1e160)])
    def test_tau_squared_must_be_a_normal_float(self, tau):
        with pytest.raises(ValueError, match="noise_bound"):
            RansacConfig(noise_bound=tau)

    def test_tau_squared_at_the_edges_of_the_normal_range(self):
        # the smallest and largest tau whose squares are normal floats
        RansacConfig(noise_bound=1.4916681462400417e-154)
        RansacConfig(noise_bound=1.3407807929942596e154)


class TestRunRegistration:
    def test_noiseless_full_inlier_recovery(self):
        spec = SyntheticSpec(n_points=500, n_correspondences=150, outlier_rate=0.0,
                             noise_sigma=0.0, seed=42)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        res = run_registration(corrs, source, target, quick_cfg())
        assert res.rounds <= 1
        assert stable_geodesic(res.transform.rotation, gt.rotation) < 1e-6
        assert np.linalg.norm(res.transform.translation - gt.translation) < 1e-6

    def test_thirty_percent_inliers_seeded_suite(self):
        successes = 0
        for seed in range(50):
            spec = SyntheticSpec(n_points=400, n_correspondences=200, outlier_rate=0.7,
                                 noise_sigma=0.003, seed=seed)
            source, target, corrs, gt, _ = synthesize_pair(spec)
            res = run_registration(corrs, source, target, quick_cfg(rng_seed=seed))
            rot_err = np.degrees(stable_geodesic(res.transform.rotation, gt.rotation))
            tr_err = np.linalg.norm(res.transform.translation - gt.translation)
            successes += rot_err < 0.5 and tr_err < 0.01
        assert successes >= 48  # >= 95% of 50 trials

    def test_exactly_r_max_rounds_when_confidence_unreachable(self):
        rng = np.random.default_rng(9)
        src = rng.normal(size=(40, 3))
        tgt = rng.normal(size=(40, 3))  # all-outlier: confidence stays ~0
        corrs = CorrespondenceSet(src, tgt)
        cfg = quick_cfg(r_max=5, max_local_iterations=15)
        res = run_registration(corrs, PointCloudFrom(src), PointCloudFrom(tgt), cfg)
        assert res.rounds == 5
        assert res.exit_reason == "max-rounds"

    def test_determinism_bit_identical(self):
        spec = SyntheticSpec(n_points=300, n_correspondences=120, outlier_rate=0.6,
                             noise_sigma=0.003, seed=7)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        a = run_registration(corrs, source, target, quick_cfg(rng_seed=5))
        b = run_registration(corrs, source, target, quick_cfg(rng_seed=5))
        assert np.array_equal(a.transform.rotation, b.transform.rotation)
        assert np.array_equal(a.transform.translation, b.transform.translation)
        assert result_to_dict(a) == result_to_dict(b)

    def test_monotone_global_best_and_weight_accounting(self):
        spec = SyntheticSpec(n_points=300, n_correspondences=150, outlier_rate=0.8,
                             noise_sigma=0.003, seed=11)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        res = run_registration(corrs, source, target, quick_cfg(rng_seed=11, r_max=5))
        counts = [row.n_global_inliers for row in res.per_round_trace]
        assert all(a <= b for a, b in zip(counts, counts[1:]))
        # one increment per global inlier of every round whose weights were updated
        updated = [row for row in res.per_round_trace if row.weights_updated]
        assert res.accumulated_weights.sum() == sum(row.n_global_inliers for row in updated)
        assert res.accumulated_weights.max() <= len(updated)

    def test_weights_count_the_rounds_each_row_was_a_global_inlier(self, monkeypatch):
        # Scripted rounds propose identity, the true transform, then identity
        # again; the global best stays the true transform from round 2 on,
        # and no round reaches the confidence target, so all three add weight.
        rng = np.random.default_rng(4)
        g = random_transform(rng)
        src = rng.normal(size=(40, 3))
        tgt = g.apply(src)
        tgt[20:] = rng.normal(size=(20, 3))
        proposals = iter([RigidTransform.identity(), g, RigidTransform.identity()])

        def scripted(l_sul, c_sul, received_glo, cfg, rng):
            return LocalRoundResult(next(proposals), 1, 0, "iteration-cap", 0)

        monkeypatch.setattr("lvreg.engine.run_local_ransac", scripted)
        corrs = CorrespondenceSet(src, tgt)
        cfg = quick_cfg(r_max=3, use_ahs_lvlp=False, use_sus=False)
        res = run_registration(corrs, PointCloudFrom(src), PointCloudFrom(tgt), cfg)
        expected = np.zeros(40, dtype=np.int64)
        expected[residual_inliers(RigidTransform.identity(), corrs, cfg.residual_threshold)] += 1
        expected[residual_inliers(g, corrs, cfg.residual_threshold)] += 2
        assert expected[:20].tolist() == [2] * 20
        assert [row.weights_updated for row in res.per_round_trace] == [True] * 3
        assert np.array_equal(res.accumulated_weights, expected)

    def test_eq6_branch_reported_count_exceeds_entry(self):
        spec = SyntheticSpec(n_points=300, n_correspondences=150, outlier_rate=0.5,
                             noise_sigma=0.003, seed=13)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        res = run_registration(corrs, source, target, quick_cfg(rng_seed=13))
        t_glo_entry = 0
        for row in res.per_round_trace:
            if row.branch == "early-termination":
                assert row.t_lcl > t_glo_entry
            t_glo_entry = row.t_glo

    def test_early_termination_inherits_global_count(self, monkeypatch):
        # Scripted local rounds: 100 hypotheses up to the cap, then one that
        # agrees with the global best it received, so its t_lcl inherits the
        # 100 counted before it; the confidence round after it does not.
        rounds = iter([(100, "iteration-cap"), (1, "early-termination"), (7, "confidence")])

        def scripted(l_sul, c_sul, received_glo, cfg, rng):
            hypotheses, branch = next(rounds)
            return LocalRoundResult(received_glo, hypotheses, 0, branch, 0)

        monkeypatch.setattr("lvreg.engine.run_local_ransac", scripted)
        rng = np.random.default_rng(9)
        src = rng.normal(size=(40, 3))
        tgt = rng.normal(size=(40, 3))  # all-outlier: the global confidence stays 0
        cfg = quick_cfg(r_max=3, use_ahs_lvlp=False, use_sus=False)
        res = run_registration(CorrespondenceSet(src, tgt), PointCloudFrom(src),
                               PointCloudFrom(tgt), cfg)
        assert [(r.t_glo, r.t_lcl, r.hypotheses, r.branch) for r in res.per_round_trace] == [
            (100, 100, 100, "iteration-cap"), (201, 100 + 1, 1, "early-termination"),
            (208, 7, 7, "confidence")]
        assert res.total_iterations == 208

    def test_iteration_inherit_arithmetic(self):
        # every round's t_lcl is its hypotheses, plus the entry t_glo on
        # early termination, and t_glo sums the t_lcl
        inherited = 0
        for seed in range(13, 19):
            spec = SyntheticSpec(n_points=300, n_correspondences=150, outlier_rate=0.5,
                                 noise_sigma=0.003, seed=seed)
            source, target, corrs, gt, _ = synthesize_pair(spec)
            res = run_registration(corrs, source, target, quick_cfg(rng_seed=seed))
            t_glo_entry = 0
            for row in res.per_round_trace:
                credit = t_glo_entry if row.branch == "early-termination" else 0
                assert row.t_lcl == row.hypotheses + credit
                assert row.t_glo == t_glo_entry + row.t_lcl
                inherited += credit > 0
                t_glo_entry = row.t_glo
            assert res.total_iterations == t_glo_entry
        assert inherited >= 1

    def test_trace_reports_hypotheses_apart_from_the_inherited_count(self):
        # Round 2 of this scene ends in early termination, so its t_lcl
        # includes round 1's count; `hypotheses` is what the round tried.
        spec = SyntheticSpec(n_points=300, n_correspondences=150, outlier_rate=0.5,
                             noise_sigma=0.003, seed=13)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        res = run_registration(corrs, source, target, quick_cfg(rng_seed=13))
        rows = res.per_round_trace
        assert [(r.t_glo, r.t_lcl, r.hypotheses, r.branch) for r in rows] == [
            (5, 5, 5, "confidence"), (11, 6, 1, "early-termination")]
        json_rows = result_to_dict(res)["trace"]
        assert [(d["t_lcl"], d["hypotheses"], d["degenerate_samples"]) for d in json_rows] == [
            (5, 5, 0), (6, 1, 0)]

    def test_trace_reports_degenerate_samples(self):
        # Most source points on one line and two-vector basic samples: the
        # round redraws parallel samples before its one hypothesis.
        rng = np.random.default_rng(1)
        src = rng.normal(size=(40, 3))
        on_line = rng.random(40) < 0.85
        src[on_line] = np.outer(rng.normal(size=on_line.sum()), [1.0, 2.0, -1.0])
        g = random_transform(rng)
        tgt = g.apply(src) + rng.normal(scale=0.002, size=(40, 3))
        cfg = quick_cfg(rng_seed=1, beta_pct=1.0, use_ahs_lvlp=False)
        res = run_registration(CorrespondenceSet(src, tgt), PointCloudFrom(src),
                               PointCloudFrom(tgt), cfg)
        row = res.per_round_trace[0]
        assert (row.t_lcl, row.hypotheses, row.degenerate_samples) == (1, 1, 4)
        assert result_to_dict(res)["trace"][0]["degenerate_samples"] == 4

    def test_emptied_local_set_rebuilt_from_full_set(self):
        # All-outlier scene: no round has a global inlier, so nothing is ever
        # admitted, and round 2 meets every local member as a two-round
        # outlier and evicts it outright, emptying the local set.
        rng = np.random.default_rng(9)
        src = rng.normal(size=(40, 3))
        tgt = rng.normal(size=(40, 3))
        corrs = CorrespondenceSet(src, tgt)
        cfg = quick_cfg(r_max=3, max_local_iterations=15, use_ahs_lvlp=False)
        res = run_registration(corrs, PointCloudFrom(src), PointCloudFrom(tgt), cfg)
        trace = res.per_round_trace
        assert all(row.n_global_inliers == 0 for row in trace)
        second = res.sus_decisions[1]
        assert len(second) == trace[1].local_set_size > 0
        assert all(d.rule is UpdateRule.STABLE_OUTLIER and d.action is UpdateAction.REMOVE
                   for d in second)
        assert trace[2].local_set_size == len(corrs)
        assert res.exit_reason in {"confidence", "max-rounds"}

    def test_counters_report_rung_zero_length_pairs_and_rebuilds(self):
        # The all-outlier scene above, with four coincident target points
        # (6 zero-length pairs per build of the full set). The self-update
        # runs after rounds 1 and 2, not after the last, and empties the
        # local set both times, so the full set is built 1 + 2 times.
        rng = np.random.default_rng(9)
        src = rng.normal(size=(40, 3))
        tgt = rng.normal(size=(40, 3))
        tgt[[5, 6, 7]] = tgt[4]
        corrs = CorrespondenceSet(src, tgt)
        cfg = quick_cfg(r_max=3, max_local_iterations=15, use_ahs_lvlp=False)
        res = run_registration(corrs, PointCloudFrom(src), PointCloudFrom(tgt), cfg)
        assert [row.local_set_size for row in res.per_round_trace] == [40, 40, 40]
        assert res.counters == {"local_sets_rung": "full-set", "zero_length_skipped": 18,
                                "full_set_rebuilds": 2}
        assert len(res.sus_decisions) == 2
        assert result_to_dict(res)["counters"] == res.counters

    @pytest.mark.parametrize("seed", [0, 4])
    def test_rounds_after_a_self_update_share_the_full_table(self, seed, monkeypatch):
        # The filtered line vectors start over the angle-filtered subset; every
        # round after a self-update reads them over the run's full set, whose
        # n rows do not grow.
        spec = SyntheticSpec(n_points=300, n_correspondences=120, outlier_rate=0.8,
                             noise_sigma=0.003, seed=seed)
        source, target, corrs, _, _ = synthesize_pair(spec)
        tables, run = [], engine.run_local_ransac

        def recording(l_sul, *args):
            tables.append(l_sul.table)
            return run(l_sul, *args)

        monkeypatch.setattr(engine, "run_local_ransac", recording)
        res = run_registration(corrs, source, target, quick_cfg(rng_seed=seed, r_max=4))
        assert res.counters["local_sets_rung"] == "filtered" and res.rounds >= 2
        assert len(tables[0].indices) < len(corrs)
        assert all(t is tables[1] and len(t.indices) == len(corrs) for t in tables[1:])

    @pytest.mark.parametrize("r_max", [1, 2, 5])
    def test_no_self_update_after_the_last_round(self, r_max):
        # All-outlier scene: every run ends at max-rounds, and only the
        # rounds another round followed get a self-update.
        rng = np.random.default_rng(9)
        src = rng.normal(size=(40, 3))
        tgt = rng.normal(size=(40, 3))
        cfg = quick_cfg(r_max=r_max, max_local_iterations=15)
        res = run_registration(CorrespondenceSet(src, tgt), PointCloudFrom(src),
                               PointCloudFrom(tgt), cfg)
        assert (res.exit_reason, res.rounds) == ("max-rounds", r_max)
        assert len(res.sus_decisions) == r_max - 1

    def test_decision_fields_are_python_scalars(self):
        # The fingerprints hash the repr of each field, and a NumPy scalar's
        # repr differs from a Python one's of the same value.
        spec = SyntheticSpec(n_points=300, n_correspondences=120, outlier_rate=0.8,
                             noise_sigma=0.003, seed=4)
        source, target, corrs, _, _ = synthesize_pair(spec)
        res = run_registration(corrs, source, target, quick_cfg(rng_seed=4, r_max=4))
        decisions = [d for round_decisions in res.sus_decisions for d in round_decisions]
        assert len({(d.rule, d.action) for d in decisions}) == 6  # every rule and action
        for d in decisions:
            assert type(d.correspondence_index) is int
            assert type(d.action) is UpdateAction and type(d.rule) is UpdateRule
            assert type(d.probability) in (float, type(None))
            assert type(d.threshold) in (float, type(None))

    def test_counters_report_the_filtered_rung(self):
        spec = SyntheticSpec(n_points=300, n_correspondences=150, outlier_rate=0.5,
                             noise_sigma=0.003, seed=2)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        res = run_registration(corrs, source, target, quick_cfg())
        assert res.counters["local_sets_rung"] == "filtered"
        assert res.counters["full_set_rebuilds"] == 0

    def test_full_set_over_pair_budget_refused_before_any_round(self, monkeypatch):
        # A budget that fits the angle-filtered local set but not the full
        # set: the self-update could need the full set's pairs after any
        # round, so registration with it on is refused before the first.
        spec = SyntheticSpec(n_points=300, n_correspondences=150, outlier_rate=0.5,
                             noise_sigma=0.003, seed=2)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        m = run_registration(corrs, source, target, quick_cfg()).per_round_trace[0].local_set_size
        assert 2 <= m < len(corrs)
        monkeypatch.setattr(local_sets, "PAIR_BUDGET", m * (m - 1) // 2)

        def no_round(*args, **kwargs):
            raise AssertionError("a round ran")

        monkeypatch.setattr("lvreg.engine.run_local_ransac", no_round)
        with pytest.raises(PairBudgetExceeded, match=str(len(corrs) * (len(corrs) - 1) // 2)):
            run_registration(corrs, source, target, quick_cfg())
        monkeypatch.undo()
        monkeypatch.setattr(local_sets, "PAIR_BUDGET", m * (m - 1) // 2)
        res = run_registration(corrs, source, target, quick_cfg(use_sus=False))
        assert res.counters["local_sets_rung"] == "filtered"
        assert res.per_round_trace[0].local_set_size == m

    def test_too_few_correspondences(self):
        src = np.zeros((2, 3))
        corrs = CorrespondenceSet(src, src)
        with pytest.raises(TooFewCorrespondences):
            run_registration(corrs, PointCloudFrom(src), PointCloudFrom(src), quick_cfg())

    def test_caller_set_not_mutated(self):
        spec = SyntheticSpec(n_points=200, n_correspondences=100, outlier_rate=0.5,
                             noise_sigma=0.003, seed=3)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        res_before = corrs.curr_residuals.copy()
        run_registration(corrs, source, target, quick_cfg())
        assert np.array_equal(np.isnan(corrs.curr_residuals), np.isnan(res_before))


def _fuzz_clouds(kind, rng):
    if kind == "heavy-duplicate":
        n = int(rng.integers(12, 40))
        base = rng.normal(size=(max(3, n // 4), 3))
        return base[rng.integers(0, len(base), size=n)], base[rng.integers(0, len(base), size=n)]
    n = int(rng.integers(8, 20))  # (near-)coincident source cloud
    scale = 1e-12 if kind == "near-coincident" else 0.0
    return rng.normal(scale=scale, size=(n, 3)), rng.normal(size=(n, 3))


class TestTerminationFuzz:
    """Every input ends in a result or a typed LvregError."""

    @staticmethod
    def run(corrs, source, target, cfg):
        try:
            res = run_registration(corrs, source, target, cfg)
        except LvregError as exc:
            return exc
        assert res.rounds <= cfg.r_max
        assert np.all(np.isfinite(res.transform.rotation))
        assert np.all(np.isfinite(res.transform.translation))
        return res

    @pytest.mark.parametrize("use_ahs_lvlp", [True, False])
    @pytest.mark.parametrize("kind", ["heavy-duplicate", "near-coincident", "coincident"])
    def test_adversarial_clouds(self, kind, use_ahs_lvlp):
        # default k_normals: 20 neighbors in clouds of 8-40 points, so ties
        # past the 20th candidate and rank-0 neighborhoods both occur
        for seed in range(15):
            src, tgt = _fuzz_clouds(kind, np.random.default_rng(seed))
            cfg = quick_cfg(rng_seed=seed, r_max=5, max_local_iterations=30,
                            use_ahs_lvlp=use_ahs_lvlp)
            out = self.run(CorrespondenceSet(src, tgt), PointCloudFrom(src),
                           PointCloudFrom(tgt), cfg)
            if kind == "coincident" and use_ahs_lvlp:
                assert isinstance(out, DegenerateNeighborhood)

    @pytest.mark.parametrize("use_ahs_lvlp", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row(self, bad, use_ahs_lvlp):
        spec = SyntheticSpec(n_points=200, n_correspondences=60, outlier_rate=0.5,
                             noise_sigma=0.003, seed=5)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        corrs.source[17, 1] = bad  # written after the set was checked
        out = self.run(corrs, source, target, quick_cfg(use_ahs_lvlp=use_ahs_lvlp))
        assert isinstance(out, NonFiniteInput)

    @pytest.mark.parametrize("scale, tau", [(1e100, 1e-100), (1e140, 1e-140), (1e50, 1e-150)])
    def test_tau_far_below_the_residuals_registers(self, scale, tau):
        # tau^2 / (2 max r^2 - tau^2) underflows the GNC's initial mu to 0
        corrs, source, target, _ = self.scaled_scene(scale, True)
        cfg = quick_cfg(residual_threshold=0.01 * scale, noise_bound=tau)
        assert isinstance(self.run(corrs, source, target, cfg), RegistrationResult)

    @staticmethod
    def scaled_scene(scale, use_ahs_lvlp):
        """The 60-correspondence scene and its settings, everything scaled by `scale`.

        tau stops at MAX_COORDINATE, past which its square is no normal float.
        """
        spec = SyntheticSpec(n_points=200, n_correspondences=60, outlier_rate=0.5,
                             noise_sigma=0.003, seed=5)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        for points in (corrs.source, corrs.target, source.points, target.points):
            points *= scale  # written after the sets were checked
        cfg = quick_cfg(use_ahs_lvlp=use_ahs_lvlp, residual_threshold=0.01 * scale,
                        noise_bound=min(0.05 * scale, MAX_COORDINATE))
        return corrs, source, target, cfg

    @pytest.mark.parametrize("use_ahs_lvlp", [True, False])
    @pytest.mark.parametrize("scale", [1e155, 1e160, 1e200])
    def test_huge_finite_coordinates(self, scale, use_ahs_lvlp):
        # squared distances of such coordinates overflow to inf
        out = self.run(*self.scaled_scene(scale, use_ahs_lvlp))
        assert isinstance(out, NonFiniteInput)
        assert "beyond" in str(out)

    @pytest.mark.parametrize("use_ahs_lvlp", [True, False])
    def test_coordinates_just_inside_the_bound_register(self, use_ahs_lvlp):
        corrs, source, target, cfg = self.scaled_scene(1.0, use_ahs_lvlp)
        base = self.run(corrs, source, target, cfg)
        largest = max(np.abs(a).max() for a in (corrs.source, corrs.target,
                                                source.points, target.points))
        out = self.run(*self.scaled_scene(0.999 * MAX_COORDINATE / largest, use_ahs_lvlp))
        assert isinstance(out, RegistrationResult)
        assert np.array_equal(out.inlier_indices, base.inlier_indices)


def noise_free_scene():
    """A 30-correspondence scene whose inliers fit exactly: residuals of 0 occur."""
    source, target, corrs, _, _ = synthesize_pair(SyntheticSpec(
        n_points=100, n_correspondences=30, outlier_rate=0.3, noise_sigma=0.0, seed=1))
    return source.points, target.points, corrs.source, corrs.target


NOISE_FREE_SCENE = noise_free_scene()


class TestScaleAndSettingsProperty:
    """Any scale, tau and threshold end in a result or a typed error, with sane records."""

    @given(scale_exp=st.integers(-150, 149), tau_exp=st.floats(-20.0, 3.0),
           tr_exp=st.floats(-20.0, 3.0), use_ahs_lvlp=st.booleans(),
           rng_seed=st.integers(0, 2**16))
    # Scaled by 1e-150 with tau 0.05e-150 and a threshold of 1e-160, residuals
    # and sigma both square to 0: a probability once came out NaN there.
    @example(scale_exp=-150, tau_exp=-1.3010299956639813, tr_exp=-10.0, use_ahs_lvlp=True,
             rng_seed=14)
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_scaled_runs_end_in_a_result_or_a_typed_error(self, scale_exp, tau_exp, tr_exp,
                                                          use_ahs_lvlp, rng_seed):
        scale = 10.0 ** scale_exp
        try:
            cfg = quick_cfg(rng_seed=rng_seed, max_local_iterations=50,
                            use_ahs_lvlp=use_ahs_lvlp,
                            noise_bound=10.0 ** (scale_exp + tau_exp),
                            residual_threshold=10.0 ** (scale_exp + tr_exp))
        except ValueError:
            return  # e.g. a tau whose square is no normal float
        src, tgt, corr_src, corr_tgt = (a * scale for a in NOISE_FREE_SCENE)
        out = TestTerminationFuzz.run(CorrespondenceSet(corr_src, corr_tgt), PointCloudFrom(src),
                                      PointCloudFrom(tgt), cfg)
        if isinstance(out, RegistrationResult):
            probabilities = [d.probability for decisions in out.sus_decisions
                             for d in decisions if d.probability is not None]
            assert all(0.0 <= p <= 1.0 for p in probabilities)


def PointCloudFrom(points):
    from lvreg.normals import PointCloud
    return PointCloud(points)

import copy
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc

from lvreg.correspondences import CorrespondenceSet
from lvreg.errors import MissingResidual
from lvreg.io import write_sus_csv
from lvreg.local_sets import RatioRange, build_line_vectors, length_ratio_filter
from lvreg.self_update import (
    SIGMA_MODES,
    UpdateAction,
    UpdateRule,
    draw_probability_threshold,
    draw_sigma,
    true_inlier_probability,
    update_local_sets,
)

from self_update_reference import classify_inclusion, classify_removal

T_R = 0.01


def quadrature_probability(r, sigma):
    """Independent oracle: numerically integrate the lower incomplete gamma."""
    x = (r * r) / (2.0 * sigma * sigma)
    if x == 0.0:
        return 1.0
    lower, _ = quad(lambda t: math.sqrt(t) * math.exp(-t), 0.0, min(x, 2000.0))
    return 1.0 - lower / math.gamma(1.5)


class TestTrueInlierProbability:
    def test_zero_residual_is_one(self):
        assert true_inlier_probability(0.0, 0.5) == 1.0

    def test_residual_equal_sigma(self):
        # survival of a chi-square with 3 dof at 1
        got = true_inlier_probability(1.0, 1.0)
        assert got == pytest.approx(quadrature_probability(1.0, 1.0), abs=1e-9)
        assert got == pytest.approx(0.8013, abs=2e-4)

    def test_ten_sigma_negligible(self):
        assert true_inlier_probability(10.0, 1.0) < 1e-15

    def test_eight_sigma_below_1e12(self):
        assert true_inlier_probability(8.0, 1.0) < 1e-12

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 8.0, 200)
        vals = [true_inlier_probability(r, 1.0) for r in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_quadrature_up_to_x50(self):
        # r^2 / 2 up to 50 with sigma = 1
        for r in np.linspace(0.001, 10.0, 120):
            assert true_inlier_probability(r, 1.0) == pytest.approx(
                quadrature_probability(r, 1.0), abs=1e-9)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            true_inlier_probability(1.0, 0.0)

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.array([T_R, 0.0]), np.array([T_R, np.nan])])
    def test_sigma_must_be_positive_and_not_nan(self, sigma):
        with pytest.raises(ValueError):
            true_inlier_probability(np.array([0.5 * T_R, T_R]), sigma)

    def test_one_array_call_equals_the_scalar_calls(self):
        rng = np.random.default_rng(2)
        r = np.concatenate([[0.0], rng.uniform(0.0, 3 * T_R, 999)])
        sigma = rng.uniform(1e-6, T_R, 1000)
        got = true_inlier_probability(r, sigma)
        assert got.tolist() == [float(gammaincc(1.5, (a * a) / (2.0 * s * s)))
                                for a, s in zip(r.tolist(), sigma.tolist())]
        assert type(true_inlier_probability(0.5 * T_R, T_R)) is float

    @pytest.mark.parametrize("r, sigma, x", [
        (0.0, 1e-170, 0.0),            # 0 / 0: both squares underflow
        (1e-171, 1e-170, 0.005),       # the ratio is 0.1
        (3e-170, 1e-170, 4.5),
        (1e200, 1e200, 0.5),           # inf / inf: both squares overflow
    ])
    def test_underflowed_or_overflowed_squares_use_the_ratio(self, r, sigma, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = true_inlier_probability(r, sigma)
        assert got == pytest.approx(float(gammaincc(1.5, x)), rel=1e-12)
        assert got == pytest.approx(quadrature_probability(r / sigma, 1.0), abs=1e-9)

    def test_arrays_with_underflowed_squares_keep_the_other_bits(self):
        rng = np.random.default_rng(4)
        r = np.concatenate([[0.0, 1e-171, 2e-165], rng.uniform(0.0, 3 * T_R, 97)])
        sigma = np.concatenate([[1e-170, 1e-170, 1e-170], rng.uniform(1e-6, T_R, 97)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = true_inlier_probability(r, sigma)
        assert not np.isnan(got).any()
        assert got[0] == 1.0 and got[1] == pytest.approx(0.99973, abs=1e-5) and got[2] == 0.0
        assert got[3:].tolist() == [float(gammaincc(1.5, (a * a) / (2.0 * s * s)))
                                    for a, s in zip(r[3:].tolist(), sigma[3:].tolist())]


class TestDraws:
    def test_threshold_grid(self):
        rng = np.random.default_rng(0)
        draws = {draw_probability_threshold(rng) for _ in range(5000)}
        assert min(draws) >= 0.01 and max(draws) <= 1.0
        assert all(round(p * 100) == pytest.approx(p * 100, abs=1e-9) for p in draws)
        assert len(draws) == 100  # every grid value reachable

    def test_threshold_bounds_from_stub(self):
        class Stub:
            def __init__(self, value):
                self.value = value

            def integers(self, lo, hi):
                assert (lo, hi) == (1, 101)
                return self.value

        assert draw_probability_threshold(Stub(20)) == 0.2
        assert draw_probability_threshold(Stub(1)) == 0.01
        assert draw_probability_threshold(Stub(100)) == 1.0

    def test_sigma_in_half_open_interval(self):
        rng = np.random.default_rng(1)
        draws = [draw_sigma(rng, T_R) for _ in range(5000)]
        assert all(0.0 < s <= T_R for s in draws)


class TestClassifyInclusion:
    def test_stable_inlier_no_rng(self):
        rng = np.random.default_rng(3)
        state_before = rng.bit_generator.state
        d = classify_inclusion(0.4 * T_R, 0.3 * T_R, T_R, rng)
        assert d.action is UpdateAction.INCLUDE
        assert d.rule is UpdateRule.STABLE_INLIER
        assert d.probability == 1.0 and d.threshold is None
        assert rng.bit_generator.state == state_before  # deterministic path

    def test_near_zero_residual_almost_always_included(self):
        # P evaluates to 1.0 in float64, so only the p = 1.00 draw (1 in 100)
        # rejects: expected inclusion rate is exactly 0.99
        rng = np.random.default_rng(4)
        trials = 10_000
        included = sum(
            classify_inclusion(2 * T_R, 1e-12, T_R, rng).action
            is UpdateAction.INCLUDE
            for _ in range(trials)
        )
        se = math.sqrt(0.99 * 0.01 / trials)
        assert abs(included / trials - 0.99) <= 3 * se

    def test_low_probability_never_included(self):
        rng = np.random.default_rng(5)
        # sigma fixed tiny so P(curr) < 0.01 = the smallest drawable threshold
        sigma = T_R / 50.0
        assert true_inlier_probability(0.99 * T_R, sigma) < 0.01
        for _ in range(2000):
            d = classify_inclusion(2 * T_R, 0.99 * T_R, T_R, rng, sigma=sigma)
            assert d.action is UpdateAction.SKIP

    def test_first_round_takes_probabilistic_path(self):
        rng = np.random.default_rng(6)
        d = classify_inclusion(np.nan, 0.5 * T_R, T_R, rng)
        assert d.rule is UpdateRule.NEW_INLIER
        assert d.threshold is not None

    def test_missing_current_residual(self):
        with pytest.raises(MissingResidual):
            classify_inclusion(0.1, np.nan, T_R, np.random.default_rng(0))

    def test_rule2_inclusion_frequency_matches_grid_mass(self):
        # with fixed sigma the inclusion probability over the threshold grid
        # is exactly (number of n in [1,100] with n/100 < P) / 100
        sigma = T_R / 2.0
        curr = 0.6 * T_R
        p = true_inlier_probability(curr, sigma)
        q = sum(1 for n in range(1, 101) if p > n / 100.0) / 100.0
        rng = np.random.default_rng(7)
        trials = 10_000
        included = sum(
            classify_inclusion(2 * T_R, curr, T_R, rng, sigma=sigma).action
            is UpdateAction.INCLUDE
            for _ in range(trials)
        )
        se = math.sqrt(q * (1 - q) / trials)
        assert abs(included / trials - q) <= 3 * se


class TestClassifyRemoval:
    def test_stable_outlier_removed_without_rng(self):
        rng = np.random.default_rng(8)
        state_before = rng.bit_generator.state
        d = classify_removal(3 * T_R, 2 * T_R, T_R, rng)
        assert d.action is UpdateAction.REMOVE
        assert d.rule is UpdateRule.STABLE_OUTLIER
        assert rng.bit_generator.state == state_before

    def test_huge_residual_almost_always_removed(self):
        rng = np.random.default_rng(9)
        removed = sum(
            classify_removal(0.5 * T_R, 100 * T_R, T_R, rng).action
            is UpdateAction.REMOVE
            for _ in range(10_000)
        )
        assert removed / 10_000 >= 0.99

    def test_eviction_impossible_below_smallest_threshold(self):
        # grid-bound mechanism: whenever 1 - P < 0.01 (the smallest drawable
        # threshold) eviction can never fire; needs sigma > T_r to reach that
        # regime, which the classifier accepts as an explicit parameter
        rng = np.random.default_rng(10)
        sigma = 3.2 * T_R
        assert 1.0 - true_inlier_probability(1.0001 * T_R, sigma) < 0.01
        for _ in range(2000):
            d = classify_removal(0.5 * T_R, 1.0001 * T_R, T_R, rng, sigma=sigma)
            assert d.action is UpdateAction.KEEP

    def test_barely_outlier_at_max_inrange_sigma_rarely_removed(self):
        # at the largest in-range scale (sigma = T_r) a residual just past the
        # threshold keeps P = 0.8013, so eviction fires on ~19.8% of draws
        rng = np.random.default_rng(10)
        p = true_inlier_probability(1.0001 * T_R, T_R)
        expected = sum(1 for n in range(1, 101) if (1.0 - p) > n / 100.0) / 100.0
        trials = 10_000
        removed = sum(
            classify_removal(0.5 * T_R, 1.0001 * T_R, T_R, rng,
                             sigma=T_R).action is UpdateAction.REMOVE
            for _ in range(trials)
        )
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(removed / trials - expected) <= 3 * se

    def test_first_round_takes_probabilistic_path(self):
        rng = np.random.default_rng(11)
        d = classify_removal(np.nan, 2 * T_R, T_R, rng)
        assert d.rule is UpdateRule.NEW_OUTLIER


def build_state(rng, n=30, duplicate_target=False):
    """A root correspondence set with residual history plus local sets.

    `duplicate_target` gives rows 0 and 1 one target point, so their pairs
    have zero-length target differences.
    """
    src = rng.normal(size=(n, 3))
    tgt = rng.normal(size=(n, 3))
    if duplicate_target:
        tgt[1] = tgt[0]
    corrs = CorrespondenceSet(src, tgt)
    corrs.prev_residuals = rng.uniform(0, 2 * T_R, size=n)
    corrs.curr_residuals = rng.uniform(0, 2 * T_R, size=n)
    member_rows = np.sort(rng.choice(n, size=n // 2, replace=False))
    local = corrs.subset(member_rows)
    lvs, ratio_range, _ = length_ratio_filter(build_line_vectors(local))
    return corrs, local, lvs, ratio_range


def per_id_reference(corrs, local_set, lvs, ir_glo, ratio_range, rng, sigma_mode):
    """The self-update one id at a time: decisions in ascending id, evictions
    first, then each admitted id paired against the sorted current members
    and its block appended before the next id is examined. A pair is
    admitted where its ratio is in the band; the ratio itself is not kept.

    Returns (member ids, [i, j, v_source, v_target], decisions).
    """
    sigma = None
    if sigma_mode == "per-round":
        sigma = draw_sigma(rng, T_R)
    elif sigma_mode == "fixed-half-tr":
        sigma = T_R / 2.0
    ir_set = set(ir_glo.tolist())
    sul_set = set(local_set.indices.tolist())
    decisions = []
    removed = []
    for gid in sorted(sul_set - ir_set):
        row = corrs.rows_for([gid])[0]
        d = classify_removal(float(corrs.prev_residuals[row]), float(corrs.curr_residuals[row]),
                             T_R, rng, sigma=sigma, index=gid)
        decisions.append(d)
        if d.action is UpdateAction.REMOVE:
            removed.append(gid)
    current = sorted(sul_set - set(removed))
    keep = ~(np.isin(lvs.i, removed) | np.isin(lvs.j, removed))
    cols = [lvs.i[keep], lvs.j[keep], lvs.v_source[keep], lvs.v_target[keep]]
    for gid in sorted(ir_set - sul_set):
        row = corrs.rows_for([gid])[0]
        d = classify_inclusion(float(corrs.prev_residuals[row]), float(corrs.curr_residuals[row]),
                               T_R, rng, sigma=sigma, index=gid)
        decisions.append(d)
        if d.action is not UpdateAction.INCLUDE:
            continue
        if current:
            mem = np.asarray(current, dtype=np.int64)
            rows_mem = corrs.rows_for(mem)
            sign = np.where(mem > gid, 1.0, -1.0)[:, None]
            vs = sign * (corrs.source[row] - corrs.source[rows_mem])
            vt = sign * (corrs.target[row] - corrs.target[rows_mem])
            ns = np.linalg.norm(vs, axis=1)
            nt = np.linalg.norm(vt, axis=1)
            ok = (ns > 0.0) & (nt > 0.0)
            ratio = np.zeros(len(mem))
            ratio[ok] = ns[ok] / nt[ok]
            ok &= ratio_range.contains(ratio)
            block = [np.minimum(gid, mem)[ok], np.maximum(gid, mem)[ok], vs[ok], vt[ok]]
            cols = [np.concatenate([c, b]) for c, b in zip(cols, block)]
        current = sorted(current + [gid])
    return current, cols, decisions


def rebuild_oracle(corrs, member_ids, ratio_range):
    """From-scratch line vectors over the member set, filtered by the ratio band."""
    rows = corrs.rows_for(np.asarray(sorted(member_ids), dtype=np.int64))
    if len(rows) < 2:
        return set()
    lvs = build_line_vectors(corrs.subset(rows))
    keep = np.asarray(ratio_range.contains(lvs.scale_ratio), dtype=bool)
    return set(zip(lvs.i[keep].tolist(), lvs.j[keep].tolist()))


class TestUpdateLocalSets:
    def test_fixed_point_when_ir_equals_local(self, rng):
        corrs, local, lvs, ratio_range = build_state(rng)
        ir_glo = local.indices.copy()
        corrs.curr_residuals[ir_glo] = 0.001  # keep membership consistent
        new_local, new_lvs, decisions = update_local_sets(
            corrs, local, lvs, ir_glo, T_R, ratio_range, np.random.default_rng(0))
        assert np.array_equal(new_local.indices, local.indices)
        assert new_lvs.pair_set() == lvs.pair_set()
        assert decisions == []

    def test_two_round_inlier_admitted_with_bounded_new_vectors(self, rng):
        corrs, local, lvs, ratio_range = build_state(rng)
        outside = sorted(set(range(len(corrs))) - set(local.indices))[0]
        corrs.prev_residuals[:] = 0.001
        corrs.curr_residuals[:] = 0.001
        ir_glo = np.asarray(sorted(set(local.indices) | {outside}))
        new_local, new_lvs, decisions = update_local_sets(
            corrs, local, lvs, ir_glo, T_R, ratio_range, np.random.default_rng(1))
        assert len(new_local) == len(local) + 1
        assert outside in new_local.indices
        assert len(new_lvs) - len(lvs) <= len(local)
        admit = [d for d in decisions if d.correspondence_index == outside]
        assert len(admit) == 1 and admit[0].rule is UpdateRule.STABLE_INLIER

    def test_removed_member_loses_incident_vectors(self, rng):
        corrs, local, lvs, ratio_range = build_state(rng)
        victim = int(local.indices[0])
        corrs.prev_residuals[:] = 0.001
        corrs.curr_residuals[:] = 0.001
        corrs.prev_residuals[victim] = 5 * T_R
        corrs.curr_residuals[victim] = 5 * T_R
        ir_glo = np.asarray([g for g in local.indices if g != victim])
        new_local, new_lvs, decisions = update_local_sets(
            corrs, local, lvs, ir_glo, T_R, ratio_range, np.random.default_rng(2))
        assert victim not in new_local.indices
        assert all(victim not in pair for pair in new_lvs.pair_set())
        assert new_lvs.pair_set() == rebuild_oracle(corrs, new_local.indices, ratio_range)

    def test_one_endpoint_table_over_the_rounds(self, rng):
        # The local sets start over a subset's table; every update's set is
        # over the full set's, which never grows.
        corrs, local, lvs, ratio_range = build_state(rng)
        assert lvs.table is not corrs
        for _ in range(3):
            corrs.prev_residuals = corrs.curr_residuals.copy()
            corrs.curr_residuals = rng.uniform(0, 2 * T_R, size=len(corrs))
            ir_glo = np.nonzero(corrs.curr_residuals < T_R)[0]
            local, lvs, _ = update_local_sets(corrs, local, lvs, ir_glo, T_R, ratio_range, rng)
            assert lvs.table is corrs and len(lvs.table.indices) == len(corrs)

    def test_incremental_equals_rebuild_over_random_sequences(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            corrs, local, lvs, ratio_range = build_state(rng, n=24)
            for _ in range(4):
                corrs.prev_residuals = corrs.curr_residuals.copy()
                corrs.curr_residuals = rng.uniform(0, 2 * T_R, size=len(corrs))
                ir_glo = np.nonzero(corrs.curr_residuals < T_R)[0]
                local, lvs, _ = update_local_sets(
                    corrs, local, lvs, ir_glo, T_R, ratio_range, rng)
                expected = rebuild_oracle(corrs, local.indices, ratio_range)
                assert lvs.pair_set() == expected, f"seed {seed}"
                pairs = list(lvs.pair_set())
                assert len(pairs) == len(lvs)  # no duplicates
                members = set(int(g) for g in local.indices)
                assert all(i in members and j in members for i, j in pairs)

    @pytest.mark.parametrize("sigma_mode", SIGMA_MODES)
    def test_rows_and_draws_match_per_id_reference(self, sigma_mode):
        # Row order and draw order feed every later rng.choice of the local
        # RANSAC, so compare row for row, not as pair sets.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            corrs, local, lvs, ratio_range = build_state(rng, n=24, duplicate_target=True)
            corrs.prev_residuals[rng.random(len(corrs)) < 0.3] = np.nan  # no history yet
            for step in range(3):
                if step:
                    corrs.prev_residuals = corrs.curr_residuals.copy()
                    corrs.curr_residuals = rng.uniform(0, 2 * T_R, size=len(corrs))
                ir_glo = np.nonzero(corrs.curr_residuals < T_R)[0]
                ref_rng = copy.deepcopy(rng)
                members, cols, ref_decisions = per_id_reference(
                    corrs, local, lvs, ir_glo, ratio_range, ref_rng, sigma_mode)
                local, lvs, decisions = update_local_sets(
                    corrs, local, lvs, ir_glo, T_R, ratio_range, rng, sigma_mode=sigma_mode)
                assert local.indices.tolist() == members, f"seed {seed}"
                for got, want in zip((lvs.i, lvs.j, lvs.v_source, lvs.v_target), cols):
                    assert np.array_equal(got, want), f"seed {seed}"
                assert decisions == ref_decisions, f"seed {seed}"
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_missing_current_residual_raises(self, rng):
        corrs, local, lvs, ratio_range = build_state(rng)
        corrs.curr_residuals[local.indices[0]] = np.nan
        with pytest.raises(MissingResidual):
            update_local_sets(corrs, local, lvs, [], T_R, ratio_range, np.random.default_rng(0))

    def test_rng_stream_is_sequenced_deterministically(self, rng):
        corrs, local, lvs, ratio_range = build_state(rng)
        corrs.prev_residuals[:] = 0.5 * T_R
        ir_glo = np.nonzero(corrs.curr_residuals < T_R)[0]
        runs = []
        for _ in range(2):
            r = np.random.default_rng(99)
            new_local, new_lvs, decisions = update_local_sets(
                corrs, local, lvs, ir_glo, T_R, ratio_range, r)
            runs.append((tuple(new_local.indices), tuple(sorted(new_lvs.pair_set())),
                         tuple((d.correspondence_index, d.action, d.rule) for d in decisions)))
        assert runs[0] == runs[1]


class ScriptedDraws:
    """A stand-in generator: `uniform` and `integers` return scripted values and log each call."""

    def __init__(self, uniform, integers):
        self.script = {"uniform": iter(uniform), "integers": iter(integers)}
        self.calls = []

    def draw(self, name, lo, hi):
        self.calls.append((name, lo, hi))
        return next(self.script[name])

    def uniform(self, lo, hi):
        return self.draw("uniform", lo, hi)

    def integers(self, lo, hi):
        return self.draw("integers", lo, hi)


class TestDecisionBoundaries:
    @pytest.mark.parametrize("sigma_mode", SIGMA_MODES)
    def test_exact_ties_and_missing_history_match_reference(self, rng, tmp_path, sigma_mode):
        # Random residuals never hit an exact equality, so a `>` turned `>=`
        # would pass the random oracles. Here every tie is exact: the drawn
        # sigma is T_R / 2 in each sigma_mode, and the thresholds are scripted.
        corrs, local, lvs, ratio_range = build_state(rng)
        members = local.indices.tolist()
        e_stable, e_nan, e_huge = members[:3]
        a_tie, a_nan, a_zero, a_stable = sorted(set(range(len(corrs))) - set(members))[:4]
        residuals = {  # id: (prev, curr)
            e_stable: (T_R, 2 * T_R),     # prev == t_r: a stable outlier
            e_nan: (np.nan, 2 * T_R),     # no history: drawn
            e_huge: (0.5 * T_R, 1e3),     # 1 - P == 1.0 against a drawn 1.00
            a_tie: (T_R, 0.5 * T_R),      # prev == t_r: not a stable inlier, drawn
            a_nan: (np.nan, 0.5 * T_R),   # no history: drawn
            a_zero: (2 * T_R, 0.0),       # P == 1.0 against a drawn 1.00
            a_stable: (0.5 * T_R, 0.5 * T_R),
        }
        for gid, (prev, curr) in residuals.items():
            corrs.prev_residuals[gid], corrs.curr_residuals[gid] = prev, curr
        ir_glo = np.asarray(sorted(set(members) - {e_stable, e_nan, e_huge}
                                   | {a_tie, a_nan, a_zero, a_stable}))
        # one threshold per drawn row: e_nan, e_huge, then a_tie, a_nan, a_zero
        script = dict(uniform=[0.5 * T_R] * 6, integers=[1, 100, 1, 1, 100])
        ref_draws, draws = ScriptedDraws(**script), ScriptedDraws(**script)
        _, _, ref_decisions = per_id_reference(corrs, local, lvs, ir_glo, ratio_range, ref_draws,
                                               sigma_mode)
        _, _, decisions = update_local_sets(corrs, local, lvs, ir_glo, T_R, ratio_range, draws,
                                            sigma_mode=sigma_mode)
        assert [(d.correspondence_index, d.rule, d.action) for d in decisions] == [
            (e_stable, UpdateRule.STABLE_OUTLIER, UpdateAction.REMOVE),
            (e_nan, UpdateRule.NEW_OUTLIER, UpdateAction.REMOVE),
            (e_huge, UpdateRule.NEW_OUTLIER, UpdateAction.KEEP),
            (a_tie, UpdateRule.NEW_INLIER, UpdateAction.INCLUDE),
            (a_nan, UpdateRule.NEW_INLIER, UpdateAction.INCLUDE),
            (a_zero, UpdateRule.NEW_INLIER, UpdateAction.SKIP),
            (a_stable, UpdateRule.STABLE_INLIER, UpdateAction.INCLUDE),
        ]
        assert (decisions[2].probability, decisions[2].threshold) == (0.0, 1.0)
        assert (decisions[5].probability, decisions[5].threshold) == (1.0, 1.0)
        assert decisions == ref_decisions
        assert draws.calls == ref_draws.calls
        write_sus_csv(decisions, tmp_path / "got.csv")
        write_sus_csv(ref_decisions, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

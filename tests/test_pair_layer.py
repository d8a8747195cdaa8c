"""The column pair layer against the member-list pair layer it replaced.

The reference functions below are the earlier implementation, kept
verbatim in behaviour: `np.triu_indices` pairs, fancy-indexed
differences, `np.linalg.norm` norms with keep-mask gathers, and
histograms that store per-bin member lists built by a stable argsort.
Every comparison is on bytes (signed zeros included), or on the raised
exception's type and message. `TestNormsMatchSciPy` holds the NumPy pair
norms and the block build to SciPy's `pdist` and `cdist`, which the build
called before.
"""

import copy
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist

from lvreg import local_sets
from lvreg.correspondences import CorrespondenceSet
from lvreg.engine import RansacConfig, _full_local_sets, run_registration
from lvreg.errors import (
    DegenerateDistribution,
    EmptyResult,
    LvregError,
    PairBudgetExceeded,
    TooFewCorrespondences,
)
from lvreg.local_sets import (
    PAIR_BLOCK,
    PAIR_BUDGET,
    Histogram,
    RatioRange,
    angle_histogram_filter,
    bin_counts,
    build_angle_histogram,
    build_line_vectors,
    length_ratio_filter,
    normal_angles,
    pair_norms,
    scotts_bin_width,
    usable_ratios,
    value_bins,
)
from lvreg.self_update import (
    SIGMA_MODES,
    UpdateAction,
    draw_sigma,
    update_local_sets,
)

from pairs import from_differences, vector_set
from lvreg.synthetic import SyntheticSpec, synthesize_pair
from self_update_reference import classify_inclusion, classify_removal

FIELDS = ("i", "j", "v_source", "v_target")
T_R = 0.01


# --- reference implementation -------------------------------------------------

def ref_from_differences(i, j, v_source, v_target):
    ns = np.linalg.norm(v_source, axis=1)
    nt = np.linalg.norm(v_target, axis=1)
    keep = (ns > 0.0) & (nt > 0.0)
    return vector_set(i[keep], j[keep], v_source[keep], v_target[keep], ns[keep] / nt[keep],
                      n_zero_skipped=int(np.count_nonzero(~keep)))


def ref_build_line_vectors(c_sul):
    n = len(c_sul)
    if n < 2:
        raise TooFewCorrespondences("need at least 2 correspondences for line vectors")
    r, s = np.triu_indices(n, k=1)
    vs = c_sul.source[r] - c_sul.source[s]
    vt = c_sul.target[r] - c_sul.target[s]
    i, j = c_sul.indices[r], c_sul.indices[s]
    return ref_from_differences(i, j, vs, vt)


def ref_histogram(values, bin_width, lower_bound, n_bins, clamp_top=False):
    """(counts, per-bin member lists)."""
    v = np.asarray(values, dtype=np.float64)
    idx = np.floor((v - lower_bound) / bin_width).astype(np.int64)
    if clamp_top:
        idx = np.minimum(idx, n_bins - 1)
    if v.size and (idx.min() < 0 or idx.max() >= n_bins):
        raise ValueError("value outside the histogram domain")
    counts = np.bincount(idx, minlength=n_bins)
    order = np.argsort(idx, kind="stable")
    splits = np.searchsorted(idx[order], np.arange(1, n_bins))
    return counts, list(np.split(order, splits))


def ref_angle_histogram_filter(corrs, counts, members):
    c = counts.astype(np.float64)
    threshold = c.mean() + c.std()
    qualified = np.nonzero(counts > threshold)[0]
    if qualified.size == 0:
        raise EmptyResult("no histogram bin exceeds the frequency threshold")
    return corrs.subset(np.sort(np.concatenate([members[b] for b in qualified])))


def ref_length_ratio_filter(lvs):
    """(kept set, RatioRange, (counts, members) or None)."""
    if len(lvs) == 0:
        raise TooFewCorrespondences("cannot filter an empty line-vector set")
    ratios = lvs.scale_ratio
    try:
        w = scotts_bin_width(ratios)
    except DegenerateDistribution:
        return lvs, RatioRange.exact(float(ratios[0])), None
    lower = float(ratios.min())
    n_bins = int(np.floor((ratios.max() - lower) / w)) + 1
    if n_bins > local_sets.MAX_BINS:
        return lvs, RatioRange.everything(), None
    counts, members = ref_histogram(ratios, w, lower, n_bins)
    top = int(np.argmax(counts))
    first = max(0, top - 1)
    last = min(n_bins - 1, top + 1)
    ratio_range = RatioRange(lower_bound=lower, bin_width=w, first_bin=first, last_bin=last)
    rows = np.sort(np.concatenate([members[b] for b in range(first, last + 1)]))
    return lvs.take(rows), ratio_range, (counts, members)


def ref_update_local_sets(corrs, local_set, lvs, ir_glo, residual_threshold, ratio_range, rng,
                          sigma_mode):
    sigma = None
    if sigma_mode == "per-round":
        sigma = draw_sigma(rng, residual_threshold)
    elif sigma_mode == "fixed-half-tr":
        sigma = residual_threshold / 2.0

    def decide(classify, ids, action):
        rows = corrs.rows_for(ids)
        decisions = [classify(prev, curr, residual_threshold, rng, sigma=sigma, index=gid)
                     for gid, prev, curr in zip(ids.tolist(), corrs.prev_residuals[rows].tolist(),
                                                corrs.curr_residuals[rows].tolist())]
        return decisions, ids[np.array([d.action is action for d in decisions], dtype=bool)]

    ir_glo = np.asarray(ir_glo, dtype=np.int64).ravel()
    members = local_set.indices
    evict_decisions, removed = decide(classify_removal, np.setdiff1d(members, ir_glo),
                                      UpdateAction.REMOVE)
    admit_decisions, admitted = decide(classify_inclusion, np.setdiff1d(ir_glo, members),
                                       UpdateAction.INCLUDE)
    retained = np.setdiff1d(members, removed)
    current = np.union1d(retained, admitted)
    a_col = admitted[:, None]
    mask = (current != a_col) & (np.isin(current, retained) | (current < a_col))
    a_pos, m_pos = np.nonzero(mask)
    a, m = admitted[a_pos], current[m_pos]
    current_rows = corrs.rows_for(current)
    rows_a, rows_m = corrs.rows_for(admitted)[a_pos], current_rows[m_pos]
    sign = np.where(m > a, 1.0, -1.0)[:, None]
    block = ref_from_differences(
        np.minimum(a, m), np.maximum(a, m),
        sign * (corrs.source[rows_a] - corrs.source[rows_m]),
        sign * (corrs.target[rows_a] - corrs.target[rows_m]))
    block = block.take(ratio_range.contains(block.scale_ratio))
    evicted = np.isin(lvs.i, removed) | np.isin(lvs.j, removed)
    kept = lvs.take(~evicted)
    new_lvs = vector_set(*(np.concatenate([getattr(kept, name), getattr(block, name)])
                           for name in FIELDS))  # ids and vectors: the ratios were tested
    return corrs.subset(current_rows), new_lvs, evict_decisions + admit_decisions


# --- helpers ------------------------------------------------------------------

def assert_same_bytes(got, want):
    """Equal ids and vectors, and equal ratios where `want` keeps them (a built set)."""
    assert len(got) == len(want)
    for name in FIELDS if want.scale_ratio is None else FIELDS + ("scale_ratio",):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def outcome(fn, *args):
    try:
        return fn(*args), None
    except LvregError as exc:
        return None, (type(exc), str(exc))


def point_sets(kind, n, rng):
    """Source and target rows of one of the test set kinds."""
    if kind == "random":
        return rng.normal(size=(n, 3)), rng.normal(size=(n, 3)) * rng.uniform(0.5, 2.0)
    if kind == "grid":  # many exactly equal components and coincident points
        return (rng.integers(-2, 3, size=(n, 3)).astype(float),
                rng.integers(-2, 3, size=(n, 3)).astype(float) * 0.5)
    src, tgt = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    dup = rng.choice(n, size=max(1, n // 3))  # duplicate points: zero-length pairs
    src[dup] = src[rng.choice(n, size=len(dup))]
    tgt[rng.permutation(dup)] = tgt[rng.choice(n, size=len(dup))]
    return src, tgt


def correspondence_set(kind, n, rng, sparse_ids=False):
    src, tgt = point_sets(kind, n, rng)
    ids = np.sort(rng.choice(10**6, size=n, replace=False)) if sparse_ids else None
    return CorrespondenceSet(src, tgt, indices=ids)


KINDS = ("random", "grid", "duplicate")


# --- pair build ---------------------------------------------------------------

class TestBuildMatchesReference:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("sparse_ids", [False, True])
    def test_bit_identical(self, kind, sparse_ids):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.choice([2, 3, 4, 5, 17, 60, 203]))
            corrs = correspondence_set(kind, n, rng, sparse_ids)
            got, want = build_line_vectors(corrs), ref_build_line_vectors(corrs)
            assert_same_bytes(got, want)
            assert got.n_zero_skipped == want.n_zero_skipped

    def test_zero_length_pairs_are_skipped_alike(self):
        rng = np.random.default_rng(4)
        corrs = correspondence_set("grid", 120, rng)
        got, want = build_line_vectors(corrs), ref_build_line_vectors(corrs)
        assert want.n_zero_skipped > 0  # the set exercises the gather path
        assert_same_bytes(got, want)
        assert got.n_zero_skipped == want.n_zero_skipped

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_smallest_sets(self, n):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            for kind in KINDS:
                corrs = correspondence_set(kind, n, rng, sparse_ids=bool(seed % 2))
                got, want = build_line_vectors(corrs), ref_build_line_vectors(corrs)
                assert_same_bytes(got, want)
                assert got.n_zero_skipped == want.n_zero_skipped

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_raises_alike(self, n):
        corrs = CorrespondenceSet(np.zeros((n, 3)), np.zeros((n, 3)))
        assert outcome(build_line_vectors, corrs)[1] == outcome(ref_build_line_vectors, corrs)[1]
        assert outcome(build_line_vectors, corrs)[1][0] is TooFewCorrespondences

    @pytest.mark.parametrize("scales", [(1e149, 1.0, 1e-160), (1e-150, 1e-160, 1e-162)],
                             ids=["overflow", "underflow"])
    def test_extreme_coordinates(self, scales):
        # Near MAX_COORDINATE a huge source difference over a tiny target one
        # overflows the ratio to inf; the build drops it, the reference keeps
        # it. Near the underflow range squares lose bits or vanish.
        overflowed = zero = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            src, tgt = (rng.uniform(-1.0, 1.0, size=(40, 3)) * rng.choice(scales, size=(40, 1))
                        for _ in range(2))
            corrs = CorrespondenceSet(src, tgt)
            got = build_line_vectors(corrs)
            with np.errstate(over="ignore"):
                want = ref_build_line_vectors(corrs)
            finite = np.flatnonzero(want.scale_ratio < np.inf)
            assert_same_bytes(got, want.take(finite))
            assert got.scale_ratio.tobytes() == want.scale_ratio[finite].tobytes()
            assert got.n_zero_skipped == want.n_zero_skipped + len(want) - len(finite)
            overflowed += len(want) - len(finite)
            zero += want.n_zero_skipped
        assert (overflowed > 0) == (scales[0] > 1.0) and (zero > 0) == (scales[0] < 1.0)

    def test_from_differences_all_and_none_kept(self):
        rng = np.random.default_rng(2)
        i, j = np.arange(50), np.arange(1, 51)
        vs, vt = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
        assert_same_bytes(from_differences(i, j, vs, vt),
                          ref_from_differences(i, j, vs, vt))
        zeros = np.zeros((50, 3))
        got = from_differences(i, j, zeros, vt)
        assert_same_bytes(got, ref_from_differences(i, j, zeros, vt))
        assert len(got) == 0 and got.n_zero_skipped == 50


def pdist_build(corrs):
    """(ratios, dropped) of the SciPy build: pdist(source) / pdist(target), then usable_ratios."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = pdist(corrs.source) / pdist(corrs.target)
    usable = usable_ratios(ratio)
    return ratio[usable], np.flatnonzero(~usable)


def extreme_point_sets(kind, n, rng):
    """`point_sets` rows scaled by powers of two up to 2^+-480 and past it, with signed zeros.

    Rows scaled by 2^-540 or 2^-580 have differences whose squares underflow
    to 0 or to subnormals; against rows scaled by 2^480 their ratios overflow.
    """
    clouds = point_sets(kind, n, rng)
    for x in clouds:
        x *= np.ldexp(1.0, rng.choice([-580, -540, -480, 0, 480], size=(n, 1)))
        zeros = rng.random(size=x.shape) < 0.2
        x[zeros] = np.copysign(0.0, rng.normal(size=np.count_nonzero(zeros)))
    return clouds


class TestNormsMatchSciPy:
    """`pair_norms` and the block build give SciPy's bytes: the oracle for dropping SciPy there."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 160), kind=st.sampled_from(KINDS),
           block=st.sampled_from([1, 2, 3, 7, 64, 159, PAIR_BLOCK]), extreme=st.booleans())
    @example(seed=0, n=65, kind="random", block=64, extreme=False)  # first block: one full row
    @example(seed=1, n=66, kind="duplicate", block=64, extreme=True)  # a row wider than a block
    @example(seed=2, n=64, kind="grid", block=64, extreme=True)  # first block: one row, 63 pairs
    @example(seed=3, n=130, kind="random", block=PAIR_BLOCK, extreme=True)  # 128 rows, 129 wide
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_triangle_rectangle_and_build_bytes(self, seed, n, kind, block, extreme):
        rng = np.random.default_rng(seed)
        src, tgt = (extreme_point_sets if extreme else point_sets)(kind, n, rng)
        corrs = CorrespondenceSet(src, tgt)
        with np.errstate(over="ignore"):
            for x in (src, tgt):
                triangle = pair_norms(x.T, x.T)[np.triu_indices(n, k=1)]
                assert triangle.tobytes() == pdist(x).tobytes()
            a, b = rng.integers(0, n, size=int(rng.integers(1, 20))), rng.permutation(n)
            assert pair_norms(src[a].T, tgt[b].T).tobytes() == cdist(src[a], tgt[b]).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(local_sets, "PAIR_BLOCK", block)
            got = build_line_vectors(corrs)
        ratio, dropped = pdist_build(corrs)
        assert got.scale_ratio.tobytes() == ratio.tobytes()
        assert got.dropped.dtype == dropped.dtype and got.dropped.tolist() == dropped.tolist()
        assert got.n_zero_skipped == len(dropped)

    def test_extreme_sets_drop_underflowed_and_overflowed_ratios(self):
        # The property's extreme sets do reach both ends: 0/x, x/0 and 0/0
        # from squares that underflow, and ratios that overflow to inf.
        rng = np.random.default_rng(7)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = np.concatenate([pdist(src) / pdist(tgt) for src, tgt in
                                     (extreme_point_sets("random", 60, rng) for _ in range(5))])
        assert (ratios == 0).any() and (ratios == np.inf).any() and np.isnan(ratios).any()


# --- histograms and filters -----------------------------------------------------

class TestHistogramMatchesReference:
    def test_bins_give_the_counts_and_member_lists(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            values = rng.uniform(0, np.pi, size=int(rng.integers(2, 400)))
            values[: int(rng.integers(0, 3))] = np.pi  # top edge, clamped
            w = scotts_bin_width(values)
            n_bins = math.ceil(np.pi / w)
            if seed % 2:  # values on bin edges
                edge = rng.random(len(values)) < 0.3
                values[edge] = w * rng.integers(0, n_bins, size=int(edge.sum()))
            bins = np.minimum(value_bins(values, 0.0, w), n_bins - 1)
            counts, members = ref_histogram(values, w, 0.0, n_bins, clamp_top=True)
            assert bin_counts(bins, n_bins).tobytes() == counts.tobytes()
            for b in range(n_bins):
                assert np.array_equal(np.flatnonzero(bins == b), members[b])
                # a scalar count of the values in bin b
                assert counts[b] == sum(min(math.floor(v / w), n_bins - 1) == b for v in values)

    def test_out_of_domain_raises_alike(self):
        for values in ([0.1, 0.5, 2.0], [-0.1, 0.5]):
            with pytest.raises(ValueError, match="outside the histogram domain"):
                bin_counts(value_bins(values, 0.0, 0.5), 3)
            with pytest.raises(ValueError, match="outside the histogram domain"):
                ref_histogram(values, 0.5, 0.0, 3)


def angle_case(rng, n):
    angles = np.concatenate([rng.uniform(0.4, 0.5, n // 2), rng.uniform(0, np.pi, n - n // 2)])
    rng.shuffle(angles)
    n_src = np.tile([[0.0, 0.0, 1.0]], (n, 1))
    n_tgt = np.stack([np.sin(angles), np.zeros(n), np.cos(angles)], axis=1)
    ids = np.sort(rng.choice(10**5, size=n, replace=False))
    return CorrespondenceSet(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)),
                             source_normals=n_src, target_normals=n_tgt, indices=ids)


class TestAngleFilterMatchesReference:
    def test_same_rows(self):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            corrs = angle_case(rng, int(rng.integers(3, 300)))
            hist = build_angle_histogram(corrs)
            counts, members = ref_histogram(normal_angles(corrs), hist.bin_width, 0.0,
                                            hist.n_bins, clamp_top=True)
            assert hist.counts.tobytes() == counts.tobytes()
            got, err = outcome(angle_histogram_filter, corrs, hist)
            want, ref_err = outcome(ref_angle_histogram_filter, corrs, counts, members)
            assert err == ref_err
            if want is not None:
                assert got.indices.tobytes() == want.indices.tobytes()
                assert got.source.tobytes() == want.source.tobytes()
                assert got.source_normals.tobytes() == want.source_normals.tobytes()

    def test_no_qualifying_bin_raises_alike(self):
        corrs = CorrespondenceSet(np.zeros((30, 3)), np.zeros((30, 3)))
        counts = np.full(10, 3)
        hist = Histogram(bin_width=0.1, lower_bound=0.0, counts=counts)
        got = outcome(angle_histogram_filter, corrs, hist)[1]
        want = outcome(ref_angle_histogram_filter, corrs, counts, list(np.arange(30).reshape(10, 3)))[1]
        assert got == want and got[0] is EmptyResult


def assert_ratio_filter_matches(lvs):
    got, got_err = outcome(length_ratio_filter, lvs)
    want, want_err = outcome(ref_length_ratio_filter, lvs)
    assert got_err == want_err
    if want is None:
        return
    (kept, ratio_range, hist), (ref_kept, ref_range, ref_hist) = got, want
    assert ratio_range == ref_range
    assert_same_bytes(kept, ref_kept)
    # the kept rows are the rows the returned range contains
    assert_same_bytes(kept, lvs.take(np.flatnonzero(ratio_range.contains(lvs.scale_ratio))))
    if ref_hist is None:
        assert hist is None
    else:
        assert hist.counts.tobytes() == ref_hist[0].tobytes()
        bins = value_bins(lvs.scale_ratio, hist.lower_bound, hist.bin_width)
        for b, members in enumerate(ref_hist[1]):
            assert np.array_equal(np.flatnonzero(bins == b), members)


class TestRatioFilterMatchesReference:
    @pytest.mark.parametrize("kind", KINDS)
    def test_on_built_sets(self, kind):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.choice([2, 3, 4, 9, 40, 150]))
            corrs = correspondence_set(kind, n, rng, sparse_ids=bool(seed % 2))
            lvs = build_line_vectors(corrs)
            if len(lvs):
                assert_ratio_filter_matches(lvs)

    def test_rigid_pairs_with_outliers(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            src = rng.normal(size=(120, 3))
            tgt = src + rng.normal(scale=0.003, size=src.shape)
            out = rng.random(120) < 0.6
            tgt[out] = rng.normal(size=(int(out.sum()), 3))
            assert_ratio_filter_matches(build_line_vectors(CorrespondenceSet(src, tgt)))

    def test_identical_ratios_and_empty_set(self):
        src = np.random.default_rng(0).normal(size=(8, 3))
        assert_ratio_filter_matches(build_line_vectors(CorrespondenceSet(src, src)))
        empty = vector_set(np.zeros(0), np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)),
                           np.zeros(0))
        assert outcome(length_ratio_filter, empty)[1][0] is TooFewCorrespondences
        assert_ratio_filter_matches(empty)

    @pytest.mark.parametrize("block", [1, 7, 300])
    def test_small_blocks(self, monkeypatch, block):
        # Blocks of a few pairs put block edges everywhere: in the filter's
        # counting and selection and in the pairs `take` derives.
        monkeypatch.setattr(local_sets, "PAIR_BLOCK", block)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            corrs = correspondence_set(KINDS[seed % 3], int(rng.choice([2, 5, 40, 90])), rng)
            lvs = build_line_vectors(corrs)
            assert_same_bytes(lvs, ref_build_line_vectors(corrs))
            if len(lvs):
                assert_ratio_filter_matches(lvs)

    def test_more_bins_than_max_bins(self, monkeypatch):
        # A few far ratios stretch the range to far more Scott-width bins than
        # MAX_BINS allows (lowered here so the set stays small); both keep all.
        rng = np.random.default_rng(7)
        lvs = build_line_vectors(correspondence_set("random", 60, rng))
        lvs.scale_ratio = np.concatenate([rng.uniform(0.999, 1.001, len(lvs) - 3),
                                          [40.0, 90.0, 300.0]])
        w = scotts_bin_width(lvs.scale_ratio)
        n_bins = int(np.floor((lvs.scale_ratio.max() - lvs.scale_ratio.min()) / w)) + 1
        monkeypatch.setattr(local_sets, "MAX_BINS", n_bins - 1)
        kept, ratio_range, hist = length_ratio_filter(lvs)
        assert ratio_range.mode == "everything" and hist is None and kept is lvs
        assert_ratio_filter_matches(lvs)
        monkeypatch.setattr(local_sets, "MAX_BINS", n_bins)  # one bin fewer: a band again
        assert length_ratio_filter(lvs)[1].mode == "interval"
        assert_ratio_filter_matches(lvs)


# --- self-update admission block ----------------------------------------------

def update_state(kind, rng, n=40):
    src, tgt = point_sets(kind, n, rng)
    ids = np.sort(rng.choice(10**4, size=n, replace=False))
    corrs = CorrespondenceSet(src, tgt, indices=ids)
    corrs.prev_residuals = rng.uniform(0, 2 * T_R, size=n)
    corrs.prev_residuals[rng.random(n) < 0.2] = np.nan
    corrs.curr_residuals = rng.uniform(0, 2 * T_R, size=n)
    local = corrs.subset(np.sort(rng.choice(n, size=n // 2, replace=False)))
    lvs, ratio_range, _ = length_ratio_filter(build_line_vectors(local))
    return corrs, local, lvs, ratio_range


class TestAdmissionBlockMatchesReference:
    @pytest.mark.parametrize("sigma_mode", SIGMA_MODES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_bytes_and_draws(self, kind, sigma_mode):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            corrs, local, lvs, ratio_range = update_state(kind, rng)
            if seed % 3 == 0:
                ratio_range = RatioRange.everything()
            for step in range(3):
                if step:
                    corrs.prev_residuals = corrs.curr_residuals.copy()
                    corrs.curr_residuals = rng.uniform(0, 2 * T_R, size=len(corrs))
                ir_glo = corrs.indices[corrs.curr_residuals < T_R]
                ref_rng = copy.deepcopy(rng)
                ref_local, ref_lvs, ref_decisions = ref_update_local_sets(
                    corrs, local, lvs, ir_glo, T_R, ratio_range, ref_rng, sigma_mode)
                local, lvs, decisions = update_local_sets(
                    corrs, local, lvs, ir_glo, T_R, ratio_range, rng, sigma_mode=sigma_mode)
                assert local.indices.tobytes() == ref_local.indices.tobytes()
                assert_same_bytes(lvs, ref_lvs)
                assert decisions == ref_decisions
                assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestNoRuntimeWarnings:
    def test_build_filter_and_admission_on_coincident_endpoints(self):
        # Coincident points give 0/0, 0/x and x/0 ratios in the build and in
        # the admission block, and the block pairs each admitted id with itself.
        for seed in range(10):
            rng = np.random.default_rng(seed)
            corrs, local, lvs, ratio_range = update_state("duplicate", rng)
            corrs.source[1], corrs.target[1] = corrs.source[0], corrs.target[0]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                built = build_line_vectors(corrs)
                length_ratio_filter(built)
                update_local_sets(corrs, local, lvs, corrs.indices, T_R, ratio_range, rng)
            assert built.n_zero_skipped > 0


# --- pair budget ----------------------------------------------------------------

class TestPairBudget:
    def test_just_over_budget_raises_before_allocating(self):
        n = 2
        while n * (n - 1) // 2 <= PAIR_BUDGET:
            n += 1
        rng = np.random.default_rng(0)
        corrs = CorrespondenceSet(rng.normal(size=(n, 3)), rng.normal(size=(n, 3)))
        tracemalloc.start()
        try:
            with pytest.raises(PairBudgetExceeded, match=str(n * (n - 1) // 2)):
                build_line_vectors(corrs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000  # one pair column alone would take 134 MB


# --- pair layer memory ------------------------------------------------------------

def traced(step):
    """(result, bytes the step left allocated, peak bytes the step allocated), by tracemalloc."""
    tracemalloc.start()
    try:
        out = step()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


class TestPairLayerMemory:
    """No pair-layer step allocates an (n_pairs, 3) array, 24 bytes a pair, until vectors are read."""

    N = 1500  # 1,124,250 pairs

    @pytest.fixture(scope="class")
    def corrs(self):
        rng = np.random.default_rng(11)
        return CorrespondenceSet(rng.normal(size=(self.N, 3)), rng.normal(size=(self.N, 3)))

    def test_build_peaks_below_9_bytes_a_pair(self, corrs):
        n_pairs = self.N * (self.N - 1) // 2
        lvs, held, peak = traced(lambda: build_line_vectors(corrs))
        assert len(lvs) == n_pairs
        # the ratio column and one block's norms (8.66 bytes a pair measured)
        assert peak < 9 * n_pairs
        # the ratio column only (8.00 measured): the pairs are derived on read
        assert held < 9 * n_pairs
        # Dropped pairs are compacted away in place, block by block (8.83
        # measured with every seventh row a duplicate of the first).
        source = corrs.source.copy()
        source[::7] = source[0]
        duplicates = CorrespondenceSet(source, corrs.target)
        lvs, held, peak = traced(lambda: build_line_vectors(duplicates))
        assert lvs.n_zero_skipped > 0
        assert peak < 9 * n_pairs

    def test_take_revised_and_round_sample_allocate_no_vector_array(self, corrs):
        lvs = build_line_vectors(corrs)
        n_pairs = len(lvs)
        rng = np.random.default_rng(3)
        every, mask = rng.permutation(n_pairs), rng.random(n_pairs) < 0.5
        # a self-update round: 1% of the rows evicted and 1% admitted
        removed, admitted, retained = np.split(rng.permutation(self.N), [15, 30])

        def round_sample():
            # as run_local_ransac draws it: 10% of the pairs, both vector arrays computed
            sample = lvs.take(rng.choice(n_pairs, n_pairs // 10, replace=False))
            return sample.v_source, sample.v_target

        # Peaks in bytes a pair of the larger of the input and the output. A
        # take or a revision makes two int32 columns and a few blocks of
        # temporaries (8.60 and 9.41 measured); the round sample's draw
        # permutes every pair and its vectors take 48 bytes a sampled pair.
        steps = {
            "take positions": (lambda: lvs.take(every), 9),
            "take mask": (lambda: lvs.take(mask), 9),
            "revised": (lambda: lvs.revised(corrs, np.sort(removed), np.sort(retained),
                                            np.sort(admitted), RatioRange.everything()), 10),
            # an (n, 3) float64 array over the larger of the input and the output
            "round sample": (round_sample, 24),
        }
        for name, (step, bound) in steps.items():
            out, held, peak = traced(step)
            rows = len(out[0]) if name == "round sample" else len(out)
            assert peak < bound * max(n_pairs, rows), name
        assert out[0].shape == out[1].shape == (n_pairs // 10, 3)

    def test_taken_filtered_and_revised_sets_hold_two_int32_columns(self, corrs):
        # Past the ratio filter a set keeps no ratio: 8 bytes a pair, plus
        # the unused room `revised` leaves in its columns (8.16 measured).
        lvs = build_line_vectors(corrs)
        rng = np.random.default_rng(5)
        removed, admitted, retained = (np.sort(rows) for rows in
                                       np.split(rng.permutation(self.N), [15, 30]))
        kept = length_ratio_filter(lvs)[0]
        steps = {
            "ratio filter": lambda: length_ratio_filter(lvs)[0],
            "take": lambda: lvs.take(rng.permutation(len(lvs))[: len(lvs) // 2]),
            "take of a taken set": lambda: kept.take(np.arange(len(kept))),
            "revised": lambda: lvs.revised(corrs, removed, retained, admitted,
                                           RatioRange.everything()),
            "revised taken set": lambda: kept.revised(corrs, removed, retained, admitted,
                                                      RatioRange.everything()),
        }
        for name, step in steps.items():
            out, held, _ = traced(step)
            assert out.scale_ratio is None and out.p.dtype == out.q.dtype == np.int32, name
            assert 0 < held <= 9 * len(out), name

    def test_ratio_filter_holds_only_the_kept_columns(self, corrs):
        lvs = build_line_vectors(corrs)
        (kept, _, hist), held, peak = traced(lambda: length_ratio_filter(lvs))
        n_pairs = len(lvs)
        columns = kept.p.nbytes + kept.q.nbytes
        assert 0 < len(kept) < n_pairs and kept.scale_ratio is None
        # No per-pair array outlives the call: what it leaves allocated is the
        # kept set's columns, the histogram's counts and a few small objects.
        assert held < columns + hist.counts.nbytes + 64 * 1024
        # Scott's sigma's deviations, 8 bytes a pair (8.00 measured, the kept
        # columns included); the bins are counted and selected block by block
        assert peak < 9 * n_pairs + columns

    def test_full_set_rung_keeps_no_per_pair_column(self, corrs):
        # The full-set rung drops the built set's ratio column: the set
        # keeps its dropped triangle positions (none here), from which its
        # length and pairs follow (0.00 bytes a pair measured; 8.00 when it
        # kept the ratios). The ratios are a transient of the build.
        n_pairs = self.N * (self.N - 1) // 2
        counters = {"zero_length_skipped": 0}
        (table, lvs, ratio_range), held, peak = traced(lambda: _full_local_sets(corrs, counters))
        assert table is corrs and ratio_range.mode == "everything"
        assert len(lvs) == n_pairs and lvs.scale_ratio is None
        assert held < 0.1 * n_pairs
        assert peak < 9 * n_pairs  # the build's

    def test_filters_off_registration_peak(self):
        # A filters-off registration of m = 800 (319,600 pairs), as the
        # unfiltered-m800 benchmark runs it: the full-set rung, one round.
        # It peaks in local RANSAC, whose round-sample draw permutes every
        # pair (11.4 bytes a pair measured; 20.2 when the full-set rung's
        # set kept its ratios). The first run warms up lazily built state
        # that would count in the second's peak.
        m = 800
        source, target, corrs, _, _ = synthesize_pair(SyntheticSpec(
            n_points=2000, n_correspondences=m, outlier_rate=0.8, noise_sigma=0.003, seed=3))
        cfg = RansacConfig(use_ahs_lvlp=False, max_local_iterations=150, rng_seed=5)
        run_registration(corrs, source, target, cfg)
        result, _, peak = traced(lambda: run_registration(corrs, source, target, cfg))
        assert result.counters["local_sets_rung"] == "full-set"
        assert peak < 12 * (m * (m - 1) // 2)

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lvreg import local_sets
from lvreg.correspondences import CorrespondenceSet
from lvreg.engine import _full_local_sets, residual_inliers
from lvreg.errors import (
    DegenerateDistribution,
    EmptyResult,
    MissingNormals,
    TooFewCorrespondences,
)
from lvreg.local_sets import (
    Histogram,
    RatioRange,
    angle_histogram_filter,
    bin_counts,
    build_angle_histogram,
    build_line_vectors,
    length_ratio_filter,
    normal_angles,
    scotts_bin_width,
    value_bins,
)
from lvreg.normals import annotate_normals
from lvreg.synthetic import SyntheticSpec, synthesize_pair

from pairs import from_differences, vector_set


def set_with_normals(n_src, n_tgt):
    n = len(n_src)
    return CorrespondenceSet(np.zeros((n, 3)), np.zeros((n, 3)),
                             source_normals=n_src, target_normals=n_tgt)


def set_with_angles(angles):
    """Correspondences whose source and target normals are `angles` apart, about the y axis."""
    angles = np.asarray(angles, dtype=float)
    n_src = np.tile([[0.0, 0.0, 1.0]], (len(angles), 1))
    return set_with_normals(n_src, np.stack([np.sin(angles), np.zeros(len(angles)),
                                             np.cos(angles)], axis=1))


def brute_counts(values, lower_bound, bin_width, n_bins, clamp_top=False):
    """Items per bin by a scalar loop over the bins: bin b holds v with floor((v - lower) / w) == b.

    With `clamp_top`, the last bin also holds every value past it.
    """
    bins = [math.floor((float(v) - lower_bound) / bin_width) for v in values]
    counts = [sum(1 for k in bins if k == b) for b in range(n_bins)]
    if clamp_top:
        counts[-1] += sum(1 for k in bins if k >= n_bins)
    return np.array(counts)


class TestNormalAngle:
    def test_parallel(self):
        assert normal_angles(set_with_normals([(0, 0, 1)], [(0, 0, 1)]))[0] == 0.0

    def test_orthogonal(self):
        assert normal_angles(set_with_normals([(1, 0, 0)], [(0, 1, 0)]))[0] == pytest.approx(np.pi / 2)

    def test_antiparallel(self):
        assert normal_angles(set_with_normals([(0, 0, 1)], [(0, 0, -1)]))[0] == pytest.approx(np.pi)

    def test_missing_normals(self):
        with pytest.raises(MissingNormals):
            normal_angles(CorrespondenceSet(np.zeros((1, 3)), np.zeros((1, 3))))


class TestScottsBinWidth:
    def test_sigma_half_n_1000(self):
        # 500 values at 0.2 and 500 at 1.2: population sigma exactly 0.5
        values = np.concatenate([np.full(500, 0.2), np.full(500, 1.2)])
        assert scotts_bin_width(values) == pytest.approx(3.49 * 0.5 / 10.0)
        assert scotts_bin_width(values) == pytest.approx(0.1745)

    def test_two_values(self):
        assert scotts_bin_width([0.0, 2.0]) == pytest.approx(3.49 / np.cbrt(2.0))

    def test_identical_values_degenerate(self):
        with pytest.raises(DegenerateDistribution):
            scotts_bin_width(np.full(10, 0.7))

    def test_single_value_degenerate(self):
        with pytest.raises(DegenerateDistribution):
            scotts_bin_width([1.0])


class TestAngleHistogram:
    def test_19_bins_for_w_01745(self):
        n_src = np.tile([[0.0, 0.0, 1.0]], (1000, 1))
        angles = np.concatenate([np.full(500, 0.2), np.full(500, 1.2)])
        n_tgt = np.stack([np.array([np.sin(a), 0.0, np.cos(a)]) for a in angles])
        hist = build_angle_histogram(set_with_normals(n_src, n_tgt))
        assert hist.bin_width == pytest.approx(0.1745, abs=1e-10)
        assert hist.n_bins == math.ceil(np.pi / hist.bin_width) == 19
        assert int(hist.counts.sum()) == 1000

    def test_angle_pi_lands_in_last_bin(self):
        n_src = np.array([[0.0, 0, 1], [0, 0, 1], [1, 0, 0], [0, 1, 0]])
        n_tgt = np.array([[0.0, 0, -1], [0, 0, 1], [1, 0, 0], [1, 0, 0]])
        cs = set_with_normals(n_src, n_tgt)
        angles = normal_angles(cs)
        assert angles[0] == np.pi
        hist = build_angle_histogram(cs)
        assert np.array_equal(hist.counts,
                              brute_counts(angles, 0.0, hist.bin_width, hist.n_bins, clamp_top=True))
        assert hist.counts[-1] == 1

    def test_counts_match_brute_force_binning(self, rng):
        angles = rng.uniform(0, np.pi, size=1000)
        n_src = np.tile([[0.0, 0.0, 1.0]], (1000, 1))
        n_tgt = np.stack([np.array([np.sin(a), 0.0, np.cos(a)]) for a in angles])
        cs = set_with_normals(n_src, n_tgt)
        hist = build_angle_histogram(cs)
        realized = normal_angles(cs)
        expected = np.zeros(hist.n_bins, dtype=int)
        for a in realized:  # plain-python binning oracle
            b = min(int(a // hist.bin_width), hist.n_bins - 1)
            expected[b] += 1
        assert np.array_equal(hist.counts, expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        angles = rng.uniform(0, np.pi, size=rng.integers(10, 200))
        angles[: int(rng.integers(0, 3))] = np.pi
        perm = rng.permutation(len(angles))
        cs, permuted = set_with_angles(angles), set_with_angles(angles[perm])
        hist = build_angle_histogram(cs)
        realized = normal_angles(cs)
        assert np.array_equal(hist.counts, brute_counts(realized, 0.0, hist.bin_width,
                                                        hist.n_bins, clamp_top=True))
        # Scott's width may move in the last bit with the summation order, so
        # the bins are compared at one width: value k of the permuted angles
        # is value perm[k] of the originals.
        bins = value_bins(realized, 0.0, hist.bin_width)
        assert np.array_equal(value_bins(realized[perm], 0.0, hist.bin_width), bins[perm])
        # the kept rows are the same correspondences, each in its set's row order
        try:
            kept = angle_histogram_filter(cs, hist).indices
        except EmptyResult:
            with pytest.raises(EmptyResult):
                angle_histogram_filter(permuted, hist)
            return
        assert np.array_equal(np.sort(perm[angle_histogram_filter(permuted, hist).indices]), kept)

    def test_counts_on_bin_edges(self):
        # Multiples of a power-of-two width divide exactly: each value sits on
        # the lower edge of its bin, and 3.0 on the top edge of the domain.
        values = np.array([0.0, 0.25, 0.25, 0.5, 1.75, 2.0, 2.75, 3.0])
        assert value_bins(values, 0.0, 0.25).tolist() == [0, 1, 1, 2, 7, 8, 11, 12]
        bins = np.minimum(value_bins(values, 0.0, 0.25), 11)
        assert np.array_equal(bin_counts(bins, 12), brute_counts(values, 0.0, 0.25, 12, clamp_top=True))
        assert bin_counts(bins, 12)[[0, 1, 2, 11]].tolist() == [1, 2, 1, 2]
        # a lower bound shifts the edges with it
        assert np.array_equal(bin_counts(value_bins(values + 1.0, 1.0, 0.25)[:-1], 12),
                              brute_counts(values[:-1] + 1.0, 1.0, 0.25, 12))

    @pytest.mark.parametrize("values", [[0.1, 0.5, 1.5], [-0.1, 0.5], [0.2, np.nan]])
    def test_values_outside_the_domain_raise(self, values):
        with pytest.raises(ValueError, match="outside the histogram domain"):
            bin_counts(value_bins(values, 0.0, 0.5), 3)


class TestAngleHistogramFilter:
    def _uniform_corrs(self, n):
        return CorrespondenceSet(np.zeros((n, 3)), np.zeros((n, 3)))

    def test_uniform_histogram_yields_empty(self):
        corrs = self._uniform_corrs(30)
        hist = Histogram(bin_width=0.1, lower_bound=0.0, counts=np.full(10, 3))
        with pytest.raises(EmptyResult):
            angle_histogram_filter(corrs, hist)

    def test_dominant_bin_selected_exactly(self):
        counts = np.array([2, 2, 2, 90, 1, 1])
        # items in shuffled bin order: the kept rows must still come out ascending
        bins = np.random.default_rng(3).permutation(np.repeat(np.arange(6), counts))
        hist = Histogram(bin_width=0.5, lower_bound=0.0, counts=counts)
        kept = angle_histogram_filter(set_with_angles(0.5 * bins + 0.25), hist)
        assert np.array_equal(kept.indices, np.flatnonzero(bins == 3))
        assert len(kept) == 90

    def test_angle_pi_kept_with_the_last_bin(self):
        # pi is past the last of 6 bins of width 0.5: it is kept with the last bin, as it is counted
        hist = Histogram(bin_width=0.5, lower_bound=0.0, counts=np.array([1, 1, 1, 1, 1, 9]))
        corrs = set_with_angles([0.25, np.pi, 2.75, 1.25])
        assert normal_angles(corrs)[1] == np.pi
        assert angle_histogram_filter(corrs, hist).indices.tolist() == [1, 2]

    def test_subset_preserves_order_and_ids(self, rng):
        angles = np.concatenate([rng.uniform(0.4, 0.5, 60), rng.uniform(0, np.pi, 40)])
        rng.shuffle(angles)
        n_src = np.tile([[0.0, 0.0, 1.0]], (100, 1))
        n_tgt = np.stack([np.array([np.sin(a), 0.0, np.cos(a)]) for a in angles])
        cs = set_with_normals(n_src, n_tgt)
        hist = build_angle_histogram(cs)
        kept = angle_histogram_filter(cs, hist)
        assert np.all(np.diff(kept.indices) > 0)
        # each retained item must sit in a qualified bin
        threshold = hist.counts.mean() + hist.counts.std()
        realized = normal_angles(cs)
        for gid in kept.indices:
            b = min(int(realized[gid] // hist.bin_width), hist.n_bins - 1)
            assert hist.counts[b] > threshold


class TestBuildLineVectors:
    def _corrs(self, src, tgt=None):
        src = np.asarray(src, dtype=float)
        return CorrespondenceSet(src, src if tgt is None else np.asarray(tgt, dtype=float))

    def test_three_corrs_three_vectors(self, rng):
        lvs = build_line_vectors(self._corrs(rng.normal(size=(3, 3))))
        assert len(lvs) == 3

    def test_hundred_corrs(self, rng):
        lvs = build_line_vectors(self._corrs(rng.normal(size=(100, 3))))
        assert len(lvs) == 4950

    def test_coincident_target_pair_excluded(self, rng):
        src = rng.normal(size=(4, 3))
        tgt = rng.normal(size=(4, 3))
        tgt[1] = tgt[0]
        lvs = build_line_vectors(self._corrs(src, tgt))
        assert len(lvs) == 5
        assert lvs.n_zero_skipped == 1
        assert (0, 1) not in lvs.pair_set()

    def test_overflowed_ratio_pair_excluded(self):
        # Every coordinate is within MAX_COORDINATE, but pair (0, 1) has the
        # length ratio 1e150 / 1e-160, which overflows to inf; it is dropped
        # and counted with the zero-length pairs.
        src = [[1e150, 0, 0], [0, 0, 0], [1.0, 0, 0]]
        tgt = [[1e-160, 0, 0], [0, 0, 0], [1.0, 0, 0]]
        lvs = build_line_vectors(self._corrs(src, tgt))
        assert lvs.pair_set() == {(0, 2), (1, 2)}
        assert lvs.n_zero_skipped == 1
        assert lvs.scale_ratio.tolist() == [1e150, 1.0]
        kept, _, _ = length_ratio_filter(lvs)
        assert len(kept) == 2

    def test_scale_ratio_definition(self, rng):
        src = rng.normal(size=(5, 3))
        tgt = rng.normal(size=(5, 3))
        lvs = build_line_vectors(self._corrs(src, tgt))
        assert np.all(lvs.i < lvs.j)
        assert np.allclose(lvs.v_source, src[lvs.i] - src[lvs.j])
        assert np.allclose(lvs.scale_ratio,
                           np.linalg.norm(lvs.v_source, axis=1) / np.linalg.norm(lvs.v_target, axis=1))

    def test_too_few(self):
        with pytest.raises(TooFewCorrespondences):
            build_line_vectors(self._corrs(np.zeros((1, 3))))

    def test_take_matches_fancy_indexing(self, rng):
        lvs = build_line_vectors(self._corrs(rng.normal(size=(12, 3)), rng.normal(size=(12, 3))))
        rows = rng.choice(len(lvs), 20, replace=False)
        mask = rng.random(len(lvs)) < 0.5
        for sel in (rows, mask, rows[:0], -rows - 1):
            got = lvs.take(sel)
            assert got.scale_ratio is None  # only a built set keeps ratios
            for name in ("i", "j", "v_source", "v_target"):
                expected = getattr(lvs, name)[sel]
                assert np.array_equal(getattr(got, name), expected)
                assert getattr(got, name).dtype == expected.dtype
        with pytest.raises(IndexError):
            lvs.take(mask[:-1])

    def test_take_raises_where_np_take_raises(self, rng):
        # A built set derives its pairs from the row positions, which alone
        # would wrap any position and accept floats; the rules are np.take's,
        # for both kinds of set.
        lvs = build_line_vectors(self._corrs(rng.normal(size=(12, 3)), rng.normal(size=(12, 3))))
        n = len(lvs)
        for base in (lvs, lvs.take(np.arange(n))):
            assert base.take([0, n - 1, -1, -n]).pair_set() == lvs.take([0, n - 1]).pair_set()
            assert base.take(np.array([n - 1], dtype=np.int32)).pair_set() == lvs.take([-1]).pair_set()
            for row in (n, n + 1, 2 * n, -n - 1, -2 * n):
                with pytest.raises(IndexError):
                    base.take(np.array([0, row]))
            for rows in ([], [0.0, 1.0]):
                with pytest.raises(TypeError):
                    base.take(rows)

    def test_vectors_of_a_take_match_a_take_of_vectors(self, rng):
        # A round sample computes its vectors once; each basic subset takes its rows from them.
        lvs = build_line_vectors(self._corrs(rng.normal(size=(12, 3)), rng.normal(size=(12, 3))))
        rows = rng.choice(len(lvs), 20, replace=False)
        for sel in (rows, rows[:0]):
            full = lvs.take(sel)
            assert len(full) == len(sel)
            for name in ("v_source", "v_target"):
                got = np.take(getattr(lvs, name), sel, axis=0)
                assert got.shape == (len(sel), 3)
                assert got.tobytes() == getattr(full, name).tobytes()

    def test_vectors_of_a_mask_take(self, rng):
        # A boolean mask once went through np.take as row positions 0 and 1.
        lvs = build_line_vectors(self._corrs(rng.normal(size=(12, 3)), rng.normal(size=(12, 3))))
        mask = rng.random(len(lvs)) < 0.5
        for base in (lvs, lvs.take(np.arange(len(lvs)))):
            got = base.take(mask)
            assert len(got) == int(mask.sum())
            for name in ("v_source", "v_target"):
                assert getattr(got, name).tobytes() == getattr(lvs, name)[mask].tobytes()
            with pytest.raises(IndexError):
                base.take(mask[:-1])


# An eager reference for the pair layer's deferred gathers: every step
# copies all five columns, as LineVectorSet did before it kept its vectors
# behind a row index. The ratios decide what a revision admits; a lazy set
# keeps them only until it is taken or revised.
COLUMNS = ("i", "j", "v_source", "v_target", "scale_ratio")


def eager_from_differences(i, j, vs, vt):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.linalg.norm(vs, axis=1) / np.linalg.norm(vt, axis=1)
    keep = (ratio > 0.0) & (ratio < np.inf)
    return [i[keep], j[keep], vs[keep], vt[keep], ratio[keep]]


def signed_zero_points(rng, n):
    """Grid points in {-1, 0, 1}^3 whose zero components carry either sign.

    Points coincide and share components, so differences hold +0.0, -0.0
    and zero-length pairs.
    """
    x = rng.integers(-1, 2, size=(n, 3)).astype(float)
    x[(x == 0.0) & (rng.random((n, 3)) < 0.5)] = -0.0
    return x


def drawn_sets(data):
    """A lazy set, its eager copy and a table holding every item of the set's table.

    The set is from difference vectors, freshly built, built without its
    ratio column (as the full-set rung keeps it) or a self-update's new
    pairs. A set from differences has its own table, the drawn vectors over
    zero rows, and no larger table (None). A built set is over a drawn
    subset of a drawn correspondence set, or over all of it: it keeps only
    its ratios and dropped positions, or its dropped positions alone, so
    every read derives its pairs. The new pairs are an empty set over the
    drawn set, revised with drawn rows.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["differences", "built", "full-set", "admission"]))
    if kind == "differences":
        n = data.draw(st.integers(0, 25))
        i = rng.integers(0, 100, size=n)
        j = i + rng.integers(1, 100, size=n)
        vs, vt = (rng.integers(-2, 3, size=(n, 3)).astype(float) for _ in range(2))
        vs[rng.random(n) < 0.2] = 0.0
        vt[rng.random(n) < 0.2] = -0.0
        return from_differences(i, j, vs, vt), eager_from_differences(i, j, vs, vt), None
    n = data.draw(st.integers(2, 9))
    src, tgt = signed_zero_points(rng, n), signed_zero_points(rng, n)
    ids = np.sort(rng.choice(50, size=n, replace=False))
    corrs = CorrespondenceSet(src, tgt, indices=ids)
    if kind in ("built", "full-set"):
        local = drawn_subset(rng, corrs)
        lazy = build_line_vectors(local)
        if kind == "full-set":
            lazy = replace(lazy, scale_ratio=None)
        return lazy, eager_built(local), corrs
    _, retained, admitted = drawn_revision(rng, corrs)
    return (*admitted_pairs(corrs, retained, admitted), corrs)


def drawn_subset(rng, corrs):
    """A subset of 2 or more of `corrs`'s rows, at times `corrs` itself."""
    size = int(rng.integers(2, len(corrs) + 1))
    if size == len(corrs) and rng.random() < 0.5:
        return corrs
    return corrs.subset(np.sort(rng.choice(len(corrs), size=size, replace=False)))


def drawn_revision(rng, corrs):
    """Disjoint sorted rows of `corrs`: removed, retained and admitted (the rest: none)."""
    side = rng.integers(0, 4, size=len(corrs))
    return tuple(np.flatnonzero(side == k) for k in range(3))


def eager_built(corrs):
    """The five columns of `corrs`'s usable pairs, from `np.triu_indices` pairs."""
    r, s = np.triu_indices(len(corrs), k=1)
    return eager_from_differences(corrs.indices[r], corrs.indices[s],
                                  corrs.source[r] - corrs.source[s],
                                  corrs.target[r] - corrs.target[s])


NO_ROWS = np.zeros(0, dtype=np.int64)


def revise(lazy, eager, corrs, removed, retained, admitted, ratio_range=RatioRange.everything()):
    """`lazy.revised` with the given rows of `corrs`, and its eager copy, which works in ids.

    The eager copy drops the pairs with an endpoint among the removed ids,
    then appends each admitted id a's pairs with the retained ids and the
    admitted ids below it, as x_a - x_m with the sign flipped where m < a,
    the self-update's construction before its pairs were row pairs, and
    keeps those whose ratio is in `ratio_range`.
    """
    gone, kept_ids, new_ids = (corrs.indices[rows] for rows in (removed, retained, admitted))
    kept = ~(np.isin(eager[0], gone) | np.isin(eager[1], gone))
    current = np.union1d(kept_ids, new_ids)
    a_col = new_ids[:, None]
    a_pos, m_pos = np.nonzero((current != a_col) & (np.isin(current, kept_ids) | (current < a_col)))
    a, m = new_ids[a_pos], current[m_pos]
    rows_a, rows_m = corrs.rows_for(a), corrs.rows_for(m)
    sign = np.where(m > a, 1.0, -1.0)[:, None]
    block = eager_from_differences(np.minimum(a, m), np.maximum(a, m),
                                   sign * (corrs.source[rows_a] - corrs.source[rows_m]),
                                   sign * (corrs.target[rows_a] - corrs.target[rows_m]))
    in_range = ratio_range.contains(block[4])
    return (lazy.revised(corrs, removed, retained, admitted, ratio_range),
            [np.concatenate([c[kept], b[in_range]]) for c, b in zip(eager, block)])


def admitted_pairs(corrs, retained, admitted):
    """The new pairs alone, lazy and eager: an empty set over `corrs`, revised."""
    empty = build_line_vectors(corrs).take(NO_ROWS)
    return revise(empty, [c[NO_ROWS] for c in eager_built(corrs)], corrs, NO_ROWS, retained,
                  admitted)


# Everything, and the ratios in [0.25, 1.75): grid points' ratios fall on both sides.
RATIO_RANGES = (RatioRange.everything(),
                RatioRange(lower_bound=0.25, bin_width=0.5, first_bin=0, last_bin=2))


def drawn_rows(data, n):
    """Row positions (with repeats, in any order) or a boolean mask over n rows."""
    if data.draw(st.booleans()):
        return np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=2 * n)),
                    dtype=np.int64)


def assert_eager_bytes(lazy, eager):
    assert len(lazy) == len(eager[0])
    for name, want in zip(COLUMNS, eager):
        got = getattr(lazy, name)
        if got is None and name == "scale_ratio":
            continue
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


class TestDeferredGathersMatchEagerCopies:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_chains_give_the_same_bytes(self, data):
        lazy, eager, full = drawn_sets(data)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        steps = ["take", "vectors", "sample", "revise"]
        for step in data.draw(st.lists(st.sampled_from(steps), max_size=8)):
            rows = drawn_rows(data, len(lazy))
            if step == "revise" and full is not None:
                # onto the full table, less the pairs of drawn removed rows,
                # plus the pairs of drawn admitted rows
                lazy, eager = revise(lazy, eager, full, *drawn_revision(rng, full),
                                     data.draw(st.sampled_from(RATIO_RANGES)))
                assert lazy.table is full
            elif step == "take":
                lazy, eager = lazy.take(rows), [c[rows] for c in eager]
            elif step in ("vectors", "sample"):
                if step == "vectors":
                    got = lazy.take(rows)
                    got = got.v_source, got.v_target
                else:  # a round sample's vectors, gathered at a basic subset's row positions
                    positions = np.flatnonzero(rows) if rows.dtype == bool else rows
                    got = [np.take(v, positions, axis=0) for v in (lazy.v_source, lazy.v_target)]
                assert got[0].tobytes() == eager[2][rows].tobytes()
                assert got[1].tobytes() == eager[3][rows].tobytes()
        assert_eager_bytes(lazy, eager)

    @pytest.mark.parametrize("block", [local_sets.PAIR_BLOCK, 4])
    @pytest.mark.parametrize("seed", range(40))
    def test_signed_zero_pairs_follow_a_set_revised_onto_their_table(self, seed, block,
                                                                    monkeypatch):
        # The built local set's table is the local correspondences and the
        # revised set's is the full set. Admitting every non-member flips
        # most new pairs, so the zero components of x_a - x_m change sign.
        # `revised` selects the kept rows one block at a time.
        monkeypatch.setattr(local_sets, "PAIR_BLOCK", block)
        rng = np.random.default_rng(seed)
        n = 12
        corrs = CorrespondenceSet(signed_zero_points(rng, n), signed_zero_points(rng, n),
                                  indices=np.sort(rng.choice(40, size=n, replace=False)))
        members = np.sort(rng.choice(n, size=5, replace=False))
        local = corrs.subset(members)
        joined, eager = revise(build_line_vectors(local), eager_built(local), corrs, members[:1],
                               members[1:], np.setdiff1d(np.arange(n), members))
        assert joined.table is corrs
        assert_eager_bytes(joined, eager)
        rows = rng.permutation(len(joined))
        assert joined.take(rows).v_target.tobytes() == eager[3][rows].tobytes()
        assert_eager_bytes(joined.take(rows), [c[rows] for c in eager])

    @pytest.mark.parametrize("seed", range(40))
    def test_revised_keeps_the_bytes_of_a_subset_table_set(self, seed):
        # A set over a subset, built or of new pairs with flipped rows,
        # revised onto the full set with no change reads the same ids,
        # ratios and signed-zero vectors.
        rng = np.random.default_rng(seed)
        n = 12
        corrs = CorrespondenceSet(signed_zero_points(rng, n), signed_zero_points(rng, n),
                                  indices=np.sort(rng.choice(40, size=n, replace=False)))
        local = corrs.subset(np.sort(rng.choice(n, size=7, replace=False)))
        admitted = np.sort(rng.choice(len(local), size=3, replace=False))
        for lazy, eager in ((build_line_vectors(local), eager_built(local)),
                            admitted_pairs(local, np.setdiff1d(np.arange(len(local)), admitted),
                                           admitted)):
            moved, moved_eager = revise(lazy, eager, corrs, NO_ROWS, NO_ROWS, NO_ROWS)
            assert moved.table is corrs
            assert_eager_bytes(lazy, eager)
            assert_eager_bytes(moved, moved_eager)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(moved_eager, eager))


class TestBuiltSetsWithoutRatios:
    """A built set reads the same without its ratio column, as the full-set rung keeps it.

    Its length follows from its table and its dropped triangle positions,
    n(n - 1)/2 - len(dropped), and its pairs from the same positions.
    """

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_same_length_pairs_vectors_take_and_revised(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(3, 30))
        src, tgt = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        for x in (src, tgt):  # duplicate rows: their pairs have zero length and are dropped
            x[rng.choice(n, size=data.draw(st.integers(0, n - 1)))] = x[rng.integers(n)]
        src[1] = src[0]
        corrs = CorrespondenceSet(src, tgt, indices=np.sort(rng.choice(4 * n, n, replace=False)))
        built = build_line_vectors(corrs)
        bare = replace(built, scale_ratio=None)
        assert len(built.dropped) > 0 and bare.scale_ratio is None
        assert len(bare) == len(built) == n * (n - 1) // 2 - len(built.dropped)
        assert len(built) == len(built.scale_ratio)
        for name in ("i", "j", "v_source", "v_target"):
            assert getattr(bare, name).tobytes() == getattr(built, name).tobytes(), name
        rows = drawn_rows(data, len(built))
        removed, retained, admitted = drawn_revision(rng, corrs)
        derived = [(s.take(rows), s.revised(corrs, removed, retained, admitted,
                                             RatioRange.everything())) for s in (built, bare)]
        for got, want in zip(*derived):
            assert len(got) == len(want)
            for name in ("p", "q", "v_source", "v_target"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def points_from_labels(rng, labels):
    """Rows of drawn points, equal where their labels are: duplicated endpoints."""
    labels = np.asarray(labels)
    return rng.normal(size=(labels.max() + 1, 3))[labels]


def triangle_less_coincident(src, tgt):
    """`np.triu_indices` pairs whose source and target points both differ, as int32.

    These are a built set's pairs where no kept ratio can overflow.
    """
    r, s = np.triu_indices(len(src), k=1)
    apart = np.any(src[r] != src[s], axis=1) & np.any(tgt[r] != tgt[s], axis=1)
    return r[apart].astype(np.int32), s[apart].astype(np.int32)


def assert_pairs_are_the_triangle_less_coincident(src, tgt, rows):
    """A built set's pairs, all of them and taken at `rows`, against `np.triu_indices`."""
    lvs = build_line_vectors(CorrespondenceSet(src, tgt))
    p, q = triangle_less_coincident(src, tgt)
    assert len(lvs) == len(p) and lvs.n_zero_skipped == len(src) * (len(src) - 1) // 2 - len(p)
    assert lvs.i.tobytes() == p.astype(np.int64).tobytes()  # ids are the rows here
    assert lvs.j.tobytes() == q.astype(np.int64).tobytes()
    for sel in (np.arange(len(lvs)), rows):
        got = lvs.take(sel)
        assert got.p.tobytes() == p[sel].tobytes() and got.q.tobytes() == q[sel].tobytes()
    return lvs


class TestDerivedPairsMatchTheTriangle:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_duplicated_endpoints(self, data):
        n = data.draw(st.integers(2, 60))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        src_labels, tgt_labels = (data.draw(st.lists(st.integers(0, data.draw(st.integers(0, n - 1))),
                                                     min_size=n, max_size=n)) for _ in range(2))
        if data.draw(st.booleans()):  # the first triangle position dropped
            src_labels[1] = src_labels[0]
        if data.draw(st.booleans()):  # the last one dropped
            tgt_labels[-1] = tgt_labels[-2]
        src, tgt = points_from_labels(rng, src_labels), points_from_labels(rng, tgt_labels)
        n_kept = int(np.count_nonzero(
            np.any(src[:, None] != src, axis=2) & np.any(tgt[:, None] != tgt, axis=2))) // 2
        assert_pairs_are_the_triangle_less_coincident(src, tgt, drawn_rows(data, n_kept))

    @pytest.mark.parametrize("n", [3, 4, 17, 60])
    def test_everything_dropped_but_two_pairs(self, n):
        # Every source point but the last coincides, and every target point
        # but rows 0 and 1: only (0, n - 1) and (1, n - 1) have both apart.
        rng = np.random.default_rng(n)
        src_labels, tgt_labels = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        src_labels[-1] = 1
        tgt_labels[:2] = 1
        lvs = assert_pairs_are_the_triangle_less_coincident(
            points_from_labels(rng, src_labels), points_from_labels(rng, tgt_labels),
            np.array([1, 0, 1, 1, 0]))
        assert lvs.pair_set() == {(0, n - 1), (1, n - 1)}
        assert lvs.take(np.array([True, False])).pair_set() == {(0, n - 1)}

    @pytest.mark.parametrize("first, last", [(True, False), (False, True), (True, True)])
    def test_first_and_last_positions_dropped(self, first, last):
        rng = np.random.default_rng(5)
        n = 40
        src, tgt = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
        if first:
            src[1] = src[0]
        if last:
            tgt[-1] = tgt[-2]
        lvs = assert_pairs_are_the_triangle_less_coincident(
            src, tgt, rng.integers(0, n * (n - 1) // 2 - first - last, size=90))
        assert lvs.n_zero_skipped == first + last
        assert (0, 1) not in lvs.pair_set() if first else (0, 1) in lvs.pair_set()
        assert (n - 2, n - 1) not in lvs.pair_set() if last else (n - 2, n - 1) in lvs.pair_set()
        assert lvs.take(rng.random(len(lvs)) < 0.5).p.dtype == np.int32


def lvlp_oracle(lvs):
    """Straight-line reimplementation: histogram by loop, pick max bin + neighbors."""
    ratios = lvs.scale_ratio
    sigma = ratios.std()
    w = 3.49 * sigma / np.cbrt(len(ratios))
    lower = ratios.min()
    n_bins = int(np.floor((ratios.max() - lower) / w)) + 1
    counts = np.zeros(n_bins, dtype=int)
    for r in ratios:
        counts[int(np.floor((r - lower) / w))] += 1
    top = int(np.argmax(counts))
    chosen = {b for b in (top - 1, top, top + 1) if 0 <= b < n_bins}
    return {row for row in range(len(ratios))
            if int(np.floor((ratios[row] - lower) / w)) in chosen}


def ratio_set(ratios):
    """A line-vector set with the given scale ratios; the ratio filter reads nothing else.

    Its row k pairs table row k, so a set taken from it holds the rows it kept as `p`.
    """
    n = len(ratios)
    return vector_set(np.arange(n), np.arange(n) + n, np.ones((n, 3)), np.ones((n, 3)), ratios)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_RATIO_LISTS = st.one_of(
    st.lists(_POSITIVE, min_size=2, max_size=80),
    # heavy tails: magnitudes spread over the whole float range
    st.lists(st.floats(-323.0, 308.0).map(lambda e: 10.0 ** e).filter(lambda r: r > 0.0),
             min_size=2, max_size=80),
    # ties, including neighbouring floats
    st.lists(st.sampled_from([1.0, float(np.nextafter(1.0, 2.0)), 2.0, 1e-300, 1e300]),
             min_size=2, max_size=80),
    # values near 1e-300 and 1e300
    st.lists(st.floats(1e-301, 1e-299) | st.floats(1e299, 1e301), min_size=2, max_size=80),
    # one outlier among equal values, at any position
    st.tuples(_POSITIVE, _POSITIVE, st.integers(1, 300), st.integers(0, 300)).map(
        lambda t: [t[0]] * t[3] + [t[1]] + [t[0]] * (t[2] - min(t[3], t[2]))
        if t[3] <= t[2] else [t[0]] * t[2] + [t[1]]),
)


class TestLengthRatioFilterKeepsTwo:
    """The filter keeps at least 2 of any 2 or more finite positive ratios.

    n ratios with population std sigma > 0 span at most sigma * sqrt(2n);
    Scott's width 3.49 sigma / cbrt(n) then gives fewer than n bins, so the
    fullest holds at least 2. Zero spread, an overflowed sigma and the
    MAX_BINS path keep every ratio. This is why the engine needs no rung
    between the filtered sets and the full set.
    """

    @given(_RATIO_LISTS)
    @example([5e-324, 1.7976931348623157e308])
    @example([1e-300, 1e300, 1e300])
    @settings(max_examples=600, deadline=None)
    def test_keeps_at_least_two(self, ratios):
        with np.errstate(over="ignore", invalid="ignore"):  # sigma may overflow to inf
            lvs = ratio_set(ratios)
            kept, ratio_range, _ = length_ratio_filter(lvs)
        assert len(kept) >= 2
        # the self-update admits new pairs by this range: it must hold every kept ratio
        assert np.all(ratio_range.contains(lvs.scale_ratio[kept.p]))

    def test_underflowed_spread_keeps_everything_in_range(self):
        # Every squared deviation from the mean underflows to 0, so Scott's
        # sigma is 0 although the ratios differ: an exact range at the first
        # ratio would exclude the second.
        ratios = [3.28e-270, 5e-324]
        with pytest.raises(DegenerateDistribution):
            scotts_bin_width(ratios)
        kept, ratio_range, hist = length_ratio_filter(ratio_set(ratios))
        assert len(kept) == 2 and hist is None
        assert ratio_range.mode == "everything"
        assert ratio_range.contains(np.asarray(ratios)).tolist() == [True, True]


class TestLengthRatioFilter:
    def test_sets_without_ratios_raise_value_error(self, rng):
        # Only a freshly built set keeps ratios: the filter's own output,
        # and the full-set rung's set, have none.
        corrs = CorrespondenceSet(rng.normal(size=(20, 3)), rng.normal(size=(20, 3)))
        taken = length_ratio_filter(build_line_vectors(corrs))[0]
        full_set = _full_local_sets(corrs, {"zero_length_skipped": 0})[1]
        for lvs in (taken, taken.take(np.zeros(0, dtype=np.int64)), full_set):
            assert lvs.scale_ratio is None
            with pytest.raises(ValueError, match="scale_ratio"):
                length_ratio_filter(lvs)

    def test_all_identical_ratios_degenerate(self, rng):
        src = rng.normal(size=(6, 3))
        corrs = CorrespondenceSet(src, src)  # every ratio exactly 1.0
        lvs = build_line_vectors(corrs)
        kept, ratio_range, hist = length_ratio_filter(lvs)
        assert len(kept) == len(lvs)
        assert hist is None
        assert ratio_range.mode == "exact" and ratio_range.value == 1.0
        assert ratio_range.contains(1.0)
        assert not ratio_range.contains(1.0000001)

    def test_kept_rows_are_the_rows_the_range_contains(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            src = rng.normal(size=(60, 3))
            tgt = src + rng.normal(scale=0.01, size=src.shape)
            tgt[rng.random(60) < 0.5] = rng.normal(size=3)
            lvs = build_line_vectors(CorrespondenceSet(src, tgt))
            kept, ratio_range, hist = length_ratio_filter(lvs)
            assert ratio_range.mode == "interval"
            rows = np.flatnonzero(ratio_range.contains(lvs.scale_ratio))
            p, q = triangle_less_coincident(src, tgt)  # the built set's pairs
            for got, want in ((kept.p, p), (kept.q, q)):
                assert got.tobytes() == want[rows].tobytes()
            assert np.all(kept.p < kept.q) and kept.table is lvs.table
            assert np.array_equal(hist.counts, brute_counts(lvs.scale_ratio, hist.lower_bound,
                                                            hist.bin_width, hist.n_bins))


class TestRatioRangeOnScalars:
    """`contains` takes one ratio as well as an array, with the array's answer."""

    VALUES = [0.0, 0.4999999999999999, 0.5, 1.0, 1.4999999999999998, 1.5, 2.0, 1e300, np.inf]

    @pytest.mark.parametrize("ratio_range, expected", [
        (RatioRange.everything(), [True] * 9),
        (RatioRange.exact(0.5), [False, False, True] + [False] * 6),
        # bins 1 and 2 of width 0.5 from 0: [0.5, 1.5), both edges on exact values
        (RatioRange(lower_bound=0.0, bin_width=0.5, first_bin=1, last_bin=2),
         [False, False, True, True, True, False, False, False, False]),
    ])
    def test_scalars_match_the_array(self, ratio_range, expected):
        with np.errstate(invalid="ignore"):
            got = [ratio_range.contains(v) for v in self.VALUES]
            array = ratio_range.contains(np.array(self.VALUES))
        assert [bool(g) for g in got] == expected == array.tolist()
        assert all(np.ndim(g) == 0 for g in got)
        assert array.shape == (len(self.VALUES),) and array.dtype == bool

    def test_clustered_ratios_keep_dominant_band(self):
        ratios = np.concatenate([np.full(10, 0.5), np.full(3140, 1.0), np.full(10, 2.0)])
        lvs = ratio_set(ratios)
        kept, ratio_range, hist = length_ratio_filter(lvs)
        expected = lvlp_oracle(lvs)
        assert set(np.nonzero(np.asarray(ratio_range.contains(ratios)))[0]) == expected
        assert len(kept) == len(expected)
        assert all(ratio_range.contains(r) for r in ratios[kept.p])
        # the dominant ratio-1 population must survive
        assert np.count_nonzero(ratios[kept.p] == 1.0) == 3140

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle_on_random_ratios(self, seed):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(25, 3))
        corrs = CorrespondenceSet(src, src)
        lvs = build_line_vectors(corrs)
        lvs.scale_ratio = np.abs(rng.normal(1.0, 0.5, size=len(lvs))) + 0.01
        kept, ratio_range, _ = length_ratio_filter(lvs)
        expected = lvlp_oracle(lvs)
        got = {row for row in range(len(lvs)) if ratio_range.contains(float(lvs.scale_ratio[row]))}
        assert got == expected
        assert len(kept) == len(expected)

    def test_rigid_data_band_contains_unit_ratio(self):
        # under a rigid transform with mild noise plus random-pairing
        # outliers, the retained band must cover scale ratio 1.0
        for seed in range(10):
            spec = SyntheticSpec(n_points=200, n_correspondences=120, outlier_rate=0.5,
                                 noise_sigma=0.003, seed=seed)
            source, target, corrs, gt, _ = synthesize_pair(spec)
            kept, ratio_range, _ = length_ratio_filter(build_line_vectors(corrs))
            assert ratio_range.contains(1.0), f"seed {seed}"

    def test_max_bin_at_boundary_keeps_two_bins(self):
        n = 780
        # dominant mass at the lowest ratios: top bin is bin 0, no left neighbor
        ratios = np.concatenate([np.full(n - 10, 0.2), np.linspace(1.0, 3.0, 10)])
        kept, ratio_range, hist = length_ratio_filter(ratio_set(ratios))
        assert ratio_range.first_bin == 0
        assert ratio_range.last_bin == 1
        assert np.count_nonzero(ratios[kept.p] == 0.2) == n - 10


class TestInlierEnrichment:
    def test_angle_filter_does_not_dilute_inliers(self):
        improved = 0
        for seed in range(20):
            spec = SyntheticSpec(n_points=400, n_correspondences=300, outlier_rate=0.4,
                                 noise_sigma=0.003, seed=seed)
            source, target, corrs, gt, true_inliers = synthesize_pair(spec)
            corrs = annotate_normals(corrs, source, target)
            try:
                hist = build_angle_histogram(corrs)
                kept = angle_histogram_filter(corrs, hist)
            except (DegenerateDistribution, EmptyResult):
                kept = corrs
            base_rate = len(true_inliers) / len(corrs)
            kept_rate = len(set(kept.indices) & set(true_inliers)) / len(kept)
            assert kept_rate >= base_rate - 1e-12, f"seed {seed} diluted inliers"
            improved += kept_rate > base_rate
        assert improved >= 15  # the filter should usually help, not just not hurt

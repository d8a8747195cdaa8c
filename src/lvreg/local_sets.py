"""Construction of the filtered local correspondence and line-vector sets.

Two cheap statistical filters bootstrap the local sets used by the local
RANSAC loop:

* the angle-histogram filter keeps correspondences whose source/target
  normal angle falls in unusually dense histogram bins, and
* the length-ratio filter keeps correspondence pairs ("line vectors")
  whose source/target segment-length ratio falls in the dominant
  scale-ratio bin and its immediate neighbors (rigid motion preserves
  lengths, so consistent pairs cluster at ratio 1).

Bin widths follow Scott's rule with the population standard deviation.

This module owns every pair: how it is measured, tested and stored. The
self-update only decides which correspondences are evicted and admitted,
and `LineVectorSet.revised` applies those decisions to a set.

The pair layer works on 1-D columns. A `LineVectorSet` stores each pair as
two int32 row positions into an endpoint table (the correspondence set it
came from, whose source and target points and item ids it reads: a few
thousand rows, one table per run): 8 bytes a pair, against 72 for the ids,
ratio and two float64 vectors. Only a freshly built set keeps ratios, for
the ratio filter; past the filter a pair is its two rows. No set keeps
vectors: they are computed where they are read. The rows are stored in
the order their difference was taken, and that order carries the sign: a
pair's vectors are x[p] - x[q], negated where p > q, so the self-update's
pairs keep the signed zeros of -(x_a - x_m).
`build_line_vectors` measures the row pairs (r, s), r < s, of the upper
triangle in row-major order with SciPy's `pdist`, which returns every
pair's norm in that order: the source norms, divided in place by the
target norms. `pdist` sums a norm as `sqrt((x*x + y*y) + z*z)`, the order
in which `np.linalg.norm(v, axis=1)` sums an (n, 3) array; a different
order (say `x*x + (y*y + z*z)`) changes the last bit of about one norm in
nine, which moves pairs across ratio-bin edges and so changes the local
sets and the random draws that follow. Pairs with a zero-length
difference or an overflowed ratio are dropped by one test on the ratios.
A freshly built set stores only its ratio column and the few triangle
positions it dropped, 8 bytes a pair: row k's pair follows from k, and
`take` derives the pairs of the rows it keeps, one block of `PAIR_BLOCK`
rows at a time. `revised` measures the admitted pairs with `cdist`, tests
their ratios and stores none.
One bin rule, `value_bins`, places a value in its histogram bin: the
histograms count with it, the angle filter recomputes its few thousand
angles' bins with it, and `RatioRange.contains` selects with it, both the
ratio filter's kept rows and `revised`'s admitted pairs. A histogram
keeps only its counts, and the ratio filter bins and selects one block of
ratios at a time.

A set of n correspondences has n(n-1)/2 pairs; above `PAIR_BUDGET` pairs
`check_pair_budget` raises `PairBudgetExceeded`, and `build_line_vectors`
calls it before it allocates anything. The build peaks at 16 bytes a pair
(the two norm arrays; 17 while it compacts away dropped pairs) and keeps
8; the ratio filter adds 8 bytes a pair while Scott's sigma is computed,
then the kept rows' columns (tracemalloc, 1.1 M pairs). `take` and
`revised` hold 8 bytes a pair and peak at about 9 of the larger of their
input and output: `revised`'s columns are sized for every row it may
keep, and it returns views of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .correspondences import CorrespondenceSet
from .errors import (
    DegenerateDistribution,
    EmptyResult,
    MissingNormals,
    PairBudgetExceeded,
    TooFewCorrespondences,
)

SCOTT_FACTOR = 3.49
# A Scott width this far below the domain scale means the sample has no
# usable spread (e.g. angles differing only by float noise); treat it as
# degenerate instead of allocating an absurd number of bins.
MAX_BINS = 100_000
# Largest pair set `build_line_vectors` builds: 16.8 M pairs, or n = 5,793
# correspondences, far above the 2.0 M pairs of an unfiltered set of 2000.
# A set stores 8 bytes a pair, 135 MB, and the build peaks at twice that;
# reading every pair's vectors adds 48 bytes a pair until the reader drops them.
PAIR_BUDGET = 2**24
# Rows whose pairs `take` derives, and ratios the ratio filter bins, at a
# time: their temporaries take a few hundred kB whatever the set's size.
PAIR_BLOCK = 2**14


def normal_angles(corrs: CorrespondenceSet) -> np.ndarray:
    """Angle in [0, pi] between the source and target normals of every correspondence."""
    if not corrs.has_normals():
        raise MissingNormals("correspondence set has no estimated normals")
    dots = np.sum(corrs.source_normals * corrs.target_normals, axis=1)
    return np.arccos(np.clip(dots, -1.0, 1.0))


def scotts_bin_width(values) -> float:
    """Scott's-rule bin width 3.49 * sigma / cbrt(n) with population sigma.

    Raises DegenerateDistribution for n < 2 or zero spread.
    """
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if n < 2:
        raise DegenerateDistribution("need at least 2 values for a bin width")
    sigma = float(v.std())  # population std (divide by n)
    if sigma == 0.0:
        raise DegenerateDistribution("all values identical; bin width undefined")
    return SCOTT_FACTOR * sigma / float(np.cbrt(n))


def value_bins(values, lower_bound: float, bin_width: float) -> np.ndarray:
    """The bin floor((v - lower_bound) / bin_width) of each value, as float64.

    Subtracted, then divided and floored in place. A scalar gives a 0-d array.
    """
    scaled = np.array(values, dtype=np.float64)
    scaled -= lower_bound
    return np.floor(np.divide(scaled, bin_width, out=scaled), out=scaled)


def bin_counts(bins: np.ndarray, n_bins: int) -> np.ndarray:
    """Items per bin of `value_bins` output; ValueError for a bin outside 0 .. n_bins - 1.

    The check comes first: np.bincount would grow the counts past n_bins.
    """
    if bins.size and not (bins.min() >= 0 and bins.max() < n_bins):
        raise ValueError("value outside the histogram domain")
    return np.bincount(bins.astype(np.int64), minlength=n_bins)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Fixed-width bin counts: bin b counts the values whose `value_bins` is b.

    The angle histogram also counts an angle of exactly pi in its last bin.
    """

    bin_width: float
    lower_bound: float
    counts: np.ndarray

    @property
    def n_bins(self) -> int:
        return len(self.counts)

    def edges(self) -> np.ndarray:
        return self.lower_bound + self.bin_width * np.arange(self.n_bins + 1)


def build_angle_histogram(corrs: CorrespondenceSet) -> Histogram:
    """Histogram of normal angles over [0, pi) with ceil(pi / w) bins.

    w comes from Scott's rule over all angles; an angle of exactly pi is
    placed in the last bin.
    """
    angles = normal_angles(corrs)
    w = scotts_bin_width(angles)
    n_bins = max(1, math.ceil(math.pi / w))
    if n_bins > MAX_BINS:
        raise DegenerateDistribution("angle spread is below histogram resolution")
    return Histogram(w, 0.0, bin_counts(np.minimum(value_bins(angles, 0.0, w), n_bins - 1), n_bins))


def angle_histogram_filter(corrs: CorrespondenceSet, hist: Histogram) -> CorrespondenceSet:
    """Keep correspondences from bins whose count strictly exceeds mean + std.

    The threshold is computed over the per-bin counts of `hist`. Each
    correspondence's bin is recomputed from its normal angle, clamped into
    the last bin as `build_angle_histogram` clamps it. Original row order
    and item ids are preserved. Raises EmptyResult when no bin qualifies
    (callers typically fall back to the unfiltered set).
    """
    counts = hist.counts.astype(np.float64)
    threshold = counts.mean() + counts.std()
    qualified = hist.counts > threshold
    if not qualified.any():
        raise EmptyResult("no histogram bin exceeds the frequency threshold")
    bins = value_bins(normal_angles(corrs), hist.lower_bound, hist.bin_width).astype(np.int64)
    return corrs.subset(np.flatnonzero(np.take(qualified, bins, mode="clip")))  # pi: last bin


@dataclass(eq=False)
class LineVectorSet:
    """Struct-of-arrays collection of line vectors keyed by correspondence ids.

    A set stores 1-D columns over an endpoint table, the correspondence set
    its pairs came from: `build_line_vectors`'s input, or the full set once
    the self-update has revised the set (`revised`), so a run has one
    table however many rounds revise the set. Row k is the pair of table
    rows `p[k]` and `q[k]`, in the order its difference was taken, and
    nothing else. Its vectors are x[p] - x[q] in each cloud, negated
    where p > q: `revised` stores (admitted row, member row), and a
    member before the admitted row gives -(x_a - x_m). A table's rows are
    in id order, so `i` and `j`, the ids of the smaller and the larger row,
    are read through the table's ids, and every vector is x_i - x_j.

    A freshly built set has no `p` and `q` columns (None) but its
    `scale_ratio`, which the ratio filter reads: its rows are the table's
    upper triangle in row-major order less the sorted triangle positions in
    `dropped`, and every method reads the pairs through `_pairs`, which
    derives them for the rows asked for. Its p < q holds throughout, so its
    reads skip the sign test.

    `take` and `revised` return sets of `p` and `q` alone; `revised` maps
    rows in order, so p > q holds on the same rows after every step. No set
    keeps vectors: `v_source` and `v_target` compute their cloud's on every
    read. Every path subtracts the same two points in the same order, so
    every read gives the same bytes as if each step had copied the ids and
    vectors.
    """

    table: CorrespondenceSet
    p: np.ndarray | None  # int32 table rows
    q: np.ndarray | None
    scale_ratio: np.ndarray | None = None  # a built set's ratios
    n_zero_skipped: int = 0
    dropped: np.ndarray | None = None  # int64 triangle positions a built set dropped

    def __len__(self) -> int:
        return len(self.scale_ratio if self.p is None else self.p)

    @property
    def i(self) -> np.ndarray:
        p, q = self._pairs()
        return np.take(self.table.indices, p if self.p is None else np.minimum(p, q))

    @property
    def j(self) -> np.ndarray:
        p, q = self._pairs()
        return np.take(self.table.indices, q if self.p is None else np.maximum(p, q))

    @property
    def v_source(self) -> np.ndarray:
        return self._differences_in(self.table.source)

    @property
    def v_target(self) -> np.ndarray:
        return self._differences_in(self.table.target)

    def _pairs(self, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """`p` and `q` at the given row positions (every row for None).

        A built set's row k is triangle position t = k + (dropped positions
        at or before t), which is k plus the dropped positions that have at
        most k kept positions before them. t is the pair (r, t - start[r] +
        r + 1) of the last row r that starts at or before t. The pairs are
        derived `PAIR_BLOCK` rows at a time, straight into int32 columns.
        """
        if self.p is not None:
            return (self.p, self.q) if rows is None else (np.take(self.p, rows), np.take(self.q, rows))
        count = len(self) if rows is None else len(rows)
        n = len(self.table)
        starts = np.arange(n - 1)
        starts = starts * (2 * n - 1 - starts) // 2  # pairs in the rows above each row
        shift = self.dropped - np.arange(len(self.dropped))
        p, q = np.empty(count, dtype=np.int32), np.empty(count, dtype=np.int32)
        for k0 in range(0, count, PAIR_BLOCK):
            # positions wrap as np.take wraps them: -1 is the last row
            k = (np.arange(k0, min(count, k0 + PAIR_BLOCK)) if rows is None
                 else rows[k0:k0 + PAIR_BLOCK] % len(self))
            t = k + np.searchsorted(shift, k, side="right")
            r = np.searchsorted(starts, t, side="right") - 1
            p[k0:k0 + len(k)] = r
            q[k0:k0 + len(k)] = t - np.take(starts, r) + r + 1
        return p, q

    def _differences_in(self, x: np.ndarray) -> np.ndarray:
        """x[p] - x[q], negated where p > q: the sign rule of every pair.

        The rows are gathered with np.take and subtracted in place: np.take
        gathers the rows of an (n, 3) array several times faster than fancy
        indexing does, with the same values.
        """
        p, q = self._pairs()
        v = np.take(x, p, axis=0)
        v -= np.take(x, q, axis=0)
        return v if self.p is None else np.negative(v, out=v, where=(p > q)[:, None])

    def take(self, rows) -> "LineVectorSet":
        """The line vectors at the given row positions (or boolean mask), in that order.

        Positions are read as np.take reads them: -1 is the last row, one at
        or past len(self) or below -len(self) raises IndexError, and
        non-integer positions raise TypeError.
        """
        rows = np.asarray(rows)
        if rows.dtype == bool:
            if rows.shape != (len(self),):
                raise IndexError("boolean mask does not match the number of line vectors")
            rows = np.flatnonzero(rows)
        rows = rows.astype(np.intp, casting="same_kind", copy=False)
        if rows.size and not -len(self) <= rows.min() <= rows.max() < len(self):
            raise IndexError("line-vector row out of range")
        return LineVectorSet(self.table, *self._pairs(rows))

    def revised(self, corrs: CorrespondenceSet, removed: np.ndarray, retained: np.ndarray,
                admitted: np.ndarray, ratio_range: "RatioRange") -> "LineVectorSet":
        """This set over `corrs`, less its pairs touching `removed`, then the admitted rows' pairs.

        The self-update's step: `removed`, `retained` and `admitted` are
        sorted rows of `corrs`, which holds every item of this set's table.
        Admitted row a pairs with every retained row and every admitted row
        below it; np.nonzero walks the mask row-major, so the new pairs come
        out by a, then by member row. Their ratios come from `cdist`, which
        sums a norm in `pdist`'s order, and a pair is added where its ratio
        is usable and in `ratio_range`, stored as (admitted row, member row),
        the order of its difference x_a - x_m; its ratio is not kept. The
        new pairs are made first, so their temporaries die before the kept
        rows are selected, one block of `PAIR_BLOCK` rows at a time, mapped
        onto `corrs` (in order, keeping their bytes) and written into two
        int32 columns with room for every row. The set holds views of their
        used part: cutting them in place (`ndarray.resize`) or copying
        raised `filtered-m2000`'s peak RSS.
        """
        current = np.union1d(retained, admitted)
        a_col = admitted[:, None]
        mask = (current != a_col) & (np.isin(current, retained) | (current < a_col))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = (cdist(corrs.source[admitted], corrs.source[current])
                     / cdist(corrs.target[admitted], corrs.target[current]))[mask]
        a_pos, m_pos = np.nonzero(mask)
        del mask
        usable = np.flatnonzero(usable_ratios(ratio))
        new = usable[ratio_range.contains(ratio[usable])]
        new_p, new_q = admitted[a_pos[new]].astype(np.int32), current[m_pos[new]].astype(np.int32)
        del ratio, a_pos, m_pos, usable, new

        rows = corrs.rows_for(self.table.indices).astype(np.int32)  # this set's table onto corrs
        hit = np.isin(rows, removed)  # over this set's table
        p, q = (np.empty(len(self) + len(new_p), dtype=np.int32) for _ in range(2))
        n = 0
        for k0 in range(0, len(self), PAIR_BLOCK):
            kp, kq = self._pairs(np.arange(k0, min(len(self), k0 + PAIR_BLOCK)))
            kept = np.flatnonzero(~(np.take(hit, kp) | np.take(hit, kq)))
            m = n + len(kept)
            p[n:m], q[n:m] = np.take(rows, np.take(kp, kept)), np.take(rows, np.take(kq, kept))
            n = m
        m = n + len(new_p)
        p[n:m], q[n:m] = new_p, new_q
        return LineVectorSet(corrs, p[:m], q[:m])  # views: the unused room goes with the set

    def pair_set(self) -> set:
        return set(zip(self.i.tolist(), self.j.tolist()))


def usable_ratios(ratio: np.ndarray) -> np.ndarray:
    """Ratios of pairs that are kept: finite and positive.

    0/x is 0, x/0 and an overflow are inf and 0/0 is NaN; a positive ratio
    of points within `MAX_COORDINATE` cannot underflow to 0.
    """
    return (ratio > 0.0) & (ratio < np.inf)


def check_pair_budget(n: int) -> None:
    """Raise PairBudgetExceeded if n correspondences have more than PAIR_BUDGET pairs."""
    n_pairs = n * (n - 1) // 2
    if n_pairs > PAIR_BUDGET:
        raise PairBudgetExceeded(
            f"{n} correspondences give {n_pairs} line vectors, over the budget of {PAIR_BUDGET}")


def build_line_vectors(c_sul: CorrespondenceSet) -> LineVectorSet:
    """All unordered pairs (i < j by item id) as line vectors over `c_sul`'s rows.

    Pairs whose source or target difference has zero norm are skipped and
    counted in `n_zero_skipped` (duplicate feature points occur in real
    correspondence sets), as are pairs whose length ratio overflows. More
    than `PAIR_BUDGET` pairs raise PairBudgetExceeded before anything is
    allocated. The set keeps the kept pairs' ratios and the dropped pairs'
    triangle positions; its pairs are derived where they are read.
    """
    n = len(c_sul)
    if n < 2:
        raise TooFewCorrespondences("need at least 2 correspondences for line vectors")
    check_pair_budget(n)
    ratio = pdist(c_sul.source)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio /= pdist(c_sul.target)
    dropped = np.flatnonzero(~usable_ratios(ratio))
    ratio = np.delete(ratio, dropped) if len(dropped) else ratio
    return LineVectorSet(c_sul, None, None, ratio, n_zero_skipped=len(dropped), dropped=dropped)


@dataclass(frozen=True)
class RatioRange:
    """Membership test for retained scale ratios, on an array or a scalar.

    The `interval` mode keeps the ratios whose `value_bins` lies in
    `first_bin` .. `last_bin`: the ratio filter's selection, and the
    self-update's admission test after it. `exact` keeps ratios equal to
    `value` (every built ratio identical); `everything` accepts any ratio
    (filter disabled).
    """

    mode: str = "interval"  # interval | exact | everything
    value: float = 0.0
    lower_bound: float = 0.0
    bin_width: float = 1.0
    first_bin: int = 0
    last_bin: int = 0

    @classmethod
    def everything(cls) -> "RatioRange":
        return cls(mode="everything")

    @classmethod
    def exact(cls, value: float) -> "RatioRange":
        return cls(mode="exact", value=value)

    def contains(self, ratio) -> np.ndarray | bool:
        if self.mode == "everything":
            return np.full(np.shape(ratio), True) if np.ndim(ratio) else True
        if self.mode == "exact":
            return np.equal(ratio, self.value)
        bins = value_bins(ratio, self.lower_bound, self.bin_width)
        result = (bins >= self.first_bin) & (bins <= self.last_bin)
        return result if np.ndim(ratio) else bool(result)


def length_ratio_filter(lvs: LineVectorSet) -> tuple[LineVectorSet, RatioRange, Histogram | None]:
    """Keep line vectors from the dominant scale-ratio bin and its neighbors.

    Builds the scale-ratio histogram (Scott's rule width, over every
    ratio), counting and selecting one block of `PAIR_BLOCK` ratios at a
    time, so no per-pair bin array is made. It selects the
    maximal-count bin (ties broken toward the lower index) plus the
    immediate left/right neighbors when they exist, and returns the rows
    whose ratio that `RatioRange` contains, the same range and test the
    self-update admits new pairs by.

    When every ratio is identical the full set is returned with a
    zero-width exact range (and no histogram). When the ratios differ but
    Scott's sigma is still 0 (every squared deviation from the mean
    underflows), or the histogram would need more than `MAX_BINS` bins, the
    full set is returned with `RatioRange.everything()`, so the range
    contains every kept ratio.
    """
    if len(lvs) == 0:
        raise TooFewCorrespondences("cannot filter an empty line-vector set")
    ratios = lvs.scale_ratio
    try:
        w = scotts_bin_width(ratios)
    except DegenerateDistribution:
        if ratios.min() == ratios.max():
            return lvs, RatioRange.exact(float(ratios[0])), None
        return lvs, RatioRange.everything(), None
    lower = float(ratios.min())
    n_bins = int(value_bins(ratios.max(), lower, w)) + 1
    if n_bins > MAX_BINS:
        return lvs, RatioRange.everything(), None
    blocks = [slice(k, k + PAIR_BLOCK) for k in range(0, len(ratios), PAIR_BLOCK)]
    hist = Histogram(w, lower, sum(bin_counts(value_bins(ratios[b], lower, w), n_bins)
                                   for b in blocks))
    top = int(np.argmax(hist.counts))  # argmax takes the first (lowest) maximal bin
    ratio_range = RatioRange(lower_bound=lower, bin_width=w, first_bin=max(0, top - 1),
                             last_bin=min(n_bins - 1, top + 1))
    keep = np.concatenate([ratio_range.contains(ratios[b]) for b in blocks])
    return lvs.take(keep), ratio_range, hist

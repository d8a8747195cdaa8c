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

The pair layer works on 1-D columns. A `LineVectorSet` stores each pair as
two int32 row positions into an endpoint table (the correspondence set it
came from, whose source and target points and item ids it reads: a few
thousand rows, one table per run), its float64 ratio and, for the
self-update's pairs, a bool flip flag: 16 or 17 bytes a pair, against 72
for the ids, ratio and two float64 vectors. No set keeps vectors: they
are computed where they are read.
`build_line_vectors` works through the row pairs (r, s), r < s, of the
upper triangle in row-major order, one block of about `PAIR_BLOCK` pairs
at a time: it makes the block's rows with `np.repeat` and one `cumsum`,
gathers the endpoint rows with `np.take`, subtracts in place and writes the
kept rows into preallocated columns, so no array spans every pair but
those columns. A pair's norm is `sqrt((x*x + y*y) + z*z)`, summed in that
order: it is the order in which
`np.linalg.norm(v, axis=1)` sums an (n, 3) array, and a different order
(say `x*x + (y*y + z*z)`) changes the last bit of about one norm in nine,
which moves pairs across ratio-bin edges and so changes the local sets and
the random draws that follow. Pairs with a zero-length difference or an
overflowed ratio are dropped by one test on the block's ratios.
One bin rule, `value_bins`, places a value in its histogram bin: the
histograms count with it, the angle filter recomputes its few thousand
angles' bins with it, and `RatioRange.contains` selects with it, both the
ratio filter's kept rows and the self-update's admitted pairs. A histogram
keeps only its counts.

A set of n correspondences has n(n-1)/2 pairs; above `PAIR_BUDGET` pairs
`check_pair_budget` raises `PairBudgetExceeded`, and `build_line_vectors`
calls it before it allocates anything. The build peaks at about 17 bytes a
pair plus one block's temporaries (tracemalloc, 1.1 M pairs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# At 16 bytes a pair that is about 270 MB of columns; reading every pair's
# vectors adds 48 bytes a pair until the reader drops them.
PAIR_BUDGET = 2**24
# Pairs that `build_line_vectors` makes and measures at a time: its
# temporaries take a few MB whatever the set's size.
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
    the self-update has moved the set onto it (`on`), so a run has one
    table however many rounds revise the set. Row k is the pair of table
    rows `p[k]` (id `i`) and `q[k]` (id `j`), with `scale_ratio[k]`; its
    vectors are x[p] - x[q] in each cloud, or -(x[q] - x[p]) where
    `flip[k]` is set (the self-update's pairs, whose sign was flipped to
    put the smaller id first; `flip` is None when no row is flipped).
    `i` and `j` are read through the table's ids.

    `take`, `extend` and `on` move only the 1-D columns. No set keeps
    vectors: `v_source` and `v_target` compute their cloud's on every
    read. Every path subtracts the same two points in
    the same order, so every column holds the same bytes as if each step
    had copied all five.
    """

    table: CorrespondenceSet
    p: np.ndarray  # int32 table rows
    q: np.ndarray
    scale_ratio: np.ndarray
    flip: np.ndarray | None = None
    n_zero_skipped: int = 0

    def __len__(self) -> int:
        return len(self.p)

    @property
    def i(self) -> np.ndarray:
        return np.take(self.table.indices, self.p)

    @property
    def j(self) -> np.ndarray:
        return np.take(self.table.indices, self.q)

    @property
    def v_source(self) -> np.ndarray:
        return self._differences_in(self.table.source)

    @property
    def v_target(self) -> np.ndarray:
        return self._differences_in(self.table.target)

    def _differences_in(self, x: np.ndarray) -> np.ndarray:
        """x[p] - x[q], and -(x[q] - x[p]) on the flipped rows."""
        p, q, flip = self.p, self.q, self.flip
        if flip is None:
            return _differences(x, p, q)
        v = _differences(x, np.where(flip, q, p), np.where(flip, p, q))
        return np.negative(v, out=v, where=flip[:, None])

    def take(self, rows) -> "LineVectorSet":
        """The line vectors at the given row positions (or boolean mask), in that order."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            if rows.shape != (len(self),):
                raise IndexError("boolean mask does not match the number of line vectors")
            rows = np.flatnonzero(rows)
        return LineVectorSet(self.table, np.take(self.p, rows), np.take(self.q, rows),
                             np.take(self.scale_ratio, rows),
                             None if self.flip is None else np.take(self.flip, rows))

    def on(self, corrs: CorrespondenceSet) -> "LineVectorSet":
        """These line vectors over `corrs`, which holds every item of this set's table.

        The vectors keep their bytes: a subset's points are copies of its
        parent's.
        """
        if self.table is corrs:
            return self
        rows = corrs.rows_for(self.table.indices).astype(np.int32)
        return LineVectorSet(corrs, np.take(rows, self.p), np.take(rows, self.q), self.scale_ratio,
                             self.flip, self.n_zero_skipped)

    def extend(self, other: "LineVectorSet") -> "LineVectorSet":
        """These line vectors followed by `other`'s, which must share this set's table."""
        if other.table is not self.table:
            raise ValueError("cannot extend a line-vector set with one over another table")
        flip = None
        if self.flip is not None or other.flip is not None:
            flip = np.concatenate([np.zeros(len(s), dtype=bool) if s.flip is None else s.flip
                                   for s in (self, other)])
        return LineVectorSet(self.table, np.concatenate([self.p, other.p]),
                             np.concatenate([self.q, other.q]),
                             np.concatenate([self.scale_ratio, other.scale_ratio]), flip)

    def incident(self, ids) -> np.ndarray:
        """Mask of the line vectors with an endpoint among the given item ids."""
        hit = np.isin(self.table.indices, ids)
        return np.take(hit, self.p) | np.take(hit, self.q)

    def pair_set(self) -> set:
        return set(zip(self.i.tolist(), self.j.tolist()))


def usable_ratios(ratio: np.ndarray) -> np.ndarray:
    """Ratios of pairs that are kept: finite and positive.

    0/x is 0, x/0 and an overflow are inf and 0/0 is NaN; a positive ratio
    of points within `MAX_COORDINATE` cannot underflow to 0.
    """
    return (ratio > 0.0) & (ratio < np.inf)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, 3) array, summed as (x*x + y*y) + z*z."""
    q = v * v
    norms = q[:, 0] + q[:, 1]
    norms += q[:, 2]
    return np.sqrt(norms, out=norms)


def _differences(x: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x[p] - x[q] for an (n, 3) array, gathered with np.take and subtracted in place.

    np.take gathers the rows of an (n, 3) array several times faster than
    fancy indexing does, with the same values.
    """
    v = np.take(x, p, axis=0)
    v -= np.take(x, q, axis=0)
    return v


def pair_ratios(source: np.ndarray, target: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """|source[p] - source[q]| / |target[p] - target[q]| (inf or NaN for a zero target norm)."""
    ratio = _row_norms(_differences(source, p, q))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio /= _row_norms(_differences(target, p, q))
    return ratio


def _row_blocks(n: int) -> np.ndarray:
    """Bounds of runs of upper-triangle rows of about `PAIR_BLOCK` pairs each.

    Row r holds the n - 1 - r pairs (r, s), s > r; a run ends at the first
    row that brings it to `PAIR_BLOCK` pairs or more.
    """
    ends = np.cumsum(np.arange(n - 1, 0, -1))  # pairs in rows 0 .. r
    cuts = np.searchsorted(ends, np.arange(PAIR_BLOCK, ends[-1], PAIR_BLOCK)) + 1
    return np.unique(np.concatenate([[0], cuts, [n - 1]]))


def _pair_rows(n: int, r0: int, r1: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs (r, s), r0 <= r < r1 and r < s < n, in row-major upper-triangle order."""
    counts = np.arange(n - 1 - r0, n - 1 - r1, -1)
    r = np.repeat(np.arange(r0, r1), counts)
    # s climbs by one along a row and drops back to r + 1 where row r starts.
    s = np.ones(len(r), dtype=np.int64)
    s[0] = r0 + 1
    s[np.cumsum(counts[:-1])] = np.arange(r0 + 3 - n, r1 + 2 - n)  # (r + 1) - (n - 1)
    return r, np.cumsum(s, out=s)


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
    allocated. The pairs are made, measured and written into the set's
    columns one block of rows at a time.
    """
    n = len(c_sul)
    if n < 2:
        raise TooFewCorrespondences("need at least 2 correspondences for line vectors")
    check_pair_budget(n)
    n_pairs = n * (n - 1) // 2
    p, q = np.empty(n_pairs, dtype=np.int32), np.empty(n_pairs, dtype=np.int32)
    ratio = np.empty(n_pairs)
    kept = 0
    bounds = _row_blocks(n).tolist()
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        r, s = _pair_rows(n, r0, r1)
        block = pair_ratios(c_sul.source, c_sul.target, r, s)
        keep = usable_ratios(block)
        end = kept + int(np.count_nonzero(keep))
        for column, values in ((p, r), (q, s), (ratio, block)):
            np.compress(keep, values, out=column[kept:end])
        kept = end
    return LineVectorSet(c_sul, p[:kept], q[:kept], ratio[:kept], n_zero_skipped=n_pairs - kept)


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

    Builds the scale-ratio histogram (Scott's rule width), selects the
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
    hist = Histogram(w, lower, bin_counts(value_bins(ratios, lower, w), n_bins))
    top = int(np.argmax(hist.counts))  # argmax takes the first (lowest) maximal bin
    ratio_range = RatioRange(lower_bound=lower, bin_width=w, first_bin=max(0, top - 1),
                             last_bin=min(n_bins - 1, top + 1))
    return lvs.take(ratio_range.contains(ratios)), ratio_range, hist

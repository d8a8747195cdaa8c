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

The pair layer works on 1-D columns. `build_line_vectors` enumerates the
row pairs (r, s), r < s, of the upper triangle in row-major order with
`np.repeat` and one `cumsum` over int64 columns, gathers the endpoint
rows with `np.take` and subtracts in place. A pair's norm is
`sqrt((x*x + y*y) + z*z)`, summed in that order: it is the order in which
`np.linalg.norm(v, axis=1)` sums an (n, 3) array, and a different order
(say `x*x + (y*y + z*z)`) changes the last bit of about one norm in nine,
which moves pairs across ratio-bin edges and so changes the local sets and
the random draws that follow. The ratio is divided out before pairs with a
zero-length difference or an overflowed ratio are dropped, so the drop is one
test on the ratio column and one `np.take` per 1-D column: the vectors stay
in the difference arrays, behind a row index that each `take` composes, and
are gathered once, where they are read (`LineVectorSet`).
A histogram keeps each item's bin index next to the counts, so the filters
select rows with one comparison over that column, in ascending row order.

A set of n correspondences has n(n-1)/2 pairs, about 72 bytes each; above
`PAIR_BUDGET` pairs `check_pair_budget` raises `PairBudgetExceeded`, and
`build_line_vectors` calls it before it allocates anything.
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
# Largest pair set `build_line_vectors` builds: about 1.2 GB of line vectors,
# far above the 2.0 M pairs of an unfiltered set of 2000 correspondences.
PAIR_BUDGET = 2**24


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


@dataclass(frozen=True, eq=False)
class Histogram:
    """Fixed-width binning that records each item's bin.

    Item with value v lands in bin floor((v - lower_bound) / bin_width);
    `from_values(..., clamp_top=True)` clamps the index into the last bin
    so a value exactly at the domain's upper edge stays inside.
    `bin_index[k]` is the bin of item k, so the items of a bin set are
    `np.flatnonzero` of a comparison over `bin_index`, in ascending order.
    """

    bin_width: float
    lower_bound: float
    counts: np.ndarray
    bin_index: np.ndarray

    @classmethod
    def from_values(cls, values, bin_width: float, lower_bound: float, n_bins: int,
                    clamp_top: bool = False) -> "Histogram":
        v = np.asarray(values, dtype=np.float64)
        scaled = v - lower_bound
        scaled /= bin_width
        idx = np.floor(scaled, out=scaled).astype(np.int64)
        del scaled
        if clamp_top:
            np.minimum(idx, n_bins - 1, out=idx)
        if v.size and (idx.min() < 0 or idx.max() >= n_bins):
            raise ValueError("value outside the histogram domain")
        counts = np.bincount(idx, minlength=n_bins)
        return cls(bin_width=bin_width, lower_bound=lower_bound, counts=counts, bin_index=idx)

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
    return Histogram.from_values(angles, w, 0.0, n_bins, clamp_top=True)


def angle_histogram_filter(corrs: CorrespondenceSet, hist: Histogram) -> CorrespondenceSet:
    """Keep correspondences from bins whose count strictly exceeds mean + std.

    The threshold is computed over the per-bin counts of `hist`. Original
    row order and item ids are preserved. Raises EmptyResult when no bin
    qualifies (callers typically fall back to the unfiltered set).
    """
    counts = hist.counts.astype(np.float64)
    threshold = counts.mean() + counts.std()
    qualified = hist.counts > threshold
    if not qualified.any():
        raise EmptyResult("no histogram bin exceeds the frequency threshold")
    return corrs.subset(np.flatnonzero(qualified[hist.bin_index]))


def reduction_ratio(n_before: int, n_after: int) -> float:
    """Fraction of items removed by a filter step."""
    if n_before <= 0:
        return 0.0
    return (n_before - n_after) / n_before


@dataclass(frozen=True, eq=False)
class LineVectors:
    """The source and target vectors of some line vectors, without their ids or ratios.

    This is what the GNC solver reads; `LineVectorSet.take_vectors` gathers
    it without the other three columns.
    """

    v_source: np.ndarray
    v_target: np.ndarray

    def __len__(self) -> int:
        return len(self.v_source)


class LineVectorSet:
    """Struct-of-arrays collection of line vectors keyed by correspondence ids.

    `i`, `j` and `scale_ratio` are columns. The two vector columns are kept
    as the (n, 3) arrays the set was built from plus a row index into them
    (`rows`; None means every row, in order), and are gathered only where
    they are read:

    * `take` moves the three 1-D columns and composes the row index;
    * `take_vectors` gathers its rows straight from the base arrays;
    * `v_source` and `v_target` gather the set's rows on first read (both
      at once) and keep them, and so does `extend`.

    A gather copies values, so every column holds the same bytes as if
    each step had copied all five columns.
    """

    def __init__(self, i, j, v_source, v_target, scale_ratio, n_zero_skipped: int = 0,
                 rows=None):
        self.i = np.asarray(i, dtype=np.int64)
        self.j = np.asarray(j, dtype=np.int64)
        self.scale_ratio = np.asarray(scale_ratio, dtype=np.float64)
        self.n_zero_skipped = n_zero_skipped
        self._vectors = tuple(np.asarray(v, dtype=np.float64).reshape(-1, 3)
                              for v in (v_source, v_target))
        self._rows = rows

    @classmethod
    def from_differences(cls, i, j, v_source, v_target) -> "LineVectorSet":
        """Line vectors from per-pair difference vectors, v = x_i - x_j.

        Pairs whose source or target difference has zero norm are dropped
        and counted in `n_zero_skipped`, and so are pairs whose ratio
        overflows to inf. One test on the ratio finds both: 0/x is 0, x/0
        and an overflow are inf, 0/0 is NaN. A positive ratio of points
        within `MAX_COORDINATE` cannot underflow to 0, so every other pair
        is kept. The difference arrays become the set's base arrays, with
        the kept rows as its row index: nothing (n, 3) is copied.
        """
        ratio = _row_norms(v_source)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio /= _row_norms(v_target)
        rows = np.flatnonzero((ratio > 0.0) & (ratio < np.inf))
        return cls(np.take(i, rows), np.take(j, rows), v_source, v_target, np.take(ratio, rows),
                   n_zero_skipped=len(ratio) - len(rows), rows=rows)

    def __len__(self) -> int:
        return len(self.i)

    @property
    def v_source(self) -> np.ndarray:
        return self._gather()[0]

    @property
    def v_target(self) -> np.ndarray:
        return self._gather()[1]

    def _gather(self) -> tuple[np.ndarray, np.ndarray]:
        if self._rows is not None:
            # np.take gathers the rows of an (n, 3) array several times faster
            # than fancy indexing does, with the same values.
            self._vectors = tuple(np.take(v, self._rows, axis=0) for v in self._vectors)
            self._rows = None
        return self._vectors

    def take(self, rows) -> "LineVectorSet":
        """The line vectors at the given row positions (or boolean mask), in that order.

        Gathers the ids and ratios; the vectors are gathered when read.
        """
        rows = np.asarray(rows)
        if rows.dtype == bool:
            if rows.shape != (len(self),):
                raise IndexError("boolean mask does not match the number of line vectors")
            rows = np.flatnonzero(rows)
        return LineVectorSet(np.take(self.i, rows), np.take(self.j, rows), *self._vectors,
                             np.take(self.scale_ratio, rows),
                             rows=rows if self._rows is None else np.take(self._rows, rows))

    def take_vectors(self, rows) -> LineVectors:
        """The source and target vectors at the given row positions, in that order.

        The GNC solver reads the vectors alone; gathering two of the five
        columns saves most of a sample's gather.
        """
        if self._rows is not None:
            rows = np.take(self._rows, rows)
        return LineVectors(*(np.take(v, rows, axis=0) for v in self._vectors))

    def gathered(self) -> "LineVectorSet":
        """These line vectors with their vectors gathered, so later gathers read only these rows."""
        return LineVectorSet(self.i, self.j, self.v_source, self.v_target, self.scale_ratio,
                             self.n_zero_skipped)

    def extend(self, other: "LineVectorSet") -> "LineVectorSet":
        """These line vectors followed by `other`'s; gathers the vectors of both."""
        return LineVectorSet(
            np.concatenate([self.i, other.i]),
            np.concatenate([self.j, other.j]),
            np.concatenate([self.v_source, other.v_source]),
            np.concatenate([self.v_target, other.v_target]),
            np.concatenate([self.scale_ratio, other.scale_ratio]),
        )

    def pair_set(self) -> set:
        return set(zip(self.i.tolist(), self.j.tolist()))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (n, 3) array, summed as (x*x + y*y) + z*z."""
    q = v * v
    norms = q[:, 0] + q[:, 1]
    norms += q[:, 2]
    return np.sqrt(norms, out=norms)


def _pair_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs (r, s) with r < s, in row-major upper-triangle order."""
    counts = np.arange(n - 1, 0, -1)
    r = np.repeat(np.arange(n - 1), counts)
    # s climbs by one along a row and drops back to r + 1 where row r starts.
    s = np.ones(len(r), dtype=np.int64)
    s[np.cumsum(counts[:-1])] = np.arange(3 - n, 1)  # (r + 1) - (n - 1) for r = 1 .. n-2
    return r, np.cumsum(s, out=s)


def pair_differences(x: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x[r] - x[s] for an (n, 3) array, gathered with np.take and subtracted in place."""
    v = np.take(x, r, axis=0)
    v -= np.take(x, s, axis=0)
    return v


def check_pair_budget(n: int) -> None:
    """Raise PairBudgetExceeded if n correspondences have more than PAIR_BUDGET pairs."""
    n_pairs = n * (n - 1) // 2
    if n_pairs > PAIR_BUDGET:
        raise PairBudgetExceeded(
            f"{n} correspondences give {n_pairs} line vectors, over the budget of {PAIR_BUDGET}")


def build_line_vectors(c_sul: CorrespondenceSet) -> LineVectorSet:
    """All unordered pairs (i < j by item id) as line vectors.

    Pairs whose source or target difference has zero norm are skipped and
    counted in `n_zero_skipped` (duplicate feature points occur in real
    correspondence sets), as are pairs whose length ratio overflows. More
    than `PAIR_BUDGET` pairs raise PairBudgetExceeded before anything is
    allocated.
    """
    n = len(c_sul)
    if n < 2:
        raise TooFewCorrespondences("need at least 2 correspondences for line vectors")
    check_pair_budget(n)
    r, s = _pair_rows(n)
    i, j = np.take(c_sul.indices, r), np.take(c_sul.indices, s)
    vs = pair_differences(c_sul.source, r, s)
    vt = pair_differences(c_sul.target, r, s)
    del r, s  # quadratic in n: free the row pairs before the norms are computed
    return LineVectorSet.from_differences(i, j, vs, vt)


@dataclass(frozen=True)
class RatioRange:
    """Membership test for retained scale ratios.

    Uses the same floor-based bin arithmetic that built the histogram, so
    incremental updates agree exactly with a from-scratch rebuild. The
    `exact` mode handles the degenerate all-identical-ratio case and `low`
    equality; `everything` accepts any ratio (filter disabled).
    """

    low: float
    high: float
    mode: str = "interval"  # interval | exact | everything
    lower_bound: float = 0.0
    bin_width: float = 1.0
    first_bin: int = 0
    last_bin: int = 0

    @classmethod
    def everything(cls) -> "RatioRange":
        return cls(low=0.0, high=math.inf, mode="everything")

    @classmethod
    def exact(cls, value: float) -> "RatioRange":
        return cls(low=value, high=value, mode="exact")

    def contains(self, ratio) -> np.ndarray | bool:
        if self.mode == "everything":
            return np.full(np.shape(ratio), True) if np.ndim(ratio) else True
        if self.mode == "exact":
            return np.equal(ratio, self.low)
        idx = np.floor((np.asarray(ratio, dtype=np.float64) - self.lower_bound) / self.bin_width)
        result = (idx >= self.first_bin) & (idx <= self.last_bin)
        return result if np.ndim(ratio) else bool(result)


def length_ratio_filter(lvs: LineVectorSet) -> tuple[LineVectorSet, RatioRange, Histogram | None]:
    """Keep line vectors from the dominant scale-ratio bin and its neighbors.

    Builds the scale-ratio histogram (Scott's rule width), selects the
    maximal-count bin (ties broken toward the lower index) plus the
    immediate left/right neighbors when they exist, and returns the
    retained set together with the ratio interval for later incremental
    updates.

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
    n_bins = int(np.floor((ratios.max() - lower) / w)) + 1
    if n_bins > MAX_BINS:
        return lvs, RatioRange.everything(), None
    hist = Histogram.from_values(ratios, w, lower, n_bins)
    top = int(np.argmax(hist.counts))  # argmax takes the first (lowest) maximal bin
    first = max(0, top - 1)
    last = min(n_bins - 1, top + 1)
    ratio_range = RatioRange(
        low=lower + first * w, high=lower + (last + 1) * w,
        lower_bound=lower, bin_width=w, first_bin=first, last_bin=last,
    )
    rows = np.flatnonzero((hist.bin_index >= first) & (hist.bin_index <= last))
    return lvs.take(rows), ratio_range, hist

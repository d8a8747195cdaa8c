"""Exact k-nearest-neighbor queries and PCA normal estimation for point clouds.

The spatial index wraps a kd-tree for candidate generation but defines the
result order itself: ascending squared distance computed in float64, ties
broken by lower point index. This keeps query results identical to a
brute-force scan on every platform.

Both stages work on whole query batches: one kd-tree query per batch (plus
one per doubling of the candidate count, for the rows whose k-th and
(k+1)-th candidates tie), then one stacked covariance and one batched
`eigh`. A single query is a one-row batch, so every caller shares one code
path, and each row's arithmetic is the same as it would be alone.
A candidate's squared distance is summed as `(dx*dx + dy*dy) + dz*dz`
over coordinate columns, the order `np.sum` takes over a length-3 axis.

The tree only proposes candidates: the result order is fixed by the
(distance, index) sort and the tie re-query, so the tree's shape cannot
change a result, and it is built unbalanced (`balanced_tree=False`), which
builds faster. `annotate_normals` queries each distinct endpoint of a cloud
once (endpoints compared by their bytes) and scatters the normals back to
the correspondences that share it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correspondences import check_coordinates
from .errors import DegenerateNeighborhood, EmptyCloud


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An ordered set of 3D points, shape (N, 3) float64."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        check_coordinates("point cloud contains", pts)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


class SpatialIndex:
    """Immutable exact k-NN index over a point cloud."""

    def __init__(self, cloud: PointCloud):
        if len(cloud) == 0:
            raise EmptyCloud("cannot index an empty point cloud")
        self._points = cloud.points
        self._columns = np.ascontiguousarray(cloud.points.T)  # x, y and z, for the distances
        from scipy.spatial import cKDTree  # here, so a run that estimates no normals loads no SciPy
        self._tree = cKDTree(self._points, balanced_tree=False)

    @property
    def points(self) -> np.ndarray:
        return self._points

    def knn_rows(self, queries, k: int) -> np.ndarray:
        """The k nearest points of every row of a (Q, 3) query array, shape (Q, min(k, N)).

        Each row lists point indices by ascending distance, ties by lower index.
        """
        if k < 1:
            raise ValueError("k must be positive")
        q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        n = len(self._points)
        k_eff = min(k, n)
        out = np.empty((len(q), k_eff), dtype=np.intp)
        # Fetch a small pad of extra candidates so boundary ties can be
        # resolved by index; rows whose cut is not strict are fetched again
        # with twice as many candidates until it is, or the cloud is exhausted.
        rows = np.arange(len(q))
        m = min(n, k_eff + 4)
        while len(rows):
            _, idx = self._tree.query(q[rows], k=m)
            # ids ascending, then a stable sort by distance: (distance, index) order
            idx = np.sort(idx.reshape(len(rows), m), axis=-1)
            d2 = self._squared_distances(idx, q[rows])
            order = np.argsort(d2, axis=-1, kind="stable")
            idx = np.take_along_axis(idx, order, axis=-1)
            if m == n:
                out[rows] = idx[:, :k_eff]
                break
            d2 = np.take_along_axis(d2, order, axis=-1)
            strict = d2[:, k_eff - 1] < d2[:, k_eff]
            out[rows[strict]] = idx[strict, :k_eff]
            rows = rows[~strict]
            m = min(n, 2 * m)
        return out

    def _squared_distances(self, idx: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Squared distance from query row r to point idx[r, c], as (dx*dx + dy*dy) + dz*dz."""
        dx, dy, dz = (np.take(column, idx) for column in self._columns)
        for axis, d in enumerate((dx, dy, dz)):
            d -= q[:, axis, None]
            d *= d
        dx += dy
        dx += dz
        return dx


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Build an immutable exact k-NN index; raises EmptyCloud on empty input."""
    return SpatialIndex(cloud)


def knn(index: SpatialIndex, query, k: int) -> np.ndarray:
    """`knn_rows` for one query point; min(k, N) indices when k exceeds the cloud size."""
    return index.knn_rows(np.reshape(query, (1, 3)), k)[0]


def _normals(index: SpatialIndex, queries, k: int) -> tuple[np.ndarray, np.ndarray]:
    """PCA normals at each query row, and the mask of rank-0 neighborhoods.

    Rows of the mask that are set hold no meaningful normal.
    """
    nbrs = np.take(index.points, index.knn_rows(queries, k), axis=0)
    centered = nbrs - nbrs.mean(axis=1, keepdims=True)
    cov = np.matmul(centered.transpose(0, 2, 1), centered) / nbrs.shape[1]
    degenerate = ~np.any(np.abs(cov) > 0, axis=(1, 2))
    vec = np.ascontiguousarray(np.linalg.eigh(cov)[1][:, :, 0])
    # A per-row dot product, as np.linalg.norm takes it on one vector; the
    # axis form of np.linalg.norm sums in another order.
    vec /= np.sqrt(np.matmul(vec[:, None, :], vec[:, :, None]))[:, 0]
    rows = np.arange(len(vec))
    flip = vec[rows, np.argmax(np.abs(vec), axis=1)] < 0
    vec[flip] = -vec[flip]
    return vec, degenerate


def _endpoint_normals(cloud: PointCloud, endpoints: np.ndarray, k: int):
    """`_normals` at every endpoint row, computed once per distinct endpoint."""
    keys = np.ascontiguousarray(endpoints).view(np.dtype((np.void, 3 * endpoints.itemsize)))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    vec, degenerate = _normals(build_index(cloud), np.take(endpoints, first, axis=0), k)
    return np.take(vec, inverse, axis=0), np.take(degenerate, inverse)


def annotate_normals(corrs, source_cloud: PointCloud, target_cloud: PointCloud, k: int = 20):
    """Return a copy of `corrs` with per-endpoint normals estimated from the clouds.

    An endpoint's normal is the unit eigenvector of its k-neighborhood's
    covariance with the smallest eigenvalue, signed so its largest-magnitude
    component is positive; an endpoint that belongs to its cloud is part of
    its own neighborhood (distance 0). Raises DegenerateNeighborhood, tagged
    with the lowest offending correspondence index, when all neighbors of an
    endpoint coincide.
    """
    if len(corrs) == 0:
        return corrs.with_normals(
            np.empty((0, 3), dtype=np.float64), np.empty((0, 3), dtype=np.float64)
        )
    src_normals, src_bad = _endpoint_normals(source_cloud, corrs.source, k)
    tgt_normals, tgt_bad = _endpoint_normals(target_cloud, corrs.target, k)
    bad = np.flatnonzero(src_bad | tgt_bad)
    if len(bad):
        raise DegenerateNeighborhood(f"correspondence {bad[0]}: all neighbors coincide; "
                                     "normal undefined")
    return corrs.with_normals(src_normals, tgt_normals)

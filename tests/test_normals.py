import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.spatial
from scipy.spatial import cKDTree

from lvreg.correspondences import MAX_COORDINATE, CorrespondenceSet
from lvreg.errors import DegenerateNeighborhood, EmptyCloud, NonFiniteInput
from lvreg.normals import PointCloud, annotate_normals, build_index, knn

from conftest import random_rotation


def brute_force_knn(points, query, k):
    d2 = np.sum((points - np.asarray(query)) ** 2, axis=1)
    order = np.lexsort((np.arange(len(points)), d2))
    return order[: min(k, len(points))]


def brute_force_normal(points, query, k):
    nbrs = points[brute_force_knn(points, query, k)]
    centered = nbrs - nbrs.mean(axis=0)
    eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / len(nbrs))
    v = eigvecs[:, 0]
    j = int(np.argmax(np.abs(v)))
    return -v if v[j] < 0 else v


def plane_cloud(rng, n=200, normal=(0.0, 0.0, 1.0), noise=0.0):
    normal = np.asarray(normal, dtype=float)
    normal /= np.linalg.norm(normal)
    u = np.array([1.0, 0.0, 0.0])
    if abs(normal[0]) > 0.9:
        u = np.array([0.0, 1.0, 0.0])
    u -= np.dot(u, normal) * normal
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    ab = rng.uniform(-1, 1, size=(n, 2))
    pts = ab[:, :1] * u + ab[:, 1:] * v
    if noise:
        pts += rng.normal(scale=noise, size=(n, 1)) * normal
    return PointCloud(pts)


class TestIndex:
    def test_empty_cloud_rejected(self):
        with pytest.raises(EmptyCloud):
            build_index(PointCloud(np.empty((0, 3))))

    def test_single_point_cloud(self):
        index = build_index(PointCloud([[1.0, 2.0, 3.0]]))
        assert list(knn(index, (9, 9, 9), 5)) == [0]

    def test_cube_corners_from_center(self):
        corners = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float)
        index = build_index(PointCloud(corners))
        assert sorted(knn(index, (0.5, 0.5, 0.5), 8)) == list(range(8))

    def test_collinear_points(self):
        cloud = PointCloud([[x, 0, 0] for x in range(4)])
        index = build_index(cloud)
        assert list(knn(index, (0, 0, 0), 2)) == [0, 1]

    def test_query_at_existing_point(self, rng):
        pts = rng.normal(size=(50, 3))
        index = build_index(PointCloud(pts))
        assert knn(index, pts[17], 1)[0] == 17

    def test_k_beyond_cloud_size(self, rng):
        pts = rng.normal(size=(5, 3))
        index = build_index(PointCloud(pts))
        assert len(knn(index, (0, 0, 0), 50)) == 5

    def test_tie_break_by_lower_index(self):
        # two points equidistant from the query; the lower index must win
        cloud = PointCloud([[2.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])
        index = build_index(cloud)
        assert list(knn(index, (0, 0, 0), 1)) == [1]
        cloud = PointCloud([[1.0, 0, 0], [-1.0, 0, 0], [2.0, 0, 0]])
        index = build_index(cloud)
        assert list(knn(index, (0, 0, 0), 1)) == [0]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(rng.integers(5, 120), 3))
        index = build_index(PointCloud(pts))
        query = rng.normal(size=3)
        k = int(rng.integers(1, len(pts) + 3))
        assert np.array_equal(knn(index, query, k), brute_force_knn(pts, query, k))

    def test_500_point_oracle_k20(self, rng):
        pts = rng.normal(size=(500, 3))
        index = build_index(PointCloud(pts))
        for _ in range(25):
            q = rng.normal(size=3)
            assert np.array_equal(knn(index, q, 20), brute_force_knn(pts, q, 20))


def normal_at(cloud, point, k):
    """The normal `annotate_normals` gives a one-row set whose two endpoints are `point`."""
    corrs = CorrespondenceSet([point], [point])
    out = annotate_normals(corrs, cloud, cloud, k)
    assert np.array_equal(out.source_normals, out.target_normals)
    return out.source_normals[0]


class TestEstimateNormal:
    def test_plane_z0(self, rng):
        cloud = plane_cloud(rng, normal=(0, 0, 1))
        n = normal_at(cloud, cloud.points[0], 20)
        assert np.allclose(n, (0, 0, 1), atol=1e-9)

    def test_plane_x2(self, rng):
        cloud = PointCloud(plane_cloud(rng, normal=(1, 0, 0)).points + [2.0, 0, 0])
        n = normal_at(cloud, cloud.points[3], 20)
        assert np.allclose(n, (1, 0, 0), atol=1e-9)

    def test_noisy_plane_within_5_degrees(self, rng):
        cloud = plane_cloud(rng, n=400, noise=0.01)
        n = normal_at(cloud, cloud.points[10], 20)
        angle = np.degrees(np.arccos(np.clip(abs(n[2]), -1, 1)))
        assert angle < 5.0

    def test_unit_norm_always(self, rng):
        pts = rng.normal(size=(100, 3))
        cloud = PointCloud(pts)
        for row in range(0, 100, 7):
            n = normal_at(cloud, pts[row], 20)
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-9)

    def test_coincident_neighbors_rejected(self):
        cloud = PointCloud(np.zeros((10, 3)))
        with pytest.raises(DegenerateNeighborhood):
            normal_at(cloud, (0, 0, 0), 5)

    def test_rigid_motion_equivariance_up_to_sign(self, rng):
        pts = rng.normal(size=(60, 3))
        rot = random_rotation(rng)
        c1 = PointCloud(pts)
        c2 = PointCloud(pts @ rot.T)
        for row in (0, 13, 41):
            n1 = normal_at(c1, pts[row], 20)
            n2 = normal_at(c2, rot @ pts[row], 20)
            aligned = min(np.linalg.norm(n2 - rot @ n1), np.linalg.norm(n2 + rot @ n1))
            assert aligned < 1e-6

    def test_normals_are_neighbourhood_smallest_eigenvectors(self, rng):
        # Brute force per endpoint: the k nearest points by a full distance
        # sort, their covariance, and its smallest-eigenvalue eigenvector from
        # an SVD of the centred neighbours (not the symmetric eigensolver).
        src = rng.normal(size=(120, 3)) * [3.0, 1.0, 0.2]
        tgt = rng.normal(size=(90, 3))
        rows = rng.integers(0, 90, size=60)
        corrs = CorrespondenceSet(src[rows], tgt[rows])
        for k in (3, 8, 20):
            out = annotate_normals(corrs, PointCloud(src), PointCloud(tgt), k=k)
            for cloud, ends, normals in ((src, corrs.source, out.source_normals),
                                         (tgt, corrs.target, out.target_normals)):
                for point, normal in zip(ends, normals):
                    nbrs = cloud[brute_force_knn(cloud, point, k)]
                    centered = nbrs - nbrs.mean(axis=0)
                    cov = centered.T @ centered / len(nbrs)
                    _, sv, vt = np.linalg.svd(centered)
                    assert np.linalg.norm(normal) == pytest.approx(1.0, abs=1e-12)
                    assert abs(normal @ vt[2]) == pytest.approx(1.0, abs=1e-9)
                    assert normal @ cov @ normal == pytest.approx(sv[2] ** 2 / len(nbrs),
                                                                  abs=1e-12)


class TestAnnotateNormals:
    def test_planar_clouds(self, rng):
        src_cloud = plane_cloud(rng, normal=(0, 0, 1))
        tgt_cloud = plane_cloud(rng, normal=(1, 0, 0))
        corrs = CorrespondenceSet(src_cloud.points[:10], tgt_cloud.points[:10])
        out = annotate_normals(corrs, src_cloud, tgt_cloud)
        assert np.allclose(out.source_normals, [0, 0, 1], atol=1e-9)
        assert np.allclose(out.target_normals, [1, 0, 0], atol=1e-9)

    def test_empty_set_is_noop(self, rng):
        cloud = plane_cloud(rng)
        corrs = CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)))
        out = annotate_normals(corrs, cloud, cloud)
        assert len(out) == 0 and out.has_normals()

    def test_matches_independent_pca_oracle(self, rng):
        src = rng.normal(size=(300, 3))
        tgt = rng.normal(size=(300, 3))
        rows = rng.choice(300, size=100, replace=False)
        corrs = CorrespondenceSet(src[rows], tgt[rows])
        out = annotate_normals(corrs, PointCloud(src), PointCloud(tgt), k=20)
        for r in range(0, 100, 9):
            assert np.allclose(out.source_normals[r], brute_force_normal(src, src[rows[r]], 20), atol=1e-9)
            assert np.allclose(out.target_normals[r], brute_force_normal(tgt, tgt[rows[r]], 20), atol=1e-9)

    def test_degenerate_neighborhood_reports_index(self):
        src = np.zeros((10, 3))
        tgt = np.random.default_rng(0).normal(size=(10, 3))
        corrs = CorrespondenceSet(src, tgt)
        with pytest.raises(DegenerateNeighborhood, match="correspondence 0"):
            annotate_normals(corrs, PointCloud(src), PointCloud(tgt))


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_point_cloud_rejects(self, bad):
        with pytest.raises(NonFiniteInput):
            PointCloud([[0.0, 0.0, 0.0], [1.0, bad, 0.0]])

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_correspondence_set_rejects(self, side, rng):
        pts = rng.normal(size=(5, 3))
        bad = pts.copy()
        bad[3, 1] = np.nan
        args = (bad, pts) if side == "source" else (pts, bad)
        with pytest.raises(NonFiniteInput):
            CorrespondenceSet(*args)

    def test_still_a_value_error(self):
        with pytest.raises(ValueError):
            PointCloud([[np.nan, 0.0, 0.0]])

    @pytest.mark.parametrize("big", [1.0000001e150, -1e151, 1e300])
    def test_coordinates_beyond_the_bound_rejected(self, big, rng):
        with pytest.raises(NonFiniteInput, match="beyond"):
            PointCloud([[0.0, 0.0, 0.0], [1.0, big, 0.0]])
        pts = rng.normal(size=(5, 3))
        bad = pts.copy()
        bad[2, 0] = big
        for args in ((bad, pts), (pts, bad)):
            with pytest.raises(NonFiniteInput, match="beyond"):
                CorrespondenceSet(*args)

    def test_coordinates_at_the_bound_accepted(self):
        PointCloud([[MAX_COORDINATE, -MAX_COORDINATE, 0.0]])
        CorrespondenceSet([[MAX_COORDINATE, 0.0, 0.0]], [[0.0, -MAX_COORDINATE, 0.0]])


# The per-endpoint loop that annotate_normals replaced: one kd-tree query,
# one lexsort, one covariance and one eigh per endpoint. The batched code
# must reproduce its normals and its errors bit for bit.

def loop_knn(tree, points, query, k):
    q = np.asarray(query, dtype=np.float64).reshape(3)
    n = len(points)
    k_eff = min(k, n)
    m = min(n, k_eff + 4)
    while True:
        _, idx = tree.query(q, k=m)
        idx = np.atleast_1d(idx)
        d2 = np.sum((points[idx] - q) ** 2, axis=1)
        order = np.lexsort((idx, d2))
        idx, d2 = idx[order], d2[order]
        if m == n or d2[k_eff - 1] < d2[k_eff]:
            return idx[:k_eff]
        m = min(n, 2 * m)


def loop_normal(tree, points, query, k):
    nbrs = points[loop_knn(tree, points, query, k)]
    centered = nbrs - nbrs.mean(axis=0)
    cov = centered.T @ centered / len(nbrs)
    if not np.any(np.abs(cov) > 0):
        raise DegenerateNeighborhood("all neighbors coincide; normal undefined")
    eigvals, eigvecs = np.linalg.eigh(cov)
    vec = eigvecs[:, 0]
    vec = vec / np.linalg.norm(vec)
    j = int(np.argmax(np.abs(vec)))
    return -vec if vec[j] < 0 else vec


def loop_annotate(corrs, src_pts, tgt_pts, k):
    src_tree, tgt_tree = cKDTree(src_pts), cKDTree(tgt_pts)
    src_normals = np.empty((len(corrs), 3))
    tgt_normals = np.empty((len(corrs), 3))
    for row in range(len(corrs)):
        try:
            src_normals[row] = loop_normal(src_tree, src_pts, corrs.source[row], k)
            tgt_normals[row] = loop_normal(tgt_tree, tgt_pts, corrs.target[row], k)
        except DegenerateNeighborhood as exc:
            raise DegenerateNeighborhood(f"correspondence {row}: {exc}") from exc
    return src_normals, tgt_normals


def _random(rng, n):
    return rng.normal(size=(n, 3)), rng.normal(size=(n, 3))


def _grid(rng, n):
    # small integer coordinates: many exactly equal distances
    return (rng.integers(-3, 4, size=(n, 3)).astype(float),
            rng.integers(-2, 3, size=(n, 3)).astype(float))


def _duplicates(rng, n):
    base = rng.normal(size=(max(3, n // 4), 3))
    return base[rng.integers(0, len(base), size=n)], base[rng.integers(0, len(base), size=n)]


class CountingTree(cKDTree):
    """A kd-tree that counts its query calls and the rows they ask for."""

    queries = 0
    rows = 0

    def query(self, x, *args, **kwargs):
        CountingTree.queries += 1
        CountingTree.rows += len(np.atleast_2d(x))
        return super().query(x, *args, **kwargs)


@pytest.fixture
def counting_tree(monkeypatch):
    # SpatialIndex imports the tree class from scipy.spatial when it builds one.
    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    monkeypatch.setattr(CountingTree, "queries", 0)
    monkeypatch.setattr(CountingTree, "rows", 0)
    return CountingTree


class TestBatchedMatchesLoop:
    @pytest.mark.parametrize("make", [_random, _grid, _duplicates])
    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical(self, make, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        src, tgt = make(rng, n)
        rows = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
        corrs = CorrespondenceSet(src[rows], tgt[rows])
        k = int(rng.choice([1, 3, 20, n - 1, n, n + 3]))
        try:
            want = loop_annotate(corrs, src, tgt, k)
        except DegenerateNeighborhood as exc:
            with pytest.raises(DegenerateNeighborhood) as got:
                annotate_normals(corrs, PointCloud(src), PointCloud(tgt), k)
            assert str(got.value) == str(exc)
            return
        out = annotate_normals(corrs, PointCloud(src), PointCloud(tgt), k)
        assert np.array_equal(out.source_normals, want[0])
        assert np.array_equal(out.target_normals, want[1])

    def test_grid_ties_take_the_requery_path(self, counting_tree):
        rng = np.random.default_rng(3)
        src, tgt = _grid(rng, 300)
        corrs = CorrespondenceSet(src, tgt)
        out = annotate_normals(corrs, PointCloud(src), PointCloud(tgt), 20)
        assert counting_tree.queries > 2  # more than one query per cloud
        want = loop_annotate(corrs, src, tgt, 20)
        assert np.array_equal(out.source_normals, want[0])
        assert np.array_equal(out.target_normals, want[1])

    @pytest.mark.parametrize("k", [4, 5, 9])
    def test_k_at_least_cloud_size(self, k, rng):
        src, tgt = _random(rng, 5)
        corrs = CorrespondenceSet(src[[4, 0, 2]], tgt[[1, 1, 3]])
        out = annotate_normals(corrs, PointCloud(src), PointCloud(tgt), k)
        want = loop_annotate(corrs, src, tgt, k)
        assert np.array_equal(out.source_normals, want[0])
        assert np.array_equal(out.target_normals, want[1])

    def test_single_point_cloud(self):
        cloud = PointCloud([[1.0, 2.0, 3.0]])
        assert np.array_equal(build_index(cloud).knn_rows(np.zeros((4, 3)), 20), np.zeros((4, 1)))
        corrs = CorrespondenceSet([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0]])
        with pytest.raises(DegenerateNeighborhood, match="correspondence 0"):
            annotate_normals(corrs, cloud, cloud, 20)

    @pytest.mark.parametrize("src_row, tgt_row, want", [(5, 2, 2), (3, 7, 3), (4, 4, 4), (6, None, 6),
                                                        (None, 1, 1)])
    def test_degenerate_error_names_lowest_row(self, src_row, tgt_row, want):
        # a cluster of coincident points far from the rest makes exactly the
        # rows that query it degenerate
        rng = np.random.default_rng(1)
        spread = rng.normal(size=(40, 3))
        cloud = np.vstack([spread, np.full((10, 3), 100.0)])
        src = spread[:8].copy()
        tgt = spread[8:16].copy()
        if src_row is not None:
            src[src_row] = 100.0
        if tgt_row is not None:
            tgt[tgt_row] = 100.0
        corrs = CorrespondenceSet(src, tgt)
        with pytest.raises(DegenerateNeighborhood) as want_exc:
            loop_annotate(corrs, cloud, cloud, 5)
        with pytest.raises(DegenerateNeighborhood) as got:
            annotate_normals(corrs, PointCloud(cloud), PointCloud(cloud), 5)
        assert str(got.value) == str(want_exc.value) == (
            f"correspondence {want}: all neighbors coincide; normal undefined")


class TestDistinctEndpoints:
    """Each distinct endpoint of a cloud is queried once; its normal goes to every row that shares it."""

    def test_one_query_row_per_distinct_endpoint(self, counting_tree):
        rng = np.random.default_rng(7)
        src, tgt = _duplicates(rng, 400)
        # the clouds hold each point once, so no k-th neighbor ties and no re-query
        src_cloud, tgt_cloud = np.unique(src, axis=0), np.unique(tgt, axis=0)
        corrs = CorrespondenceSet(src, tgt)
        out = annotate_normals(corrs, PointCloud(src_cloud), PointCloud(tgt_cloud), 20)
        assert counting_tree.queries == 2
        assert counting_tree.rows == len(src_cloud) + len(tgt_cloud) < 2 * len(corrs)
        want = loop_annotate(corrs, src_cloud, tgt_cloud, 20)
        assert np.array_equal(out.source_normals, want[0])
        assert np.array_equal(out.target_normals, want[1])

    def test_signed_zero_endpoints(self, rng):
        cloud = np.vstack([np.zeros((1, 3)), rng.normal(size=(30, 3))])
        ends = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [0.0, 0.0, 0.0]])
        corrs = CorrespondenceSet(ends, ends[::-1])
        out = annotate_normals(corrs, PointCloud(cloud), PointCloud(cloud), 8)
        want = loop_annotate(corrs, cloud, cloud, 8)
        assert out.source_normals.tobytes() == want[0].tobytes()
        assert out.target_normals.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("src_rows, tgt_rows, want", [((5, 3), (), 3), ((6, 2), (4,), 2),
                                                          ((7,), (6, 1), 1), ((), (7, 5, 6), 5)])
    def test_duplicated_degenerate_endpoint_names_lowest_row(self, src_rows, tgt_rows, want):
        # rows that query the coincident cluster share one endpoint, and so one query
        rng = np.random.default_rng(1)
        spread = rng.normal(size=(40, 3))
        cloud = np.vstack([spread, np.full((10, 3), 100.0)])
        src = spread[:8].copy()
        tgt = spread[8:16].copy()
        src[list(src_rows)] = 100.0
        tgt[list(tgt_rows)] = 100.0
        corrs = CorrespondenceSet(src, tgt)
        with pytest.raises(DegenerateNeighborhood) as want_exc:
            loop_annotate(corrs, cloud, cloud, 5)
        with pytest.raises(DegenerateNeighborhood) as got:
            annotate_normals(corrs, PointCloud(cloud), PointCloud(cloud), 5)
        assert str(got.value) == str(want_exc.value) == (
            f"correspondence {want}: all neighbors coincide; normal undefined")


def test_one_kd_tree_query_per_cloud(counting_tree):
    # a return to per-endpoint queries would make 2 * 2000 calls here
    rng = np.random.default_rng(0)
    src, tgt = _random(rng, 2000)
    annotate_normals(CorrespondenceSet(src, tgt), PointCloud(src), PointCloud(tgt), 20)
    assert counting_tree.queries == 2
    assert counting_tree.rows == 2 * 2000

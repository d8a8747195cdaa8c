import numpy as np
import pytest

from lvreg.correspondences import CorrespondenceSet
from lvreg.local_sets import build_line_vectors


def points(n, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 3))


class TestIdsStrictlyIncrease:
    """A set's rows are in id order: `rows_for` and the pair layer rely on it."""

    @pytest.mark.parametrize("indices", [[2, 1, 0], [0, 0, 1], [0, 2, 1], [5, 5, 5]])
    def test_unsorted_or_repeated_ids_refused(self, indices):
        with pytest.raises(ValueError, match="strictly increasing"):
            CorrespondenceSet(points(3), points(3, 1), indices=indices)

    def test_subset_in_another_order_refused(self):
        corrs = CorrespondenceSet(points(4), points(4, 1))
        with pytest.raises(ValueError, match="strictly increasing"):
            corrs.subset([2, 0])
        with pytest.raises(ValueError, match="strictly increasing"):
            corrs.subset([1, 1])

    def test_increasing_ids_with_gaps_kept(self):
        corrs = CorrespondenceSet(points(3), points(3, 1), indices=[3, 7, 40])
        assert corrs.rows_for([40, 3, 7]).tolist() == [2, 0, 1]
        assert corrs.subset([0, 2]).indices.tolist() == [3, 40]
        lvs = build_line_vectors(corrs)
        assert list(zip(lvs.i.tolist(), lvs.j.tolist())) == [(3, 7), (3, 40), (7, 40)]

    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_single_sets(self, n):
        assert len(CorrespondenceSet(points(n), points(n, 1), indices=[9][:n])) == n

    def test_missing_id_is_a_key_error(self):
        corrs = CorrespondenceSet(points(3), points(3, 1), indices=[3, 7, 40])
        with pytest.raises(KeyError):
            corrs.rows_for([8])

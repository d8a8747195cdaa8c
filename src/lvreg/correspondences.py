"""Correspondence containers.

`CorrespondenceSet` is a struct-of-arrays: paired (N, 3) source/target
points (finite and at most `MAX_COORDINATE` in magnitude; `NonFiniteInput`
otherwise) plus optional per-item normals and previous/current residuals
(NaN where absent). Each item keeps a stable integer id in `indices`,
strictly increasing along the rows, so a set's rows are in id order;
subsets preserve the ids of the parent set, so line vectors can reference
items independently of subset membership.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteInput

# Coordinates up to this magnitude keep squared distances and sums of squared
# coordinate products finite: residuals, k-NN distances and covariances, and
# cross-covariances over as many pairs as the pair budget allows
# ((2 * 1e150)**2 * 2**24 is about 6.7e307, below the float64 maximum of 1.8e308).
MAX_COORDINATE = 1e150


def check_coordinates(what: str, *arrays: np.ndarray) -> None:
    """Raise NonFiniteInput unless every coordinate is finite and within MAX_COORDINATE.

    `what` starts the message: "correspondences contain", "point cloud contains".
    """
    for a in arrays:
        if a.size and not np.abs(a).max() <= MAX_COORDINATE:  # NaN fails the comparison
            if np.all(np.isfinite(a)):
                raise NonFiniteInput(f"{what} coordinates beyond {MAX_COORDINATE:g} "
                                     "in magnitude, whose squared distances could overflow")
            raise NonFiniteInput(f"{what} non-finite coordinates")


class CorrespondenceSet:
    def __init__(self, source, target, *, source_normals=None, target_normals=None,
                 prev_residuals=None, curr_residuals=None, indices=None):
        self.source = np.asarray(source, dtype=np.float64).reshape(-1, 3)
        self.target = np.asarray(target, dtype=np.float64).reshape(-1, 3)
        n = len(self.source)
        if len(self.target) != n:
            raise ValueError("source and target must pair up one-to-one")
        check_coordinates("correspondences contain", self.source, self.target)
        self.source_normals = None if source_normals is None else np.asarray(source_normals, dtype=np.float64).reshape(n, 3)
        self.target_normals = None if target_normals is None else np.asarray(target_normals, dtype=np.float64).reshape(n, 3)
        self.prev_residuals = np.full(n, np.nan) if prev_residuals is None else np.asarray(prev_residuals, dtype=np.float64).copy()
        self.curr_residuals = np.full(n, np.nan) if curr_residuals is None else np.asarray(curr_residuals, dtype=np.float64).copy()
        self.indices = np.arange(n, dtype=np.int64) if indices is None else np.asarray(indices, dtype=np.int64).copy()
        if len(self.indices) != n:
            raise ValueError("indices must match the number of correspondences")
        if np.any(self.indices[1:] <= self.indices[:-1]):
            raise ValueError("indices must be strictly increasing")

    def __len__(self) -> int:
        return len(self.source)

    def has_normals(self) -> bool:
        return self.source_normals is not None and self.target_normals is not None

    def with_normals(self, source_normals, target_normals) -> "CorrespondenceSet":
        return CorrespondenceSet(
            self.source, self.target,
            source_normals=source_normals, target_normals=target_normals,
            prev_residuals=self.prev_residuals, curr_residuals=self.curr_residuals,
            indices=self.indices,
        )

    def subset(self, rows) -> "CorrespondenceSet":
        """New set holding the given rows; item ids are preserved."""
        rows = np.asarray(rows)
        return CorrespondenceSet(
            self.source[rows], self.target[rows],
            source_normals=None if self.source_normals is None else self.source_normals[rows],
            target_normals=None if self.target_normals is None else self.target_normals[rows],
            prev_residuals=self.prev_residuals[rows], curr_residuals=self.curr_residuals[rows],
            indices=self.indices[rows],
        )

    def rows_for(self, ids) -> np.ndarray:
        """Row positions of the given item ids; KeyError for an id not in this set."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.searchsorted(self.indices, ids)
        if np.any(rows >= len(self.indices)) or np.any(self.indices[np.minimum(rows, len(self.indices) - 1)] != ids):
            raise KeyError("id not present in this correspondence set")
        return rows

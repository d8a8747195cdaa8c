"""Line-vector sets made from given vectors, for tests.

The engine only makes sets over correspondence sets (`build_line_vectors`
and the self-update). Tests also need sets holding vectors they chose; these
are sets over a table of those vectors followed by as many zero rows.
"""

from types import SimpleNamespace

import numpy as np

from lvreg.local_sets import LineVectorSet, usable_ratios


def _row_norms(v):
    """Euclidean norm of each row of an (n, 3) array, summed as (x*x + y*y) + z*z."""
    q = v * v
    norms = q[:, 0] + q[:, 1]
    norms += q[:, 2]
    return np.sqrt(norms, out=norms)


def vector_set(i, j, v_source, v_target, scale_ratio=None, n_zero_skipped=0):
    """A set holding the given vectors: its table is those vectors over zero rows.

    Row k pairs table row k with zero row n + k, and x - (+0.0) is x, signed
    zeros included, so the set's vectors are the given bytes. With ratios
    given, the set keeps them, as a built set does, for the ratio filter.
    """
    vectors = [np.asarray(v, dtype=np.float64).reshape(-1, 3) for v in (v_source, v_target)]
    n = len(vectors[0])
    zeros = np.zeros((n, 3))
    source, target = (np.concatenate([v, zeros]) for v in vectors)
    ids = np.concatenate([np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)])
    rows = np.arange(n, dtype=np.int32)
    table = SimpleNamespace(source=source, target=target, indices=ids)
    ratio = None if scale_ratio is None else np.asarray(scale_ratio, dtype=np.float64)
    return LineVectorSet(table, rows, rows + n, ratio, n_zero_skipped=n_zero_skipped)


def from_differences(i, j, v_source, v_target):
    """Line vectors from per-pair difference vectors, v = x_i - x_j, with their ratios.

    Pairs whose ratio is not finite and positive (a zero-length difference
    or an overflow) are dropped and counted in `n_zero_skipped`, as
    `build_line_vectors` drops them.
    """
    vs, vt = (np.asarray(v, dtype=np.float64).reshape(-1, 3) for v in (v_source, v_target))
    ratio = _row_norms(vs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio /= _row_norms(vt)
    rows = np.flatnonzero(usable_ratios(ratio))
    return vector_set(np.asarray(i)[rows], np.asarray(j)[rows], vs[rows], vt[rows], ratio[rows],
                      n_zero_skipped=len(ratio) - len(rows))

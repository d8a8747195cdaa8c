"""Probabilistic revision of the local correspondence and line-vector sets.

After each interaction round the local set is revised against the current
global inlier set: correspondences that became global inliers are admitted
and local members that stopped being global inliers are evicted. A
correspondence that is on the same side of the residual threshold in two
consecutive rounds is handled deterministically; one that just crossed the
threshold is admitted/evicted probabilistically, comparing its true-inlier
probability (a chi-distribution survival in 3 dimensions) against a
uniformly drawn percent threshold.

Line vectors are revised in one pass per round: the vectors incident to
any evicted member are dropped, and each admitted correspondence is paired
against the retained members and the admitted ones with smaller ids,
keeping the pairs whose scale ratio falls in the retained ratio band.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import gammaincc

from .correspondences import CorrespondenceSet
from .errors import MissingResidual
from .local_sets import LineVectorSet, RatioRange, usable_ratios

SIGMA_MODES = ("per-eval", "per-round", "fixed-half-tr")


class UpdateAction(enum.Enum):
    INCLUDE = "include"
    REMOVE = "remove"
    KEEP = "keep"
    SKIP = "skip"


class UpdateRule(enum.Enum):
    STABLE_INLIER = "stable-inlier"      # inlier in both rounds: admit outright
    NEW_INLIER = "new-inlier"            # just crossed below the threshold: probabilistic admit
    NEW_OUTLIER = "new-outlier"          # just crossed above the threshold: probabilistic evict
    STABLE_OUTLIER = "stable-outlier"    # outlier in both rounds: evict outright


@dataclass(frozen=True)
class UpdateDecision:
    correspondence_index: int
    action: UpdateAction
    rule: UpdateRule
    probability: float | None = None
    threshold: float | None = None


def true_inlier_probability(r: float, sigma: float) -> float:
    """Probability that a residual of magnitude r is inlier noise of scale sigma.

    Survival function of the noise-residual norm: the squared norm of an
    isotropic 3D Gaussian is sigma^2 times a chi-square with 3 degrees of
    freedom, so P = 1 - gamma_lower(3/2, r^2 / (2 sigma^2)) / Gamma(3/2),
    evaluated with the regularized upper incomplete gamma. Strictly
    decreasing in r; 1 at r = 0.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return float(gammaincc(1.5, (r * r) / (2.0 * sigma * sigma)))


def draw_probability_threshold(rng: np.random.Generator) -> float:
    """Uniform draw from {0.01, 0.02, ..., 1.00}."""
    return int(rng.integers(1, 101)) / 100.0


def draw_sigma(rng: np.random.Generator, residual_threshold: float) -> float:
    """Uniform draw from (0, residual_threshold]."""
    return residual_threshold - float(rng.uniform(0.0, residual_threshold))


def classify_inclusion(prev_residual: float, curr_residual: float, residual_threshold: float,
                       rng: np.random.Generator, sigma: float | None = None,
                       index: int = -1) -> UpdateDecision:
    """Decide whether a global inlier outside the local set is admitted.

    A two-round inlier is admitted outright (probability 1, no random
    draw). A first-round-or-recovered inlier is admitted iff its
    true-inlier probability exceeds a freshly drawn percent threshold.
    A NaN residual is absent: a NaN `prev_residual` takes the
    probabilistic path, and a NaN `curr_residual` raises MissingResidual.
    """
    if math.isnan(curr_residual):
        raise MissingResidual("current residual required for a self-update decision")
    if prev_residual < residual_threshold:
        return UpdateDecision(index, UpdateAction.INCLUDE, UpdateRule.STABLE_INLIER, probability=1.0)
    s = draw_sigma(rng, residual_threshold) if sigma is None else sigma
    prob = true_inlier_probability(curr_residual, s)
    threshold = draw_probability_threshold(rng)
    action = UpdateAction.INCLUDE if prob > threshold else UpdateAction.SKIP
    return UpdateDecision(index, action, UpdateRule.NEW_INLIER, probability=prob, threshold=threshold)


def classify_removal(prev_residual: float, curr_residual: float, residual_threshold: float,
                     rng: np.random.Generator, sigma: float | None = None,
                     index: int = -1) -> UpdateDecision:
    """Decide whether a local member that is no longer a global inlier is evicted.

    A two-round outlier is evicted outright (no random draw). One that was
    an inlier in the previous round (or has no history yet, NaN) is
    evicted iff its true-outlier probability (1 - P) exceeds a drawn
    percent threshold. A NaN `curr_residual` raises MissingResidual.
    """
    if math.isnan(curr_residual):
        raise MissingResidual("current residual required for a self-update decision")
    if prev_residual >= residual_threshold:
        return UpdateDecision(index, UpdateAction.REMOVE, UpdateRule.STABLE_OUTLIER)
    s = draw_sigma(rng, residual_threshold) if sigma is None else sigma
    prob = true_inlier_probability(curr_residual, s)
    threshold = draw_probability_threshold(rng)
    action = UpdateAction.REMOVE if (1.0 - prob) > threshold else UpdateAction.KEEP
    return UpdateDecision(index, action, UpdateRule.NEW_OUTLIER, probability=prob, threshold=threshold)


def _decide(classify, corrs: CorrespondenceSet, ids: np.ndarray, action: UpdateAction,
            residual_threshold: float, rng: np.random.Generator, sigma: float | None):
    """Classify each candidate id in order; returns (decisions, ids given `action`)."""
    rows = corrs.rows_for(ids)
    decisions = [classify(prev, curr, residual_threshold, rng, sigma=sigma, index=gid)
                 for gid, prev, curr in zip(ids.tolist(), corrs.prev_residuals[rows].tolist(),
                                            corrs.curr_residuals[rows].tolist())]
    chosen = np.array([d.action is action for d in decisions], dtype=bool)
    return decisions, ids[chosen]


def _admission_block(corrs: CorrespondenceSet, admitted: np.ndarray, retained: np.ndarray,
                     current: np.ndarray, current_rows: np.ndarray,
                     ratio_range: RatioRange) -> LineVectorSet:
    """The new line vectors of the admitted ids whose scale ratio is in the band, over `corrs`.

    Admitted id a pairs with every retained member and every admitted id
    below it; np.nonzero walks the mask row-major, so rows come out by a,
    then by member id. The ratios of every (a, member) pair come from
    `cdist`, and the mask picks the pairs' ones. Its temporaries die when
    it returns.
    """
    a_col = admitted[:, None]
    mask = (current != a_col) & (np.isin(current, retained) | (current < a_col))
    admitted_rows = corrs.rows_for(admitted)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = (cdist(corrs.source[admitted_rows], corrs.source[current_rows])
                 / cdist(corrs.target[admitted_rows], corrs.target[current_rows]))[mask]
    a_pos, m_pos = np.nonzero(mask)
    del mask
    rows_a, rows_m = admitted_rows[a_pos], current_rows[m_pos]
    # p is the row of the smaller id (canonical orientation, v = x_i - x_j).
    # Where m < a the vector is -(x_a - x_m), the sign flip of x_a - x_m, so
    # a zero component keeps the sign it has always had: those rows are flipped.
    flip = current[m_pos] < admitted[a_pos]
    p = np.where(flip, rows_m, rows_a).astype(np.int32)
    q = np.where(flip, rows_a, rows_m).astype(np.int32)
    usable = np.flatnonzero(usable_ratios(ratio))
    rows = usable[ratio_range.contains(ratio[usable])]
    return LineVectorSet(corrs, p[rows], q[rows], ratio[rows], flip[rows])


def update_local_sets(corrs: CorrespondenceSet, local_set: CorrespondenceSet,
                      lvs: LineVectorSet, ir_glo, residual_threshold: float,
                      ratio_range: RatioRange, rng: np.random.Generator,
                      sigma_mode: str = "per-eval"):
    """One self-update round over the local correspondence and line-vector sets.

    Eviction decisions run first (ascending id), then admissions
    (ascending id), so newcomers pair against the already-pruned set.
    Every examined candidate yields an UpdateDecision for the audit trail.
    New line vectors are appended in (admitted id, member id) order, the
    order in which admitting one id at a time would produce them. The
    returned set is over `corrs` (`LineVectorSet.on`), so the run's sets
    share one endpoint table from the first round on.

    Returns (new_local_set, new_line_vectors, decisions).
    """
    if sigma_mode not in SIGMA_MODES:
        raise ValueError(f"sigma_mode must be one of {SIGMA_MODES}")
    lvs = lvs.on(corrs)
    sigma = None
    if sigma_mode == "per-round":
        sigma = draw_sigma(rng, residual_threshold)
    elif sigma_mode == "fixed-half-tr":
        sigma = residual_threshold / 2.0

    ir_glo = np.asarray(ir_glo, dtype=np.int64).ravel()
    members = local_set.indices
    evict_decisions, removed = _decide(classify_removal, corrs, np.setdiff1d(members, ir_glo),
                                       UpdateAction.REMOVE, residual_threshold, rng, sigma)
    admit_decisions, admitted = _decide(classify_inclusion, corrs, np.setdiff1d(ir_glo, members),
                                        UpdateAction.INCLUDE, residual_threshold, rng, sigma)
    retained = np.setdiff1d(members, removed)
    current = np.union1d(retained, admitted)

    current_rows = corrs.rows_for(current)
    block = _admission_block(corrs, admitted, retained, current, current_rows, ratio_range)

    new_lvs = lvs.take(~lvs.incident(removed)).extend(block)
    return corrs.subset(current_rows), new_lvs, evict_decisions + admit_decisions

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
keeping the pairs whose scale ratio falls in the retained ratio band. A
new pair is stored as (admitted row, member row), the order in which its
difference is taken; `LineVectorSet` derives each vector's sign from that
order.
"""

from __future__ import annotations

import enum
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


def true_inlier_probability(r, sigma):
    """Probability that a residual of magnitude r is inlier noise of scale sigma.

    Survival function of the noise-residual norm: the squared norm of an
    isotropic 3D Gaussian is sigma^2 times a chi-square with 3 degrees of
    freedom, so P = 1 - gamma_lower(3/2, r^2 / (2 sigma^2)) / Gamma(3/2),
    evaluated with the regularized upper incomplete gamma. Strictly
    decreasing in r; 1 at r = 0. Arrays broadcast elementwise; scalars
    give a float. Where r^2 / (2 sigma^2) is 0/0 or inf/inf (both squares
    underflow or overflow), it is taken as 0.5 * (r / sigma)^2 instead.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not (sigma > 0).all():
        raise ValueError("sigma must be positive")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = (r * r) / (2.0 * sigma * sigma)
        x = np.where(np.isnan(x), 0.5 * (r / sigma) ** 2, x)
    p = gammaincc(1.5, x)
    return p if np.ndim(p) else float(p)


def draw_probability_threshold(rng: np.random.Generator) -> float:
    """Uniform draw from {0.01, 0.02, ..., 1.00}."""
    return int(rng.integers(1, 101)) / 100.0


def draw_sigma(rng: np.random.Generator, residual_threshold: float) -> float:
    """Uniform draw from (0, residual_threshold]."""
    return residual_threshold - float(rng.uniform(0.0, residual_threshold))


# (stable rule, drawn rule, action if chosen, action if not) of admission and of eviction
_SIDES = {
    False: (UpdateRule.STABLE_INLIER, UpdateRule.NEW_INLIER, UpdateAction.INCLUDE, UpdateAction.SKIP),
    True: (UpdateRule.STABLE_OUTLIER, UpdateRule.NEW_OUTLIER, UpdateAction.REMOVE, UpdateAction.KEEP),
}


def _decide(corrs: CorrespondenceSet, ids: np.ndarray, evict: bool, residual_threshold: float,
            rng: np.random.Generator, sigma: float | None):
    """Decide every candidate id of one side; returns (decisions, the ids given the chosen action).

    A row whose previous residual was on the same side of the threshold
    (admission: below it; eviction: at or above it) is stable and takes the
    chosen action with no draw; a NaN previous residual is on neither side.
    Every other row, in id order, draws sigma (unless it is fixed) and then a
    percent threshold, and takes the chosen action iff its true-inlier
    probability (admission) or true-outlier probability (eviction) exceeds
    that threshold. A NaN current residual raises MissingResidual before any draw.
    """
    stable_rule, drawn_rule, chosen, not_chosen = _SIDES[evict]
    rows = corrs.rows_for(ids)
    prev, curr = corrs.prev_residuals[rows], corrs.curr_residuals[rows]
    if np.isnan(curr).any():
        raise MissingResidual("current residual required for a self-update decision")
    stable = prev >= residual_threshold if evict else prev < residual_threshold
    drawn = np.flatnonzero(~stable)
    # One scalar draw at a time: batched draws would consume another stream.
    draws = np.array([(draw_sigma(rng, residual_threshold) if sigma is None else sigma,
                       draw_probability_threshold(rng)) for _ in drawn]).reshape(-1, 2)
    prob = true_inlier_probability(curr[drawn], draws[:, 0])
    take = stable.copy()
    take[drawn] = (1.0 - prob if evict else prob) > draws[:, 1]
    probability = np.full(len(ids), None if evict else 1.0, dtype=object)
    threshold = np.full(len(ids), None, dtype=object)
    probability[drawn], threshold[drawn] = prob.tolist(), draws[:, 1].tolist()
    decisions = list(map(UpdateDecision, ids.tolist(), np.where(take, chosen, not_chosen).tolist(),
                         np.where(stable, stable_rule, drawn_rule).tolist(), probability.tolist(),
                         threshold.tolist()))
    return decisions, ids[take]


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
    usable = np.flatnonzero(usable_ratios(ratio))
    rows = usable[ratio_range.contains(ratio[usable])]
    # Each pair is (admitted row, member row), the order of the difference x_a - x_m.
    return LineVectorSet(corrs, admitted_rows[a_pos[rows]].astype(np.int32),
                         current_rows[m_pos[rows]].astype(np.int32), ratio[rows])


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
    evict_decisions, removed = _decide(corrs, np.setdiff1d(members, ir_glo), True,
                                       residual_threshold, rng, sigma)
    admit_decisions, admitted = _decide(corrs, np.setdiff1d(ir_glo, members), False,
                                        residual_threshold, rng, sigma)
    retained = np.setdiff1d(members, removed)
    current = np.union1d(retained, admitted)

    current_rows = corrs.rows_for(current)
    block = _admission_block(corrs, admitted, retained, current, current_rows, ratio_range)

    new_lvs = lvs.take(~lvs.incident(removed)).extend(block)
    return corrs.subset(current_rows), new_lvs, evict_decisions + admit_decisions

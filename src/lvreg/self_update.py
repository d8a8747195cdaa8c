"""Probabilistic revision of the local correspondence and line-vector sets.

After each interaction round the local set is revised against the current
global inlier set: correspondences that became global inliers are admitted
and local members that stopped being global inliers are evicted. A
correspondence that is on the same side of the residual threshold in two
consecutive rounds is handled deterministically; one that just crossed the
threshold is admitted/evicted probabilistically, comparing its true-inlier
probability (a chi-distribution survival in 3 dimensions) against a
uniformly drawn percent threshold.

This module holds the decisions only: which correspondences are evicted,
admitted and retained, as rows of the full set. `LineVectorSet.revised`
applies them to the line vectors in one pass per round: it drops the
vectors incident to any evicted member and pairs each admitted
correspondence with the retained members and the admitted ones with
smaller ids, keeping the pairs whose scale ratio falls in the retained
ratio band. How a pair is measured and stored is `local_sets`'s alone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .correspondences import CorrespondenceSet
from .errors import MissingResidual
from .local_sets import LineVectorSet, RatioRange

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
    from scipy.special import gammaincc  # here, so a run with no self-update loads no SciPy
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


def _decide(corrs: CorrespondenceSet, rows: np.ndarray, evict: bool, residual_threshold: float,
            rng: np.random.Generator, sigma: float | None):
    """Decide every candidate row of one side; returns (decisions, the rows given the chosen action).

    A row whose previous residual was on the same side of the threshold
    (admission: below it; eviction: at or above it) is stable and takes the
    chosen action with no draw; a NaN previous residual is on neither side.
    Every other row, in row (so id) order, draws sigma (unless it is fixed)
    and then a percent threshold, and takes the chosen action iff its
    true-inlier probability (admission) or true-outlier probability
    (eviction) exceeds that threshold. The decisions name the rows' ids. A
    NaN current residual raises MissingResidual before any draw.
    """
    stable_rule, drawn_rule, chosen, not_chosen = _SIDES[evict]
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
    probability = np.full(len(rows), None if evict else 1.0, dtype=object)
    threshold = np.full(len(rows), None, dtype=object)
    probability[drawn], threshold[drawn] = prob.tolist(), draws[:, 1].tolist()
    decisions = list(map(UpdateDecision, corrs.indices[rows].tolist(),
                         np.where(take, chosen, not_chosen).tolist(),
                         np.where(stable, stable_rule, drawn_rule).tolist(), probability.tolist(),
                         threshold.tolist()))
    return decisions, rows[take]


def update_local_sets(corrs: CorrespondenceSet, local_set: CorrespondenceSet,
                      lvs: LineVectorSet, ir_glo, residual_threshold: float,
                      ratio_range: RatioRange, rng: np.random.Generator,
                      sigma_mode: str = "per-eval"):
    """One self-update round over the local correspondence and line-vector sets.

    Eviction decisions run first (ascending id), then admissions
    (ascending id), so newcomers pair against the already-pruned set.
    Every examined candidate yields an UpdateDecision for the audit trail.
    The decisions are taken over rows of `corrs`, which are in id order,
    and `LineVectorSet.revised` applies them: the returned set is over
    `corrs`, so the run's sets share one endpoint table from the first
    round on, and its new line vectors follow in (admitted id, member id)
    order, the order in which admitting one id at a time would produce
    them.

    Returns (new_local_set, new_line_vectors, decisions).
    """
    if sigma_mode not in SIGMA_MODES:
        raise ValueError(f"sigma_mode must be one of {SIGMA_MODES}")
    sigma = None
    if sigma_mode == "per-round":
        sigma = draw_sigma(rng, residual_threshold)
    elif sigma_mode == "fixed-half-tr":
        sigma = residual_threshold / 2.0

    ir_glo = corrs.rows_for(np.asarray(ir_glo, dtype=np.int64).ravel())
    members = corrs.rows_for(local_set.indices)
    evict_decisions, removed = _decide(corrs, np.setdiff1d(members, ir_glo), True,
                                       residual_threshold, rng, sigma)
    admit_decisions, admitted = _decide(corrs, np.setdiff1d(ir_glo, members), False,
                                        residual_threshold, rng, sigma)
    retained = np.setdiff1d(members, removed)
    new_lvs = lvs.revised(corrs, removed, retained, admitted, ratio_range)
    return (corrs.subset(np.union1d(retained, admitted)), new_lvs,
            evict_decisions + admit_decisions)

"""The per-candidate self-update classifiers, kept as the oracle for `lvreg.self_update`.

`classify_inclusion` and `classify_removal` are the two functions the
self-update called once per candidate before its decisions became array
code: one for a global inlier outside the local set, one for a local member
that is no longer a global inlier. They make the same scalar draws, in the
same order, as `lvreg.self_update._decide` makes for one row.
"""

import math

import numpy as np

from lvreg.errors import MissingResidual
from lvreg.self_update import (
    UpdateAction,
    UpdateDecision,
    UpdateRule,
    draw_probability_threshold,
    draw_sigma,
    true_inlier_probability,
)


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

"""Dual global/local RANSAC interaction loop.

One registration run alternates between a local RANSAC that generates
hypotheses from the filtered line-vector set and a global scorer that
evaluates them against the full correspondence set. The loop stops on
global confidence or after a fixed number of interaction rounds; between
rounds the local sets are revised probabilistically and per-correspondence
weights accumulate over the global inlier sets. The final transform is a
weighted least-squares alignment of the full set under those weights.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .correspondences import CorrespondenceSet
from .errors import (
    DegenerateDistribution,
    DegenerateInput,
    EmptyResult,
    TooFewCorrespondences,
)
from .geometry import RigidTransform, residuals, rotation_geodesic_angle, weighted_kabsch
from .local_sets import (
    Histogram,
    LineVectorSet,
    RatioRange,
    angle_histogram_filter,
    build_angle_histogram,
    build_line_vectors,
    check_pair_budget,
    length_ratio_filter,
)
from .normals import PointCloud, annotate_normals
from .self_update import SIGMA_MODES, update_local_sets
from .solver import estimate_local_transform, squared_noise_bound

log = logging.getLogger(__name__)

# Radians: a local candidate within this rotation (and `noise_bound` in
# translation) of the received global transform ends the local round.
ROTATION_AGREEMENT_TOL = 0.01


@dataclass(frozen=True)
class RansacConfig:
    """Knobs of the registration engine (defaults follow the metric indoor setting)."""

    residual_threshold: float = 0.01
    confidence_target: float = 0.995
    r_max: int = 5
    alpha_pct: float = 10.0        # % of the line-vector set sampled once per round
    beta_pct: float = 30.0         # % of the round sample drawn per hypothesis
    noise_bound: float = 0.05      # scene units, translation agreement + TLS bound
    rng_seed: int = 0
    max_local_iterations: int = 10000  # safety cap on hypothesis attempts per round
    k_normals: int = 20
    use_ahs_lvlp: bool = True      # angle-histogram + length-ratio construction of the local sets
    use_sus: bool = True           # probabilistic self-update between rounds
    sigma_mode: str = "per-eval"

    def __post_init__(self):
        if not (0.0 < self.confidence_target < 1.0):
            raise ValueError("confidence_target must lie in (0, 1)")
        if not (0.0 < self.alpha_pct <= 100.0 and 0.0 < self.beta_pct <= 100.0):
            raise ValueError("sampling percentages must lie in (0, 100]")
        for name in ("r_max", "max_local_iterations", "k_normals", "rng_seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        for name in ("residual_threshold", "r_max", "max_local_iterations", "k_normals"):
            if not 0 < getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive")
        squared_noise_bound(self.noise_bound)  # positive, with a normal square
        if self.sigma_mode not in SIGMA_MODES:
            raise ValueError(f"sigma_mode must be one of {SIGMA_MODES}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


def settings(cls, source, **fixed):
    """Build the dataclass `cls` from the attributes of `source` named after its fields.

    None values are skipped, so those fields keep their defaults; `fixed`
    is applied last and may override a value taken from `source`.
    """
    given = {f.name: getattr(source, f.name, None) for f in fields(cls)}
    return cls(**{name: v for name, v in given.items() if v is not None} | fixed)


@dataclass(frozen=True)
class LocalRoundResult:
    transform: RigidTransform
    hypotheses: int          # hypotheses evaluated this round
    degenerate_samples: int  # basic samples redrawn because the solver rejected them
    branch: str              # early-termination | confidence | iteration-cap
    n_local_inliers: int


@dataclass(frozen=True)
class RoundTrace:
    round: int
    t_glo: int
    t_lcl: int               # hypotheses, plus the entry t_glo on an early-termination round
    hypotheses: int          # hypotheses evaluated in the round
    degenerate_samples: int  # basic samples the solver rejected as degenerate
    branch: str
    n_global_inliers: int
    global_confidence: float
    local_set_size: int
    line_vector_count: int
    weights_updated: bool


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    rounds: int
    total_iterations: int
    final_confidence: float
    inlier_indices: np.ndarray
    per_round_trace: list
    exit_reason: str          # confidence | max-rounds
    accumulated_weights: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    angle_histogram: Histogram | None = None
    scale_ratio_histogram: Histogram | None = None
    sus_decisions: list = field(default_factory=list)  # one list per round another round followed
    # local_sets_rung: "filtered" | "full-set", the rung that built the local sets;
    # zero_length_skipped: pairs dropped for a zero length or an overflowed ratio
    # by that build and by full-set rebuilds; full_set_rebuilds: how often the
    # self-update left fewer than 2 line vectors, rebuilt from the full set
    counters: dict = field(default_factory=dict)


def confidence_level(inlier_rate: float, iterations: int) -> float:
    """Standard RANSAC stopping statistic 1 - (1 - rate)^iterations."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    return 1.0 - (1.0 - inlier_rate) ** iterations


def residual_inliers(t: RigidTransform, corrs: CorrespondenceSet, threshold: float) -> np.ndarray:
    """Row positions whose residual under t is strictly below the threshold."""
    return np.nonzero(residuals(t, corrs.source, corrs.target) < threshold)[0]


def transforms_converged(a: RigidTransform, b: RigidTransform,
                         rotation_tol: float, translation_tol: float) -> bool:
    """True when two transforms agree within the rotation/translation bounds."""
    if rotation_geodesic_angle(a.rotation, b.rotation) > rotation_tol:
        return False
    return float(np.linalg.norm(a.translation - b.translation)) <= translation_tol


def _sample_size(pct: float, total: int) -> int:
    return min(total, max(2, int(round(pct / 100.0 * total))))


def run_local_ransac(l_sul: LineVectorSet, c_sul: CorrespondenceSet,
                     received_glo: RigidTransform, cfg: RansacConfig,
                     rng: np.random.Generator) -> LocalRoundResult:
    """One local-RANSAC round over the filtered line-vector set.

    Draws the round sample once, then repeatedly draws a basic subset,
    estimates a candidate transform (seeded by the received global
    rotation), and keeps the candidate with the most local inliers. The
    round ends when the best candidate agrees with the received global
    transform, when the local confidence target is met, or at the
    safety cap. A basic subset the solver rejects as degenerate (e.g.
    parallel source directions) is redrawn: it counts towards the cap but
    not as a hypothesis.

    Each basic subset marks its endpoints' rows of the sample's endpoint
    table (`p` and `q`) in a reused mask, so the solver's translation step
    sees the sorted, unique endpoint rows. The table is `c_sul` or, once
    the self-update has revised the set, the full set; both hold their
    rows in id order with the same points for each id, so the sorted rows
    give `c_sul`'s endpoint points in id order either way. The round
    sample's two vector arrays are computed once, and each basic subset
    takes its rows from them with `np.take`.
    """
    if len(l_sul) < 2:
        raise DegenerateInput("need at least 2 line vectors for local hypotheses")
    if len(c_sul) == 0:
        raise DegenerateInput("local correspondence set is empty")

    sub_rows = rng.choice(len(l_sul), _sample_size(cfg.alpha_pct, len(l_sul)), replace=False)
    l_sub = l_sul.take(sub_rows)
    v_source, v_target = l_sub.v_source, l_sub.v_target
    basic_size = _sample_size(cfg.beta_pct, len(l_sub))
    is_endpoint = np.zeros(len(l_sub.table), dtype=bool)

    best: RigidTransform | None = None
    best_count = -1
    hypotheses = 0
    attempts = 0

    def result(branch: str) -> LocalRoundResult:
        return LocalRoundResult(best, hypotheses, attempts - hypotheses, branch, best_count)

    while True:
        attempts += 1
        rows = rng.choice(len(l_sub), basic_size, replace=False)
        is_endpoint[l_sub.p[rows]] = True
        is_endpoint[l_sub.q[rows]] = True
        endpoint_rows = np.flatnonzero(is_endpoint)
        is_endpoint[endpoint_rows] = False
        try:
            candidate = estimate_local_transform(
                np.take(v_source, rows, axis=0), np.take(v_target, rows, axis=0),
                l_sub.table.source[endpoint_rows], l_sub.table.target[endpoint_rows],
                cfg.noise_bound, initial_rotation=received_glo.rotation)
        except DegenerateInput:
            pass  # redrawn; it counts towards the cap only
        else:
            hypotheses += 1
            count = len(residual_inliers(candidate, c_sul, cfg.residual_threshold))
            if count > best_count:
                best, best_count = candidate, count
            if transforms_converged(received_glo, best, ROTATION_AGREEMENT_TOL, cfg.noise_bound):
                return result("early-termination")
            if confidence_level(best_count / len(c_sul), hypotheses) >= cfg.confidence_target:
                return result("confidence")
        if attempts >= cfg.max_local_iterations:
            if best is None:
                raise DegenerateInput(
                    "no well-posed basic line-vector sample found within the iteration cap")
            return result("iteration-cap")


def _full_local_sets(corrs: CorrespondenceSet, counters: dict):
    """The "full-set" rung: the full set with all its usable pairs.

    Adds the pairs it dropped for zero length to `counters`.
    """
    pairs = build_line_vectors(corrs)
    if len(pairs) < 2:
        raise DegenerateInput("fewer than 2 usable line vectors in the full correspondence set")
    counters["zero_length_skipped"] += pairs.n_zero_skipped
    return corrs, pairs, RatioRange.everything()


def _initial_local_sets(corrs: CorrespondenceSet, cfg: RansacConfig, counters: dict):
    """The initial local sets, from one of two rungs.

    "filtered" when the angle-filtered set has 2 or more usable pairs,
    else "full-set" (the full set and all its usable pairs). An angle
    filter that keeps nothing (or cannot discriminate) keeps the full
    set. The length-ratio filter keeps 2 or more of any 2 or more
    pairs: n ratios with population std sigma > 0 span at most
    sigma * sqrt(2n), so Scott's width 3.49 sigma / cbrt(n) makes fewer
    than n bins, the fullest holding 2 or more; zero spread, an overflowed
    sigma and the `MAX_BINS` path keep every pair. The rung and the
    zero-length pairs its build dropped go into `counters`.
    """
    if not cfg.use_ahs_lvlp:
        return (*_full_local_sets(corrs, counters), None, None)
    angle_hist = None
    local = corrs
    try:
        angle_hist = build_angle_histogram(corrs)
        local = angle_histogram_filter(corrs, angle_hist)
    except (EmptyResult, DegenerateDistribution) as exc:
        log.debug("angle filter fell back to the full set: %s", exc)
    if len(local) >= 2:
        pairs = build_line_vectors(local)
        if len(pairs) >= 2:
            l_sul, ratio_range, sr_hist = length_ratio_filter(pairs)
            counters.update(local_sets_rung="filtered", zero_length_skipped=pairs.n_zero_skipped)
            return local, l_sul, ratio_range, angle_hist, sr_hist
    return (*_full_local_sets(corrs, counters), angle_hist, None)


def run_registration(corrs: CorrespondenceSet, source: PointCloud, target: PointCloud,
                     cfg: RansacConfig) -> RegistrationResult:
    """Full registration pipeline; deterministic for a fixed rng_seed.

    Normal annotation, local-set construction, the round loop with
    confidence/round-cap termination, per-round weight accumulation, the
    self-update before every round but the first, and the final weighted
    alignment of the full set. With the self-update on, a full set over
    the pair budget raises PairBudgetExceeded before any round runs.
    """
    n = len(corrs)
    if n < 3:
        raise TooFewCorrespondences("registration needs at least 3 correspondences")
    if cfg.use_sus:
        # A self-update that empties the local sets rebuilds them from the
        # full set; refuse a full set over the pair budget now, not mid-run.
        check_pair_budget(n)
    rng = np.random.default_rng(cfg.rng_seed)

    # Work on a private copy whose item ids equal row positions; the
    # caller's set is never mutated and outputs index into the input order.
    corrs = CorrespondenceSet(corrs.source, corrs.target)
    if cfg.use_ahs_lvlp:
        corrs = annotate_normals(corrs, source, target, cfg.k_normals)
    counters = {"local_sets_rung": "full-set", "zero_length_skipped": 0, "full_set_rebuilds": 0}
    local_set, l_sul, ratio_range, angle_hist, sr_hist = _initial_local_sets(corrs, cfg, counters)

    best_global = RigidTransform.identity()
    best_count = len(residual_inliers(best_global, corrs, cfg.residual_threshold))
    t_glo = 0
    weights = np.zeros(n, dtype=np.int64)
    trace: list[RoundTrace] = []
    sus_decisions: list = []
    exit_reason = "max-rounds"

    for round_index in range(1, cfg.r_max + 1):
        local_res = run_local_ransac(l_sul, local_set, best_global, cfg, rng)
        cand_count = len(residual_inliers(local_res.transform, corrs, cfg.residual_threshold))
        if cand_count > best_count:
            best_global, best_count = local_res.transform, cand_count
        # A round that agreed with the global best it received inherits the
        # global count so far, crediting the rounds that led to that best.
        t_lcl = local_res.hypotheses + (t_glo if local_res.branch == "early-termination" else 0)
        t_glo += t_lcl

        corrs.prev_residuals = corrs.curr_residuals
        corrs.curr_residuals = residuals(best_global, corrs.source, corrs.target)
        ir_glo = np.nonzero(corrs.curr_residuals < cfg.residual_threshold)[0]
        cl_glo = confidence_level(len(ir_glo) / n, t_glo)

        terminated = cl_glo >= cfg.confidence_target
        if not terminated:
            weights[ir_glo] += 1
        trace.append(RoundTrace(
            round=round_index, t_glo=t_glo, t_lcl=t_lcl,
            hypotheses=local_res.hypotheses, degenerate_samples=local_res.degenerate_samples,
            branch=local_res.branch, n_global_inliers=len(ir_glo), global_confidence=cl_glo,
            local_set_size=len(local_set), line_vector_count=len(l_sul),
            weights_updated=not terminated,
        ))
        if terminated:
            exit_reason = "confidence"
            break
        if cfg.use_sus and round_index < cfg.r_max:
            local_set, l_sul, decisions = update_local_sets(
                corrs, local_set, l_sul, ir_glo, cfg.residual_threshold,
                ratio_range, rng, sigma_mode=cfg.sigma_mode)
            sus_decisions.append(decisions)
            if len(l_sul) < 2:
                # The update left too few line vectors; rebuild from the full
                # set, whose pair count was checked against the budget on entry
                # and whose pairs are a superset of the initial local ones.
                counters["full_set_rebuilds"] += 1
                local_set, l_sul, ratio_range = _full_local_sets(corrs, counters)

    final_weights = weights
    if final_weights.sum() == 0:
        # No round updated the weights: weight the last round's global inliers.
        final_weights = np.zeros(n, dtype=np.int64)
        final_weights[ir_glo] = 1
    try:
        final = weighted_kabsch(corrs.source, corrs.target, final_weights)
    except DegenerateInput:
        log.debug("weighted alignment degenerate; returning the best sampled transform")
        final = best_global

    return RegistrationResult(
        transform=final,
        rounds=len(trace),
        total_iterations=t_glo,
        final_confidence=cl_glo,
        inlier_indices=residual_inliers(final, corrs, cfg.residual_threshold),
        per_round_trace=trace,
        exit_reason=exit_reason,
        accumulated_weights=weights,
        angle_histogram=angle_hist,
        scale_ratio_histogram=sr_hist,
        sus_decisions=sus_decisions,
        counters=counters,
    )

"""Registration quality metrics against a ground-truth transform."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCloud
from .geometry import RigidTransform, rotation_geodesic_angle
from .normals import PointCloud


@dataclass(frozen=True)
class MetricsReport:
    rotation_error_deg: float
    translation_error: float
    rmse: float
    mese: float
    precision: float
    recall: float
    f1: float
    runtime_seconds: float = math.nan


def rotation_error(r_gt: np.ndarray, r_est: np.ndarray) -> float:
    """Geodesic rotation error in degrees."""
    return math.degrees(rotation_geodesic_angle(r_gt, r_est))


def translation_error(t_gt, t_est) -> float:
    """Euclidean norm of the translation difference."""
    return float(np.linalg.norm(np.asarray(t_gt, dtype=np.float64) - np.asarray(t_est, dtype=np.float64)))


def _pointwise_errors(source: PointCloud, gt: RigidTransform, est: RigidTransform) -> np.ndarray:
    if len(source) == 0:
        raise EmptyCloud("metrics need a non-empty source cloud")
    return np.linalg.norm(gt.apply(source.points) - est.apply(source.points), axis=1)


def rmse(source: PointCloud, gt: RigidTransform, est: RigidTransform) -> float:
    """Root mean square distance between the two transformed copies of the source."""
    e = _pointwise_errors(source, gt, est)
    return float(np.sqrt(np.mean(e * e)))


def mese(source: PointCloud, gt: RigidTransform, est: RigidTransform) -> float:
    """Median of the per-point distances (middle two averaged for even counts)."""
    return float(np.median(_pointwise_errors(source, gt, est)))


def precision_recall_f1(predicted_inliers, true_inliers) -> tuple[float, float, float]:
    """Confusion-matrix precision/recall/F1 over correspondence index sets.

    Degenerate denominators yield 0 so benchmark aggregation stays total.
    """
    pred = set(int(i) for i in predicted_inliers)
    true = set(int(i) for i in true_inliers)
    tp = len(pred & true)
    fp = len(pred - true)
    fn = len(true - pred)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def evaluate(source: PointCloud, gt: RigidTransform, est: RigidTransform,
             predicted_inliers, true_inliers, runtime_seconds: float = math.nan) -> MetricsReport:
    """Assemble the full report for one registration run."""
    p, r, f1 = precision_recall_f1(predicted_inliers, true_inliers)
    return MetricsReport(
        rotation_error_deg=rotation_error(gt.rotation, est.rotation),
        translation_error=translation_error(gt.translation, est.translation),
        rmse=rmse(source, gt, est),
        mese=mese(source, gt, est),
        precision=p, recall=r, f1=f1,
        runtime_seconds=runtime_seconds,
    )

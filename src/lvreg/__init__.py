"""Rigid point-cloud registration from outlier-heavy correspondence sets.

A dual global/local RANSAC: hypotheses come from a filtered, self-updating
line-vector set; scoring, termination, and the final weighted alignment run
against the full correspondence set.
"""

from .correspondences import CorrespondenceSet
from .engine import (
    RansacConfig,
    RegistrationResult,
    confidence_level,
    residual_inliers,
    run_local_ransac,
    run_registration,
    transforms_converged,
)
from .geometry import RigidTransform, rotation_geodesic_angle, weighted_kabsch
from .local_sets import (
    Histogram,
    LineVectorSet,
    RatioRange,
    angle_histogram_filter,
    build_angle_histogram,
    build_line_vectors,
    length_ratio_filter,
    normal_angles,
    scotts_bin_width,
)
from .metrics import MetricsReport, evaluate, mese, precision_recall_f1, rmse, rotation_error, translation_error
from .normals import PointCloud, SpatialIndex, annotate_normals, build_index, knn
from .self_update import (
    UpdateAction,
    UpdateDecision,
    UpdateRule,
    draw_probability_threshold,
    true_inlier_probability,
    update_local_sets,
)
from .solver import estimate_local_transform, estimate_rotation_gnc, estimate_translation
from .synthetic import SyntheticSpec, synthesize_pair

__version__ = "0.1.0"

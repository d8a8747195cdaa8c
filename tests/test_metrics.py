import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvreg.errors import EmptyCloud
from lvreg.geometry import RigidTransform, rotation_about_axis
from lvreg.metrics import mese, precision_recall_f1, rmse, rotation_error, translation_error
from lvreg.normals import PointCloud

from conftest import compose, random_rotation, random_transform


class TestRotationError:
    def test_zero_for_equal(self, rng):
        r = random_rotation(rng)
        assert rotation_error(r, r) == pytest.approx(0.0, abs=1e-6)

    def test_one_degree_about_z(self):
        r = rotation_about_axis((0, 0, 1), np.radians(1.0))
        assert rotation_error(np.eye(3), r) == pytest.approx(1.0, abs=1e-9)

    def test_antipodal(self):
        r = rotation_about_axis((1, 0, 0), np.pi)
        assert rotation_error(np.eye(3), r) == pytest.approx(180.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        r1, r2 = random_rotation(rng), random_rotation(rng)
        assert rotation_error(r1, r2) == pytest.approx(rotation_error(r2, r1), abs=1e-9)


class TestTranslationError:
    def test_equal(self):
        assert translation_error((1, 2, 3), (1, 2, 3)) == 0.0

    def test_axis_offset(self):
        assert translation_error((0, 0, 0), (0, 0, 0.05)) == pytest.approx(0.05)

    def test_three_four_five(self):
        assert translation_error((1, 2, 3), (4, 6, 3)) == pytest.approx(5.0)


class TestRmseMese:
    def test_equal_transforms_zero(self, rng):
        cloud = PointCloud(rng.normal(size=(50, 3)))
        t = random_transform(rng)
        assert rmse(cloud, t, t) == 0.0
        assert mese(cloud, t, t) == 0.0

    def test_uniform_offset_gives_exact_value(self, rng):
        cloud = PointCloud(rng.normal(size=(64, 3)))
        gt = random_transform(rng)
        d = 0.37
        est = RigidTransform(gt.rotation, gt.translation + np.array([0.0, 0.0, d]))
        assert rmse(cloud, gt, est) == pytest.approx(d, abs=1e-12)
        assert mese(cloud, gt, est) == pytest.approx(d, abs=1e-12)

    def test_rmse_matches_per_point_loop(self, rng):
        cloud = PointCloud(rng.normal(size=(100, 3)))
        gt, est = random_transform(rng), random_transform(rng)
        total = 0.0
        for p in cloud.points:
            total += np.linalg.norm(gt.apply(p) - est.apply(p)) ** 2
        assert rmse(cloud, gt, est) == pytest.approx(np.sqrt(total / 100), abs=1e-12)

    def test_mese_median_robustness(self):
        # per-point errors {1, 2, 100} by construction: cloud on the x-axis,
        # estimate rotated so the error grows with |x|
        cloud = PointCloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        gt = RigidTransform.identity()
        est = RigidTransform(np.eye(3), (0, 1.0, 0))
        errors = np.linalg.norm(gt.apply(cloud.points) - est.apply(cloud.points), axis=1)
        assert mese(cloud, gt, est) == pytest.approx(np.median(errors))

    def test_mese_even_count_average(self):
        cloud = PointCloud([[1, 0, 0], [2, 0, 0], [3, 0, 0], [4, 0, 0]])
        gt = RigidTransform.identity()
        # rotate about z by 90 degrees: per-point error = sqrt(2) * |x|
        est = RigidTransform(rotation_about_axis((0, 0, 1), np.pi / 2))
        expected = np.sqrt(2.0) * (2 + 3) / 2
        assert mese(cloud, gt, est) == pytest.approx(expected, abs=1e-12)

    def test_left_composition_invariance(self, rng):
        cloud = PointCloud(rng.normal(size=(40, 3)))
        gt, est = random_transform(rng), random_transform(rng)
        q = random_transform(rng)
        assert rmse(cloud, compose(q, gt), compose(q, est)) == pytest.approx(
            rmse(cloud, gt, est), abs=1e-9)
        assert mese(cloud, compose(q, gt), compose(q, est)) == pytest.approx(
            mese(cloud, gt, est), abs=1e-9)

    def test_empty_cloud_rejected(self, rng):
        t = random_transform(rng)
        with pytest.raises(EmptyCloud):
            rmse(PointCloud(np.empty((0, 3))), t, t)


class TestPrecisionRecallF1:
    def test_perfect_prediction(self):
        p, r, f1 = precision_recall_f1([1, 2, 3], [1, 2, 3])
        assert (p, r, f1) == (1.0, 1.0, 1.0)

    def test_worked_confusion_example(self):
        # TP = 9, FP = 1, FN = 3
        truth = set(range(12))
        predicted = set(range(9)) | {99}
        p, r, f1 = precision_recall_f1(predicted, truth)
        assert p == pytest.approx(0.9)
        assert r == pytest.approx(0.75)
        assert f1 == pytest.approx(2 * 0.9 * 0.75 / 1.65)

    def test_empty_prediction_degenerate(self):
        assert precision_recall_f1([], [1, 2]) == (0.0, 0.0, 0.0)

    def test_empty_both(self):
        assert precision_recall_f1([], []) == (0.0, 0.0, 0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed)
        universe = rng.integers(0, 40, size=rng.integers(0, 60))
        predicted = set(universe[rng.random(len(universe)) < 0.5].tolist())
        truth = set(universe[rng.random(len(universe)) < 0.5].tolist())
        p, r, f1 = precision_recall_f1(sorted(predicted), sorted(truth))
        tp = sum(1 for i in predicted if i in truth)
        fp = sum(1 for i in predicted if i not in truth)
        fn = sum(1 for i in truth if i not in predicted)
        assert p == (tp / (tp + fp) if tp + fp else 0.0)
        assert r == (tp / (tp + fn) if tp + fn else 0.0)
        expected_f1 = 2 * p * r / (p + r) if p + r else 0.0
        assert f1 == pytest.approx(expected_f1)

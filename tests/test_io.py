import json

import numpy as np
import pytest

from lvreg.engine import RansacConfig, run_registration
from lvreg.errors import IndexOutOfRange, ParseError, UnsupportedFormat
from lvreg.io import (
    emit_result,
    load_correspondences,
    load_point_cloud,
    load_transform,
    load_xyz,
    result_to_dict,
    transform_from_dict,
    transform_to_dict,
    write_rows,
    write_sus_csv,
    write_transform,
)
from lvreg.metrics import MetricsReport
from lvreg.normals import PointCloud
from lvreg.self_update import UpdateAction, UpdateDecision, UpdateRule
from lvreg.synthetic import SyntheticSpec, synthesize_pair

from conftest import random_transform


class TestXyz:
    def test_three_line_file(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0\n1 0 0\n0 1 0\n")
        cloud = load_point_cloud(path)
        assert len(cloud) == 3
        assert np.array_equal(cloud.points[1], [1, 0, 0])

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("# header\n\n1 2 3   # trailing comment\n")
        assert len(load_point_cloud(path)) == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0\n1 2\n")
        with pytest.raises(ParseError, match="line 2"):
            load_point_cloud(path)

    def test_non_finite_value_reports_number(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("0 0 0\n1 inf 0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_point_cloud(path)

    def test_round_trip_bit_exact(self, tmp_path, rng):
        cloud = PointCloud(rng.normal(size=(20, 3)) * 1e3)
        path = tmp_path / "cloud.xyz"
        write_rows(cloud.points, path)
        again = load_xyz(path)
        assert np.array_equal(cloud.points, again.points)


PLY_MINIMAL = """ply
format ascii 1.0
element vertex 2
property float x
property float y
property float z
end_header
0 0 0
1.5 2.5 3.5
"""

PLY_EXTRA_PROPS = """ply
format ascii 1.0
comment made by hand
element vertex 2
property float nx
property float x
property float y
property float z
property uchar red
end_header
9 0 0 0 255
9 1 2 3 255
"""


class TestPly:
    def test_minimal(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(PLY_MINIMAL)
        cloud = load_point_cloud(path)
        assert len(cloud) == 2
        assert np.array_equal(cloud.points[1], [1.5, 2.5, 3.5])

    def test_extra_properties_skipped(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(PLY_EXTRA_PROPS)
        cloud = load_point_cloud(path)
        assert np.array_equal(cloud.points, [[0, 0, 0], [1, 2, 3]])

    def test_binary_rejected(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(UnsupportedFormat):
            load_point_cloud(path)

    def test_missing_magic(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text("not a ply\n")
        with pytest.raises(ParseError):
            load_point_cloud(path)

    def test_non_finite_vertex_reports_number(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text(PLY_MINIMAL.replace("1.5 2.5 3.5", "1.5 nan 3.5"))
        with pytest.raises(ParseError, match="line 9"):
            load_point_cloud(path)

    def test_truncated_vertices(self, tmp_path):
        path = tmp_path / "cloud.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                        "property float x\nproperty float y\nproperty float z\n"
                        "end_header\n0 0 0\n")
        with pytest.raises(ParseError):
            load_point_cloud(path)

    @pytest.mark.parametrize("count", ["-1", "1000000000000"])
    def test_vertex_count_outside_the_body_names_its_line(self, tmp_path, count):
        # checked before any allocation: 10^12 vertices would ask for 21.8 TiB
        path = tmp_path / "cloud.ply"
        path.write_text(PLY_MINIMAL.replace("element vertex 2", f"element vertex {count}"))
        with pytest.raises(ParseError, match="line 3: vertex count"):
            load_point_cloud(path)


class TestCorrespondences:
    def _clouds(self):
        src = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        tgt = PointCloud([[5, 0, 0], [6, 0, 0], [5, 1, 0]])
        return src, tgt

    def test_index_mode(self, tmp_path):
        src, tgt = self._clouds()
        path = tmp_path / "corr.txt"
        path.write_text("0 0\n1 1\n")
        corrs = load_correspondences(path, src, tgt)
        assert len(corrs) == 2
        assert np.array_equal(corrs.target[1], [6, 0, 0])

    def test_coordinate_mode(self, tmp_path):
        src, tgt = self._clouds()
        path = tmp_path / "corr.txt"
        path.write_text("0 0 0 5 0 0\n1 0 0 6 0 0\n")
        corrs = load_correspondences(path, src, tgt)
        assert np.array_equal(corrs.source[1], [1, 0, 0])

    def test_index_out_of_range(self, tmp_path):
        src, tgt = self._clouds()
        path = tmp_path / "corr.txt"
        path.write_text("0 0\n9999 1\n")
        with pytest.raises(IndexOutOfRange):
            load_correspondences(path, src, tgt)

    def test_non_finite_coordinate_reports_number(self, tmp_path):
        src, tgt = self._clouds()
        path = tmp_path / "corr.txt"
        path.write_text("0 0 0 5 0 0\n1 0 nan 6 0 0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_correspondences(path, src, tgt)

    def test_bad_token_count(self, tmp_path):
        src, tgt = self._clouds()
        path = tmp_path / "corr.txt"
        path.write_text("0 0 0 1\n")
        with pytest.raises(ParseError):
            load_correspondences(path, src, tgt)


class TestTransformJson:
    def test_round_trip(self, tmp_path, rng):
        t = random_transform(rng)
        path = tmp_path / "gt.json"
        write_transform(t, path)
        again = load_transform(path)
        assert np.array_equal(t.rotation, again.rotation)
        assert np.array_equal(t.translation, again.translation)

    def test_row_major_layout(self, rng):
        t = random_transform(rng)
        d = transform_to_dict(t)
        assert d["rotation"][1] == t.rotation[0, 1]
        assert transform_from_dict(d).rotation[0, 1] == t.rotation[0, 1]

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"rotation": [1, 0, 0], "translation": [0, 0, 0]},
        {"rotation": [2, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]},
        {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [float("nan"), 0, 0]},
        {"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1]},
    ], ids=["list", "three-numbers", "not-orthonormal", "nan-translation", "no-translation"])
    def test_bad_transform_raises_parse_error(self, payload):
        with pytest.raises(ParseError, match="bad transform"):
            transform_from_dict(payload)


PLY_HEADER = (b"ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
              b"property float y\nproperty float z\nend_header\n")


class TestNonUtf8Text:
    """A byte that is not UTF-8 is a ParseError naming its line, in every text file."""

    CLOUD = PointCloud(np.zeros((3, 3)))

    @pytest.mark.parametrize("name, data, line, load", [
        ("a.xyz", b"0 0 0\n1 \xff 2\n", 2, load_point_cloud),
        ("a.ply", PLY_HEADER + b"0 0 0\n0 0 \xe9\n", 9, load_point_cloud),
        ("a.ply", b"ply\nformat \xc3\x28 1.0\n", 2, load_point_cloud),
        ("corr.txt", b"0 1\r\n1 2\r\n\xfe 0\n", 3, lambda path: load_correspondences(
            path, TestNonUtf8Text.CLOUD, TestNonUtf8Text.CLOUD)),
        ("gt.json", b'{"rotation": "\x80"}', 1, load_transform),
    ], ids=["xyz", "ply-body", "ply-header", "corr", "transform"])
    def test_parse_error_with_line(self, tmp_path, name, data, line, load):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ParseError, match="not UTF-8") as info:
            load(path)
        assert info.value.line_number == line

    def test_utf8_comments_still_load(self, tmp_path):
        path = tmp_path / "a.xyz"
        path.write_bytes("# größe\r\n1 2 3\n".encode())
        assert load_xyz(path).points.tolist() == [[1.0, 2.0, 3.0]]


class TestEmitResult:
    def _result(self):
        spec = SyntheticSpec(n_points=200, n_correspondences=80, outlier_rate=0.4,
                             noise_sigma=0.003, seed=5)
        source, target, corrs, gt, _ = synthesize_pair(spec)
        cfg = RansacConfig(rng_seed=5, max_local_iterations=80)
        return run_registration(corrs, source, target, cfg)

    def test_identity_layout(self):
        from lvreg.geometry import RigidTransform
        d = transform_to_dict(RigidTransform.identity())
        assert d["rotation"] == [1, 0, 0, 0, 1, 0, 0, 0, 1]
        assert d["translation"] == [0, 0, 0]

    def test_round_trip_and_key_presence(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        report = MetricsReport(0.5, 0.01, 0.02, 0.01, 0.9, 0.8, 0.85, 0.1)
        emit_result(result, report, path)
        payload = json.loads(path.read_text())
        assert list(payload)[:2] == ["rotation", "translation"]
        assert payload["rounds"] == result.rounds
        assert payload["metrics"]["precision"] == 0.9
        assert len(payload["trace"]) == result.rounds
        again = transform_from_dict(payload)
        assert np.array_equal(again.rotation, result.transform.rotation)

    def test_metrics_absent_without_ground_truth(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        emit_result(result, None, path)
        payload = json.loads(path.read_text())
        assert "metrics" not in payload
        assert payload["total_iterations"] == result.total_iterations

    def test_emitted_floats_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        emit_result(result, None, path)
        payload = json.loads(path.read_text())
        assert payload["rotation"] == [float(v) for v in result.transform.rotation.reshape(9)]
        assert result_to_dict(result) == json.loads(json.dumps(result_to_dict(result)))

    def test_key_order_of_metrics_and_trace_rows(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        emit_result(result, MetricsReport(0.5, 0.01, 0.02, 0.01, 0.9, 0.8, 0.85, 0.1), path)
        payload = json.loads(path.read_text())
        assert list(payload) == ["rotation", "translation", "rounds", "total_iterations",
                                 "final_confidence", "inlier_indices", "metrics", "counters",
                                 "trace"]
        assert list(payload["metrics"]) == ["rotation_error_deg", "translation_error", "rmse",
                                            "mese", "precision", "recall", "f1",
                                            "runtime_seconds"]
        assert list(payload["metrics"].values()) == [0.5, 0.01, 0.02, 0.01, 0.9, 0.8, 0.85, 0.1]
        assert payload["trace"]
        for row in payload["trace"]:
            assert list(row) == ["round", "t_glo", "t_lcl", "hypotheses", "degenerate_samples",
                                 "branch", "n_global_inliers", "global_confidence",
                                 "local_set_size", "line_vector_count", "weights_updated"]


class TestSusCsv:
    def test_one_decision_of_each_rule_and_action(self, tmp_path):
        decisions = [
            UpdateDecision(3, UpdateAction.REMOVE, UpdateRule.STABLE_OUTLIER),
            UpdateDecision(5, UpdateAction.REMOVE, UpdateRule.NEW_OUTLIER, 0.000584, 0.01),
            UpdateDecision(8, UpdateAction.KEEP, UpdateRule.NEW_OUTLIER, 0.0, 1.0),
            UpdateDecision(2, UpdateAction.INCLUDE, UpdateRule.STABLE_INLIER, 1.0),
            UpdateDecision(4, UpdateAction.INCLUDE, UpdateRule.NEW_INLIER, 0.8012519569012008, 0.37),
            UpdateDecision(9, UpdateAction.SKIP, UpdateRule.NEW_INLIER, 1.0, 1.0),
        ]
        path = tmp_path / "sus_round_1.csv"
        write_sus_csv(decisions, path)
        assert path.read_bytes() == (
            b"index,action,rule,probability,threshold\n"
            b"3,remove,stable-outlier,,\n"
            b"5,remove,new-outlier,0.000584,0.01\n"
            b"8,keep,new-outlier,0.0,1.0\n"
            b"2,include,stable-inlier,1.0,\n"
            b"4,include,new-inlier,0.8012519569012008,0.37\n"
            b"9,skip,new-inlier,1.0,1.0\n")

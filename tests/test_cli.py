import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lvreg
from lvreg import cli, local_sets
from lvreg.io import load_correspondences

BASE = [sys.executable, "-m", "lvreg"]
# The child process imports the same lvreg as this one, installed or not.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(lvreg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, env=CHILD_ENV)


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    proc = run_cli("synth", "--points", "200", "--corrs", "80", "--outlier-rate", "0.5",
                   "--noise", "0.003", "--seed", "11", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


class TestSynth:
    def test_writes_expected_files(self, scene_dir):
        for name in ("source.xyz", "target.xyz", "corr.txt", "gt.json"):
            assert (scene_dir / name).exists()
        gt = json.loads((scene_dir / "gt.json").read_text())
        assert len(gt["rotation"]) == 9
        assert len(gt["true_inlier_indices"]) == 40


class TestRegister:
    def test_register_with_ground_truth(self, scene_dir, tmp_path):
        out = tmp_path / "result.json"
        hist_dir = tmp_path / "hists"
        sus_dir = tmp_path / "sus"
        proc = run_cli(
            "register", "--source", str(scene_dir / "source.xyz"),
            "--target", str(scene_dir / "target.xyz"),
            "--corr", str(scene_dir / "corr.txt"),
            "--gt", str(scene_dir / "gt.json"),
            "--tr", "0.01", "--seed", "3", "--out", str(out),
            "--max-local-iters", "60",
            "--dump-histograms", str(hist_dir), "--dump-sus", str(sus_dir),
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(out.read_text())
        assert payload["metrics"]["rotation_error_deg"] < 1.0
        assert payload["metrics"]["translation_error"] < 0.01
        assert (hist_dir / "angle_histogram.csv").exists()
        assert (hist_dir / "scale_ratio_histogram.csv").exists()
        if payload["rounds"] > 1:  # self-update ran between rounds
            assert any(sus_dir.glob("sus_round_*.csv"))

    def test_missing_input_exits_2(self, scene_dir, tmp_path):
        proc = run_cli("register", "--source", "nope.xyz",
                       "--target", str(scene_dir / "target.xyz"),
                       "--corr", str(scene_dir / "corr.txt"),
                       "--tr", "0.01", "--seed", "3", "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2

    def test_malformed_cloud_exits_2(self, scene_dir, tmp_path):
        bad = tmp_path / "bad.xyz"
        bad.write_text("1 2\n")
        proc = run_cli("register", "--source", str(bad),
                       "--target", str(scene_dir / "target.xyz"),
                       "--corr", str(scene_dir / "corr.txt"),
                       "--tr", "0.01", "--seed", "3", "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2

    def test_non_finite_correspondence_exits_2(self, scene_dir, tmp_path):
        corr = tmp_path / "corr.txt"
        corr.write_text("0 0 0 1 1 1\n1 0 0 nan 1 1\n0 1 0 1 2 1\n")
        proc = run_cli("register", "--source", str(scene_dir / "source.xyz"),
                       "--target", str(scene_dir / "target.xyz"),
                       "--corr", str(corr), "--tr", "0.01", "--seed", "3",
                       "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2, proc.stderr
        assert "line 2" in proc.stderr

    def test_non_finite_input_error_exits_2(self, scene_dir, tmp_path, monkeypatch, capsys):
        # the loaders reject non-finite text themselves; this covers a set
        # that turns non-finite after loading, which the engine rejects
        def load_then_poison(path, source, target):
            corrs = load_correspondences(path, source, target)
            corrs.target[1, 2] = float("inf")
            return corrs

        monkeypatch.setattr(cli.io_mod, "load_correspondences", load_then_poison)
        code = cli.main(["register", "--source", str(scene_dir / "source.xyz"),
                         "--target", str(scene_dir / "target.xyz"),
                         "--corr", str(scene_dir / "corr.txt"), "--tr", "0.01",
                         "--seed", "3", "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_pair_budget_exceeded_exits_4(self, scene_dir, tmp_path, monkeypatch, capsys):
        # 80 correspondences make 3160 pairs; a budget of 100 is exceeded
        monkeypatch.setattr(local_sets, "PAIR_BUDGET", 100)
        code = cli.main(["register", "--source", str(scene_dir / "source.xyz"),
                         "--target", str(scene_dir / "target.xyz"),
                         "--corr", str(scene_dir / "corr.txt"), "--tr", "0.01",
                         "--seed", "3", "--no-ahs-lvlp", "--out", str(tmp_path / "r.json")])
        assert code == 4
        assert "pair budget" in capsys.readouterr().err

    def test_result_json_has_counters(self, scene_dir, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["register", "--source", str(scene_dir / "source.xyz"),
                         "--target", str(scene_dir / "target.xyz"),
                         "--corr", str(scene_dir / "corr.txt"), "--tr", "0.01",
                         "--seed", "3", "--out", str(out)]) == 0
        counters = json.loads(out.read_text())["counters"]
        assert set(counters) == {"local_sets_rung", "zero_length_skipped", "full_set_rebuilds"}
        assert counters["local_sets_rung"] in ("filtered", "full-set")

    def test_overflowing_length_ratio_registers(self, tmp_path):
        # Every coordinate is finite and within MAX_COORDINATE, but the pair of
        # rows 0 and 1 has the length ratio 1e150 / 1e-160, which overflows.
        rng = np.random.default_rng(5)
        plane = np.c_[rng.uniform(-1.0, 1.0, size=(60, 2)), np.zeros(60)]
        cloud = tmp_path / "cloud.xyz"
        points = np.vstack([plane, [[1e150, 0, 0], [1e-160, 0, 0], [0, 0, 0]]])
        cloud.write_text("".join(" ".join(repr(float(v)) for v in p) + "\n" for p in points))
        rows = np.hstack([plane[:30], plane[:30]])
        rows[0] = [1e150, 0, 0, 1e-160, 0, 0]
        rows[1] = 0.0
        corr = tmp_path / "corr.txt"
        corr.write_text("".join(" ".join(repr(float(v)) for v in r) + "\n" for r in rows))
        out = tmp_path / "r.json"
        proc = run_cli("register", "--source", str(cloud), "--target", str(cloud),
                       "--corr", str(corr), "--tr", "0.01", "--seed", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["counters"]["zero_length_skipped"] >= 1

    def test_degenerate_geometry_exits_3(self, tmp_path):
        cloud = tmp_path / "line.xyz"
        cloud.write_text("".join(f"{x} 0 0\n" for x in range(30)))
        corr = tmp_path / "corr.txt"
        corr.write_text("".join(f"{i} {i}\n" for i in range(30)))
        proc = run_cli("register", "--source", str(cloud), "--target", str(cloud),
                       "--corr", str(corr), "--tr", "0.01", "--seed", "1",
                       "--max-local-iters", "20",
                       "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 3, proc.stderr

    def test_usage_error_exits_1(self):
        proc = run_cli("register", "--tr", "0.01")
        assert proc.returncode == 1


class TestBench:
    def test_tiny_grid(self, tmp_path):
        csv = tmp_path / "bench.csv"
        summary = tmp_path / "summary.json"
        proc = run_cli("bench", "--outlier-rates", "0.5", "--trials", "2", "--seed", "9",
                       "--csv", str(csv), "--summary", str(summary),
                       "--points", "120", "--corrs", "60", "--max-local-iters", "40")
        assert proc.returncode == 0, proc.stderr
        lines = csv.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 1 rate x 2 trials x 1 cell
        assert json.loads(summary.read_text())["cells"]

    def test_bad_rates_exit_1(self, tmp_path):
        proc = run_cli("bench", "--outlier-rates", "a,b", "--trials", "1", "--seed", "1",
                       "--csv", str(tmp_path / "x.csv"), "--summary", str(tmp_path / "y.json"))
        assert proc.returncode == 1

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lvreg
from lvreg import cli, local_sets
from lvreg.bench import SuiteConfig
from lvreg.engine import RansacConfig
from lvreg.io import load_correspondences
from lvreg.synthetic import SyntheticSpec

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


    def test_scene_too_small_for_the_outlier_margin_exits_3(self, tmp_path):
        out = tmp_path / "scene"
        proc = run_cli("synth", "--points", "50", "--corrs", "40", "--outlier-rate", "0.5",
                       "--noise", "0.003", "--seed", "1", "--extent", "0.001",
                       "--out-dir", str(out))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("lvreg: degenerate geometry: ")
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()


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
        kept = payload["trace"][0]["local_set_size"]
        assert 0 < kept < 80  # the filters removed some of the 80 correspondences
        assert f" local_set_reduction={(80 - kept) / 80:.4f} " in proc.stdout
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

    @pytest.mark.parametrize("flag", ["--source", "--target", "--corr", "--gt"])
    def test_non_utf8_file_exits_2_with_one_line(self, scene_dir, tmp_path, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 0 0\n\xff\n")
        paths = {"--source": scene_dir / "source.xyz", "--target": scene_dir / "target.xyz",
                 "--corr": scene_dir / "corr.txt", "--gt": scene_dir / "gt.json"} | {flag: bad}
        proc = run_cli("register", *(str(a) for kv in paths.items() for a in kv),
                       "--tr", "0.01", "--seed", "1", "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "lvreg: input error: line 2: byte 6 is not UTF-8 text\n"

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

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"rotation": [1, 0, 0], "translation": [0, 0, 0]}',
        '{"rotation": [2, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [0, 0, 0]}',
        '{"rotation": [1, 0, 0, 0, 1, 0, 0, 0, 1], "translation": [NaN, 0, 0]}',
    ], ids=["list", "three-numbers", "not-orthonormal", "nan-translation"])
    def test_bad_ground_truth_exits_2_before_registering(self, scene_dir, tmp_path, text):
        gt = tmp_path / "gt.json"
        gt.write_text(text)
        out = tmp_path / "r.json"
        proc = run_cli("register", "--source", str(scene_dir / "source.xyz"),
                       "--target", str(scene_dir / "target.xyz"),
                       "--corr", str(scene_dir / "corr.txt"), "--gt", str(gt),
                       "--tr", "0.01", "--seed", "3", "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("lvreg: input error: bad transform")
        assert "Traceback" not in proc.stderr
        assert not out.exists()


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


# (flag, value token or None for a switch, config field, the field's value),
# each value unlike the field's default.
REGISTER_SETTINGS = [
    ("--tr", "0.02", "residual_threshold", 0.02),
    ("--rmax", "7", "r_max", 7),
    ("--alpha", "12", "alpha_pct", 12.0),
    ("--beta", "33", "beta_pct", 33.0),
    ("--confidence", "0.9", "confidence_target", 0.9),
    ("--tau", "0.07", "noise_bound", 0.07),
    ("--k-normals", "11", "k_normals", 11),
    ("--max-local-iters", "77", "max_local_iterations", 77),
    ("--no-ahs-lvlp", None, "use_ahs_lvlp", False),
    ("--no-sus", None, "use_sus", False),
    ("--sigma-mode", "per-round", "sigma_mode", "per-round"),
    ("--seed", "42", "rng_seed", 42),
]
SYNTH_SETTINGS = [
    ("--points", "300", "n_points", 300),
    ("--corrs", "90", "n_correspondences", 90),
    ("--outlier-rate", "0.4", "outlier_rate", 0.4),
    ("--noise", "0.002", "noise_sigma", 0.002),
    ("--seed", "8", "seed", 8),
    ("--extent", "2.5", "scene_extent", 2.5),
    ("--rotation-deg", "12", "rotation_magnitude_deg", 12.0),
    ("--translation", "0.25", "translation_magnitude", 0.25),
    ("--surface", "random-blobs", "surface_model", "random-blobs"),
    ("--tr", "0.02", "residual_threshold", 0.02),
]
BENCH_SETTINGS = [
    ("--outlier-rates", "0.3,0.6", "outlier_rates", (0.3, 0.6)),
    ("--trials", "4", "trials", 4),
    ("--seed", "9", "seed", 9),
    ("--ablate", None, "ablate", True),
    ("--workers", "2", "workers", 2),
    ("--points", "300", "n_points", 300),
    ("--corrs", "90", "n_correspondences", 90),
    ("--noise", "0.002", "noise_sigma", 0.002),
    ("--tr", "0.02", "residual_threshold", 0.02),
    ("--rmax", "3", "r_max", 3),
    ("--max-local-iters", "60", "max_local_iterations", 60),
]
# command, its setting flags, the required ones, the config class, and the
# module attribute that receives the config as its last argument
COMMANDS = [
    ("register", REGISTER_SETTINGS, {"--tr", "--seed"}, RansacConfig, (cli, "run_registration")),
    ("synth", SYNTH_SETTINGS, {"--points", "--corrs", "--outlier-rate", "--noise", "--seed"},
     SyntheticSpec, (cli, "synthesize_pair")),
    ("bench", BENCH_SETTINGS, {"--seed"}, SuiteConfig, (cli.bench_mod, "run_benchmark")),
]


class Captured(Exception):
    """Raised by a stub in place of a run; its argument is the config it was given."""


def command_argv(command, settings, scene_dir, tmp_path):
    """`command` with its input and output paths and the given settings."""
    argv = [command, *{
        "register": ["--source", str(scene_dir / "source.xyz"), "--target",
                     str(scene_dir / "target.xyz"), "--corr", str(scene_dir / "corr.txt"),
                     "--out", str(tmp_path / "r.json")],
        "synth": ["--out-dir", str(tmp_path / "scene")],
        "bench": ["--csv", str(tmp_path / "b.csv"), "--summary", str(tmp_path / "b.json")],
    }[command]]
    for flag, token, _, _ in settings:
        argv += [flag] if token is None else [flag, token]
    return argv


def captured_config(monkeypatch, scene_dir, tmp_path, command, settings, owner):
    def stub(*args):
        raise Captured(args[-1])

    monkeypatch.setattr(*owner, stub)
    with pytest.raises(Captured) as info:
        cli.main(command_argv(command, settings, scene_dir, tmp_path))
    return info.value.args[0]


class TestFlagsReachTheirFields:
    @pytest.mark.parametrize("command, settings, required, cls, owner", COMMANDS,
                             ids=[c[0] for c in COMMANDS])
    def test_every_flag_sets_its_field(self, monkeypatch, scene_dir, tmp_path,
                                       command, settings, required, cls, owner):
        cfg = captured_config(monkeypatch, scene_dir, tmp_path, command, settings, owner)
        assert type(cfg) is cls
        defaults = {f.name: f.default for f in fields(cls)}
        for flag, _, name, value in settings:
            assert value != defaults[name], f"{flag} is tested at its default"
            assert getattr(cfg, name) == value, flag

    @pytest.mark.parametrize("command, settings, required, cls, owner", COMMANDS,
                             ids=[c[0] for c in COMMANDS])
    def test_flags_left_out_keep_the_dataclass_defaults(self, monkeypatch, scene_dir, tmp_path,
                                                        command, settings, required, cls,
                                                        owner):
        given = [s for s in settings if s[0] in required]
        cfg = captured_config(monkeypatch, scene_dir, tmp_path, command, given, owner)
        assert cfg == cls(**{name: value for _, _, name, value in given})


class TestRejectedSettings:
    @pytest.mark.parametrize("args", [
        ["register", "--rmax", "0"],
        ["register", "--alpha", "0"],
        ["register", "--seed", "-1"],
        ["synth", "--seed", "-1"],
        ["synth", "--corrs", "20", "--points", "10"],
        ["bench", "--seed", "-1"],
        ["bench", "--outlier-rates", "1.5"],
        ["bench", "--corrs", "100", "--points", "40"],
        ["bench", "--rmax", "0"],
        ["bench", "--trials", "0"],
        ["bench", "--trials", "-2"],
        ["bench", "--workers", "0"],
        ["register", "--tr", "nan"],
        ["register", "--tr", "inf"],
        ["register", "--tau", "nan"],
        ["register", "--tau", "inf"],
        ["synth", "--noise", "nan"],
        ["synth", "--noise", "inf"],
        ["synth", "--tr", "nan"],
        ["synth", "--extent", "inf"],
        ["register", "--tau", "1e-170"],
        ["register", "--tau", "1e160"],
    ], ids=lambda args: " ".join(args))
    def test_exits_1_with_one_line(self, scene_dir, tmp_path, args):
        command, *flags = args
        _, settings, required, _, _ = next(c for c in COMMANDS if c[0] == command)
        given = [s for s in settings if s[0] in required]
        # argparse keeps the last of a repeated flag
        proc = run_cli(*command_argv(command, given, scene_dir, tmp_path), *flags)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("lvreg: usage error: ")
        assert len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []  # nothing written, no trial run


FUZZ_TOKENS = ["0", "1", "2", "-2.5", "1e400", "-1e400", "1e149", "1e-320", "nan", "inf",
               "0x1p3", "99999999999999999999", "-1", "ply", "format", "ascii",
               "binary_little_endian", "1.0", "element", "vertex", "face", "property", "float",
               "x", "y", "z", "end_header", "#", "é", "\x00"]
FUZZ_SEPARATORS = [" ", "\t", "\n", "\r\n"]
FUZZ_NUMBER = st.one_of(st.integers(-2, 13).map(str), st.floats(-1e3, 1e3).map(repr))
FUZZ_BYTES = st.one_of(
    st.binary(max_size=300),
    st.lists(st.tuples(st.sampled_from(FUZZ_TOKENS), st.sampled_from(FUZZ_SEPARATORS)),
             max_size=80).map(lambda tokens: "".join(t + sep for t, sep in tokens).encode()),
    # rows of 2, 3 or 6 finite numbers: index pairs, points or coordinate pairs that parse
    st.sampled_from([2, 3, 6]).flatmap(lambda width: st.lists(
        st.lists(FUZZ_NUMBER, min_size=width, max_size=width), min_size=10, max_size=30)).map(
        lambda rows: "".join(" ".join(row) + "\n" for row in rows).encode()),
)
FUZZ_PLY_HEADER = (b"ply\nformat ascii 1.0\nelement vertex 12\nproperty float x\n"
                   b"property float y\nproperty float z\nend_header\n")
N_FUZZ_POINTS = 12


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A valid 12-point scene, each file also kept as bytes for restoring it."""
    out = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    points = rng.normal(size=(N_FUZZ_POINTS, 3))
    valid = {"source.xyz": points, "target.xyz": points + 0.5,
             "corr.txt": np.repeat(np.arange(N_FUZZ_POINTS), 2).reshape(-1, 2)}
    files = {}
    for name, rows in valid.items():
        files[name] = "".join(" ".join(map(repr, row.tolist())) + "\n" for row in rows).encode()
    return out, files


class TestRegisterFileBytesProperty:
    """Whatever the bytes of an input file, `register` returns an exit code of 0-4.

    In-process through `cli.main`: nothing but SystemExit(0-4) may escape.
    """

    # (source file, file written with the drawn bytes, the bytes put before them)
    KINDS = {"xyz-source": ("source.xyz", "source.xyz", b""),
             "ply-source": ("source.ply", "source.ply", b""),
             "correspondences": ("source.xyz", "corr.txt", b""),
             "ply-body": ("source.ply", "source.ply", FUZZ_PLY_HEADER)}

    @pytest.mark.parametrize("kind", list(KINDS))
    @given(data=FUZZ_BYTES)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_exit_code_0_to_4(self, fuzz_dir, kind, data):
        out, files = fuzz_dir
        source, fuzzed, prefix = self.KINDS[kind]
        for name, content in {**files, fuzzed: prefix + data}.items():
            (out / name).write_bytes(content)
        argv = ["register", "--source", str(out / source), "--target", str(out / "target.xyz"),
                "--corr", str(out / "corr.txt"), "--tr", "0.05", "--seed", "0", "--rmax", "2",
                "--max-local-iters", "20", "--out", str(out / "result.json")]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code in range(5)

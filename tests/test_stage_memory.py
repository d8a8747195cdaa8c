"""Smoke test for scripts/stage_memory.py, the per-boundary tracemalloc peaks of a registration."""

import importlib.util
import re
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REGISTRATION = re.compile(r"unfiltered-m800 seed=1 scene=0 peak_mb=(\d+\.\d{3})")
BOUNDARY = re.compile(r"  (\w+) +calls=(\d+) +peak_mb=(\d+\.\d{3})")


def load_script():
    spec = importlib.util.spec_from_file_location("stage_memory", ROOT / "scripts" / "stage_memory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_scene_prints_the_registration_and_its_boundaries(monkeypatch, capsys):
    script = load_script()
    # main() prepends the checkout to sys.path and pins the BLAS thread
    # variables; undo both after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.run import THREAD_VARS
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    from lvreg import engine
    bound = {name: getattr(engine, name) for name in ("build_line_vectors", "run_local_ransac")}

    assert script.main(["--workload", "unfiltered-m800", "--seed", "1", "--scenes", "1"]) == 0
    first, *lines = capsys.readouterr().out.splitlines()
    total = float(REGISTRATION.fullmatch(first).group(1))
    boundaries = {m.group(1): (int(m.group(2)), float(m.group(3)))
                  for m in map(BOUNDARY.fullmatch, lines)}
    assert None not in boundaries and len(boundaries) == len(lines)
    # Filters off: no normals, no angle or ratio filter; one build, one round.
    assert list(boundaries)[:2] == ["build_line_vectors", "run_local_ransac"]
    assert boundaries["build_line_vectors"][0] == boundaries["run_local_ransac"][0] == 1
    assert not {"annotate_normals", "length_ratio_filter"} & set(boundaries)
    # a call's peak is inside the registration's
    assert 0 < max(peak for _, peak in boundaries.values()) <= total
    # the engine's globals are restored and tracing is off
    assert all(getattr(engine, name) is fn for name, fn in bound.items())
    assert not tracemalloc.is_tracing()

"""Smoke test for scripts/fingerprint_workloads.py, the bit-identity check of perf changes."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
KERNEL = re.compile(r"kernel numpy_simd=([0-9A-Z_,]+) openblas_core=(\S+)")
POOL = re.compile(r"(\S+) seed=1 pool=(\d+) pool_sha256=([0-9a-f]{64})")
DIGEST = re.compile(r"(\S+) seed=1 scenes=1 sha256=([0-9a-f]{64})")


def load_script():
    spec = importlib.util.spec_from_file_location(
        "fingerprint_workloads", ROOT / "scripts" / "fingerprint_workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repeatable_pool_and_registration_digests_per_workload(monkeypatch, capsys):
    script = load_script()
    # main() prepends the checkout to sys.path and pins the BLAS thread
    # variables; undo both after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.run import THREAD_VARS
    from perfbench.workloads import WORKLOADS
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")

    runs = []
    for _ in range(2):
        assert script.main(["--scenes", "1", "--seeds", "1"]) == 0
        kernel, *lines = capsys.readouterr().out.splitlines()
        assert KERNEL.fullmatch(kernel), kernel
        assert len(lines) == 2 * len(WORKLOADS), lines
        pools = [POOL.fullmatch(line) for line in lines[0::2]]
        digests = [DIGEST.fullmatch(line) for line in lines[1::2]]
        assert all(pools) and all(digests), lines
        runs.append(([m.groups() for m in pools], [m.groups() for m in digests]))
    pools, digests = runs[0]
    assert [name for name, *_ in pools] == [name for name, _ in digests] == list(WORKLOADS)
    # The pool digest covers the whole pool, not only the registered scenes.
    assert [int(size) for _, size, _ in pools] == [w.scenes for w in WORKLOADS.values()]
    assert runs[0] == runs[1]


def test_kernel_line_follows_the_process_settings():
    # A process with its highest SIMD target switched off and another
    # OpenBLAS core names both; the digests it prints are of those kernels.
    simd, core = KERNEL.fullmatch(load_script().kernel()).groups()
    targets = simd.split(",")
    if core == "unknown" or len(targets) < 2:
        pytest.skip("no bundled OpenBLAS or no SIMD target above the baseline")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=targets[-1], OPENBLAS_CORETYPE="Haswell")
    code = ("import importlib.util, sys; "
            "spec = importlib.util.spec_from_file_location('f', sys.argv[1]); "
            "m = importlib.util.module_from_spec(spec); spec.loader.exec_module(m); "
            "print(m.kernel())")
    script = ROOT / "scripts" / "fingerprint_workloads.py"
    out = subprocess.run([sys.executable, "-c", code, str(script)], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == f"kernel numpy_simd={','.join(targets[:-1])} openblas_core=Haswell\n"


def test_kernels_mode_prints_one_column_per_setting(monkeypatch, capsys):
    script = load_script()
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.run import THREAD_VARS
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    assert script.main(["--scenes", "1", "--seeds", "1"]) == 0
    plain_kernel, *plain = capsys.readouterr().out.splitlines()

    assert script.main(["--kernels", "--scenes", "1", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    settings = list(script.kernel_settings())
    assert settings == ["default", "avx512-off", "haswell", "sandybridge", "prescott"]
    named = [line.split(maxsplit=1) for line in lines[:len(settings)]]
    assert [name for name, _ in named] == settings
    kernels = dict(named)
    assert all(KERNEL.fullmatch(line) for line in kernels.values()), kernels
    assert kernels["default"] == plain_kernel
    if not plain_kernel.endswith("openblas_core=unknown"):
        assert kernels["haswell"].endswith("openblas_core=Haswell")

    header, *rows = lines[len(settings):]
    assert header.split() == ["digest", *settings]
    assert len(rows) == len(plain) == 4
    for row, line in zip(rows, plain):
        # the default column is the digest this process prints, cut to 8 hex digits
        label, digest = line.rsplit("=", 1)
        assert row.startswith(label + " ")
        cells = row[len(label):].split()
        assert len(cells) == len(settings) and cells[0] == digest[:8]
        assert all(re.fullmatch(r"[0-9a-f]{8}\*?", cell) for cell in cells), row

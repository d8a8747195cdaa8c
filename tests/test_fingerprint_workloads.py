"""Smoke test for scripts/fingerprint_workloads.py, the bit-identity check of perf changes."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
        lines = capsys.readouterr().out.splitlines()
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

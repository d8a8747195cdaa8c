"""What a run loads: SciPy only in the stages that call it, normals and the self-update.

`import lvreg` and a filters-off registration that stops after one round
(no normals, no self-update) load no `scipy` module; a filtered
registration in the same process then imports the kd-tree and `gammaincc`
where they are called. A fresh interpreter is needed, because the test
process has SciPy loaded already.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import lvreg

CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(lvreg.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}

CHILD = textwrap.dedent("""
    import sys

    def scipy_modules():
        return sorted(name for name in sys.modules if name.startswith("scipy"))

    import lvreg
    from lvreg import RansacConfig, SyntheticSpec, rotation_geodesic_angle, run_registration
    from lvreg import synthesize_pair
    assert scipy_modules() == [], scipy_modules()

    source, target, corrs, gt, _ = synthesize_pair(SyntheticSpec(
        n_points=600, n_correspondences=150, outlier_rate=0.5, noise_sigma=0.003, seed=5))
    plain = run_registration(corrs, source, target,
                             RansacConfig(use_ahs_lvlp=False, r_max=1, rng_seed=5))
    assert plain.rounds == 1 and plain.sus_decisions == []
    assert scipy_modules() == [], scipy_modules()

    filtered = run_registration(corrs, source, target, RansacConfig(rng_seed=5))
    assert filtered.rounds > 1 and filtered.sus_decisions  # the self-update ran
    for result in (plain, filtered):
        assert rotation_geodesic_angle(result.transform.rotation, gt.rotation) < 0.035
    loaded = scipy_modules()
    assert "scipy.spatial" in loaded and "scipy.special" in loaded, loaded
    print("ok")
""")


def test_scipy_loads_only_where_normals_or_the_self_update_run():
    out = subprocess.run([sys.executable, "-c", CHILD], capture_output=True, text=True,
                         env=CHILD_ENV)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"

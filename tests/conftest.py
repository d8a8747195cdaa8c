import numpy as np
import pytest

from lvreg.geometry import RigidTransform, as_vec3, rotation_about_axis


def stable_geodesic(r1, r2):
    """Geodesic angle via 2*arcsin(||R1-R2||_F / (2 sqrt(2))).

    Equal to the arccos form in exact arithmetic but well conditioned near
    zero, so it can resolve machine-precision rotation recovery.
    """
    d = np.linalg.norm(np.asarray(r1) - np.asarray(r2))
    return 2.0 * np.arcsin(np.clip(d / (2.0 * np.sqrt(2.0)), -1.0, 1.0))


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation_about_axis(axis, rng.uniform(0.0, np.pi))


def random_transform(rng, translation_scale=1.0):
    return RigidTransform(random_rotation(rng), rng.normal(scale=translation_scale, size=3))


def apply_transform(t, p):
    """rotation @ p + translation for a single point."""
    return t.apply(as_vec3(p))


def residual(t, source, target):
    """Distance between one transformed source point and its target: the oracle for `residuals`."""
    return float(np.linalg.norm(t.apply(as_vec3(source)) - as_vec3(target)))


def compose(a, b):
    """The transform that applies `b` first, then `a`."""
    return RigidTransform(a.rotation @ b.rotation, a.rotation @ b.translation + a.translation)


_ACCEPTANCE_RESULTS = []


def record_acceptance(name, passed, detail=""):
    _ACCEPTANCE_RESULTS.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)

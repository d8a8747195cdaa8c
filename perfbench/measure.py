"""The measured loops: end-to-end metrics untraced, per-layer metrics traced.

Both loops register the scene pool back to back (one client, closed
loop) and check every result: the invariants of `workloads.check_result`
on each, and on every repeat of a scene a bit-for-bit match with the
first registration of that scene.
"""

from __future__ import annotations

import resource
import statistics
import time

from lvreg.engine import run_registration
from lvreg.errors import LvregError

from tracing import Tracer, layer_metrics
from workloads import check_result, fingerprint, is_success, pose_errors

TAIL_SAMPLES = 10  # samples beyond the reported tail percentile


class CheckFailed(Exception):
    pass


class Runner:
    """Registers the pool's scenes and checks every result."""

    def __init__(self, scenes):
        self.scenes = scenes
        self.attempted = 0
        self.failed = 0  # registrations that raised LvregError
        self.reference: list = [None] * len(scenes)  # fingerprint of the first registration
        self.errors: list = [None] * len(scenes)     # (r_err, t_err); None when it raised

    def one(self, k: int, register=run_registration):
        """Register scene k; returns (seconds, result or None when it raised LvregError)."""
        scene = self.scenes[k]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = register(scene.corrs, scene.source, scene.target, scene.cfg)
        except LvregError:
            result = None
            self.failed += 1
        dt = time.perf_counter() - t0
        if result is not None:
            problems = check_result(scene, result)
            if problems:
                raise CheckFailed(f"scene {k}: " + "; ".join(problems))
        fp = ("raised",) if result is None else fingerprint(result)
        if self.reference[k] is None:
            self.reference[k] = fp
            if result is not None:
                self.errors[k] = pose_errors(scene, result)
        elif self.reference[k] != fp:
            raise CheckFailed(f"scene {k}: a repeat did not reproduce the first registration")
        return dt, result

    def window(self, seconds: float):
        """Cycle the pool for `seconds`, finishing at least one whole pass."""
        latencies = []
        n = len(self.scenes)
        cpu0, t0 = time.process_time(), time.perf_counter()
        while len(latencies) < n or time.perf_counter() - t0 < seconds:
            latencies.append(self.one(len(latencies) % n)[0])
        return latencies, time.perf_counter() - t0, time.process_time() - cpu0

    def one_pass(self, register_for=None) -> float:
        """Register every scene once; returns completed registrations per second.

        `register_for(k)` gives the registration function for scene k.
        """
        completed = 0
        t0 = time.perf_counter()
        for k in range(len(self.scenes)):
            _, result = self.one(k, register_for(k) if register_for else run_registration)
            completed += result is not None
        return completed / (time.perf_counter() - t0)


def tail(latencies):
    """(value, percentile, samples) at the highest percentile with TAIL_SAMPLES beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - TAIL_SAMPLES - 1)
    return ordered[idx], 100.0 * (idx + 1) / n, n


def end_to_end(runner: Runner, seconds: float, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics over a `seconds` window; accuracy over the first pass."""
    latencies, wall, cpu = runner.window(seconds)
    returned = [e for e in runner.errors if e is not None]
    ok = [e for e in returned if is_success(*e)]
    # Rotation error over the successes; over every returned registration if none succeeded.
    r_err = statistics.median(e[0] for e in (ok or returned)) if returned else 180.0
    tail_s, tail_pct, n = tail(latencies)
    metrics = {
        "registrations_per_s": ((len(latencies) - runner.failed) / wall, "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "cpu_s_per_registration": (cpu / len(latencies), "s"),
        "success_rate": (len(ok) / len(runner.scenes), "ratio"),
        "completion_rate": (len(returned) / len(runner.scenes), "ratio"),
        "r_err_p50_deg": (r_err, "deg"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    detail = {"latency_tail_percentile": tail_pct, "latency_samples": n,
              "scored_registrations": len(runner.scenes), "successes": len(ok),
              "window_s": wall}
    return metrics, detail


def per_layer(runner: Runner) -> tuple[dict, dict, Tracer]:
    """One untraced pass over the pool, then one traced pass.

    The traced pass must reproduce the untraced registrations bit for bit,
    which the runner checks.
    """
    rate_untraced = runner.one_pass()
    tracer = Tracer()

    def register_for(k):
        scene = runner.scenes[k]

        def traced(*args):
            result = tracer.registration_span(k, scene.inlier_mask, run_registration, *args)
            tracer.counts["result.rounds"] += result.rounds
            tracer.counts[f"result.exit.{result.exit_reason}"] += 1
            return result
        return traced

    with tracer.installed():
        rate_traced = runner.one_pass(register_for)

    own = tracer.self_times()
    parts = sum(v for k, v in own.items() if k != "wall")
    if abs(parts - own["wall"]) > 1e-6 * own["wall"]:
        raise CheckFailed(f"layer self times sum to {parts} s, registrations to {own['wall']} s")
    layers = layer_metrics(tracer, len(runner.scenes))
    layers["trace.overhead_ratio"] = (rate_traced / rate_untraced, "ratio")
    detail = {"untraced_registrations_per_s": rate_untraced,
              "traced_registrations_per_s": rate_traced}
    return layers, detail, tracer

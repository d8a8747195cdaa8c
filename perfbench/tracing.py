"""Spans and counters at the call boundaries between lvreg's layers.

The engine and the solver look their collaborators up as module globals
at call time, so rebinding those names for the length of a traced run
wraps every call into a layer without touching the package. Each wrapped
call records a span (name, start, end, parent span, registration id) in
memory; counters are taken from the wrapped calls' arguments and return
values. The wrappers read no random numbers, so a traced registration
must reproduce the untraced one bit for bit.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from lvreg import engine, solver
from lvreg.errors import DegenerateInput, LvregError
from lvreg.self_update import UpdateAction, UpdateRule

ROOT = "run_registration"

# Module, global name and layer of every wrapped call boundary.
BOUNDARIES = (
    (engine, "annotate_normals", "normals"),
    (engine, "build_angle_histogram", "local_sets.angle"),
    (engine, "angle_histogram_filter", "local_sets.angle"),
    (engine, "build_line_vectors", "local_sets.pair"),
    (engine, "length_ratio_filter", "local_sets.pair"),
    (engine, "run_local_ransac", "engine.local_ransac"),
    (engine, "estimate_local_transform", "solver"),
    (solver, "estimate_rotation_gnc", "solver"),
    (engine, "residual_inliers", "engine.scoring"),
    (engine, "update_local_sets", "self_update"),
    (engine, "weighted_kabsch", "geometry.final_kabsch"),
)
LAYER_OF = {name: layer for _, name, layer in BOUNDARIES} | {ROOT: "engine.self"}

_ADMIT_RULES = (UpdateRule.STABLE_INLIER, UpdateRule.NEW_INLIER)
_EVICT_RULES = (UpdateRule.STABLE_OUTLIER, UpdateRule.NEW_OUTLIER)


def _pair_bytes(lvs) -> int:
    return sum(a.nbytes for a in (lvs.i, lvs.j, lvs.v_source, lvs.v_target, lvs.scale_ratio))


class Tracer:
    """In-memory span log plus counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.registration: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._reg = -1
        self._mask = None

    def _call(self, name, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.registration.append(self._reg)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            self.counts[f"calls.{name}"] += 1

    def _wrap(self, name, fn):
        observe = getattr(self, f"_observe_{name}", None)

        def wrapped(*args, **kwargs):
            try:
                out = self._call(name, fn, args, kwargs)
            except LvregError as exc:
                self.counts[f"raised.{name}.{type(exc).__name__}"] += 1
                if observe is not None:
                    observe(args, None)
                raise
            if observe is not None:
                observe(args, out)
            return out

        return wrapped

    @contextmanager
    def installed(self):
        """Rebind the boundary names to traced wrappers; restore them on exit."""
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in BOUNDARIES]
        try:
            for mod, name, fn in saved:
                setattr(mod, name, self._wrap(name, fn))
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)

    def registration_span(self, reg_id: int, inlier_mask: np.ndarray, fn, *args):
        """Run one registration as the root span, with the scene labels for the counters."""
        self._reg, self._mask = reg_id, inlier_mask
        try:
            return self._call(ROOT, fn, args, {})
        finally:
            self._reg, self._mask = -1, None

    # Counters, one observer per boundary; `out` is None when the call raised.

    def _observe_annotate_normals(self, args, out):
        self.counts["normals.endpoints"] += 2 * len(args[0])

    def _observe_angle_histogram_filter(self, args, out):
        corrs = args[0]
        self.counts["angle.in"] += len(corrs)
        self.counts["angle.true_in"] += int(self._mask[corrs.indices].sum())
        if out is not None:
            self.counts["angle.out"] += len(out)
            self.counts["angle.true_out"] += int(self._mask[out.indices].sum())

    def _observe_build_line_vectors(self, args, out):
        if out is not None:
            self.counts["pairs.built"] += len(out)
            self.counts["pairs.max_bytes"] = max(self.counts["pairs.max_bytes"], _pair_bytes(out))

    def _observe_length_ratio_filter(self, args, out):
        lvs = args[0]
        self.counts["ratio.in"] += len(lvs)
        self.counts["ratio.true_in"] += int((self._mask[lvs.i] & self._mask[lvs.j]).sum())
        if out is not None:
            kept = out[0]
            self.counts["ratio.out"] += len(kept)
            self.counts["ratio.true_out"] += int((self._mask[kept.i] & self._mask[kept.j]).sum())

    def _observe_estimate_rotation_gnc(self, args, out):
        if out is not None:
            self.counts["gnc.returned"] += 1
            self.counts["gnc.nonconverged"] += int(not out[1])

    def _observe_update_local_sets(self, args, out):
        if out is None:
            return
        for d in out[2]:
            self.counts["sus.decisions"] += 1
            if d.rule in _ADMIT_RULES:
                self.counts["sus.admit_candidates"] += 1
                self.counts["sus.admitted"] += int(d.action is UpdateAction.INCLUDE)
            elif d.rule in _EVICT_RULES:
                self.counts["sus.evict_candidates"] += 1
                self.counts["sus.evicted"] += int(d.action is UpdateAction.REMOVE)

    def self_times(self) -> dict:
        """Seconds per layer, each span's duration minus the part its children cover."""
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - children
        totals: dict = {}
        for name, t in zip(self.names, own.tolist()):
            layer = LAYER_OF[name]
            totals[layer] = totals.get(layer, 0.0) + t
        totals["wall"] = float(dur[~has_parent].sum())
        return totals

    def write(self, path):
        """Write every span as columns of one JSON object."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        path.write_text(json.dumps({
            "columns": ["name", "start_s", "end_s", "parent", "registration"],
            "name": self.names,
            "start_s": [t - origin for t in self.start],
            "end_s": [t - origin for t in self.end],
            "parent": self.parent,
            "registration": self.registration,
        }) + "\n")


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(tracer: Tracer, registrations: int) -> dict:
    """Per-layer metrics over the traced registrations, each ratio next to its base."""
    t = tracer.self_times()
    c = tracer.counts
    solver_calls = c["calls.estimate_local_transform"]
    return {
        "normals.busy_s": (t.get("normals", 0.0), "s"),
        "normals.calls": (c["calls.annotate_normals"], "count"),
        "normals.endpoints_per_s": (_ratio(c["normals.endpoints"], t.get("normals", 0.0)), "1/s"),
        "local_sets.angle_busy_s": (t.get("local_sets.angle", 0.0), "s"),
        "local_sets.angle_in": (c["angle.in"], "count"),
        "local_sets.angle_keep_ratio": (_ratio(c["angle.out"], c["angle.in"]), "ratio"),
        "local_sets.angle_true_in": (c["angle.true_in"], "count"),
        "local_sets.angle_inlier_recall": (_ratio(c["angle.true_out"], c["angle.true_in"]), "ratio"),
        "local_sets.angle_out": (c["angle.out"], "count"),
        "local_sets.angle_inlier_precision": (_ratio(c["angle.true_out"], c["angle.out"]), "ratio"),
        "local_sets.pair_busy_s": (t.get("local_sets.pair", 0.0), "s"),
        "local_sets.line_vectors_built": (c["pairs.built"], "count"),
        "local_sets.pair_bytes_computed": (c["pairs.max_bytes"], "B"),
        "local_sets.ratio_in": (c["ratio.in"], "count"),
        "local_sets.ratio_keep_ratio": (_ratio(c["ratio.out"], c["ratio.in"]), "ratio"),
        "local_sets.ratio_out": (c["ratio.out"], "count"),
        "local_sets.ratio_inlier_pair_fraction": (_ratio(c["ratio.true_out"], c["ratio.out"]), "ratio"),
        "local_sets.ratio_true_in": (c["ratio.true_in"], "count"),
        "local_sets.ratio_inlier_pair_recall": (_ratio(c["ratio.true_out"], c["ratio.true_in"]), "ratio"),
        "solver.busy_s": (t.get("solver", 0.0), "s"),
        "solver.calls": (solver_calls, "count"),
        "solver.s_per_call": (_ratio(t.get("solver", 0.0), solver_calls), "s"),
        "solver.degenerate_ratio": (
            _ratio(c[f"raised.estimate_local_transform.{DegenerateInput.__name__}"], solver_calls), "ratio"),
        "solver.gnc_returned": (c["gnc.returned"], "count"),
        "solver.gnc_nonconverged_ratio": (_ratio(c["gnc.nonconverged"], c["gnc.returned"]), "ratio"),
        "engine.registrations": (registrations, "count"),
        "engine.registration_wall_s": (t["wall"], "s"),
        "engine.self_s": (t.get("engine.self", 0.0), "s"),
        "engine.local_ransac_self_s": (t.get("engine.local_ransac", 0.0), "s"),
        "engine.scoring_busy_s": (t.get("engine.scoring", 0.0), "s"),
        "engine.scoring_calls": (c["calls.residual_inliers"], "count"),
        "engine.hypotheses_per_registration": (_ratio(solver_calls, registrations), "count"),
        "engine.rounds_per_registration": (_ratio(c["result.rounds"], registrations), "count"),
        "engine.exit_confidence_ratio": (_ratio(c["result.exit.confidence"], registrations), "ratio"),
        "self_update.busy_s": (t.get("self_update", 0.0), "s"),
        "self_update.calls": (c["calls.update_local_sets"], "count"),
        "self_update.decisions": (c["sus.decisions"], "count"),
        "self_update.admit_candidates": (c["sus.admit_candidates"], "count"),
        "self_update.admit_ratio": (_ratio(c["sus.admitted"], c["sus.admit_candidates"]), "ratio"),
        "self_update.evict_candidates": (c["sus.evict_candidates"], "count"),
        "self_update.evict_ratio": (_ratio(c["sus.evicted"], c["sus.evict_candidates"]), "ratio"),
        "geometry.final_kabsch_s": (t.get("geometry.final_kabsch", 0.0), "s"),
    }

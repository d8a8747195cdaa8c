"""File formats: XYZ / ASCII-PLY clouds, correspondence lists, result JSON.

Floats are written with `repr`, which emits the shortest string that
round-trips exactly in float64, so writers and loaders are bit-compatible.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .correspondences import CorrespondenceSet
from .engine import RegistrationResult
from .errors import IndexOutOfRange, ParseError, UnsupportedFormat
from .geometry import RigidTransform
from .metrics import MetricsReport
from .normals import PointCloud


def _parse_floats(tokens, expected: int, line_number: int) -> list[float]:
    if len(tokens) != expected:
        raise ParseError(f"expected {expected} values, found {len(tokens)}", line_number)
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise ParseError(str(exc), line_number) from exc
    if not all(math.isfinite(v) for v in values):
        raise ParseError("non-finite value", line_number)
    return values


def _read_text(path) -> str:
    """The file's UTF-8 text; a byte sequence that is not UTF-8 is a ParseError."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start} is not UTF-8 text",
                         data.count(b"\n", 0, exc.start) + 1) from exc


def _data_lines(text: str):
    """Yield (line_number, tokens) skipping blanks and '#' comments."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


def load_xyz(path) -> PointCloud:
    points = []
    for number, tokens in _data_lines(_read_text(path)):
        points.append(_parse_floats(tokens, 3, number))
    return PointCloud(np.asarray(points, dtype=np.float64).reshape(-1, 3))


def load_ply(path) -> PointCloud:
    lines = _read_text(path).splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError("not a PLY file (missing 'ply' magic)", 1)
    n_vertices = None
    properties: list[str] = []
    in_vertex_element = False
    body_start = None
    for number, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line.startswith("format"):
            if "ascii" not in line:
                raise UnsupportedFormat("only ASCII PLY is supported")
        elif line.startswith("element"):
            parts = line.split()
            in_vertex_element = len(parts) >= 3 and parts[1] == "vertex"
            if in_vertex_element:
                try:
                    n_vertices, count_line = int(parts[2]), number
                except ValueError as exc:
                    raise ParseError("bad vertex count", number) from exc
        elif line.startswith("property") and in_vertex_element:
            properties.append(line.split()[-1])
        elif line == "end_header":
            body_start = number
            break
    if body_start is None or n_vertices is None:
        raise ParseError("incomplete PLY header", len(lines))
    try:
        cols = [properties.index(axis) for axis in ("x", "y", "z")]
    except ValueError as exc:
        raise ParseError("vertex element lacks x/y/z properties", body_start) from exc
    if not 0 <= n_vertices <= len(lines) - body_start:
        raise ParseError(f"vertex count {n_vertices} is not between 0 and the "
                         f"{len(lines) - body_start} lines after end_header", count_line)

    points = np.empty((n_vertices, 3))
    for row in range(n_vertices):
        number = body_start + 1 + row
        tokens = lines[number - 1].split()
        if len(tokens) < len(properties):
            raise ParseError(f"expected {len(properties)} values, found {len(tokens)}", number)
        points[row] = _parse_floats([tokens[c] for c in cols], 3, number)
    return PointCloud(points)


def load_point_cloud(path) -> PointCloud:
    """Dispatch on extension: .xyz or .ply (ASCII)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".ply":
        return load_ply(path)
    return load_xyz(path)


def write_rows(rows, path):
    """One line of space-separated values per row of a 2-D array (an .xyz
    cloud, or a correspondence list of raw coordinate rows)."""
    Path(path).write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rows))


def load_correspondences(path, source: PointCloud, target: PointCloud) -> CorrespondenceSet:
    """Parse 'i j' index pairs or 'sx sy sz tx ty tz' raw rows (auto-detected)."""
    rows = list(_data_lines(_read_text(path)))
    if not rows:
        return CorrespondenceSet(np.empty((0, 3)), np.empty((0, 3)))
    mode = "indices" if len(rows[0][1]) == 2 else "coords"
    src, tgt = [], []
    for number, tokens in rows:
        if mode == "indices":
            if len(tokens) != 2:
                raise ParseError(f"expected 2 indices, found {len(tokens)}", number)
            try:
                i, j = int(tokens[0]), int(tokens[1])
            except ValueError as exc:
                raise ParseError(str(exc), number) from exc
            if not (0 <= i < len(source)) or not (0 <= j < len(target)):
                raise IndexOutOfRange(f"line {number}: index pair ({i}, {j}) outside the clouds")
            src.append(source.points[i])
            tgt.append(target.points[j])
        else:
            values = _parse_floats(tokens, 6, number)
            src.append(values[:3])
            tgt.append(values[3:])
    return CorrespondenceSet(np.asarray(src), np.asarray(tgt))


def transform_to_dict(t: RigidTransform) -> dict:
    return {
        "rotation": [float(v) for v in t.rotation.reshape(9)],  # row-major
        "translation": [float(v) for v in t.translation],
    }


def transform_from_dict(d: dict) -> RigidTransform:
    """Raises ParseError unless d holds a finite proper rotation and translation."""
    try:
        rot = np.asarray(d["rotation"], dtype=np.float64).reshape(3, 3)
        translation = np.asarray(d["translation"], dtype=np.float64)
        if not np.isfinite(translation).all():
            raise ValueError("non-finite translation")
        return RigidTransform(rot, translation)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad transform: {exc}") from exc


def write_transform(t: RigidTransform, path, extra: dict | None = None):
    payload = transform_to_dict(t)
    if extra:
        payload.update(extra)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_transform(path) -> RigidTransform:
    return transform_from_dict(json.loads(_read_text(path)))


def result_to_dict(result: RegistrationResult, metrics: MetricsReport | None = None) -> dict:
    payload = transform_to_dict(result.transform)
    payload["rounds"] = result.rounds
    payload["total_iterations"] = result.total_iterations
    payload["final_confidence"] = float(result.final_confidence)
    payload["inlier_indices"] = [int(i) for i in result.inlier_indices]
    if metrics is not None:
        payload["metrics"] = dataclasses.asdict(metrics)
    payload["counters"] = dict(result.counters)
    payload["trace"] = [dataclasses.asdict(row) for row in result.per_round_trace]
    return payload


def emit_result(result: RegistrationResult, metrics: MetricsReport | None, path):
    """Write the result JSON with a stable key order."""
    Path(path).write_text(json.dumps(result_to_dict(result, metrics), indent=2) + "\n")


def write_histogram_csv(hist, path):
    lines = ["bin_low,bin_high,count"]
    edges = hist.edges()
    for b, count in enumerate(hist.counts):
        lines.append(f"{repr(float(edges[b]))},{repr(float(edges[b + 1]))},{int(count)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_sus_csv(decisions, path):
    lines = ["index,action,rule,probability,threshold"]
    for d in decisions:
        prob = "" if d.probability is None else repr(float(d.probability))
        thr = "" if d.threshold is None else repr(float(d.threshold))
        lines.append(f"{d.correspondence_index},{d.action.value},{d.rule.value},{prob},{thr}")
    Path(path).write_text("\n".join(lines) + "\n")

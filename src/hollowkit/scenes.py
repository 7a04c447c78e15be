"""Scene and result files: a small JSON dialect with stable bytes.

A scene file describes a family of convex bodies plus optional cover and
stabbing inputs; a result file records what a run concluded.  Both use
schema tag ``hollowkit/1``.  Serialization is canonical: fixed key order,
two-space indent, floats at 17 significant digits, so identical inputs
produce byte-identical files.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bodies import (DEFAULT_TOL, Ball, HPolytope, IntersectionBody, VPolytope,
                     check_count, check_tol)
from .errors import SceneError
from .geometry import AffineSubspace, as_point, as_points
from .hollow import StabbingPair, check_resolution
from .sperner import KkmInstance, check_samples

SCHEMA = "hollowkit/1"

# option -> (check, help): the one rule for a scene's option and for the
# command-line flag of the same name.  Options are written in this order.
OPTIONS = {
    "tol": (check_tol, "numerical tolerance"),
    "resolution": (check_resolution, "grid cell size"),
    "restarts": (partial(check_count, name="restarts"),
                 "random restarts for the uniqueness probe"),
    "seed": (partial(check_count, name="seed"), "seed for the uniqueness probe"),
    "samples": (check_samples, "hull samples per subset"),
}


@dataclass(eq=False)
class Scene:
    """Parsed scene: bodies plus optional cover and stabbing sections."""

    dimension: int
    bodies: tuple
    options: dict = field(default_factory=dict)
    kkm: KkmInstance = None
    stabbing: StabbingPair = None
    stabbing_witnesses: np.ndarray = None

    def to_json(self):
        out = {"schema": SCHEMA, "dimension": int(self.dimension)}
        out["bodies"] = [body_to_json(b) for b in self.bodies]
        if self.options:
            out["options"] = {k: self.options[k] for k in OPTIONS
                              if k in self.options}
        if self.kkm is not None:
            out["kkm"] = {
                "points": _listify(self.kkm.points),
                "images": [body_to_json(g) for g in self.kkm.images],
            }
        if self.stabbing is not None:
            out["stabbing"] = {
                "flat": {"base": _listify(self.stabbing.w.base),
                         "basis": _listify(self.stabbing.w.basis)},
                "transversal": {"base": _listify(self.stabbing.v.base),
                                "basis": _listify(self.stabbing.v.basis)},
                "point": _listify(self.stabbing.point),
                "witnesses": _listify(self.stabbing_witnesses),
            }
        return out

    def __eq__(self, other):
        if not isinstance(other, Scene):
            return NotImplemented
        return self.to_json() == other.to_json()


def _listify(arr):
    return np.asarray(arr, dtype=float).tolist()


def body_to_json(body):
    """JSON description of a body, inverse of :func:`body_from_json`."""
    if isinstance(body, HPolytope):
        return {"kind": "hpoly", "normals": _listify(body.A),
                "offsets": _listify(body.b)}
    if isinstance(body, VPolytope):
        return {"kind": "vpoly", "vertices": _listify(body.vertices)}
    if isinstance(body, Ball):
        return {"kind": "ball", "center": _listify(body.center),
                "radius": float(body.radius)}
    if isinstance(body, IntersectionBody):
        return {"kind": "intersection",
                "parts": [body_to_json(b) for b in body.bodies],
                "witness": _listify(body.anchor)}
    raise SceneError(f"cannot serialize body of type {type(body).__name__}")


def _field(obj, key, path, kind=None):
    if key not in obj:
        raise SceneError(f"{path}: missing required key {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise SceneError(f"{path}.{key}: expected {kind.__name__}, "
                         f"got {type(val).__name__}")
    return val


@contextmanager
def _reading(path):
    """Read scene input under ``path``: any error raised while building from
    it becomes a :class:`SceneError` naming ``path``, chained to the cause.
    A :class:`SceneError` passes through unchanged."""
    try:
        yield
    except SceneError:
        raise
    except Exception as exc:
        raise SceneError(f"{path}: {exc}") from exc


def body_from_json(obj, dimension, path="body", tol=DEFAULT_TOL):
    """Build a body from its JSON description, checking the dimension;
    an intersection's witness is checked at ``tol``."""
    if not isinstance(obj, dict):
        raise SceneError(f"{path}: body must be an object")
    kind = _field(obj, "kind", path, str)
    with _reading(path):
        if kind == "hpoly":
            body = HPolytope(as_points(_field(obj, "normals", path, list), dimension),
                             _field(obj, "offsets", path, list))
        elif kind == "vpoly":
            body = VPolytope(as_points(_field(obj, "vertices", path, list), dimension))
        elif kind == "ball":
            body = Ball(as_point(_field(obj, "center", path, list), dimension),
                        _field(obj, "radius", path, (int, float)))
        elif kind == "intersection":
            parts = [body_from_json(p, dimension, f"{path}.parts[{i}]", tol)
                     for i, p in enumerate(_field(obj, "parts", path, list))]
            body = IntersectionBody(parts, witness=obj.get("witness"), tol=tol)
        else:
            raise SceneError(f"{path}: unknown body kind {kind!r}")
        _check_extent(*body.bounding_box())
    return body


def _check_extent(*coords):
    """Every oracle squares coordinates to measure distances, so a body
    whose bounding box, or a stabbing section whose points, have no finite
    squared norm are refused: their distances, supports and centroids
    would overflow to inf."""
    with np.errstate(over="ignore"):
        square = sum(np.ravel(c) @ np.ravel(c) for c in coords)
    if not np.isfinite(square):
        raise ValueError("coordinates too large: their squares overflow")


def _subspace_from_json(obj, dimension, path):
    with _reading(path):
        return AffineSubspace(as_point(_field(obj, "base", path, list), dimension),
                              _field(obj, "basis", path, list))


def _refuse_booleans(val, path):
    """No scene field takes a boolean, and a boolean is not a number."""
    if isinstance(val, bool):
        raise SceneError(f"{path}: a boolean is not a number")
    if isinstance(val, dict):
        for key, item in val.items():
            _refuse_booleans(item, f"{path}.{key}")
    elif isinstance(val, list):
        for i, item in enumerate(val):
            _refuse_booleans(item, f"{path}[{i}]")


def parse_scene(text, source="<scene>"):
    """Parse scene JSON text.  Every refusal is a :class:`SceneError` that
    names ``source`` and the body or section; syntax errors carry line and
    column positions."""
    with _reading(source):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SceneError(f"{source}: invalid JSON: {exc.msg}",
                             line=exc.lineno, column=exc.colno) from exc
    if not isinstance(raw, dict):
        raise SceneError(f"{source}: top level must be an object")
    schema = raw.get("schema")
    if schema != SCHEMA:
        raise SceneError(f"{source}: unsupported schema {schema!r}, "
                         f"expected {SCHEMA!r}")
    for key, val in raw.items():
        _refuse_booleans(val, f"{source}: {key}")
    dimension = raw.get("dimension")
    if not isinstance(dimension, int) or dimension < 1:
        raise SceneError(f"{source}: dimension must be a positive integer")
    bodies_json = raw.get("bodies")
    if not isinstance(bodies_json, list) or not bodies_json:
        raise SceneError(f"{source}: bodies must be a nonempty list")
    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise SceneError(f"{source}: options must be an object")
    clean = {}
    for key, val in options.items():
        if key not in OPTIONS:
            raise SceneError(f"{source}: unknown option {key!r}")
        if not isinstance(val, (int, float)):
            raise SceneError(f"{source}: option {key!r} must be a number")
        with _reading(f"{source}: option {key!r}"):
            clean[key] = OPTIONS[key][0](val)
    tol = clean.get("tol", DEFAULT_TOL)
    bodies = []
    problems = []
    for i, obj in enumerate(bodies_json):
        try:
            bodies.append(body_from_json(obj, dimension, f"bodies[{i}]", tol))
        except SceneError as exc:
            problems.append(str(exc))
    if problems:
        raise SceneError(f"{source}: {len(problems)} bad bodies",
                         details=tuple(problems))
    kkm = None
    if "kkm" in raw:
        sec = raw["kkm"]
        if not isinstance(sec, dict):
            raise SceneError(f"{source}: kkm must be an object")
        path = f"{source}: kkm"
        with _reading(path):
            points = as_points(_field(sec, "points", path, list), dimension)
            images = [body_from_json(g, dimension, f"{path}.images[{i}]", tol)
                      for i, g in enumerate(_field(sec, "images", path, list))]
            kkm = KkmInstance(points, tuple(images))
    stabbing = None
    stab_wit = None
    if "stabbing" in raw:
        sec = raw["stabbing"]
        if not isinstance(sec, dict):
            raise SceneError(f"{source}: stabbing must be an object")
        path = f"{source}: stabbing"
        with _reading(path):
            w = _subspace_from_json(_field(sec, "flat", path, dict),
                                    dimension, f"{path}.flat")
            v = _subspace_from_json(_field(sec, "transversal", path, dict),
                                    dimension, f"{path}.transversal")
            stab_wit = as_points(_field(sec, "witnesses", path, list), dimension)
            point = as_point(_field(sec, "point", path, list), dimension)
            _check_extent(w.base, v.base, stab_wit, point)
            stabbing = StabbingPair(w, v, point)
    return Scene(dimension=dimension, bodies=tuple(bodies), options=clean,
                 kkm=kkm, stabbing=stabbing, stabbing_witnesses=stab_wit)


def load_scene(path):
    """Parse a scene file from disk; one that is not UTF-8 is a SceneError."""
    with open(path, "rb") as fh:
        data = fh.read()
    with _reading(path):
        text = data.decode("utf-8")
    return parse_scene(text, source=str(path))


# values written as nested lists or objects rather than inline
_NESTED = (dict, list, tuple, set, frozenset, np.ndarray)


def _dump(obj, indent=0):
    """Canonical text of ``obj``; numpy arrays, tuples and sets are written as
    lists (sets sorted), numpy scalars as the Python numbers they hold."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, (set, frozenset)):
        obj = sorted(obj)
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_dump(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if not any(isinstance(v, _NESTED) for v in obj):
            return "[" + ", ".join(_dump(v) for v in obj) + "]"
        rows = [f"{pad}  {_dump(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # adding +0.0 folds negative zero, keeping the text re-parse stable
        x = float(obj) + 0.0
        if not math.isfinite(x):
            raise SceneError("cannot serialize non-finite number")
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise SceneError(f"cannot serialize value of type {type(obj).__name__}")


def dumps(obj):
    """Canonical JSON text: stable key order, indent 2, 17-digit floats."""
    return _dump(obj) + "\n"


def serialize_scene(scene):
    """Canonical scene text; ``parse_scene`` inverts it."""
    return dumps(scene.to_json())

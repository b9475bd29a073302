"""Spans around the package's public functions, recorded from outside `src/`.

`Tracer.install()` replaces each listed function or method by a wrapper that
records a span (layer, parent span, start, end, points) and restores the
originals on `restore()`.  A module-level function is replaced in every
`ellsqueeze` module that binds it by name (``cli`` imports
``squeeze_lower_bound``, ``squeeze`` imports ``normalize_point``, ...).
Spans live in flat in-memory arrays until `save()` writes them out.

A layer's self time is its spans' duration minus the time covered by their
child spans.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

import ellsqueeze.automorphisms as automorphisms
import ellsqueeze.cli as cli
import ellsqueeze.domain as domain
import ellsqueeze.domconv as domconv
import ellsqueeze.hermpoly as hermpoly
import ellsqueeze.scaling as scaling
import ellsqueeze.sequences as sequences
import ellsqueeze.squeeze as squeeze
import ellsqueeze.util as util
import ellsqueeze.wpoly as wpoly


def _points_of(arg_index: int) -> Callable:
    """Points in a (..., d) array argument: the product of its leading axes."""
    def points(args, kwargs, result):
        return math.prod(np.shape(args[arg_index])[:-1])
    return points


def _cloud_points(args, kwargs, result):
    return len(result)


def _exhaustion_points(args, kwargs, result):
    return result.cloud_size * len(result.a_grid)


# (layer, owner, attribute, points counter or None).  An owner is a class for
# methods and a module for functions.
LAYERS = [
    ("hermpoly.value", hermpoly.HermitianPolynomial, "value", _points_of(1)),
    ("hermpoly.gradient", hermpoly.HermitianPolynomial, "gradient", None),
    ("hermpoly.hessian", hermpoly.HermitianPolynomial, "hessian", None),
    ("hermpoly.compose_affine", hermpoly.HermitianPolynomial, "compose_affine", None),
    ("wpoly.eval", wpoly.WeightedPolynomial, "eval", None),
    ("util.complex_sphere", util, "complex_sphere", None),
    ("domain.boundary_cloud", domain.GeneralEllipsoid, "boundary_cloud", _cloud_points),
    ("domain.rho", domain.GeneralEllipsoid, "rho", _points_of(1)),
    ("domain.levi_min_eig", domain.GeneralEllipsoid, "levi_min_eig", None),
    ("automorphisms.apply", automorphisms.EllipsoidAutomorphism, "apply", _points_of(2)),
    ("automorphisms.normalize_point", automorphisms, "normalize_point", None),
    ("squeeze.lower_bound", squeeze, "squeeze_lower_bound", None),
    ("squeeze.ball_apply", squeeze.BallAutomorphism, "apply", _points_of(2)),
    ("squeeze.subdomain_grid", squeeze, "subdomain_grid", None),
    ("squeeze.analytic_floor", squeeze, "analytic_floor", None),
    ("scaling.build_frame", scaling, "build_frame", None),
    ("scaling.limit_diagnostics", scaling, "limit_diagnostics", None),
    ("domconv.exhaustion_check", domconv, "exhaustion_check", _exhaustion_points),
    ("sequences.generate", sequences, "generate", None),
    ("sequences.classify", sequences, "classify", None),
    ("cli.run", cli, "run", None),
]
NAMES = [layer for layer, *_ in LAYERS]


class Tracer:
    """Records nested spans while installed; single-threaded by design."""

    def __init__(self):
        self.enabled = True
        self._saved: List[tuple] = []
        self._stack: List[int] = []
        self.layer = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")

    def __len__(self) -> int:
        return len(self.layer)

    def _wrap(self, layer_id: int, fn: Callable, points: Optional[Callable]) -> Callable:
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(self.layer)
            self.layer.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            self.points.append(0)
            stack.append(sid)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                stack.pop()
            if points is not None:
                self.points[sid] = points(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items()
                   if name == "ellsqueeze" or name.startswith("ellsqueeze.")]
        for layer_id, (layer, owner, attr, points) in enumerate(LAYERS):
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer_id, original, points)
            if isinstance(owner, type):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own output checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def spans(self, first: int = 0, last: Optional[int] = None) -> Dict[str, np.ndarray]:
        """Span arrays for span ids [first, last), parents renumbered to match."""
        sl = slice(first, last)
        parent = np.asarray(self.parent[sl], dtype=np.int64)
        parent = np.where(parent >= first, parent - first, -1)
        return {
            "layer": np.asarray(self.layer[sl], dtype=np.int64),
            "parent": parent,
            "start": np.asarray(self.start[sl], dtype=np.float64),
            "end": np.asarray(self.end[sl], dtype=np.float64),
            "points": np.asarray(self.points[sl], dtype=np.int64),
        }

    def save(self, path, passes: List[tuple]) -> None:
        """Write every span and the [first, last) span range of each traced pass."""
        np.savez_compressed(path, names=np.array(NAMES), passes=np.array(passes, dtype=np.int64),
                            **self.spans())


def _under(spans: Dict[str, np.ndarray], layer: str) -> np.ndarray:
    """Mask of spans that have a `layer` span among their ancestors."""
    lid = NAMES.index(layer)
    parent = spans["parent"]
    has_parent = parent >= 0
    safe = np.where(has_parent, parent, 0)
    mask = has_parent & (spans["layer"][safe] == lid)
    while True:
        grown = mask | (has_parent & mask[safe])
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def layer_metrics(spans: Dict[str, np.ndarray]) -> Dict[str, float]:
    """Per-layer calls, points and self seconds, plus the derived ratios."""
    layer, parent, points = spans["layer"], spans["parent"], spans["points"]
    dur = spans["end"] - spans["start"]
    child = np.zeros(len(dur))
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    self_s = dur - child
    nl = len(NAMES)
    calls = np.bincount(layer, minlength=nl)
    pts = np.bincount(layer, weights=points, minlength=nl)
    selfs = np.bincount(layer, weights=self_s, minlength=nl)
    out: Dict[str, float] = {}
    for i, (name, _, _, counter) in enumerate(LAYERS):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_s"] = float(selfs[i])
        if counter is not None:
            out[f"{name}.points"] = int(pts[i])

    def lid(name):
        return NAMES.index(name)

    cloud = layer == lid("domain.boundary_cloud")
    sphere_children = parent[(layer == lid("util.complex_sphere")) & (parent >= 0)]
    miss = np.zeros(len(layer), dtype=bool)
    miss[sphere_children] = True
    miss &= cloud
    out["domain.boundary_cloud.miss_ratio"] = _ratio(miss.sum(), cloud.sum())
    in_cloud = _under(spans, "domain.boundary_cloud")
    rho = layer == lid("domain.rho")
    out["domain.rho_points_per_boundary_point"] = _ratio(
        points[rho & in_cloud].sum(), points[miss].sum())

    in_frame = _under(spans, "scaling.build_frame")
    out["scaling.line_solves"] = int((in_frame & (layer == lid("hermpoly.compose_affine"))).sum())
    value = in_frame & (layer == lid("hermpoly.value"))
    out["scaling.value_points_per_call"] = _ratio(points[value].sum(), value.sum())
    out["trace.spans"] = int(len(layer))
    out["trace.covered_s"] = float(dur[parent < 0].sum())
    return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0

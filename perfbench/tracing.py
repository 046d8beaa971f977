"""Spans around the package's public functions, kept in memory.

`Tracer.install` replaces each listed function, in the namespace of every
package module that holds it (the defining module and each module that
imported it by name), with a wrapper that records one span: the function,
its start and end, the span that was open when it was called, and the
job it ran in.  Nested calls through another module's namespace, such as
`meridians` calling `sphere.foliation_normal`, are therefore caught.
`uninstall` puts the original functions back.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter
from typing import Callable

import numpy as np

# (module, function) pairs whose calls and self time the traced run reports
LAYER_FUNCTIONS = (
    ("sphere", "profile_height"),
    ("sphere", "radius_field"),
    ("sphere", "foliation_normal"),
    ("sphere", "outer_normal"),
    ("sphere", "sphere_area"),
    ("sphere", "sphere_volume"),
    ("sphere", "pansu_radius"),
    ("meridians", "integrate_meridian"),
    ("meridians", "meridian_geodesic_residual"),
    ("meridians", "pansu_meridian_field"),
    ("curvature", "tangent_frame"),
    ("curvature", "second_fundamental_form"),
    ("curvature", "assemble_corrected_shape"),
    ("curvature", "corrected_shape"),
    ("foliation", "leaf_label_grid"),
    ("foliation", "leaf_label"),
    ("foliation", "calibration_divergence"),
    ("foliation", "vertical_label_bound"),
    ("foliation", "foliation_constants"),
    ("isoperimetry", "make_competitor"),
    ("isoperimetry", "deficit_report"),
    ("isoperimetry", "jacobi_residual"),
    ("isoperimetry", "subriemannian_hemisphere_area"),
    ("ambient", "curvature_operator"),
    ("ambient", "vector_to_coordinates"),
    ("ambient", "christoffel_frame"),
    ("cli", "main"),
)

JOB = "job"
PACKAGE = "heisenberg_cmc"


def _points(args, kwargs) -> int:
    """Number of radii (profile_height) or cylinder points (leaf_label_grid)."""
    if len(args) >= 3:
        return int(np.broadcast(args[1], args[2]).size)
    return int(np.size(args[1] if len(args) > 1 else kwargs["r"]))


# work counted at the boundary of a function: name -> (args, kwargs, result) -> count
COUNTERS: dict[str, Callable] = {
    "sphere.profile_height": lambda a, k, res: _points(a, k),
    "foliation.leaf_label_grid": lambda a, k, res: _points(a, k),
    "meridians.integrate_meridian": lambda a, k, res: len(res),
}


class Tracer:
    """Span recorder; columns are arrays so a long run stays small in memory."""

    def __init__(self) -> None:
        self.names: list[str] = [JOB]
        self._ids = {JOB: 0}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.job_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.work: dict[str, int] = {name: 0 for name in COUNTERS}
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.job_col.append(self.job)
        self.end_col.append(0.0)
        self._stack.append(idx)
        self.start_col.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end_col[idx] = perf_counter()
        self._stack.pop()

    def run_job(self, job_id: int, fn, *args):
        """Run one job of the workload under a span of its own."""
        self.job = job_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.work[name] += counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], fn_name)
            traced = self.wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> tuple[dict[str, int], dict[str, float], float]:
        """Calls and self time (s) per name, and the summed job time (s).

        A span's self time is its duration minus the durations of the
        spans opened directly inside it.
        """
        names = np.frombuffer(self.name_col, dtype=np.int32)
        parent = np.frombuffer(self.parent_col, dtype=np.int32)
        dur = np.frombuffer(self.end_col) - np.frombuffer(self.start_col)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        own_by_name = np.bincount(names, weights=own, minlength=len(self.names))
        job_s = float(dur[names == 0].sum())
        return ({n: int(calls[i]) for i, n in enumerate(self.names)},
                {n: float(own_by_name[i]) for i, n in enumerate(self.names)},
                job_s)

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            parent=np.frombuffer(self.parent_col, dtype=np.int32),
            job=np.frombuffer(self.job_col, dtype=np.int32),
            start=np.frombuffer(self.start_col),
            end=np.frombuffer(self.end_col),
        )

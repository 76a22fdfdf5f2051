"""In-memory spans around the calls each ``mahf`` module makes into another.

A :class:`Tracer` replaces a function on the module that *calls* it (for
example ``mahf.filters.chebyshev_apply``, not ``mahf.spectral``), so only
that caller's calls are recorded.  Each span holds a name, start, end,
parent and the invocation it belongs to, plus a few counts taken from the
call's arguments and result.  Nothing under ``src/`` changes: the bindings
are restored when the tracer is closed.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cheb_counts(args, kwargs, result) -> dict:
    op, x = args[0], np.asarray(args[2])
    order = args[3] if len(args) > 3 else kwargs["order"]
    columns = 1 if x.ndim == 1 else x.shape[1]
    nnz, n = op.stiffness.nnz, op.n
    return {"columns": columns, "order": order, "entries": columns * n,
            # computed, not counted: per column and order one CSR product
            # (2 nnz) and seven length-N vector operations in the recurrence
            "gflop": columns * order * (2 * nnz + 7 * n) / 1e9}


def _threshold_counts(args, kwargs, result) -> dict:
    return {"kept": int(result[1].shape[0])}


def _knn_counts(args, kwargs, result) -> dict:
    points = np.ascontiguousarray(args[0], dtype=np.float64)
    return {"query": hash((points.tobytes(), args[1]))}


def _file_counts(args, kwargs, result) -> dict:
    """Size of the file read or written; its path is the first argument."""
    return {"mb": os.path.getsize(args[0]) / 1e6}


# (module whose binding is replaced, attribute, span name, counter)
TRACED = [
    ("mahf.cli", "parse_mesh", "io_mesh.parse_mesh", _file_counts),
    ("mahf.cli", "parse_signal", "io_mesh.parse_signal", _file_counts),
    ("mahf.cli", "write_response", "io_mesh.write_response", _file_counts),
    ("mahf.cli", "cotan_operator", "laplacian.cotan_operator", None),
    ("mahf.cli", "gaussian_knn_operator", "laplacian.gaussian_knn_operator", None),
    ("mahf.cli", "vertex_normals", "geometry.vertex_normals", None),
    ("mahf.cli", "pca_normals", "geometry.pca_normals", None),
    ("mahf.cli", "build_frames", "geometry.build_frames", None),
    ("mahf.cli", "apply_filter", "filters.apply_filter", None),
    ("mahf.cli", "normal_variation", "filters.normal_variation", None),
    ("mahf.cli", "mhw_normal_variation", "baselines.mhw_normal_variation", None),
    ("mahf.cli", "heat_kernel_row", "spectral.heat_kernel_row", None),
    ("mahf.laplacian", "knn", "geometry.knn", _knn_counts),
    ("mahf.geometry", "knn", "geometry.knn", _knn_counts),
    ("mahf.laplacian", "estimate_lambda_max", "laplacian.estimate_lambda_max", None),
    ("mahf.filters", "chebyshev_apply", "spectral.chebyshev_apply", _cheb_counts),
    ("mahf.filters", "threshold_row", "spectral.threshold_row", _threshold_counts),
    ("mahf.spectral", "chebyshev_apply", "spectral.chebyshev_apply", _cheb_counts),
    ("mahf.spectral", "threshold_row", "spectral.threshold_row", _threshold_counts),
    ("mahf.baselines", "chebyshev_apply", "spectral.chebyshev_apply", _cheb_counts),
]
ROOT_SPAN = "cli.main"


class Tracer:
    """Records spans around the :data:`TRACED` bindings while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._invocation = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counter, caller):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(span_id, name, 0.0, 0.0, parent, self._invocation,
                        {"caller": caller})
            self.spans.append(span)
            self._stack.append(span_id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counter in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter,
                                             module_name.split(".")[-1]))

    def close(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def run_main(self, main, argv) -> int:
        """One CLI invocation under a root span; its spans share an id."""
        self._invocation += 1
        return self._wrap(main, ROOT_SPAN, None, "perfbench")(argv)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


# metric -> (span names, "total" or "self"); "self" excludes child spans,
# so knn inside an operator or a normal estimate counts once, as geometry.knn
LAYER_TIMES = {
    "cli.self_s": ((ROOT_SPAN,), "self"),
    "io_mesh.parse_s": (("io_mesh.parse_mesh", "io_mesh.parse_signal"), "total"),
    "io_mesh.write_s": (("io_mesh.write_response",), "total"),
    "geometry.normals_s": (("geometry.vertex_normals", "geometry.pca_normals"), "self"),
    "geometry.knn_s": (("geometry.knn",), "total"),
    "geometry.frames_s": (("geometry.build_frames",), "total"),
    "laplacian.assemble_s": (("laplacian.cotan_operator",
                              "laplacian.gaussian_knn_operator"), "self"),
    "laplacian.bound_s": (("laplacian.estimate_lambda_max",), "total"),
    "spectral.cheb_s": (("spectral.chebyshev_apply",), "self"),
    "spectral.threshold_s": (("spectral.threshold_row",), "total"),
    "spectral.kernel_row_s": (("spectral.heat_kernel_row",), "total"),
    "filters.apply_s": (("filters.apply_filter", "filters.normal_variation"), "total"),
    "filters.self_s": (("filters.apply_filter", "filters.normal_variation"), "self"),
    "baselines.mhw_s": (("baselines.mhw_normal_variation",), "total"),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times and counts from one traced iteration's spans."""
    selfs = self_times(spans)
    out = {}
    for metric, (names, kind) in LAYER_TIMES.items():
        out[metric] = sum(st if kind == "self" else s.duration
                          for s, st in zip(spans, selfs) if s.name in names)

    def picked(name, callers=None):
        return [s for s in spans if s.name == name
                and (callers is None or s.counts["caller"] in callers)]

    cheb = picked("spectral.chebyshev_apply")
    knn = picked("geometry.knn")
    # kernel columns are what filters and kernel rows threshold; the
    # baseline's columns are signals and are never thresholded
    kernel_cheb = picked("spectral.chebyshev_apply", ("filters", "spectral"))
    kept = sum(s.counts["kept"] for s in picked("spectral.threshold_row"))
    entries = sum(s.counts["entries"] for s in kernel_cheb)
    out.update({
        "io_mesh.parse_mb": sum(s.counts["mb"] for s in spans
                                if s.name in ("io_mesh.parse_mesh", "io_mesh.parse_signal")),
        "io_mesh.write_mb": sum(s.counts["mb"] for s in picked("io_mesh.write_response")),
        "geometry.knn_calls": len(knn),
        "geometry.knn_distinct": len({s.counts["query"] for s in knn}),
        "spectral.cheb_calls": len(cheb),
        "spectral.col_iters": sum(s.counts["columns"] * s.counts["order"] for s in cheb),
        "spectral.gflop": sum(s.counts["gflop"] for s in cheb),
        "spectral.useful_frac": kept / entries if entries else 0.0,
        "filters.pairs": sum(s.counts["kept"] for s in picked("spectral.threshold_row",
                                                              ("filters",))),
    })
    out["spectral.gflops"] = (out["spectral.gflop"] / out["spectral.cheb_s"]
                              if out["spectral.cheb_s"] > 0 else 0.0)
    return out


def largest_self_time(spans: list[Span]) -> str:
    """Name of the span kind with the largest summed self time."""
    totals: dict[str, float] = {}
    for s, st in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + st
    return max(totals, key=totals.get)

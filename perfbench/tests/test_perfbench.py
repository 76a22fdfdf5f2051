"""Tests of the benchmark's own code: reference, span arithmetic, names.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from mahf import (FilterSpec, HeatParams, MhwSpec, apply_filter, build_frames,  # noqa: E402
                  cotan_operator, mhw_normal_variation, vertex_normals)
from mahf.synthetic import icosphere  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def small_sphere():
    mesh = icosphere(2, 50.0)
    op = cotan_operator(mesh)
    normals = vertex_normals(mesh)
    return mesh, op, normals, oracle.DenseOracle(op.stiffness, op.mass)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_reference_contraction_matches_apply_filter(small_sphere, k):
    mesh, op, normals, dense = small_sphere
    signal = np.random.default_rng(k).standard_normal(mesh.n_vertices)
    t = 40.0
    got = apply_filter(op, build_frames(normals), mesh.vertices,
                       FilterSpec(k, HeatParams(t)), signal)
    ref = oracle.contraction(dense.kernel(t), op.mass, mesh.vertices, normals, k, signal,
                             HeatParams(t).support_threshold)
    r2 = np.abs(ref[:, 0]) ** 2
    assert oracle.relative_error(got.r2, r2) < oracle.REL_TOL
    if k == 0:
        assert oracle.relative_error(got.r_real, ref[:, 0].real) < oracle.REL_TOL


def test_reference_mhw_matches_baseline(small_sphere):
    mesh, op, normals, dense = small_sphere
    got = mhw_normal_variation(mesh, op, MhwSpec(20.0)).values
    ref = np.sum(dense.mhw(20.0, normals) ** 2, axis=1)
    assert oracle.relative_error(got, ref) < oracle.REL_TOL


def test_read_field_takes_the_quality_column(tmp_path):
    path = tmp_path / "r.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                    "property float y\nproperty float z\nproperty float quality\n"
                    "element face 0\nproperty list uchar int vertex_indices\n"
                    "end_header\n0 0 0 1.5\n1 0 0 -2.25\n")
    np.testing.assert_array_equal(oracle.read_field(path), [1.5, -2.25])


def _span(i, name, start, end, parent, **counts):
    return Span(i, name, start, end, parent, 0, {"caller": "filters", **counts})


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, "cli.main", 0.0, 10.0, None),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 3.0, 6.0, 0),      # overlaps a: the union counts once
        _span(3, "c", 2.0, 3.0, 1),      # grandchild: only a loses it
        _span(4, "d", 9.0, 12.0, 0),     # clipped to the parent's end
    ]
    assert self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_layer_metrics_split_nested_spans():
    tree = [
        _span(0, "cli.main", 0.0, 10.0, None),
        _span(1, "filters.apply_filter", 1.0, 9.0, 0),
        _span(2, "spectral.chebyshev_apply", 2.0, 7.0, 1,
              columns=4, order=50, entries=400, gflop=0.5),
        _span(3, "laplacian.estimate_lambda_max", 2.0, 3.0, 2),
        _span(4, "spectral.threshold_row", 7.0, 8.0, 1, kept=10),
    ]
    m = layer_metrics(tree)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["filters.apply_s"] == pytest.approx(8.0)
    assert m["filters.self_s"] == pytest.approx(2.0)
    assert m["spectral.cheb_s"] == pytest.approx(4.0)
    assert m["laplacian.bound_s"] == pytest.approx(1.0)
    assert m["spectral.col_iters"] == 200
    assert m["spectral.useful_frac"] == pytest.approx(10 / 400)
    assert m["spectral.gflops"] == pytest.approx(0.5 / 4.0)
    assert m["filters.pairs"] == 10


def test_tracer_restores_every_binding():
    import mahf.filters
    original = mahf.filters.chebyshev_apply
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mahf.filters.chebyshev_apply is not original
    finally:
        tracer.close()
    assert mahf.filters.chebyshev_apply is original


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    pct, value = run.tail(list(range(20)))
    assert (pct, value) == (50.0, 9)


def test_names_are_well_formed_and_consistent():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] + list(WORKLOADS)
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += list(spans.LAYER_TIMES) + list(run.DIAGNOSTICS)
    assert all(NAME.fullmatch(n) for n in names), names
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    produced = set(layer_metrics([_span(0, "cli.main", 0.0, 1.0, None)]))
    produced |= {"cli.startup_s", "laplacian.bound_ratio", "trace.overhead_s"}
    listed = {m["name"] for m in spec["per_layer"]} | set(run.DIAGNOSTICS)
    assert listed <= produced

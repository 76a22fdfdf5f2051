"""Command-line surface: ingest, assemble, filter, emit.

Every command writes its response fields plus a JSON manifest that records
all parameters and the library version, so a run can be re-executed exactly.
Exit codes: 0 success, 1 internal or numerical failure, 2 usage or input
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import __version__, geometry
from .baselines import MhwSpec, mhw_normal_variation
from .errors import (GeometryError, MahfError, MeshFormatError, NumericalError,
                     OperatorError, SignalFormatError)
from .filters import FilterSpec, apply_filter, fuse, heat_kernel_row, normal_variation
from .geometry import build_frames, pca_normals, vertex_normals
from .io_mesh import (REC601_WEIGHTS, Mesh, VertexSignal, parse_mesh, parse_mesh_property,
                      parse_signal, rgb_to_luminance, write_response, write_signal_csv)
from .laplacian import cotan_operator, gaussian_knn_operator
from .spectral import HeatParams


def _add_mesh_args(p):
    p.add_argument("--mesh", required=True, help="input mesh or point-cloud file")
    p.add_argument("--mesh-format", choices=["off", "obj", "ply"], default=None,
                   help="override the format inferred from the suffix")
    p.add_argument("--triangulate", action="store_true",
                   help="fan-triangulate polygonal faces instead of rejecting them")


def _add_operator_args(p):
    p.add_argument("--operator", choices=["cotangent", "gaussian-knn"], default=None,
                   help="default: cotangent for meshes, gaussian-knn for point clouds")
    p.add_argument("--knn", type=_int_from(1, "neighbor count must be at least 1"),
                   default=8, help="neighbor count for gaussian-knn")
    p.add_argument("--sigma", type=_sigma, default="auto",
                   help="gaussian width, or 'auto' for the mean k-th neighbor distance")


def _float_in(lo: float, hi: float, requirement: str):
    """An argparse type: a finite float in ``[lo, hi)``, so that a value out
    of range is a usage error before any input is read; ``-0`` reads as 0."""
    def parse(raw: str) -> float:
        value = float(raw)
        if not (lo <= value < hi and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"{requirement}, got {raw}")
        return value + 0.0
    # argparse names the type in its message for a value that is no number
    parse.__name__ = "float"
    return parse


def _int_from(lo: int, requirement: str):
    """An argparse type: an integer of at least ``lo``, checked as
    :func:`_float_in` checks a float."""
    def parse(raw: str) -> int:
        value = int(raw)
        if value < lo:
            raise argparse.ArgumentTypeError(f"{requirement}, got {raw}")
        return value
    parse.__name__ = "int"
    return parse


def _sigma(raw: str) -> str:
    """An argparse type: ``auto`` or a positive finite width, kept as given
    so that the manifest records it as typed."""
    if raw != "auto":
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"sigma must be a positive finite number or 'auto', got {raw}")
    return raw


def _add_heat_args(p):
    p.add_argument("--t", dest="ts", action="append", required=True, metavar="T",
                   type=_float_in(0, math.inf,
                                  "diffusion time must be finite and nonnegative"),
                   help="diffusion time; repeat for a multiscale sweep")
    p.add_argument("--support-threshold", default=1e-4,
                   type=_float_in(0, 1, "support threshold must lie in [0, 1)"),
                   help="relative kernel cutoff defining the localized support")
    p.add_argument("--area-normalize-t", action="store_true",
                   help="interpret t relative to a unit-area surface "
                        "(multiplies t by the total mass)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahf",
        description="Multiscale anisotropic harmonic filtering of signals "
                    "on meshes, point clouds and graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("filter", help="filter a per-vertex scalar signal")
    _add_mesh_args(p)
    _add_operator_args(p)
    _add_heat_args(p)
    p.add_argument("--k", type=_int_from(0, "harmonic order must be nonnegative"),
                   default=1, help="harmonic order")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--signal", default=None, help="CSV file with one value per vertex")
    source.add_argument("--signal-property", default=None,
                        help="name of a per-vertex scalar property in the input PLY")
    source.add_argument("--luminance", action="store_true",
                        help="use the luminance of per-vertex colors as the signal")
    p.add_argument("--luma-weights", nargs=3, default=list(REC601_WEIGHTS),
                   type=_float_in(-math.inf, math.inf, "luma weights must be finite"),
                   metavar=("R", "G", "B"), help="luminance conversion weights")
    p.add_argument("--field", choices=["r2", "real", "imag"], default="r2",
                   help="which response component to write")
    p.add_argument("--out", required=True, help="output path (.ply or .csv)")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("normal-variation",
                       help="aggregate filter response over the normal components")
    _add_mesh_args(p)
    _add_operator_args(p)
    _add_heat_args(p)
    p.add_argument("--k", type=_int_from(0, "harmonic order must be nonnegative"),
                   default=1, help="harmonic order")
    p.add_argument("--baseline", choices=["mhw"], default=None,
                   help="write the Mexican Hat Wavelet aggregate instead")
    p.add_argument("--out", required=True, help="output path (.ply or .csv)")
    p.set_defaults(func=cmd_normal_variation)

    p = sub.add_parser("fuse", help="weighted sum of two response fields")
    p.add_argument("--a", required=True, help="first field (CSV or PLY)")
    p.add_argument("--b", required=True, help="second field (CSV or PLY)")
    p.add_argument("--a-property", default="quality")
    p.add_argument("--b-property", default="quality")
    p.add_argument("--beta", required=True,
                   type=_float_in(0, math.inf, "beta must be finite and nonnegative"),
                   help="weight of the second field")
    p.add_argument("--mesh", default=None, help="mesh file, required for PLY output")
    p.add_argument("--mesh-format", choices=["off", "obj", "ply"], default=None)
    p.add_argument("--triangulate", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("kernel", help="emit heat-kernel rows as scalar fields")
    _add_mesh_args(p)
    _add_operator_args(p)
    _add_heat_args(p)
    p.add_argument("--vertex", type=_int_from(0, "vertex index must be nonnegative"),
                   required=True, help="source vertex index")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kernel)
    return parser


def _load_mesh(args):
    return parse_mesh(args.mesh, fmt=args.mesh_format, triangulate=args.triangulate)


def _knn_cache(mesh):
    """``k -> knn(mesh.vertices, k)``, building each graph once."""
    # through the module, so that a wrapper installed on mahf.geometry.knn sees it
    return functools.cache(lambda k: geometry.knn(mesh.vertices, k))


def _build_operator(args, mesh, graphs=None):
    kind = args.operator
    if kind is None:
        kind = "cotangent" if mesh.n_faces else "gaussian-knn"
    if kind == "cotangent":
        if mesh.n_faces == 0:
            raise OperatorError("cotangent operator requested for a point cloud; "
                                "use --operator gaussian-knn")
        return cotan_operator(mesh), kind
    sigma = args.sigma if args.sigma == "auto" else float(args.sigma)
    return gaussian_knn_operator(mesh.vertices, args.knn, sigma,
                                 nbrs=(graphs or _knn_cache(mesh))(args.knn)), kind


def _normals_for(args, mesh, graphs=None):
    """File normals, else face-based normals, else PCA normals of the cloud."""
    if mesh.normals is not None:
        return mesh.normals
    if mesh.n_faces:
        return vertex_normals(mesh)
    k = max(args.knn, 3)
    return pca_normals(mesh.vertices, k, nbrs=(graphs or _knn_cache(mesh))(k))


def _frames_for(args, mesh, graphs=None):
    """Tangent frames and the normals they come from (perfbench repeats the
    CLI set-up through this and :func:`_build_operator`)."""
    normals = _normals_for(args, mesh, graphs)
    return build_frames(normals), normals


def _distinct_ts(args) -> list[float]:
    """The distinct ``--t`` values, increasing.  Each names its file by ``{t:g}``,
    a monotone rounding, so two that would name one file are neighbours."""
    ts = sorted(set(args.ts))
    for a, b in zip(ts, ts[1:]):
        if f"{a:g}" == f"{b:g}":
            raise ValueError(f"--t {a!r} and --t {b!r} would write one file (_t{a:g}); "
                             "scales must differ when rounded to 6 significant digits")
    return ts


def _effective_ts(args, ts, op):
    if args.area_normalize_t:
        total = float(op.mass.sum())
        return [t * total for t in ts]
    return ts


def _suffixed(out: Path, tag: str) -> Path:
    return out.with_name(f"{out.stem}{tag}{out.suffix}")


def _output_path(raw: str) -> Path:
    """``--out`` as a path, checked for a .ply or .csv suffix and an existing
    directory before any work."""
    out = Path(raw)
    if out.suffix.lower() not in (".ply", ".csv"):
        raise ValueError(f"output must be .ply or .csv, got {out.suffix!r}")
    if not out.parent.is_dir():
        raise FileNotFoundError(f"no such output directory: {out.parent}")
    return out


def _write_manifest(out: Path, command: str, parameters: dict, outputs: list[Path]):
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": parameters,
        "outputs": [str(p) for p in outputs],
    }
    path = out.with_name(f"{out.stem}_manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _emit(command: str, args, out: Path, mesh, kind: str, ts: list[float],
          fields: list[tuple[Path, VertexSignal]], **parameters):
    """Write each ``(path, field)`` of ``fields`` through :func:`write_response`,
    which takes the format from the suffix :func:`_output_path` checked, then
    the manifest: the parameters every mesh command shares plus
    ``parameters``."""
    for path, field in fields:
        write_response(path, mesh, field)
    _write_manifest(out, command, {
        "mesh": str(args.mesh),
        "mesh_format": args.mesh_format,
        "triangulate": args.triangulate,
        "operator": kind,
        "knn": args.knn,
        "sigma": args.sigma,
        "t": ts,
        "support_threshold": args.support_threshold,
        "area_normalize_t": args.area_normalize_t,
        "out": str(out),
        **parameters,
    }, [path for path, _ in fields])


def _filter_specs(args, ts_eff):
    """One spec per effective t; a list makes the library run a single pass."""
    return [FilterSpec(args.k, HeatParams(t, args.support_threshold)) for t in ts_eff]


def cmd_filter(args) -> int:
    out = _output_path(args.out)
    ts = _distinct_ts(args)
    if args.signal_property is not None:
        # one read of the PLY gives the mesh and its property
        mesh, signal = parse_mesh_property(args.mesh, args.signal_property,
                                           fmt=args.mesh_format, triangulate=args.triangulate)
        source = {"signal_property": args.signal_property}
    else:
        mesh = _load_mesh(args)
        if args.signal is not None:
            signal = parse_signal(args.signal, expected_length=mesh.n_vertices)
            source = {"signal": str(args.signal)}
        else:
            signal = rgb_to_luminance(mesh, weights=args.luma_weights)
            source = {"luminance": True, "luma_weights": list(args.luma_weights)}

    graphs = _knn_cache(mesh)
    op, kind = _build_operator(args, mesh, graphs)
    frames, _ = _frames_for(args, mesh, graphs)
    ts_eff = _effective_ts(args, ts, op)
    responses = apply_filter(op, frames, mesh.vertices, _filter_specs(args, ts_eff), signal)
    component = {"r2": "r2", "real": "r_real", "imag": "r_imag"}[args.field]
    fields = [(_suffixed(out, f"_k{args.k}_t{t:g}"),
               VertexSignal(getattr(response, component), name=args.field))
              for t, response in zip(ts, responses)]
    _emit("filter", args, out, mesh, kind, ts, fields,
          k=args.k, field=args.field, **source)
    return 0


def cmd_normal_variation(args) -> int:
    out = _output_path(args.out)
    ts = _distinct_ts(args)
    if args.baseline == "mhw":
        # MhwSpec refuses t = 0, the one --t value it cannot take
        for t in ts:
            MhwSpec(t)
    mesh = _load_mesh(args)
    graphs = _knn_cache(mesh)
    op, kind = _build_operator(args, mesh, graphs)
    normals = _normals_for(args, mesh, graphs)
    if mesh.normals is None:
        mesh = Mesh(mesh.vertices, mesh.faces, colors=mesh.colors, normals=normals)
    ts_eff = _effective_ts(args, ts, op)
    if args.baseline == "mhw":
        # the baseline is isotropic: it reads the normals, never frames
        results = mhw_normal_variation(mesh, op, [MhwSpec(t) for t in ts_eff])
    else:
        results = normal_variation(mesh, op, build_frames(normals),
                                   _filter_specs(args, ts_eff))
    fields = [(_suffixed(out, f"_k{args.k}_t{t:g}") if len(ts) > 1 else out, field)
              for t, field in zip(ts, results)]
    _emit("normal-variation", args, out, mesh, kind, ts, fields,
          k=args.k, baseline=args.baseline)
    return 0


def cmd_fuse(args) -> int:
    out = _output_path(args.out)
    if out.suffix.lower() == ".ply" and args.mesh is None:
        raise ValueError("PLY output requires --mesh")
    a = parse_signal(args.a, property_name=args.a_property)
    b = parse_signal(args.b, property_name=args.b_property)
    fused = fuse(a, b, args.beta)
    if out.suffix.lower() == ".ply":
        write_response(out, _load_mesh(args), fused)
    else:
        write_signal_csv(out, fused)
    _write_manifest(out, "fuse", {
        "a": str(args.a), "b": str(args.b),
        "a_property": args.a_property, "b_property": args.b_property,
        "beta": args.beta, "mesh": args.mesh, "out": str(out),
    }, [out])
    return 0


def cmd_kernel(args) -> int:
    out = _output_path(args.out)
    ts = _distinct_ts(args)
    mesh = _load_mesh(args)
    if not 0 <= args.vertex < mesh.n_vertices:
        raise ValueError(f"vertex {args.vertex} out of range for "
                         f"{mesh.n_vertices} vertices")
    op, kind = _build_operator(args, mesh)
    rows = heat_kernel_row(op, [HeatParams(t, args.support_threshold)
                                for t in _effective_ts(args, ts, op)], args.vertex)
    fields = [(_suffixed(out, f"_v{args.vertex}_t{t:g}"), VertexSignal(values, name="kernel"))
              for t, values in zip(ts, rows)]
    _emit("kernel", args, out, mesh, kind, ts, fields, vertex=args.vertex)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return int(args.func(args) or 0)
    except (FileNotFoundError, IsADirectoryError, PermissionError,
            MeshFormatError, SignalFormatError, GeometryError, OperatorError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    except MahfError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""ASCII mesh and per-vertex signal I/O.

Reads and writes the ASCII variants of OFF, OBJ and PLY plus newline-separated
CSV columns for per-vertex scalars.  Vertex order is authoritative: every
signal and response field is positionally aligned with the vertex sequence of
the file it came from.  Binary PLY is rejected; ASCII keeps the surface
testable and diffable.  The numbers of every record stream through one
conversion (``_numbers``), and every polygon is fanned from its first corner,
in record order, by one triangulation (``_fan_triangles``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MeshFormatError, SignalFormatError

REC601_WEIGHTS = (0.299, 0.587, 0.114)

# %.17g round-trips float64 exactly through decimal text
_FMT = "%.17g"

_PLY_INT_TYPES = {"char", "uchar", "short", "ushort", "int", "uint",
                  "int8", "uint8", "int16", "uint16", "int32", "uint32"}


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh, or a point cloud when ``faces`` is empty.

    Parameters
    ----------
    vertices : (N, 3) float array
        Vertex positions in model units.
    faces : (F, 3) int array
        Vertex-index triples; may be empty for point clouds.
    colors : (N, 3) float array, optional
        Per-vertex RGB in [0, 1].
    normals : (N, 3) float array, optional
        Per-vertex unit normals.
    """

    vertices: np.ndarray
    faces: np.ndarray
    colors: np.ndarray | None = None
    normals: np.ndarray | None = None

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError(f"vertices must be (N, 3), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices contain non-finite values")
        f = np.asarray(self.faces, dtype=np.int64)
        if f.size == 0:
            f = np.zeros((0, 3), dtype=np.int64)
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError(f"faces must be (F, 3), got {f.shape}")
        n = v.shape[0]
        if f.size:
            if f.min() < 0 or f.max() >= n:
                raise ValueError("face index out of range")
            degenerate = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
            if degenerate.any():
                raise ValueError(f"face {int(np.flatnonzero(degenerate)[0])} repeats a vertex index")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", np.ascontiguousarray(f))

        if self.colors is not None:
            c = np.ascontiguousarray(np.asarray(self.colors, dtype=np.float64))
            if c.shape != (n, 3):
                raise ValueError(f"colors must be ({n}, 3), got {c.shape}")
            # written so that a NaN fails the check as well
            if not (c.min() >= -1e-9 and c.max() <= 1 + 1e-9):
                raise ValueError("colors must be finite and lie in [0, 1]")
            object.__setattr__(self, "colors", np.clip(c, 0.0, 1.0))
        if self.normals is not None:
            m = np.ascontiguousarray(np.asarray(self.normals, dtype=np.float64))
            if m.shape != (n, 3):
                raise ValueError(f"normals must be ({n}, 3), got {m.shape}")
            norms = np.linalg.norm(m, axis=1)
            if not np.max(np.abs(norms - 1.0)) <= 1e-6:
                raise ValueError("normals must be finite and have unit length (within 1e-6)")
            object.__setattr__(self, "normals", m)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]


@dataclass(frozen=True)
class VertexSignal:
    """Real scalar per vertex, positionally aligned with a mesh."""

    values: np.ndarray
    name: str = "signal"

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64)).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError(f"signal '{self.name}' contains non-finite values")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


def signal_values(s) -> np.ndarray:
    """The values of a :class:`VertexSignal`, or ``s`` as a float64 array."""
    if isinstance(s, VertexSignal):
        return s.values
    return np.asarray(s, dtype=np.float64)


def _meaningful_lines(text: str) -> list[str]:
    """Non-empty lines with '#' comments stripped (OFF/OBJ convention)."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _numbers(rows, kind, path, what):
    """Every token of ``rows`` (token sequences) through ``kind`` (``float``
    or ``int``) into one flat array, streamed so that no list of all tokens
    is built, and each row's token count."""
    counts = []

    def tokens():
        for row in rows:
            counts.append(len(row))
            yield from row

    try:
        values = np.fromiter(map(kind, tokens()), np.float64 if kind is float else np.int64)
    except ValueError as exc:
        raise MeshFormatError(f"{path}: non-numeric token in {what}: {exc}") from None
    except OverflowError:
        raise MeshFormatError(f"{path}: integer beyond int64 in {what}") from None
    return values, np.array(counts, dtype=np.int64)


def _vertex_records(lines, widths, path):
    """Positions of the vertex records ``lines``, each of ``widths`` or at
    least 6 columns, and the colors in columns 3-5 of those with 6 or more."""
    values, columns = _numbers(map(str.split, lines), float, path, "vertex record")
    bad = ~np.isin(columns, widths) & (columns < 6)
    if bad.any():
        raise MeshFormatError(f"{path}: vertex record with {columns[np.argmax(bad)]} columns")
    at = (np.cumsum(columns) - columns)[:, None] + np.arange(3)
    return values[at], values[at[columns >= 6] + 3]


def _scale_colors(c: np.ndarray) -> np.ndarray:
    # byte-valued colors are common in OFF/COFF files
    if c.size and c.max() > 1.0 + 1e-9:
        c = c / 255.0
    return c


# the norms whose squares are normal float64 numbers
_NORM_RANGE = np.sqrt(np.finfo(np.float64).tiny), np.sqrt(np.finfo(np.float64).max)


def _unit_normals(m: np.ndarray, path) -> np.ndarray:
    """Normal records scaled to unit length; a record whose squared norm
    over- or underflows is divided by its largest magnitude first."""
    if not np.all(np.isfinite(m)):
        raise MeshFormatError(f"{path}: non-finite vertex normal")
    peak = np.abs(m).max(axis=1)
    if np.any(peak == 0):
        raise MeshFormatError(f"{path}: zero-length vertex normal")
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(m, axis=1)
    extreme = ~((norms >= _NORM_RANGE[0]) & (norms <= _NORM_RANGE[1]))
    m = np.where(extreme[:, None], m / peak[:, None], m)
    return m / np.where(extreme, np.linalg.norm(m, axis=1), norms)[:, None]


def _fan_triangles(corners: np.ndarray, sides: np.ndarray, triangulate: bool, path):
    """Triangles of the polygons listed one after another in ``corners``, with
    ``sides`` corners each: fans from each first corner, in polygon order."""
    bad = sides < 3 if triangulate else sides != 3
    if bad.any():
        n = int(sides[np.argmax(bad)])
        if n < 3:
            raise MeshFormatError(f"{path}: face with fewer than 3 vertices")
        raise MeshFormatError(
            f"{path}: non-triangle face with {n} sides "
            "(pass triangulate=True to fan-triangulate)")
    fans = sides - 2
    first = np.repeat(np.cumsum(sides) - sides, fans)
    # triangle j of a polygon joins its corners 0, j + 1 and j + 2
    j = np.arange(first.size) - np.repeat(np.cumsum(fans) - fans, fans)
    return corners[np.column_stack([first, first + j + 1, first + j + 2])]


def _face_records(rows, triangulate, path):
    """Triangles of the ``n i0 ... i(n-1)`` face records of OFF and PLY."""
    values, counts = _numbers(map(str.split, rows), int, path, "face record")
    heads = np.cumsum(counts) - counts
    if np.any(values[heads] != counts - 1):
        raise MeshFormatError(f"{path}: face record arity mismatch")
    return _fan_triangles(np.delete(values, heads), counts - 1, triangulate, path)


def _parse_off(path: Path, triangulate: bool) -> dict:
    lines = _meaningful_lines(path.read_text())
    if not lines:
        raise MeshFormatError(f"{path}: empty file")
    head = lines[0].split()
    if head[0] not in ("OFF", "COFF"):
        raise MeshFormatError(f"{path}: malformed header, expected OFF or COFF")
    has_colors = head[0] == "COFF"
    if len(head) == 4:
        counts, body = head[1:], lines[1:]
    elif len(head) == 1:
        if len(lines) < 2:
            raise MeshFormatError(f"{path}: missing count line")
        counts, body = lines[1].split(), lines[2:]
    else:
        raise MeshFormatError(f"{path}: malformed header line")
    try:
        nv, nf, _ne = (int(c) for c in counts)
    except ValueError:
        raise MeshFormatError(f"{path}: malformed count line") from None

    if len(body) != nv + nf:
        raise MeshFormatError(
            f"{path}: count mismatch (declared {nv} vertices and {nf} faces, "
            f"found {len(body)} records)")
    vertices, colors = _vertex_records(body[:nv], (3,), path)
    if has_colors and len(colors) not in (0, nv):
        raise MeshFormatError(f"{path}: COFF vertex records missing color columns")

    fields = {"vertices": vertices, "faces": _face_records(body[nv:], triangulate, path)}
    if len(colors):
        fields["colors"] = _scale_colors(colors)
    return fields


def _corner_tokens(record: str) -> list[str]:
    """The vertex and the normal index token of each ``v[/vt[/vn]]`` corner of
    an OBJ face record; "0", which names no record, stands for no normal."""
    corners = [corner.split("/") + ["", ""] for corner in record.split()]
    return [token for parts in corners for token in (parts[0], parts[2] or "0")]


def _parse_obj(path: Path, triangulate: bool) -> dict:
    records = {"v": [], "vn": [], "f": []}
    before = []   # the numbers of v and vn records read before each f record
    for line in _meaningful_lines(path.read_text()):
        key, *rest = line.split(None, 1)
        if key in records:
            if key == "f":
                before.append((len(records["v"]), len(records["vn"])))
            records[key].append(rest[0] if rest else "")
        # vt, usemtl, mtllib, g, o, s and friends are ignored

    vertices, colors = _vertex_records(records["v"], (3, 4), path)
    fields = {"vertices": vertices}
    if len(colors):
        if len(colors) != len(vertices):
            raise MeshFormatError(f"{path}: only some vertex records carry colors")
        fields["colors"] = _scale_colors(colors)

    vns, columns = _numbers(map(str.split, records["vn"]), float, path, "normal record")
    if np.any(columns != 3):
        raise MeshFormatError(
            f"{path}: vn record with {columns[np.argmax(columns != 3)]} columns")

    refs, tokens = _numbers(map(_corner_tokens, records["f"]), int, path, "face record")
    sides = tokens // 2
    refs = refs.reshape(-1, 2)
    # indices count from 1, and back from the last record read so far when negative
    read = np.repeat(np.array(before, dtype=np.int64).reshape(-1, 2), sides, axis=0)
    index = np.where(refs > 0, refs - 1, read + refs)
    fields["faces"] = _fan_triangles(index[:, 0], sides, triangulate, path)
    named = refs[:, 1] != 0
    # per-corner normals that do not mirror vertex order cannot be attached
    # as per-vertex data
    if vns.size and vns.size == vertices.size and \
            np.array_equal(index[named, 0], index[named, 1]):
        fields["normals"] = _unit_normals(vns.reshape(-1, 3), path)
    return fields


def _read_ply(path: Path, triangulate: bool):
    """Parse an ASCII PLY into (vertex column table, faces, int-typed names)."""
    it = (line.strip() for line in path.read_text().splitlines())
    try:
        first = next(tok for tok in it if tok)
    except StopIteration:
        raise MeshFormatError(f"{path}: empty file") from None
    if first != "ply":
        raise MeshFormatError(f"{path}: malformed header, expected 'ply'")

    elements: list[tuple[str, int, list[tuple[str, str]]]] = []
    fmt_seen = False
    for line in it:
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        toks = line.split()
        if toks[0] == "format":
            if len(toks) < 2 or toks[1] != "ascii":
                raise MeshFormatError(f"{path}: binary PLY is not supported, "
                                      "convert the file to ascii")
            fmt_seen = True
        elif toks[0] == "element":
            if len(toks) != 3:
                raise MeshFormatError(f"{path}: malformed element line")
            try:
                elements.append((toks[1], int(toks[2]), []))
            except ValueError:
                raise MeshFormatError(f"{path}: malformed element count") from None
        elif toks[0] == "property":
            if not elements:
                raise MeshFormatError(f"{path}: property before any element")
            if toks[1:2] == ["list"]:
                if len(toks) != 5:
                    raise MeshFormatError(f"{path}: malformed list property")
                elements[-1][2].append(("list", toks[4]))
            else:
                if len(toks) != 3:
                    raise MeshFormatError(f"{path}: malformed property line")
                elements[-1][2].append((toks[1], toks[2]))
        elif toks[0] == "end_header":
            break
        else:
            raise MeshFormatError(f"{path}: unexpected header keyword {toks[0]!r}")
    else:
        raise MeshFormatError(f"{path}: missing end_header")
    if not fmt_seen:
        raise MeshFormatError(f"{path}: missing format line")

    data = [line for line in it if line]
    cursor = 0
    columns: dict[str, np.ndarray] = {}
    int_typed: set[str] = set()
    face_rows: list[str] = []
    for name, count, props in elements:
        rows = data[cursor:cursor + count]
        cursor += count
        if name in ("vertex", "face") and len(rows) < count:
            raise MeshFormatError(f"{path}: {name} count mismatch "
                                  f"(declared {count}, found {len(rows)})")
        if name == "vertex":
            if any(t == "list" for t, _ in props):
                raise MeshFormatError(f"{path}: list properties on vertices are unsupported")
            values, counts = _numbers(map(str.split, rows), float, path, "vertex record")
            wrong = counts != len(props)
            if wrong.any():
                raise MeshFormatError(f"{path}: vertex row has {counts[np.argmax(wrong)]} "
                                      f"columns, expected {len(props)}")
            table = values.reshape(count, len(props))
            for c, (ptype, pname) in enumerate(props):
                columns[pname] = table[:, c]
                if ptype in _PLY_INT_TYPES:
                    int_typed.add(pname)
        elif name == "face":
            if len(props) != 1 or props[0][0] != "list" or \
                    props[0][1] not in ("vertex_indices", "vertex_index"):
                raise MeshFormatError(f"{path}: unsupported face properties")
            face_rows += rows
        # the rows of other elements are skipped
    if cursor < len(data):
        raise MeshFormatError(f"{path}: trailing content after declared elements")
    return columns, _face_records(face_rows, triangulate, path), int_typed


def _parse_ply(path: Path, triangulate: bool) -> dict:
    return _ply_fields(path, *_read_ply(path, triangulate))


def _ply_fields(path: Path, columns: dict, faces: np.ndarray, int_typed: set) -> dict:
    for axis in ("x", "y", "z"):
        if axis not in columns:
            raise MeshFormatError(f"{path}: vertex element lacks '{axis}' property")
    fields = {"vertices": np.column_stack([columns["x"], columns["y"], columns["z"]]),
              "faces": faces}
    if all(c in columns for c in ("red", "green", "blue")):
        rgb = np.column_stack([columns["red"], columns["green"], columns["blue"]])
        if {"red", "green", "blue"} & int_typed:
            rgb = rgb / 255.0
        fields["colors"] = rgb
    if all(c in columns for c in ("nx", "ny", "nz")):
        fields["normals"] = _unit_normals(
            np.column_stack([columns["nx"], columns["ny"], columns["nz"]]), path)
    return fields


# each returns the keyword arguments of the file's Mesh
_PARSERS = {"off": _parse_off, "obj": _parse_obj, "ply": _parse_ply}


def detect_format(path: str | Path) -> str:
    suffix = Path(path).suffix.lower().lstrip(".")
    if suffix in ("off", "obj", "ply"):
        return suffix
    raise MeshFormatError(f"{path}: cannot infer mesh format from suffix {suffix!r}")


def parse_mesh(path: str | Path, fmt: str | None = None, triangulate: bool = False) -> Mesh:
    """Parse an OFF/OBJ/PLY-ascii file into a validated :class:`Mesh`.

    Raises :class:`MeshFormatError` for any malformed input; a partially
    constructed mesh never escapes.
    """
    path, fmt = _mesh_source(path, fmt)
    return _mesh(path, _PARSERS[fmt](path, triangulate))


def parse_mesh_property(path: str | Path, property_name: str, fmt: str | None = None,
                        triangulate: bool = False) -> tuple[Mesh, VertexSignal]:
    """A mesh and its per-vertex property ``property_name`` from one read of
    a PLY file: what :func:`parse_mesh` and then :func:`parse_signal` of
    the same file give, with the same errors in the same order."""
    path, fmt = _mesh_source(path, fmt)
    if fmt != "ply":
        # an OFF or OBJ file holds no property: the two calls raise their errors
        return parse_mesh(path, fmt, triangulate), parse_signal(
            path, property_name=property_name, fmt=fmt)
    columns, faces, int_typed = _read_ply(path, triangulate)
    mesh = _mesh(path, _ply_fields(path, columns, faces, int_typed))
    return mesh, _signal(path, _ply_property(path, columns, property_name), property_name)


def _mesh_source(path: str | Path, fmt: str | None) -> tuple[Path, str]:
    """The mesh file's path and its format, lower case, checked."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such mesh file: {path}")
    fmt = fmt or detect_format(path)
    if fmt.lower() not in _PARSERS:
        raise MeshFormatError(f"unsupported mesh format {fmt!r}")
    return path, fmt.lower()


def _mesh(path: Path, fields: dict) -> Mesh:
    try:
        return Mesh(**fields)
    except ValueError as exc:
        raise MeshFormatError(f"{path}: {exc}") from None


def parse_signal(path: str | Path, *, property_name: str = "quality",
                 expected_length: int | None = None,
                 fmt: str | None = None) -> VertexSignal:
    """Read a per-vertex scalar from a CSV column or a PLY vertex property;
    ``fmt`` (off, obj, ply, or None to infer from the suffix) is the file's
    format, as in :func:`parse_mesh`, and any other format reads as CSV."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such signal file: {path}")
    fmt = (fmt or path.suffix.lstrip(".")).lower()
    if fmt in ("off", "obj"):
        raise SignalFormatError(f"{path}: an {fmt.upper()} file has no per-vertex "
                                "scalar properties; read them from a PLY file")
    if fmt == "ply":
        columns = _read_ply(path, triangulate=True)[0]
        values, name = _ply_property(path, columns, property_name), property_name
    else:
        values, name = _read_csv_column(path)
    if expected_length is not None and len(values) != expected_length:
        raise SignalFormatError(f"{path}: signal has {len(values)} values, "
                                f"expected {expected_length}")
    return _signal(path, values, name)


def _ply_property(path: Path, columns: dict, property_name: str) -> np.ndarray:
    if property_name not in columns:
        raise SignalFormatError(f"{path}: no per-vertex property named {property_name!r}")
    return columns[property_name]


def _signal(path: Path, values: np.ndarray, name: str) -> VertexSignal:
    try:
        return VertexSignal(values, name=name)
    except ValueError as exc:
        raise SignalFormatError(f"{path}: {exc}") from None


def _read_csv_column(path: Path):
    lines = [ln.strip().rstrip(",") for ln in path.read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise SignalFormatError(f"{path}: empty signal file")
    name = path.stem
    start = 0
    try:
        float(lines[0])
    except ValueError:
        name, start = lines[0], 1   # single optional header line
    values = []
    for ln in lines[start:]:
        if len(ln.split()) != 1 or "," in ln:
            raise SignalFormatError(f"{path}: expected one value per line, got {ln!r}")
        try:
            values.append(float(ln))
        except ValueError:
            raise SignalFormatError(f"{path}: non-numeric token {ln!r}") from None
    return np.asarray(values, dtype=np.float64), name


def _vertex_rows(mesh: Mesh) -> np.ndarray:
    if mesh.normals is not None:
        return np.hstack([mesh.vertices, mesh.normals])
    return mesh.vertices


def write_mesh(path: str | Path, mesh: Mesh) -> None:
    """Serialize a mesh as OFF/OBJ/PLY-ascii, in the format of the path's
    suffix, round-trippable bit-exactly."""
    path = Path(path)
    _WRITERS[detect_format(path)](path, mesh)


def _rows_text(row_fmt: str, rows: np.ndarray) -> str:
    """Every row of a 2-D array through the one-row %-format ``row_fmt``."""
    return (row_fmt * rows.shape[0]) % tuple(rows.ravel().tolist())


def _floats_fmt(count: int) -> str:
    return " ".join([_FMT] * count)


def _write_off(path: Path, mesh: Mesh) -> None:
    rows = mesh.vertices if mesh.colors is None else np.hstack([mesh.vertices, mesh.colors])
    with open(path, "w") as fh:
        fh.write("COFF\n" if mesh.colors is not None else "OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_faces} 0\n")
        fh.write(_rows_text(_floats_fmt(rows.shape[1]) + "\n", rows))
        fh.write(_rows_text("3 %d %d %d\n", mesh.faces))


def _write_obj(path: Path, mesh: Mesh) -> None:
    rows = mesh.vertices if mesh.colors is None else np.hstack([mesh.vertices, mesh.colors])
    with open(path, "w") as fh:
        fh.write(_rows_text("v " + _floats_fmt(rows.shape[1]) + "\n", rows))
        if mesh.normals is not None:
            fh.write(_rows_text("vn " + _floats_fmt(3) + "\n", mesh.normals))
            fh.write(_rows_text("f %d//%d %d//%d %d//%d\n",
                                np.repeat(mesh.faces + 1, 2, axis=1)))
        else:
            fh.write(_rows_text("f %d %d %d\n", mesh.faces + 1))


def _write_ply(path: Path, mesh: Mesh, field: VertexSignal | None = None) -> None:
    columns = [_vertex_rows(mesh)]
    row_fmt = _floats_fmt(columns[0].shape[1])
    if mesh.colors is not None:
        columns.append(np.rint(mesh.colors * 255.0))
        row_fmt += " %d %d %d"
    if field is not None:
        columns.append(field.values[:, None])
        row_fmt += " " + _FMT
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {mesh.n_vertices}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        if mesh.normals is not None:
            fh.write("property float nx\nproperty float ny\nproperty float nz\n")
        if mesh.colors is not None:
            fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        if field is not None:
            fh.write("property float quality\n")
        fh.write(f"element face {mesh.n_faces}\n")
        fh.write("property list uchar int vertex_indices\n")
        fh.write("end_header\n")
        fh.write(_rows_text(row_fmt + "\n", np.hstack(columns)))
        fh.write(_rows_text("3 %d %d %d\n", mesh.faces))


# each writes a mesh to a path
_WRITERS = {"off": _write_off, "obj": _write_obj, "ply": _write_ply}


def write_response(path: str | Path, mesh: Mesh, field: VertexSignal) -> None:
    """Emit a response field for external visualization, in the format of
    the path's suffix.

    PLY output carries the field as a per-vertex float property named
    ``quality``; CSV output is one value per vertex in vertex order.
    """
    path = Path(path)
    if len(field) != mesh.n_vertices:
        raise ValueError(f"field has {len(field)} values for a mesh with "
                         f"{mesh.n_vertices} vertices")
    fmt = path.suffix.lower().lstrip(".")
    if fmt == "ply":
        _write_ply(path, mesh, field)
    elif fmt == "csv":
        write_signal_csv(path, field)
    else:
        raise MeshFormatError(f"unsupported response format {fmt!r}")


def write_signal_csv(path: str | Path, field: VertexSignal) -> None:
    """One decimal value per line, in vertex order."""
    with open(path, "w") as fh:
        fh.write(_rows_text(_FMT + "\n", field.values.reshape(-1, 1)))


def rgb_to_luminance(mesh: Mesh, weights=REC601_WEIGHTS) -> VertexSignal:
    """Per-vertex luminance from RGB colors (Rec. 601 weights by default)."""
    if mesh.colors is None:
        raise ValueError("mesh has no per-vertex colors")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (3,):
        raise ValueError("weights must be three numbers")
    return VertexSignal(mesh.colors @ w, name="luminance")

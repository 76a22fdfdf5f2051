import warnings

import numpy as np
import pytest

from mahf.errors import MeshFormatError, SignalFormatError
from mahf.io_mesh import (Mesh, VertexSignal, parse_mesh, parse_mesh_property, parse_signal,
                          rgb_to_luminance, write_mesh, write_response)
from mahf.synthetic import icosphere

MINIMAL_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_parse_off_minimal(tmp_path):
    mesh = parse_mesh(_write(tmp_path, "tri.off", MINIMAL_OFF))
    assert mesh.n_vertices == 3
    assert mesh.n_faces == 1
    assert tuple(mesh.faces[0]) == (0, 1, 2)


def test_parse_off_count_mismatch(tmp_path):
    p = _write(tmp_path, "bad.off", "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(MeshFormatError, match="count mismatch"):
        parse_mesh(p)


def test_parse_off_index_out_of_range(tmp_path):
    p = _write(tmp_path, "oob.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n")
    with pytest.raises(MeshFormatError, match="out of range"):
        parse_mesh(p)


def test_parse_off_repeated_vertex_in_face(tmp_path):
    p = _write(tmp_path, "rep.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n")
    with pytest.raises(MeshFormatError, match="repeats"):
        parse_mesh(p)


def test_parse_off_bad_header(tmp_path):
    p = _write(tmp_path, "bad.off", "OFX\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n")
    with pytest.raises(MeshFormatError, match="malformed header"):
        parse_mesh(p)


def test_parse_off_polygon_requires_flag(tmp_path):
    quad = "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    p = _write(tmp_path, "quad.off", quad)
    with pytest.raises(MeshFormatError, match="non-triangle"):
        parse_mesh(p)
    mesh = parse_mesh(p, triangulate=True)
    assert mesh.n_faces == 2


@pytest.mark.parametrize("fmt", ["off", "ply"])
@pytest.mark.parametrize("record, message", [("3 0 1 x", "non-numeric token in face record"),
                                             ("4 0 1 2", "face record arity mismatch"),
                                             ("4 0 1 2 3", "non-triangle face with 4 sides")])
def test_face_record_errors(tmp_path, fmt, record, message):
    # OFF and PLY share the "n i0 ... i(n-1)" face record and its errors
    vertices = ["0 0 0", "1 0 0", "1 1 0", "0 1 0"]
    if fmt == "off":
        text = "OFF\n4 1 0\n" + "".join(f"{v}\n" for v in vertices) + f"{record}\n"
    else:
        text = ("ply\nformat ascii 1.0\nelement vertex 4\n"
                "property float x\nproperty float y\nproperty float z\n"
                "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
                + "".join(f"{v}\n" for v in vertices) + f"{record}\n")
    with pytest.raises(MeshFormatError, match=message):
        parse_mesh(_write(tmp_path, f"face.{fmt}", text))


def test_parse_off_non_numeric(tmp_path):
    p = _write(tmp_path, "nan.off", "OFF\n3 1 0\n0 0 zero\n1 0 0\n0 1 0\n3 0 1 2\n")
    with pytest.raises(MeshFormatError, match="non-numeric"):
        parse_mesh(p)


def test_icosphere_euler_characteristic_roundtrip(tmp_path):
    mesh = icosphere(3)
    path = tmp_path / "sphere.off"
    write_mesh(path, mesh)
    back = parse_mesh(path)
    assert back.n_vertices == 642
    assert back.n_faces == 1280
    edges = {(min(a, b), max(a, b))
             for f in back.faces for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0]))}
    assert len(edges) == 1920
    assert back.n_vertices - len(edges) + back.n_faces == 2


@pytest.mark.parametrize("fmt", ["off", "obj", "ply"])
def test_roundtrip_exact(tmp_path, fmt):
    rng = np.random.default_rng(11)
    base = icosphere(1, radius=3.7)
    verts = base.vertices + rng.standard_normal(base.vertices.shape) * 0.01
    colors = rng.uniform(0, 1, base.vertices.shape)
    mesh = Mesh(verts, base.faces, colors=colors)
    path = tmp_path / f"m.{fmt}"
    write_mesh(path, mesh)
    back = parse_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)
    assert back.colors is not None


def test_obj_face_variants(tmp_path):
    text = ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\n"
            "vn 0 0 1\nvn 0 0 1\nvn 0 0 1\nvn 0 0 1\n"
            "f 1/1/1 2/2/2 3/3/3\n"
            "f 2//2 4//4 3//3\n")
    mesh = parse_mesh(_write(tmp_path, "m.obj", text))
    assert mesh.n_faces == 2
    assert mesh.normals is not None
    assert np.allclose(mesh.normals, [0, 0, 1])


@pytest.mark.parametrize("suffix", ["obj", "ply"])
@pytest.mark.parametrize("record, unit", [("1e200 0 0", [1.0, 0, 0]),
                                          ("1e-200 0 0", [1.0, 0, 0]),
                                          ("3e-160 4e-160 0", [0.6, 0.8, 0])])
def test_normal_records_beyond_float64_squares(tmp_path, suffix, record, unit):
    # the squared norm of each record over- or underflows; the other two
    # records keep the bits of a plain division by their norm
    records = [record, "0 0 1", "0.3 0.4 1.2"]
    if suffix == "obj":
        text = ("v 0 0 0\nv 1 0 0\nv 0 1 0\n"
                + "".join(f"vn {r}\n" for r in records) + "f 1//1 2//2 3//3\n")
    else:
        text = ("ply\nformat ascii 1.0\nelement vertex 3\n"
                + "".join(f"property double {c}\n" for c in ("x", "y", "z", "nx", "ny", "nz"))
                + "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
                + "".join(f"{v} {r}\n" for v, r in zip(("0 0 0", "1 0 0", "0 1 0"), records))
                + "3 0 1 2\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        normals = parse_mesh(_write(tmp_path, f"m.{suffix}", text)).normals
    assert np.allclose(normals[0], unit, rtol=0, atol=1e-15)
    plain = np.array([[0.0, 0, 1], [0.3, 0.4, 1.2]])
    assert np.array_equal(normals[1:], plain / np.linalg.norm(plain, axis=1)[:, None])


def test_obj_zero_normal_rejected(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 0\nvn 0 0 1\nvn 0 0 1\nf 1//1 2//2 3//3\n"
    with pytest.raises(MeshFormatError, match="zero-length"):
        parse_mesh(_write(tmp_path, "m.obj", text))


def test_obj_negative_indices(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
    mesh = parse_mesh(_write(tmp_path, "m.obj", text))
    assert tuple(mesh.faces[0]) == (0, 1, 2)


def test_obj_quad_triangulation(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    p = _write(tmp_path, "q.obj", text)
    with pytest.raises(MeshFormatError):
        parse_mesh(p)
    mesh = parse_mesh(p, triangulate=True)
    assert [tuple(f) for f in mesh.faces] == [(0, 1, 2), (0, 2, 3)]


def test_ply_vertex_properties(tmp_path):
    text = ("ply\nformat ascii 1.0\n"
            "element vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "property uchar red\nproperty uchar green\nproperty uchar blue\n"
            "property float quality\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n"
            "0 0 0 255 0 0 0.5\n"
            "1 0 0 0 255 0 1.5\n"
            "0 1 0 0 0 255 2.5\n"
            "3 0 1 2\n")
    p = _write(tmp_path, "m.ply", text)
    mesh = parse_mesh(p)
    assert mesh.colors is not None
    assert np.allclose(mesh.colors[0], [1, 0, 0])
    signal = parse_signal(p, property_name="quality")
    assert np.array_equal(signal.values, [0.5, 1.5, 2.5])


def test_ply_binary_rejected(tmp_path):
    text = ("ply\nformat binary_little_endian 1.0\n"
            "element vertex 0\nelement face 0\n"
            "property list uchar int vertex_indices\nend_header\n")
    with pytest.raises(MeshFormatError, match="binary PLY"):
        parse_mesh(_write(tmp_path, "b.ply", text))


def test_ply_vertex_count_mismatch(tmp_path):
    text = ("ply\nformat ascii 1.0\nelement vertex 3\n"
            "property float x\nproperty float y\nproperty float z\n"
            "element face 0\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n")
    with pytest.raises(MeshFormatError, match="count mismatch"):
        parse_mesh(_write(tmp_path, "short.ply", text))


def test_ply_point_cloud(tmp_path):
    text = ("ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 2 3\n")
    mesh = parse_mesh(_write(tmp_path, "pc.ply", text))
    assert mesh.n_faces == 0
    assert mesh.n_vertices == 2


def test_parse_signal_csv(tmp_path):
    p = _write(tmp_path, "s.csv", "1\n1\n0\n0\n")
    signal = parse_signal(p, expected_length=4)
    assert np.array_equal(signal.values, [1, 1, 0, 0])


def test_parse_signal_csv_header(tmp_path):
    p = _write(tmp_path, "s.csv", "step\n1\n0\n")
    signal = parse_signal(p)
    assert signal.name == "step"
    assert np.array_equal(signal.values, [1, 0])


def test_parse_signal_length_mismatch(tmp_path):
    p = _write(tmp_path, "s.csv", "1\n1\n0\n")
    with pytest.raises(SignalFormatError, match="expected 4"):
        parse_signal(p, expected_length=4)


def test_parse_signal_non_numeric(tmp_path):
    p = _write(tmp_path, "s.csv", "1\ntwo\n3\n")
    with pytest.raises(SignalFormatError, match="non-numeric"):
        parse_signal(p)


@pytest.mark.parametrize("fmt, malformed", [
    ("off", "OFF\n3 1 0\n0 0 0\n1 0 0\n"), ("obj", "v 0 0 zero\n"),
], ids=["off", "obj"])
def test_off_and_obj_files_have_no_property(tmp_path, fmt, malformed):
    # parse_mesh_property refuses in the order parse_mesh, then parse_signal, would
    good = tmp_path / f"tri.{fmt}"
    write_mesh(good, parse_mesh(_write(tmp_path, "tri.off", MINIMAL_OFF)))
    message = f"an {fmt.upper()} file has no per-vertex scalar properties"
    with pytest.raises(SignalFormatError, match=message):
        parse_signal(good)
    with pytest.raises(SignalFormatError, match=message):
        parse_mesh_property(good, "quality")
    with pytest.raises(MeshFormatError):
        parse_mesh_property(_write(tmp_path, f"bad.{fmt}", malformed), "quality")


def test_write_response_roundtrip(tmp_path):
    mesh = parse_mesh(_write(tmp_path, "tri.off", MINIMAL_OFF))
    field = VertexSignal([0.123456789123456, -2.5e-7, 3.0], name="resp")
    for fmt in ("ply", "csv"):
        out = tmp_path / f"r.{fmt}"
        write_response(out, mesh, field)
        back = parse_signal(out)
        assert np.array_equal(back.values, field.values)


def test_write_response_length_error(tmp_path):
    mesh = parse_mesh(_write(tmp_path, "tri.off", MINIMAL_OFF))
    with pytest.raises(ValueError, match="2 values"):
        write_response(tmp_path / "r.csv", mesh, VertexSignal([1.0, 2.0]))


def test_write_response_constant_zero(tmp_path):
    mesh = parse_mesh(_write(tmp_path, "tri.off", MINIMAL_OFF))
    out = tmp_path / "zero.ply"
    write_response(out, mesh, VertexSignal(np.zeros(3)))
    quality = [line.split()[-1] for line in out.read_text().splitlines()[-4:-1]]
    assert quality == ["0", "0", "0"]


def test_rgb_to_luminance():
    colors = np.array([[1, 1, 1], [0, 0, 0], [1, 0, 0]], dtype=float)
    mesh = Mesh(np.zeros((3, 3)) + np.arange(3)[:, None], np.zeros((0, 3)), colors=colors)
    lum = rgb_to_luminance(mesh)
    assert lum.values[0] == pytest.approx(1.0)
    assert lum.values[1] == 0.0
    assert lum.values[2] == pytest.approx(0.299)


def test_rgb_to_luminance_requires_colors():
    mesh = Mesh(np.eye(3), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="colors"):
        rgb_to_luminance(mesh)


def test_mesh_invariants_enforced():
    verts = np.eye(3)
    with pytest.raises(ValueError, match="out of range"):
        Mesh(verts, [(0, 1, 3)])
    with pytest.raises(ValueError, match="repeats"):
        Mesh(verts, [(0, 1, 1)])
    with pytest.raises(ValueError, match="unit"):
        Mesh(verts, [(0, 1, 2)], normals=np.full((3, 3), 0.9))
    with pytest.raises(ValueError, match="colors"):
        Mesh(verts, [(0, 1, 2)], colors=np.full((3, 3), 1.5))
    with pytest.raises(ValueError, match="non-finite"):
        VertexSignal([1.0, np.nan])


# --- writers against a per-line reference ---

_REF = "%.17g"


def _reference_text(kind, mesh, field=None):
    """Writer output, one formatted line at a time."""
    lines = []
    if kind == "off":
        lines.append("COFF" if mesh.colors is not None else "OFF")
        lines.append(f"{mesh.n_vertices} {mesh.n_faces} 0")
        rows = mesh.vertices if mesh.colors is None else np.hstack([mesh.vertices, mesh.colors])
        lines += [" ".join(_REF % v for v in row) for row in rows]
        lines += [f"3 {f[0]} {f[1]} {f[2]}" for f in mesh.faces]
    elif kind == "obj":
        rows = mesh.vertices if mesh.colors is None else np.hstack([mesh.vertices, mesh.colors])
        lines += ["v " + " ".join(_REF % v for v in row) for row in rows]
        if mesh.normals is not None:
            lines += ["vn " + " ".join(_REF % v for v in row) for row in mesh.normals]
            lines += [f"f {f[0]+1}//{f[0]+1} {f[1]+1}//{f[1]+1} {f[2]+1}//{f[2]+1}"
                      for f in mesh.faces]
        else:
            lines += [f"f {f[0]+1} {f[1]+1} {f[2]+1}" for f in mesh.faces]
    elif kind == "ply":
        lines += ["ply", "format ascii 1.0", f"element vertex {mesh.n_vertices}",
                  "property float x", "property float y", "property float z"]
        if mesh.normals is not None:
            lines += ["property float nx", "property float ny", "property float nz"]
        if mesh.colors is not None:
            lines += ["property uchar red", "property uchar green", "property uchar blue"]
        if field is not None:
            lines.append("property float quality")
        lines += [f"element face {mesh.n_faces}", "property list uchar int vertex_indices",
                  "end_header"]
        base = mesh.vertices if mesh.normals is None else np.hstack([mesh.vertices,
                                                                     mesh.normals])
        for i in range(mesh.n_vertices):
            toks = [_REF % v for v in base[i]]
            if mesh.colors is not None:
                toks += [str(c) for c in np.rint(mesh.colors[i] * 255.0).astype(int)]
            if field is not None:
                toks.append(_REF % field.values[i])
            lines.append(" ".join(toks))
        lines += [f"3 {f[0]} {f[1]} {f[2]}" for f in mesh.faces]
    else:
        lines += [_REF % v for v in field.values]
    return "".join(line + "\n" for line in lines)


def test_writers_match_per_line_reference(tmp_path):
    vertices = np.array([[-0.0, 1e-300, 1e17], [1.0, -2.5e-7, 0.1],
                         [0.3333333333333333, -1e17, -0.0], [2.0, 2.0, 5e-324]])
    faces = np.array([[0, 1, 2], [1, 3, 2]])
    colors = np.array([[-0.0, 1e-300, 1.0], [0.5, 0.25, 0.1], [1.0, 0.0, 0.7],
                       [0.9999, 0.002, 0.5]])
    normals = np.array([[-0.0, 0.0, 1.0], [1.0, -0.0, 0.0], [0.6, 0.8, -0.0],
                        [0.0, -1.0, 0.0]])
    field = VertexSignal([-0.0, 1e-300, 1e17, -3.0000000000000004])
    full = Mesh(vertices, faces, colors=colors, normals=normals)
    for mesh in (full, Mesh(vertices, faces), Mesh(vertices, np.zeros((0, 3)))):
        for kind in ("off", "obj", "ply"):
            out = tmp_path / f"m.{kind}"
            write_mesh(out, mesh)
            assert out.read_bytes() == _reference_text(kind, mesh).encode(), kind
        for kind in ("ply", "csv"):
            out = tmp_path / f"r.{kind}"
            write_response(out, mesh, field)
            assert out.read_bytes() == _reference_text(kind, mesh, field).encode(), kind


# --- reader behaviours, one small file each ---

_TRI_QUAD_PENTA = "3 0 1 2\n4 2 3 4 5\n5 0 2 4 5 6\n"
# record order, each polygon fanned from its first corner
_FANS = [[0, 1, 2], [2, 3, 4], [2, 4, 5], [0, 2, 4], [0, 4, 5], [0, 5, 6]]
_SEVEN = [[0.5, 0, 0], [1, 0.25, 0], [1, 1, -3e-7], [0, 1, 0], [-1, 0.5, 0],
          [-1, -1, 1e5], [0, -1, 2]]
_SEVEN_TEXT = "".join(" ".join(repr(float(c)) for c in v) + "\n" for v in _SEVEN)
_PLY_XYZ = "property float x\nproperty float y\nproperty float z\n"
_PLY_FACES = "property list uchar int vertex_indices\n"
_TRI = [[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]

# name: (file name, text, triangulate, expected fields or an error substring)
_READER_CASES = {
    "off-polygons": ("m.off", f"OFF\n7 3 0\n{_SEVEN_TEXT}{_TRI_QUAD_PENTA}", True,
                     {"vertices": _SEVEN, "faces": _FANS}),
    "ply-polygons": ("m.ply", "ply\nformat ascii 1.0\nelement vertex 7\n" + _PLY_XYZ
                     + "element face 3\n" + _PLY_FACES + "end_header\n"
                     + _SEVEN_TEXT + _TRI_QUAD_PENTA, True,
                     {"vertices": _SEVEN, "faces": _FANS}),
    "obj-polygons": ("m.obj", "".join(f"v {line}" for line in _SEVEN_TEXT.splitlines(True))
                     + "f 1 2 3\nf 3/1 4/2 5/3 6/4\nf 1//1 3//3 5//5 6//6 7//7\n", True,
                     {"vertices": _SEVEN, "faces": _FANS}),
    "obj-negative-before-more-vertices": (
        "m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\nv 1 1 0\nv 2 1 0\nf -3 -2 -1\n",
        False, {"vertices": _TRI + [[1, 1, 0], [2, 1, 0]], "faces": [[0, 1, 2], [2, 3, 4]]}),
    # the normal index -1 counts back from the one vn record read so far
    "obj-negative-normal-before-more-normals": (
        "m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1//-1 2//2 3//3\n"
        "vn 0 1 0\nvn 1 0 0\n", False,
        {"vertices": _TRI, "faces": [[0, 1, 2]], "normals": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]}),
    "obj-v-with-w": ("m.obj", "v 0 0 0 1\nv 1 0 0 0.5\nv 0 1 0 1\nf 1 2 3\n", False,
                     {"vertices": _TRI, "faces": [[0, 1, 2]]}),
    "off-tabs": ("m.off", "OFF\n3\t1\t0\n0\t0 0\n1\t0\t0\n0 1\t0\n3\t0\t1\t2\n", False,
                 {"vertices": _TRI, "faces": [[0, 1, 2]]}),
    "obj-tabs": ("m.obj", "v\t0 0\t0\nv\t1\t0\t0\nv 0\t1 0\nvn\t0\t0\t1\nvn 0 0 1\n"
                 "vn 0 0\t1\nf\t1//1\t2//2 3//3\n", False,
                 {"vertices": _TRI, "faces": [[0, 1, 2]], "normals": [[0, 0, 1]] * 3}),
    "ply-tabs": ("m.ply", "ply\nformat ascii 1.0\nelement vertex 3\n" + _PLY_XYZ
                 + "element face 1\n" + _PLY_FACES + "end_header\n"
                 "0\t0\t0\n1\t0 0\n0 1\t0\n3\t0\t1\t2\n", False,
                 {"vertices": _TRI, "faces": [[0, 1, 2]]}),
    "ply-comment-obj-info": ("m.ply", "ply\nformat ascii 1.0\ncomment made by hand\n"
                             "obj_info a single triangle\nelement vertex 3\ncomment xyz\n"
                             + _PLY_XYZ + "element face 1\n" + _PLY_FACES + "end_header\n"
                             "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", False,
                             {"vertices": _TRI, "faces": [[0, 1, 2]]}),
    "ply-unknown-element": ("m.ply", "ply\nformat ascii 1.0\nelement vertex 3\n" + _PLY_XYZ
                            + "element material 2\nproperty float shine\n"
                            "property uchar index\nelement face 1\n" + _PLY_FACES
                            + "end_header\n0 0 0\n1 0 0\n0 1 0\n0.5 1\n0.25 2\n3 0 1 2\n",
                            False, {"vertices": _TRI, "faces": [[0, 1, 2]]}),
    "ply-trailing-content": ("m.ply", "ply\nformat ascii 1.0\nelement vertex 3\n" + _PLY_XYZ
                             + "element face 1\n" + _PLY_FACES + "end_header\n"
                             "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 2 1 0\n", False,
                             "trailing content after declared elements"),
    "off-trailing-content": ("m.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 2 1 0\n",
                             False, "count mismatch"),
    "off-crlf": ("m.off", "OFF\r\n3 1 0\r\n0 0 0\r\n1 0 0\r\n0 1 0\r\n3 0 1 2\r\n", False,
                 {"vertices": _TRI, "faces": [[0, 1, 2]]}),
    "ply-crlf": ("m.ply", ("ply\nformat ascii 1.0\nelement vertex 3\n" + _PLY_XYZ
                           + "element face 1\n" + _PLY_FACES + "end_header\n"
                           "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n").replace("\n", "\r\n"), False,
                 {"vertices": _TRI, "faces": [[0, 1, 2]]}),
    "obj-crlf": ("m.obj", "v 0 0 0\r\nv 1 0 0\r\nv 0 1 0\r\nf 1 2 3\r\n", False,
                 {"vertices": _TRI, "faces": [[0, 1, 2]]}),
    "coff-byte-colors": ("m.off", "COFF\n3 1 0\n0 0 0 255 0 51\n1 0 0 0 255 0\n"
                         "0 1 0 0 102 255\n3 0 1 2\n", False,
                         {"vertices": _TRI, "faces": [[0, 1, 2]],
                          "colors": [[1, 0, 0.2], [0, 1, 0], [0, 0.4, 1]]}),
    "coff-missing-color-row": ("m.off", "COFF\n3 1 0\n0 0 0 1 0 0\n1 0 0\n"
                               "0 1 0 0 0 1\n3 0 1 2\n", False,
                               "COFF vertex records missing color columns"),
    "obj-some-colors": ("m.obj", "v 0 0 0 1 0 0\nv 1 0 0\nv 0 1 0 0 0 1\nf 1 2 3\n", False,
                        "only some vertex records carry colors"),
    "ply-bare-property": ("m.ply", "ply\nformat ascii 1.0\nelement vertex 3\nproperty\n"
                          "end_header\n0\n1\n2\n", False, "malformed property line"),
    "ply-vertex-list": ("m.ply", "ply\nformat ascii 1.0\nelement vertex 3\n" + _PLY_XYZ
                        + "property list uchar int tags\nelement face 1\n" + _PLY_FACES
                        + "end_header\n0 0 0 1 7\n1 0 0 1 7\n0 1 0 1 7\n3 0 1 2\n", False,
                        "list properties on vertices are unsupported"),
}


@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_reader_behaviours(tmp_path, case):
    name, text, triangulate, expected = _READER_CASES[case]
    path = tmp_path / name
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(MeshFormatError, match=expected):
            parse_mesh(path, triangulate=triangulate)
        return
    mesh = parse_mesh(path, triangulate=triangulate)
    for field in ("vertices", "faces", "colors", "normals"):
        got, want = getattr(mesh, field), expected.get(field)
        if want is None:
            assert got is None, field
        else:
            dtype = np.int64 if field == "faces" else np.float64
            assert got.dtype == dtype and np.array_equal(got, np.asarray(want, dtype)), field

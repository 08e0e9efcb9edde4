import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowssm.errors import FlowSsmError, IoError, ParseError, TopologyError
from flowssm.mesh import TriMesh, load_mesh, save_mesh
from flowssm.synthetic import icosphere

CUBE_VERTS = np.array([
    [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
    [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
], dtype=float)
CUBE_FACES = np.array([
    [0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7],
    [0, 1, 5], [0, 5, 4], [2, 3, 7], [2, 7, 6],
    [1, 2, 6], [1, 6, 5], [3, 0, 4], [3, 4, 7],
])


def cube() -> TriMesh:
    return TriMesh(CUBE_VERTS.copy(), CUBE_FACES.copy())


def test_load_unit_cube_obj(tmp_path):
    lines = [f"v {x} {y} {z}" for x, y, z in CUBE_VERTS]
    lines += [f"f {a+1} {b+1} {c+1}" for a, b, c in CUBE_FACES]
    path = tmp_path / "cube.obj"
    path.write_text("\n".join(lines))
    mesh = load_mesh(path)
    assert mesh.n_vertices == 8
    assert mesh.n_faces == 12
    np.testing.assert_allclose(mesh.vertices, CUBE_VERTS)


def test_out_of_range_face_index_raises(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 10\n")
    with pytest.raises(TopologyError):
        load_mesh(path)


def test_degenerate_face_raises():
    with pytest.raises(TopologyError):
        TriMesh(CUBE_VERTS, [[0, 0, 1]])


def test_zero_area_mesh_raises():
    with pytest.raises(TopologyError):
        TriMesh(np.zeros((3, 3)), [[0, 1, 2]])


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_round_trip_cube(tmp_path, fmt):
    path = tmp_path / f"cube.{fmt}"
    save_mesh(cube(), path)
    back = load_mesh(path)
    np.testing.assert_allclose(back.vertices, CUBE_VERTS, atol=1e-6)
    np.testing.assert_array_equal(back.faces, CUBE_FACES)


def test_round_trip_large_sphere(tmp_path):
    mesh = icosphere(5)  # 10242 vertices
    for fmt in ("obj", "ply"):
        path = tmp_path / f"sphere.{fmt}"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.abs(back.vertices - mesh.vertices).max() < 1e-6
        np.testing.assert_array_equal(back.faces, mesh.faces)


def test_ply_ascii_round_trip(tmp_path):
    path = tmp_path / "cube.ply"
    save_mesh(cube(), path, binary=False)
    back = load_mesh(path)
    np.testing.assert_allclose(back.vertices, CUBE_VERTS, atol=1e-6)


def test_save_empty_face_mesh_raises(tmp_path):
    mesh = TriMesh(CUBE_VERTS, np.zeros((0, 3), dtype=np.int64), validate=False)
    with pytest.raises(TopologyError):
        save_mesh(mesh, tmp_path / "empty.obj")
    assert not (tmp_path / "empty.obj").exists()


def test_save_to_unwritable_path_raises():
    with pytest.raises(IoError):
        save_mesh(cube(), "/nonexistent-dir/cube.obj")


def test_malformed_obj_raises(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0\n")
    with pytest.raises(ParseError):
        load_mesh(path)


def test_obj_polygon_fan_triangulation(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_mesh(path)
    assert mesh.n_faces == 2


def _ply_bytes(fmt, props, rows, faces_header, face_rows, binary_rows=None):
    header = (f"ply\nformat {fmt} 1.0\nelement vertex {len(rows)}\n"
              + "".join(f"property {p}\n" for p in props)
              + faces_header + "end_header\n").encode("ascii")
    if binary_rows is not None:
        return header + binary_rows
    lines = [" ".join(map(str, r)) for r in rows] + [" ".join(map(str, r)) for r in face_rows]
    return header + ("\n".join(lines) + "\n").encode("ascii")


TRIANGLE = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


@pytest.mark.parametrize("fmt", ["ascii", "binary_little_endian", "binary_big_endian"])
def test_ply_vertex_coordinates_come_from_named_properties(tmp_path, fmt):
    """A normal component before x/y/z is not taken as x."""
    rows = [[9.0] + v for v in TRIANGLE]
    face_header = "element face 1\nproperty list uchar int vertex_indices\n"
    binary = None
    if fmt != "ascii":
        e = "<" if fmt == "binary_little_endian" else ">"
        binary = b"".join(struct.pack(e + "4f", *r) for r in rows) + struct.pack(e + "B3i", 3, 0, 1, 2)
    path = tmp_path / "nx.ply"
    path.write_bytes(_ply_bytes(fmt, ["float nx", "float x", "float y", "float z"], rows,
                                face_header, [[3, 0, 1, 2]], binary))
    mesh = load_mesh(path)
    np.testing.assert_array_equal(mesh.vertices, TRIANGLE)
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])


@pytest.mark.parametrize("binary", [False, True])
def test_ply_scalar_face_property_before_the_list(tmp_path, binary):
    face_header = "element face 1\nproperty uchar flags\nproperty list uchar int vertex_indices\n"
    raw = None
    if binary:
        raw = b"".join(struct.pack("<3d", *r) for r in TRIANGLE) + struct.pack("<BB3i", 7, 3, 0, 1, 2)
    path = tmp_path / "flags.ply"
    path.write_bytes(_ply_bytes("binary_little_endian" if binary else "ascii",
                                ["double x", "double y", "double z"], TRIANGLE,
                                face_header, [[7, 3, 0, 1, 2]], raw))
    mesh = load_mesh(path)
    np.testing.assert_array_equal(mesh.vertices, TRIANGLE)
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])


def test_ply_other_elements_are_skipped_and_polygons_fanned(tmp_path):
    square = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    face_header = ("element face 1\nproperty list uchar int vertex_indices\n"
                   "element edge 1\nproperty int vertex1\nproperty int vertex2\n")
    path = tmp_path / "quad.ply"
    path.write_bytes(_ply_bytes("ascii", ["float x", "float y", "float z"], square,
                                face_header, [[4, 0, 1, 2, 3], [0, 1]]))
    mesh = load_mesh(path)
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])


@pytest.mark.parametrize("polys", [
    [[0, 1, 2, 3], [0, 3, 4, 5]],  # one list length: a single structured read
    [[0, 1, 2], [0, 2, 3, 4, 5]],  # lengths vary: read record by record
    [[0, 2, 3, 4, 5], [0, 1, 2]],  # a long first record: still record by record
])
def test_binary_ply_polygons_are_fanned(tmp_path, polys):
    hexagon = [[np.cos(a), np.sin(a), 0.0] for a in np.arange(6) * np.pi / 3]
    raw = b"".join(struct.pack(">3f", *r) for r in hexagon)
    raw += b"".join(struct.pack(f">B{len(p)}i", len(p), *p) for p in polys)
    path = tmp_path / "polys.ply"
    path.write_bytes(_ply_bytes("binary_big_endian", ["float x", "float y", "float z"], hexagon,
                                "element face 2\nproperty list uchar int vertex_indices\n",
                                polys, raw))
    mesh = load_mesh(path)
    np.testing.assert_array_equal(mesh.vertices, np.float32(hexagon))
    fans = [[p[0], p[j], p[j + 1]] for p in polys for j in range(1, len(p) - 1)]
    np.testing.assert_array_equal(mesh.faces, fans)


def test_binary_ply_load_memory_stays_near_file_size(tmp_path):
    path = tmp_path / "sphere.ply"
    save_mesh(icosphere(6), path)
    tracemalloc.start()
    try:
        mesh = load_mesh(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_faces == 81920
    assert peak < 4 * path.stat().st_size


@pytest.mark.parametrize("body", [
    "0 0 0\n1 0 0\n0 1 0\n3 0 1\n",  # data ends inside a face
    "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n5\n",  # data after the last element
    "0 0 0\n1 0 0\n0 1 0\n2 0 1\n",  # a face of two vertices
    "0 0 0\n1 0 0\n0 1 0\n3.0 0 1 2\n",  # a list length that is not an integer
    "0 0 0\n1 0 0\n0 x 0\n3 0 1 2\n",  # a token that is not a number
])
def test_malformed_ascii_ply_raises(tmp_path, body):
    path = tmp_path / "bad.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\n"
                    "property float y\nproperty float z\nelement face 1\n"
                    "property list uchar int vertex_indices\nend_header\n" + body)
    with pytest.raises(ParseError):
        load_mesh(path)


@pytest.mark.parametrize("header", [
    "ply\nformat binary_middle_endian 1.0\nelement vertex 0\nend_header\n",
    "ply\nformat ascii 1.0\nelement vertex 0\nproperty float128 x\nend_header\n",
    "ply\nformat ascii 1.0\nproperty float x\nend_header\n",
    "ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\nend_header\n",  # no y, z
    "ply\nformat ascii 1.0\nelement vertex 0\nelemnt face 0\nend_header\n",
    "ply\nformat ascii 1.0\nelement vertex 0\n",
    "plx\nformat ascii 1.0\nelement vertex 0\nend_header\n",
])
def test_malformed_ply_header_raises(tmp_path, header):
    path = tmp_path / "bad.ply"
    path.write_text(header)
    with pytest.raises(ParseError):
        load_mesh(path)


def test_non_utf8_obj_raises_parse_error(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_bytes(b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 \xff3\n")
    with pytest.raises(ParseError):
        load_mesh(path)


@pytest.mark.parametrize("name, text", [
    ("huge.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n"),
    ("huge.ply", "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
                 "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
                 "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n"),
])
def test_face_index_beyond_int64_raises_topology_error(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the float-to-int cast of the check
        with pytest.raises(TopologyError):
            load_mesh(path)


@pytest.fixture(scope="module")
def saved_meshes(tmp_path_factory):
    """A small mesh saved as OBJ, binary PLY and ASCII PLY, as raw bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    mesh = icosphere(1)
    out = {}
    for name, binary in (("mesh.obj", True), ("binary.ply", True), ("ascii.ply", False)):
        save_mesh(mesh, root / name, binary=binary)
        out[name] = (root / name).read_bytes()
    return root, out


def _damage(data: bytes, kind: int, pos: int, payload: bytes) -> bytes:
    pos %= len(data) + 1
    if kind == 0:  # overwrite up to 3 bytes
        return data[:pos] + payload[:3] + data[pos + 3:]
    if kind == 1:  # truncate
        return data[:pos]
    return data[:pos] + payload + data[pos:]  # insert 5 bytes


@pytest.mark.parametrize("name", ["mesh.obj", "binary.ply", "ascii.ply"])
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.integers(0, 2), pos=st.integers(0, 10**6), payload=st.binary(min_size=5, max_size=5))
def test_damaged_mesh_file_loads_or_raises_typed_error(saved_meshes, name, kind, pos, payload):
    root, good = saved_meshes
    path = root / f"damaged_{name}"
    path.write_bytes(_damage(good[name], kind, pos, payload))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflowing coordinates
        try:
            assert isinstance(load_mesh(path), TriMesh)
        except FlowSsmError:
            pass

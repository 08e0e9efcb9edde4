"""OBJ and PLY mesh readers/writers.

OBJ is UTF-8 ``v``/``f`` records with 1-based indices. PLY is read in the
``ascii`` and both ``binary`` variants and written as ``ascii`` or
``binary_little_endian``; vertices are written as float64 so a save/load
round trip is exact. A file that does not parse raises ParseError.
"""

from __future__ import annotations

import struct
from operator import itemgetter
from pathlib import Path

import numpy as np

from ..errors import IoError, ParseError
from .core import TriMesh

_FORMATS = ("obj", "ply")


def _format_from_path(path, fmt: str | None) -> str:
    if fmt is not None:
        fmt = fmt.lower()
        if fmt not in _FORMATS:
            raise ParseError(f"unsupported mesh format {fmt!r}")
        return fmt
    suffix = Path(path).suffix.lower().lstrip(".")
    if suffix in _FORMATS:
        return suffix
    raise ParseError(f"cannot infer mesh format from {path!r}")


def load_mesh(path, fmt: str | None = None) -> TriMesh:
    """Load an OBJ or PLY file into a TriMesh (vertex order preserved)."""
    path = Path(path)
    fmt = _format_from_path(path, fmt)
    if not path.is_file():
        raise IoError(f"mesh file not found: {path}")
    if fmt == "obj":
        return _load_obj(path)
    return _load_ply(path)


def save_mesh(mesh: TriMesh, path, fmt: str | None = None, binary: bool = True) -> None:
    """Write a TriMesh to OBJ or PLY; the mesh is validated before writing."""
    path = Path(path)
    fmt = _format_from_path(path, fmt)
    mesh.check()
    try:
        if fmt == "obj":
            _save_obj(mesh, path)
        else:
            _save_ply(mesh, path, binary=binary)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _load_obj(path: Path) -> TriMesh:
    vertices: list[tuple[float, float, float]] = []
    faces: list[tuple[int, int, int]] = []
    lineno = 0
    try:
        for lineno, line in enumerate(path.read_bytes().decode("utf-8").splitlines(), 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise ParseError("vertex needs 3 coordinates")
                vertices.append((float(parts[1]), float(parts[2]), float(parts[3])))
            elif parts[0] == "f":
                idx = [int(token.split("/")[0]) for token in parts[1:]]
                if 0 in idx:
                    raise ParseError("OBJ indices are 1-based")
                if len(idx) < 3:
                    raise ParseError("face needs at least 3 vertices")
                idx = [i - 1 if i > 0 else len(vertices) + i for i in idx]
                # fan-triangulate polygons
                faces += [(idx[0], idx[k], idx[k + 1]) for k in range(1, len(idx) - 1)]
            # ignore vn/vt/usemtl and friends
    except (ParseError, ValueError) as exc:  # ValueError includes UnicodeDecodeError
        raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not vertices:
        raise ParseError(f"{path}: no vertices found")
    return TriMesh(np.array(vertices, dtype=np.float64), np.array(faces).reshape(-1, 3))


def _save_obj(mesh: TriMesh, path: Path) -> None:
    lines = []
    for x, y, z in mesh.vertices:
        # repr of python floats is the shortest exact round-trip form
        lines.append(f"v {float(x)!r} {float(y)!r} {float(z)!r}")
    for a, b, c in mesh.faces:
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_PLY_TYPES = dict(zip("char uchar short ushort int uint float double int8 uint8 int16 uint16 "
                      "int32 uint32 float32 float64".split(), "bBhHiIfd" * 2))  # -> struct code
_PLY_ENDIAN = {"ascii": "", "binary_little_endian": "<", "binary_big_endian": ">"}


def _save_ply(mesh: TriMesh, path: Path, binary: bool = True) -> None:
    header = (f"ply\nformat {'binary_little_endian' if binary else 'ascii'} 1.0\n"
              f"element vertex {mesh.n_vertices}\n"
              "property double x\nproperty double y\nproperty double z\n"
              f"element face {mesh.n_faces}\nproperty list uchar int vertex_indices\nend_header\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(mesh.vertices.astype("<f8").tobytes())
            face_rec = np.empty(mesh.n_faces, dtype=[("n", "<u1"), ("idx", "<i4", (3,))])
            face_rec["n"] = 3
            face_rec["idx"] = mesh.faces.astype("<i4")
            fh.write(face_rec.tobytes())
        else:
            rows = [f"{float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in mesh.vertices]
            rows += [f"3 {a} {b} {c}" for a, b, c in mesh.faces]
            fh.write(("\n".join(rows) + "\n").encode("ascii"))


def _load_ply(path: Path) -> TriMesh:
    try:
        vertices, faces = _parse_ply(path.read_bytes())
    except (ParseError, ValueError, IndexError, KeyError, OverflowError, struct.error) as exc:
        raise ParseError(f"{path}: malformed ply: {exc}") from exc
    return TriMesh(vertices, faces)


def _parse_ply(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Vertices (properties x, y, z) and fan-triangulated faces of a PLY file.

    Both encodings share one element loop and differ only in how ``read``
    takes scalars. Elements other than vertex and face are read and skipped.
    """
    end = data.find(b"end_header")
    lines = data[:end].decode("ascii", errors="replace").split("\n")
    if end < 0 or lines[0].strip() != "ply" or not data.startswith((b"\n", b"\r\n"), end + 10):
        raise ParseError("no ply magic or end_header line")
    fmt, elements = None, []  # (name, count, [(property, count code or None, struct code)])
    for keyword, *args in (line.split() or ["comment"] for line in lines[1:]):
        if keyword == "format":
            fmt, _ = args
        elif keyword == "element":
            name, count = args
            elements.append((name, int(count), []))
        elif keyword == "property":
            *types, name = args
            count_type, value_type = types[1:] if types[0] == "list" else (None, *types)
            elements[-1][2].append(
                (name, count_type and _PLY_TYPES[count_type], _PLY_TYPES[value_type]))
        elif keyword not in ("comment", "obj_info"):
            raise ParseError(f"unknown header keyword {keyword!r}")
    if fmt not in _PLY_ENDIAN:
        raise ParseError(f"unsupported ply format {fmt!r}")
    # the body is read in place, from the offset after the end_header line
    body, pos, layouts = data, data.index(b"\n", end) + 1, {}
    if fmt == "ascii":  # integer tokens stay int, so a list length such as "3.0" is rejected
        body = [int(t) if t.isdigit() else float(t) for t in data[pos:].decode("ascii").split()]
        pos = 0

    def read(codes, n=1):  # n records of scalars of struct types codes, flattened
        nonlocal pos
        # every scalar takes at least one byte or token, which also bounds codes * n
        if not (isinstance(n, int) and 0 <= len(codes) * n <= len(body) - pos):
            raise ParseError("data ends early or a list length is not an integer")
        if fmt == "ascii":
            pos += len(codes) * n
            return body[pos - len(codes) * n:pos]
        layout = layouts.get(codes * n) or layouts.setdefault(
            codes * n, struct.Struct(_PLY_ENDIAN[fmt] + codes * n))
        pos += layout.size
        return layout.unpack_from(body, pos - layout.size)

    def records(props, count):
        """Binary records as one structured array: fields f<i>, and n<i> for
        the length of list i. Lists must all have the first record's lengths;
        None (and nothing read) when they do not, or when the data is too short
        for that many such records (the per-record reader then decides)."""
        nonlocal pos
        start, fields, lengths = pos, [], {}
        for i, (_, cnt, code) in enumerate(props):  # walk the first record
            if cnt is None:
                fields.append((f"f{i}", _PLY_ENDIAN[fmt] + code))
                read(code, int(count > 0))
            else:
                lengths[i] = read(cnt)[0] if count else 0
                read(code, lengths[i])
                fields += [(f"n{i}", _PLY_ENDIAN[fmt] + cnt),
                           (f"f{i}", _PLY_ENDIAN[fmt] + code, (lengths[i],))]
        dtype, pos = np.dtype(fields), start
        if dtype.itemsize * count > len(body) - pos:
            return None
        rows = np.frombuffer(body, dtype, count, pos)
        if not all((rows[f"n{i}"] == n).all() for i, n in lengths.items()):
            return None
        pos += dtype.itemsize * count
        return rows

    vertices, faces = None, []
    for name, count, props in elements:
        names, lists = [p[0] for p in props], [p[1] is not None for p in props]
        rows = records(props, count) if fmt != "ascii" and props else None
        if rows is None and any(lists):
            rows = [[read(code)[0] if cnt is None else read(code, read(cnt)[0])
                     for _, cnt, code in props] for _ in range(count)]
        elif rows is None:  # fixed-size records: the whole element is one read
            rows = list(zip(*[iter(read("".join(p[2] for p in props), count))] * len(props)))
        if name == "vertex":
            xyz = [names.index(c) for c in "xyz"]
            if any(lists[i] for i in xyz):
                raise ParseError("a vertex coordinate is a list")
            vertices = (np.stack([rows[f"f{i}"] for i in xyz], axis=1)
                        if isinstance(rows, np.ndarray) else list(map(itemgetter(*xyz), rows)))
        elif name == "face":
            if not any(lists):
                raise ParseError("face element has no list property")
            k = lists.index(True)
            if isinstance(rows, np.ndarray):
                polys = rows[f"f{k}"]
                if count and polys.shape[1] < 3:
                    raise ParseError("face needs at least 3 vertices")
                fan = [[0, j, j + 1] for j in range(1, polys.shape[1] - 1)]
                faces = polys[:, fan].reshape(-1, 3) if count else []
                continue
            polys = list(map(itemgetter(k), rows))
            if min(map(len, polys), default=3) < 3:
                raise ParseError("face needs at least 3 vertices")
            faces = [(p[0], p[j], p[j + 1]) for p in polys for j in range(1, len(p) - 1)]
    if vertices is None:
        raise ParseError("no vertex element")
    if pos != len(body):
        raise ParseError("data after the last element")
    return np.asarray(vertices, dtype=np.float64).reshape(-1, 3), np.asarray(faces).reshape(-1, 3)

"""Triangle-triangle intersection tests and mesh self-intersection counting."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ..errors import DataError
from .core import TriMesh, _centroid_balls


def _project_to_plane_axes(normal: np.ndarray) -> tuple[int, int]:
    drop = int(np.argmax(np.abs(normal)))
    keep = [0, 1, 2]
    keep.remove(drop)
    return keep[0], keep[1]


def _segments_intersect_2d(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def _point_in_triangle_2d(p, a, b, c) -> bool:
    def orient(u, v, w):
        return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])

    s1 = orient(a, b, p)
    s2 = orient(b, c, p)
    s3 = orient(c, a, p)
    has_neg = (s1 < 0) or (s2 < 0) or (s3 < 0)
    has_pos = (s1 > 0) or (s2 > 0) or (s3 > 0)
    return not (has_neg and has_pos)


def _coplanar_intersect(t1: np.ndarray, t2: np.ndarray, normal: np.ndarray) -> bool:
    i, j = _project_to_plane_axes(normal)
    a = t1[:, (i, j)]
    b = t2[:, (i, j)]
    for e1 in range(3):
        for e2 in range(3):
            if _segments_intersect_2d(
                a[e1], a[(e1 + 1) % 3], b[e2], b[(e2 + 1) % 3]
            ):
                return True
    if _point_in_triangle_2d(a[0], b[0], b[1], b[2]):
        return True
    if _point_in_triangle_2d(b[0], a[0], a[1], a[2]):
        return True
    return False


def _interval_on_line(proj: np.ndarray, dist: np.ndarray):
    """Intersection of a triangle with the other plane, as an interval on the
    shared line (projections given); ``dist`` holds signed plane distances."""
    ts = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        di, dj = dist[i], dist[j]
        if di * dj < 0:
            ts.append(proj[i] + (proj[j] - proj[i]) * (di / (di - dj)))
    for i in range(3):
        if dist[i] == 0.0:
            ts.append(proj[i])
    if not ts:
        return None
    return min(ts), max(ts)


def triangles_intersect(t1: np.ndarray, t2: np.ndarray) -> bool:
    """Exact intersection test between two 3D triangles (3x3 corner arrays)."""
    t1 = np.asarray(t1, dtype=np.float64)
    t2 = np.asarray(t2, dtype=np.float64)

    n2 = np.cross(t2[1] - t2[0], t2[2] - t2[0])
    d2 = -np.dot(n2, t2[0])
    du = t1 @ n2 + d2
    if np.all(du > 0) or np.all(du < 0):
        return False

    n1 = np.cross(t1[1] - t1[0], t1[2] - t1[0])
    d1 = -np.dot(n1, t1[0])
    dv = t2 @ n1 + d1
    if np.all(dv > 0) or np.all(dv < 0):
        return False

    if np.all(du == 0.0) and np.all(dv == 0.0):
        return _coplanar_intersect(t1, t2, n2)

    line_dir = np.cross(n1, n2)
    axis = int(np.argmax(np.abs(line_dir)))
    if line_dir[axis] == 0.0:
        # parallel but not rejected: degenerate normals; fall back to coplanar
        return _coplanar_intersect(t1, t2, n2 if np.any(n2) else n1)
    i1 = _interval_on_line(t1[:, axis], du)
    i2 = _interval_on_line(t2[:, axis], dv)
    if i1 is None or i2 is None:
        return False
    return i1[0] <= i2[1] and i2[0] <= i1[1]


def count_self_intersections(
    mesh: TriMesh, method: str = "bvh"
) -> tuple[bool, int]:
    """Count intersecting non-adjacent face pairs.

    Pairs sharing any vertex index are excluded. Returns
    ``(is_self_intersecting, number_of_intersecting_pairs)``. ``method`` is
    ``"bvh"`` (centroid kd-tree pruned) or ``"exhaustive"`` (all pairs, for
    oracles); both give identical results.

    ``"bvh"`` tests only faces whose centroids lie within ``2 * r_max`` of
    each other, ``r_max`` being the largest centroid-to-corner distance. Two
    faces that intersect share a point, within ``r_a`` of one centroid and
    ``r_b`` of the other, so their centroids are at most ``r_a + r_b <=
    2 * r_max`` apart and no intersecting pair is skipped. Faces that touch
    at a single point can sit exactly at that distance, where rounding in
    the centroids and radii can push them past it, so the search radius
    gets a relative slack of 1e-9.
    """
    tri = mesh.triangles()
    n = len(tri)
    if n < 2:
        return False, 0
    if method == "bvh":
        centroids, r_max = _centroid_balls(tri)
        pairs = cKDTree(centroids).query_pairs(
            2.0 * r_max * (1.0 + 1e-9), output_type="ndarray")
    elif method == "exhaustive":
        pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    else:
        raise DataError(f"unknown method {method!r}")
    if len(pairs) == 0:
        return False, 0

    fa = mesh.faces[pairs[:, 0]]
    fb = mesh.faces[pairs[:, 1]]
    shared = np.zeros(len(pairs), dtype=bool)
    for u in range(3):
        for v in range(3):
            shared |= fa[:, u] == fb[:, v]
    pairs = pairs[~shared]
    if len(pairs) == 0:
        return False, 0

    # AABB filter: prunes both methods' candidates to pairs whose boxes overlap
    lo = tri.min(axis=1)
    hi = tri.max(axis=1)
    box_ok = np.all(lo[pairs[:, 0]] <= hi[pairs[:, 1]], axis=1) & np.all(
        lo[pairs[:, 1]] <= hi[pairs[:, 0]], axis=1
    )
    pairs = pairs[box_ok]

    count = 0
    for i, j in pairs:
        if triangles_intersect(tri[i], tri[j]):
            count += 1
    return count > 0, count

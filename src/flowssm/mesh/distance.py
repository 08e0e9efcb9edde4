"""Nearest-neighbor queries, Chamfer distance and exact surface distances."""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ..errors import DataError
from ..validation import check_points
from .core import PointSet, TriMesh, _centroid_balls
from .sampling import sample_surface


def _as_points(x) -> np.ndarray:
    if isinstance(x, PointSet):
        return x.points
    return check_points(x)


def nearest_neighbor(query, reference) -> tuple[np.ndarray, np.ndarray]:
    """Exact nearest reference point for every query point.

    Returns ``(indices, distances)``. Exact ties are re-resolved by a scan so
    the smallest reference index always wins, independent of tree layout.
    """
    q = _as_points(query)
    ref = _as_points(reference)
    tree = cKDTree(ref)
    dist, idx = tree.query(q, k=1)
    if len(ref) > 1:
        # a tie exists iff the second neighbor is at the identical distance
        dist2, _ = tree.query(q, k=2)
        tied = np.nonzero(dist2[:, 1] == dist2[:, 0])[0]
        for i in tied:
            d_all = np.linalg.norm(ref - q[i], axis=1)
            dmin = d_all.min()
            idx[i] = int(np.nonzero(d_all == dmin)[0][0])
            dist[i] = dmin
    return idx.astype(np.int64), dist


def chamfer_distance(a, b, mode: str = "symmetric") -> float:
    """Average nearest-neighbor distance between two point sets.

    ``symmetric`` averages both directions with weight 1/2 each (unsquared
    Euclidean distances); ``one_sided_a_to_b`` averages only distances from
    points of ``a`` to their nearest neighbor in ``b``.
    """
    pa = _as_points(a)
    pb = _as_points(b)
    if mode == "symmetric":
        _, d_ab = nearest_neighbor(pa, pb)
        _, d_ba = nearest_neighbor(pb, pa)
        return float(0.5 * d_ab.mean() + 0.5 * d_ba.mean())
    if mode == "one_sided_a_to_b":
        _, d_ab = nearest_neighbor(pa, pb)
        return float(d_ab.mean())
    raise DataError(f"unknown chamfer mode {mode!r}")


def point_triangle_closest(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Exact closest point on ``triangles[i]`` to ``points[i]`` (pairwise).

    ``triangles`` has shape (n, 3, 3). Handles face-interior, edge and vertex
    closest-point regions (Ericson's region classification).
    """
    p = np.asarray(points, dtype=np.float64)
    tri = np.asarray(triangles, dtype=np.float64)
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]

    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)

    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)

    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    closest = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    def settle(mask, value):
        m = mask & ~done
        closest[m] = value[m] if value.ndim == 2 else value
        done[m] = True

    settle((d1 <= 0) & (d2 <= 0), a)  # vertex A
    settle((d3 >= 0) & (d4 <= d3), b)  # vertex B
    settle((d6 >= 0) & (d5 <= d6), c)  # vertex C

    vc = d1 * d4 - d3 * d2
    with np.errstate(divide="ignore", invalid="ignore"):
        v_ab = d1 / (d1 - d3)
    edge_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    settle(edge_ab, a + np.nan_to_num(v_ab)[:, None] * ab)

    vb = d5 * d2 - d1 * d6
    with np.errstate(divide="ignore", invalid="ignore"):
        w_ac = d2 / (d2 - d6)
    edge_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    settle(edge_ac, a + np.nan_to_num(w_ac)[:, None] * ac)

    va = d3 * d6 - d5 * d4
    with np.errstate(divide="ignore", invalid="ignore"):
        w_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
    edge_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    settle(edge_bc, b + np.nan_to_num(w_bc)[:, None] * (c - b))

    # face interior
    denom = va + vb + vc
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.nan_to_num(vb / denom)
        w = np.nan_to_num(vc / denom)
    settle(np.ones(len(p), dtype=bool), a + v[:, None] * ab + w[:, None] * ac)

    return closest


def point_triangle_distance(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Exact distance from ``points[i]`` to ``triangles[i]`` (pairwise)."""
    p = np.asarray(points, dtype=np.float64)
    return np.linalg.norm(p - point_triangle_closest(p, triangles), axis=1)


def closest_point_on_mesh(points, mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Exact closest surface point (and distance) for each query point.

    A centroid KD-tree gives an upper bound from the nearest few faces; the
    bound then prunes the exact search to faces whose centroid ball can still
    win, so the result equals the brute-force minimum.
    """
    p = _as_points(points)
    tri = mesh.triangles()
    n_faces = len(tri)
    centroids, r_max = _centroid_balls(tri)

    tree = cKDTree(centroids)
    k = min(8, n_faces)
    _, near = tree.query(p, k=k)
    near = near.reshape(len(p), k)
    cand_pts = point_triangle_closest(np.repeat(p, k, axis=0), tri[near.ravel()])
    cand_d = np.linalg.norm(np.repeat(p, k, axis=0) - cand_pts, axis=1).reshape(len(p), k)
    best_k = cand_d.argmin(axis=1)
    rows = np.arange(len(p))
    result_d = cand_d[rows, best_k]
    result_pt = cand_pts.reshape(len(p), k, 3)[rows, best_k]

    # faces possibly beating the bound: centroid within upper + face radius
    candidates = tree.query_ball_point(p, result_d + r_max)
    pair_p: list[int] = []
    pair_f: list[int] = []
    for i, faces in enumerate(candidates):
        if len(faces) > k:
            pair_p.extend([i] * len(faces))
            pair_f.extend(faces)
    if pair_p:
        pair_p = np.asarray(pair_p)
        pair_f = np.asarray(pair_f)
        pts = point_triangle_closest(p[pair_p], tri[pair_f])
        d = np.linalg.norm(p[pair_p] - pts, axis=1)
        order = np.lexsort((d, pair_p))  # group by point, best candidate first
        head = np.ones(len(order), dtype=bool)
        head[1:] = pair_p[order][1:] != pair_p[order][:-1]
        sel = order[head]
        better = d[sel] < result_d[pair_p[sel]]
        winners = sel[better]
        result_d[pair_p[winners]] = d[winners]
        result_pt[pair_p[winners]] = pts[winners]
    return result_d, result_pt


def point_to_mesh_distance(points, mesh: TriMesh) -> np.ndarray:
    """Exact distance from each point to the mesh surface."""
    return closest_point_on_mesh(points, mesh)[0]


def average_symmetric_surface_distance(
    a: TriMesh, b: TriMesh, n_samples: int = 10000, seed=0
) -> float:
    """Mean exact point-to-surface distance, averaged over both directions."""
    sa = sample_surface(a, n_samples, seed=seed).points
    sb = sample_surface(b, n_samples, seed=seed + 1).points
    d_ab = point_to_mesh_distance(sa, b)
    d_ba = point_to_mesh_distance(sb, a)
    return float(0.5 * (d_ab.mean() + d_ba.mean()))

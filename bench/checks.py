"""Reference computations the benchmark checks the library's outputs against.

Each one is written here from the method's definition and shares no kernel
with the library: a brute-force point-to-triangle distance over all faces, a
brute-force all-pairs Chamfer distance, and a plain-numpy forward pass of the
ImNet velocity field integrated with RK4, differentiated by central
differences.
"""

from __future__ import annotations

import numpy as np


def point_to_faces_distance(points: np.ndarray, triangles: np.ndarray,
                            chunk: int = 128) -> np.ndarray:
    """Distance from each point to the nearest of all ``triangles`` (F, 3, 3).

    Per point-triangle pair: the distance to the triangle's plane if the
    foot of the perpendicular lies inside the triangle, otherwise the
    smallest distance to its three edges taken as segments.
    """
    a, b, c = triangles[:, 0], triangles[:, 1], triangles[:, 2]
    normal = np.cross(b - a, c - a)
    length = np.linalg.norm(normal, axis=-1)
    unit = normal / np.where(length > 0, length, 1.0)[:, None]
    out = np.empty(len(points))
    for lo in range(0, len(points), chunk):
        p = points[lo:lo + chunk, None, :]
        height = _dot(p - a, unit)
        foot = p - height[..., None] * unit
        inside = np.repeat((length > 0)[None, :], len(p), axis=0)
        for u, v in ((a, b), (b, c), (c, a)):
            inside &= _dot(np.cross(v - u, foot - u), normal) >= 0
        edge = np.minimum.reduce([_segment_distance(p, u, v)
                                  for u, v in ((a, b), (b, c), (c, a))])
        out[lo:lo + chunk] = np.where(inside, np.abs(height), edge).min(axis=1)
    return out


def _dot(x, y):
    return (x * y).sum(axis=-1)


def _segment_distance(p, u, v):
    d = v - u
    dd = _dot(d, d)
    t = np.clip(_dot(p - u, d) / np.where(dd > 0, dd, 1.0), 0.0, 1.0)
    return np.linalg.norm(p - (u + t[..., None] * d), axis=-1)


def brute_force_assd(points_a: np.ndarray, mesh_a, points_b: np.ndarray, mesh_b) -> float:
    """ASSD from given samples of each mesh to the other mesh's surface."""
    d_ab = point_to_faces_distance(points_a, mesh_b.triangles())
    d_ba = point_to_faces_distance(points_b, mesh_a.triangles())
    return float(0.5 * (d_ab.mean() + d_ba.mean()))


def brute_force_chamfer(p: np.ndarray, q: np.ndarray, chunk: int = 500) -> float:
    """Symmetric mean nearest-point distance from all pairwise distances."""
    p_min = np.full(len(p), np.inf)
    q_min = np.full(len(q), np.inf)
    for lo in range(0, len(p), chunk):
        d = np.linalg.norm(p[lo:lo + chunk, None, :] - q[None, :, :], axis=-1)
        p_min[lo:lo + chunk] = d.min(axis=1)
        q_min = np.minimum(q_min, d.min(axis=0))
    return float(0.5 * p_min.mean() + 0.5 * q_min.mean())


def reference_flow(weights: list[np.ndarray], biases: list[np.ndarray], alpha: float,
                   x0: np.ndarray, z: np.ndarray, n_steps: int) -> np.ndarray:
    """RK4 over t in [0, 1] of v(x, t) = |z| * mlp([x, t z]).

    The MLP has LeakyReLU hidden layers; hidden layers after the first also
    receive the raw input, and the last layer is linear.
    """
    def mlp(h0):
        h = h0
        for i in range(len(weights) - 1):
            if i:
                h = np.concatenate([h, h0], axis=1)
            h = h @ weights[i] + biases[i]
            h = np.where(h > 0, h, alpha * h)
        return h @ weights[-1] + biases[-1]

    def v(x, t):
        tz = np.broadcast_to(t * z, (len(x), len(z)))
        return mlp(np.concatenate([x, tz], axis=1)) * np.linalg.norm(z)

    h = 1.0 / n_steps
    x = x0
    for k in range(n_steps):
        t = k * h
        k1 = v(x, t)
        k2 = v(x + 0.5 * h * k1, t + 0.5 * h)
        k3 = v(x + 0.5 * h * k2, t + 0.5 * h)
        k4 = v(x + h * k3, t + h)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def central_difference_gradient(loss, z: np.ndarray, step: float = 1e-6) -> np.ndarray:
    grad = np.empty_like(z)
    for k in range(len(z)):
        e = np.zeros_like(z)
        e[k] = step
        grad[k] = (loss(z + e) - loss(z - e)) / (2.0 * step)
    return grad

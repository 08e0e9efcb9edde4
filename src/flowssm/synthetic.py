"""Parametric genus-0 shape families with known generative factors.

Every member is a radial graph over the unit sphere: a triangulated set of
unit directions displaced by a smooth positive radius function, so the
ground-truth surface is embedded and analytic. With ``jitter`` enabled each
member gets its own random sphere triangulation (vertex count varying
roughly +/-10%), destroying any shared parametrization; with it disabled all
members share connectivity, which the vertex-PCA baseline requires.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from .errors import ConnectivityMismatch, DataError
from .mesh.core import TriMesh
from .mesh.distance import average_symmetric_surface_distance, chamfer_distance
from .mesh.sampling import greedy_farthest_points, sample_surface
from .model import fit_pca
from .validation import check_rng

FAMILIES = ("ellipsoid", "bumpy_ellipsoid", "lobed_blob")


@dataclass
class FamilySpec:
    """Family name, parameter ranges and meshing resolution."""

    family: str = "ellipsoid"
    n_vertices: int = 642
    jitter: bool = True
    axis_range: tuple[float, float] = (0.6, 1.0)
    n_bumps: int = 6
    bump_amplitude: tuple[float, float] = (0.06, 0.16)
    bump_width: tuple[float, float] = (0.35, 0.55)  # radians
    n_lobes: int = 6
    lobe_freq_range: tuple[int, int] | None = None  # draws n_lobes per member
    lobe_amplitude: tuple[float, float] = (0.08, 0.16)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.n_vertices < 12:
            raise DataError("need at least 12 vertices")
        if self.bump_amplitude[1] > 0.25 or self.lobe_amplitude[1] > 0.25:
            raise DataError("amplitudes above 0.25 can break the embedding bound")


def icosphere(subdivisions: int = 3) -> TriMesh:
    """Regular unit icosphere (642 vertices at 3 subdivisions)."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ], dtype=np.float64)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = list(verts)
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                v = verts[i] + verts[j]
                verts.append(v / np.linalg.norm(v))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return TriMesh(np.asarray(verts), np.asarray(faces, dtype=np.int64))


def sphere_triangulation(n_vertices: int, rng) -> TriMesh:
    """Random but well-spread triangulated unit sphere with ~n_vertices."""
    rng = check_rng(rng)
    candidates = rng.normal(size=(3 * n_vertices, 3))
    candidates /= np.linalg.norm(candidates, axis=1)[:, None]
    dirs = greedy_farthest_points(candidates, n_vertices)
    hull = ConvexHull(dirs)
    faces = hull.simplices.astype(np.int64)
    # orient every face outward (normals away from the origin)
    tri = dirs[faces]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    flip = np.einsum("ij,ij->i", normals, tri.mean(axis=1)) < 0
    faces[flip] = faces[flip][:, ::-1]
    return TriMesh(dirs, faces)


def _radius_ellipsoid(dirs: np.ndarray, axes: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(((dirs / axes) ** 2).sum(axis=1))


def _radius_bumpy(dirs, axes, centers, amps, widths) -> np.ndarray:
    r = _radius_ellipsoid(dirs, axes)
    bump = np.zeros(len(dirs))
    for c, a, w in zip(centers, amps, widths):
        ang = np.arccos(np.clip(dirs @ c, -1.0, 1.0))
        bump += a * np.exp(-((ang / w) ** 2))
    return r * (1.0 + bump)


def _radius_lobed(dirs, axes, amp, phase, rotation, n_lobes) -> np.ndarray:
    # lobes live in a per-shape random frame: the family is genuinely
    # nonlinear in its parameters (a rotated harmonic is not a fixed-basis
    # linear combination), unlike a phase shift alone
    local = dirs @ rotation.T
    r = _radius_ellipsoid(dirs, axes)
    azimuth = np.arctan2(local[:, 1], local[:, 0])
    polar_sin = np.sqrt(np.maximum(1.0 - local[:, 2] ** 2, 0.0))
    return r * (1.0 + amp * np.cos(n_lobes * azimuth + phase) * polar_sin**4)


def _draw_params(spec: FamilySpec, rng) -> dict:
    axes = rng.uniform(*spec.axis_range, size=3)
    params = {"axes": axes}
    if spec.family == "bumpy_ellipsoid":
        centers = rng.normal(size=(spec.n_bumps, 3))
        centers /= np.linalg.norm(centers, axis=1)[:, None]
        params["bump_centers"] = centers
        params["bump_amps"] = rng.uniform(*spec.bump_amplitude, size=spec.n_bumps)
        params["bump_widths"] = rng.uniform(*spec.bump_width, size=spec.n_bumps)
    elif spec.family == "lobed_blob":
        params["lobe_amp"] = float(rng.uniform(*spec.lobe_amplitude))
        params["lobe_phase"] = float(rng.uniform(0.0, 2.0 * np.pi))
        if spec.lobe_freq_range is not None:
            lo, hi = spec.lobe_freq_range
            params["lobe_freq"] = float(rng.integers(lo, hi + 1))
        else:
            params["lobe_freq"] = float(spec.n_lobes)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        params["lobe_rotation"] = q * np.sign(np.linalg.det(q))
    return params


def family_radius(spec: FamilySpec, params: dict, dirs: np.ndarray) -> np.ndarray:
    """Ground-truth radius function of one member, evaluated at unit dirs."""
    if spec.family == "ellipsoid":
        return _radius_ellipsoid(dirs, params["axes"])
    if spec.family == "bumpy_ellipsoid":
        return _radius_bumpy(dirs, params["axes"], params["bump_centers"],
                             params["bump_amps"], params["bump_widths"])
    return _radius_lobed(dirs, params["axes"], params["lobe_amp"],
                         params["lobe_phase"], params["lobe_rotation"],
                         params["lobe_freq"])


def _flatten_params(params: dict) -> np.ndarray:
    parts = [np.atleast_1d(np.asarray(v, dtype=np.float64)).ravel()
             for _, v in sorted(params.items())]
    return np.concatenate(parts)


def generate_family(spec: FamilySpec, n: int) -> list[tuple[TriMesh, np.ndarray]]:
    """Generate n members: (mesh, flat ground-truth parameter vector)."""
    if n < 1:
        raise DataError("need n >= 1")
    rng = check_rng(spec.seed)
    shared = None if spec.jitter else sphere_triangulation(spec.n_vertices, rng)
    out = []
    for _ in range(n):
        if spec.jitter:
            nv = int(round(spec.n_vertices * rng.uniform(0.9, 1.1)))
            base = sphere_triangulation(nv, rng)
        else:
            base = shared
        params = _draw_params(spec, rng)
        r = family_radius(spec, params, base.vertices)
        mesh = base.with_vertices(base.vertices * r[:, None])
        out.append((mesh, _flatten_params(params)))
    return out


def family_template(spec: FamilySpec, subdivisions: int = 3) -> TriMesh:
    """Canonical template for these families: the regular unit icosphere."""
    return icosphere(subdivisions)


def family_nearest_neighbor_spread(
    meshes: list[TriMesh], n_points: int = 4000, seed: int = 0
) -> float:
    """Mean over members of the min symmetric Chamfer to another member."""
    if len(meshes) < 2:
        raise DataError("need at least two members")
    samples = [sample_surface(m, n_points, seed=seed + i).points
               for i, m in enumerate(meshes)]
    mins = []
    for i in range(len(meshes)):
        best = np.inf
        for j in range(len(meshes)):
            if i == j:
                continue
            best = min(best, chamfer_distance(samples[i], samples[j]))
        mins.append(best)
    return float(np.mean(mins))


def vertex_pca_baseline(
    train_meshes: list[TriMesh],
    test_meshes: list[TriMesh],
    n_modes: int | None = None,
    assd_samples: int = 8000,
    seed: int = 0,
) -> dict:
    """PDM-style baseline: PCA over stacked vertex coordinates.

    Requires identical connectivity across all meshes. Test shapes are
    reconstructed by projecting onto the (optionally truncated) modes;
    reports ASSD per test shape, comparable to the flow model's generality.
    """
    ref_faces = train_meshes[0].faces
    for m in train_meshes + test_meshes:
        if m.faces.shape != ref_faces.shape or not np.array_equal(m.faces, ref_faces):
            raise ConnectivityMismatch("vertex PCA needs identical connectivity")
    x = np.stack([m.vertices.ravel() for m in train_meshes])
    basis = fit_pca(x)
    if n_modes is not None and n_modes < basis.n_modes:
        basis = type(basis)(basis.mean, basis.components[:n_modes],
                            basis.stddevs[:n_modes])
    per_shape = []
    for i, mesh in enumerate(test_meshes):
        coeffs = basis.project(mesh.vertices.ravel())
        recon = basis.decode(coeffs).reshape(-1, 3)
        recon_mesh = mesh.with_vertices(recon)
        per_shape.append(average_symmetric_surface_distance(
            recon_mesh, mesh, n_samples=assd_samples, seed=seed + i))
    return {
        "per_shape": per_shape,
        "mean": float(np.mean(per_shape)),
        "std": float(np.std(per_shape)),
        "n_modes": basis.n_modes,
    }

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from flowssm.mesh import TriMesh, count_self_intersections, triangles_intersect
from flowssm.synthetic import FamilySpec, generate_family, icosphere


def test_convex_sphere_has_no_self_intersections():
    flag, pairs = count_self_intersections(icosphere(2))
    assert flag is False
    assert pairs == 0


def tetra(offset, scale=1.0):
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    v = v * scale + offset
    f = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
    return v, f


def merged_interpenetrating_tetrahedra() -> TriMesh:
    v1, f1 = tetra(np.zeros(3))
    v2, f2 = tetra(np.array([0.25, 0.25, 0.25]))
    verts = np.vstack([v1, v2])
    faces = np.vstack([f1, f2 + 4])
    return TriMesh(verts, faces)


def test_interpenetrating_tetrahedra_detected():
    mesh = merged_interpenetrating_tetrahedra()
    flag, pairs = count_self_intersections(mesh)
    assert flag is True
    assert pairs >= 1
    # verified by the exhaustive pair test
    flag_ex, pairs_ex = count_self_intersections(mesh, method="exhaustive")
    assert flag_ex is True and pairs_ex == pairs


def random_soup(n_faces, seed) -> TriMesh:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-1, 1, size=(n_faces, 3))
    corners = centers[:, None, :] + rng.normal(0, 0.15, size=(n_faces, 3, 3))
    verts = corners.reshape(-1, 3)
    faces = np.arange(3 * n_faces).reshape(-1, 3)
    return TriMesh(verts, faces)


def exact_touch_pairs(n) -> list[TriMesh]:
    """Two-face meshes whose faces meet in one point, at centroid distance
    exactly twice the largest centroid-to-corner distance: the candidate
    search radius, so rounding decides unless the radius has slack."""
    verts = np.array([[0, 0, 0], [-1, 0.1, 0], [-1, -0.1, 0],
                      [0, 0, 0], [1, 0, 0.1], [1, 0, -0.1]], dtype=float)
    faces = np.array([[0, 1, 2], [3, 4, 5]])
    rotations = Rotation.random(n, random_state=0)
    offsets = np.random.default_rng(0).uniform(-1, 1, size=(n, 3))
    return [TriMesh(rotations[k].apply(verts) + offsets[k], faces) for k in range(n)]


def bumpy_member() -> TriMesh:
    spec = FamilySpec(family="bumpy_ellipsoid", n_vertices=500, seed=42)
    return generate_family(spec, 1)[0][0]


@pytest.mark.parametrize("make_meshes, intersecting", [
    (lambda: [random_soup(500, seed=8)], True),  # a dense soup certainly intersects
    (lambda: exact_touch_pairs(500), True),
    (lambda: [bumpy_member()], False),
], ids=["soup", "exact_touch", "bumpy"])
def test_bvh_equals_exhaustive_on_random_mesh(make_meshes, intersecting):
    total = 0
    for mesh in make_meshes():
        fast = count_self_intersections(mesh, method="bvh")
        brute = count_self_intersections(mesh, method="exhaustive")
        assert fast == brute
        total += brute[1]
    assert (total > 0) == intersecting


def test_invariance_under_vertex_reordering_and_rigid_motion():
    mesh = merged_interpenetrating_tetrahedra()
    _, pairs = count_self_intersections(mesh)

    perm = np.random.default_rng(3).permutation(mesh.n_vertices)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    reordered = TriMesh(mesh.vertices[perm], inv[mesh.faces])
    assert count_self_intersections(reordered)[1] == pairs

    theta = 0.7
    rot = np.array([
        [np.cos(theta), -np.sin(theta), 0],
        [np.sin(theta), np.cos(theta), 0],
        [0, 0, 1],
    ])
    moved = mesh.with_vertices(mesh.vertices @ rot.T + [5.0, -2.0, 1.0])
    assert count_self_intersections(moved)[1] == pairs


def test_adjacent_faces_are_excluded():
    # two faces sharing an edge, folded onto each other: adjacency rule skips them
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.2, 0.0]]
    mesh = TriMesh(verts, [[0, 1, 2], [0, 1, 3]])
    flag, pairs = count_self_intersections(mesh)
    assert flag is False and pairs == 0


def test_triangles_intersect_basic_cases():
    t1 = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    crossing = np.array([[0.2, 0.2, -0.5], [0.2, 0.2, 0.5], [0.8, 0.8, 0.3]])
    assert triangles_intersect(t1, crossing)
    far = crossing + np.array([0, 0, 5.0])
    assert not triangles_intersect(t1, far)
    coplanar_overlap = t1 * 0.5 + np.array([0.1, 0.1, 0.0])
    assert triangles_intersect(t1, coplanar_overlap)
    coplanar_far = t1 + np.array([10.0, 0, 0])
    assert not triangles_intersect(t1, coplanar_far)

"""Triangle-mesh and point-set primitives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TopologyError
from ..validation import check_faces, check_points


@dataclass
class TriMesh:
    """Indexed triangle surface: float64 vertices (n, 3) and int64 faces (m, 3).

    Invariants (checked on construction unless ``validate=False``): all face
    indices in range, no degenerate face, total surface area > 0.
    """

    vertices: np.ndarray
    faces: np.ndarray
    validate: bool = True

    def __post_init__(self):
        self.vertices = check_points(self.vertices, "vertices")
        if self.validate:
            self.faces = check_faces(self.faces, len(self.vertices))
            if self.area() <= 0.0:
                raise TopologyError("mesh has zero total surface area")
        else:
            self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    def triangles(self) -> np.ndarray:
        """Face corner positions, shape (m, 3, 3)."""
        return self.vertices[self.faces]

    def face_areas(self) -> np.ndarray:
        tri = self.triangles()
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    def area(self) -> float:
        if self.faces.shape[0] == 0:
            return 0.0
        return float(self.face_areas().sum())

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        """Same connectivity, new vertex positions."""
        return TriMesh(np.asarray(vertices, dtype=np.float64), self.faces.copy())

    def copy(self) -> "TriMesh":
        return TriMesh(self.vertices.copy(), self.faces.copy())

    def check(self) -> "TriMesh":
        """Re-validate all invariants, raising TopologyError on violation."""
        check_faces(self.faces, self.n_vertices)
        if self.area() <= 0.0:
            raise TopologyError("mesh has zero total surface area")
        return self


def _centroid_balls(tri: np.ndarray) -> tuple[np.ndarray, float]:
    """Face centroids and ``r_max``, the largest centroid-to-corner distance."""
    centroids = tri.mean(axis=1)
    radii = np.linalg.norm(tri - centroids[:, None, :], axis=2).max(axis=1)
    return centroids, float(radii.max())


@dataclass
class PointSet:
    """Unordered 3D sample points with a provenance tag."""

    points: np.ndarray
    source: str = "external"  # "mesh-sampled" | "external"

    def __post_init__(self):
        self.points = check_points(self.points)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class RigidTransform:
    """Proper rigid motion: x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray
    converged: bool = True
    n_iterations: int = 0

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        rtr = self.rotation.T @ self.rotation
        if not np.allclose(rtr, np.eye(3), atol=1e-9):
            raise ValueError("rotation is not orthonormal within 1e-9")
        if np.linalg.det(self.rotation) < 0:
            raise ValueError("rotation must have determinant +1")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        rot = self.rotation.T
        return RigidTransform(rot, -rot @ self.translation)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Transform equivalent to applying `other` first, then `self`."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )


def angle_of_rotation(rotation: np.ndarray) -> float:
    """Rotation angle in radians of a 3x3 rotation matrix."""
    c = (np.trace(rotation) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))

"""Input validation helpers.

Small checks shared by the public entry points, in the spirit of
scikit-learn's ``check_array``: coerce to float64 arrays, verify shapes and
finiteness, and normalize seeds into :class:`numpy.random.Generator`.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DataError, NonFiniteValue, ShapeMismatch


def check_points(points, name: str = "points") -> np.ndarray:
    """Coerce to a non-empty, finite (n, 3) float64 array."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1 and arr.shape == (3,):
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ShapeMismatch(f"{name} must have shape (n, 3), got {arr.shape}")
    if arr.shape[0] == 0:
        raise DataError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{name} contains non-finite coordinates")
    return arr


def check_matrix(x, name: str = "array") -> np.ndarray:
    """Coerce to a finite 2-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue(f"{name} contains non-finite values")
    return arr


def check_faces(faces, n_vertices: int, name: str = "faces") -> np.ndarray:
    """Coerce to an (m, 3) int array of valid, non-degenerate vertex triples."""
    from .errors import TopologyError

    arr = np.asarray(faces)
    if arr.size == 0:
        arr = arr.reshape(0, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise TopologyError(f"{name} must have shape (m, 3), got {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        flt = np.asarray(faces, dtype=np.float64)
        arr = flt.astype(np.int64)
        if not np.array_equal(flt, arr):
            raise TopologyError(f"{name} must contain integer vertex indices")
    arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= n_vertices):
        raise TopologyError(
            f"{name} reference vertices outside [0, {n_vertices})"
        )
    if arr.size:
        degenerate = (
            (arr[:, 0] == arr[:, 1])
            | (arr[:, 1] == arr[:, 2])
            | (arr[:, 0] == arr[:, 2])
        )
        if degenerate.any():
            raise TopologyError(
                f"{name} contains {int(degenerate.sum())} degenerate face(s)"
            )
    return arr


def check_rng(seed) -> np.random.Generator:
    """Normalize an int seed or Generator into a numpy Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.PCG64(seed))


def check_count(value, name: str) -> int:
    """A positive integer (bools and integral floats are rejected)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
        raise DataError(f"{name} must be a positive integer, got {value!r}")
    return value


def check_rate(value, name: str) -> float:
    """A positive, finite real number (bools are rejected)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (np.isfinite(value) and value > 0)):
        raise DataError(f"{name} must be positive and finite, got {value!r}")
    return value

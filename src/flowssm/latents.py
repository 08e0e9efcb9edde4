"""Global latent vectors and the localized RBF latent field.

Local detail rides on M latent vectors pinned to control points sampled
equidistantly (greedy farthest-point) on the template surface. A query
point's latent is the unnormalized Gaussian-kernel sum

    z(x) = sum_k z_k * exp(-(eps_k * |c_k - x|)^2)

so the field decays to zero away from all control points, leaving the
far field undeformed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError
from .flow import FlowConfig, ImNetMlp, integrate_flow
from .mesh.core import PointSet, TriMesh
from .mesh.sampling import farthest_point_sample


@dataclass
class LatentState:
    """Per-shape latent codes: one global d-vector and M local d-vectors."""

    z_global: np.ndarray
    z_local: np.ndarray  # (M, d)

    def __post_init__(self):
        self.z_global = np.asarray(self.z_global, dtype=np.float64).reshape(-1)
        self.z_local = np.asarray(self.z_local, dtype=np.float64)
        if self.z_local.ndim != 2:
            raise DataError("z_local must be an (M, d) matrix")
        if not (np.all(np.isfinite(self.z_global)) and np.all(np.isfinite(self.z_local))):
            raise DataError("latents must be finite")


@dataclass
class ControlPointSet:
    """Control positions on the template plus per-point inverse kernel widths."""

    positions: np.ndarray  # (M, 3)
    inverse_widths: np.ndarray  # (M,)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64).reshape(-1, 3)
        self.inverse_widths = np.asarray(self.inverse_widths, dtype=np.float64).reshape(-1)
        if len(self.positions) < 1:
            raise DataError("need at least one control point")
        if len(self.inverse_widths) != len(self.positions):
            raise DataError("one inverse width per control point")
        if not np.all(self.inverse_widths > 0):
            raise DataError("inverse widths must be positive")
        if np.abs(self.positions).max() > 1.5:
            raise DataError("control points must lie within the normalized box")

    @property
    def m(self) -> int:
        return len(self.positions)


def place_control_points(
    template: TriMesh, m: int, initial_eps: float, seed=0
) -> ControlPointSet:
    """Farthest-point-sample M control positions; all widths start equal.

    ``initial_eps`` is the shared initial inverse width (sensible range for
    unit-box shapes is roughly [0.01, 30]).
    """
    if not 0.0 < initial_eps:
        raise DataError("initial_eps must be positive")
    pts = farthest_point_sample(template, m, seed=seed)
    return ControlPointSet(pts.points, np.full(m, float(initial_eps)))


def rbf_weights(positions, inverse_widths, x) -> Tensor:
    """Gaussian kernel matrix w[i, k] = exp(-(eps_k * |c_k - x_i|)^2)."""
    x = ad.as_tensor(x)
    c = ad.as_tensor(positions)
    eps = ad.as_tensor(inverse_widths)
    sq = ad.pairwise_sqdist(x, c)  # (n, M)
    eps_sq = ad.mul(eps, eps)
    if eps_sq.data.ndim != 1:
        raise DataError("inverse widths must be a vector")
    return ad.exp(ad.scale(ad.mul(sq, ad.reshape(eps_sq, (1, eps_sq.data.shape[0]))), -1.0))


def interpolate_latent(cps: ControlPointSet, z_local, x) -> Tensor:
    """Evaluate the RBF latent field at query points x (n, 3) -> (n, d).

    The sum is unnormalized: far from every control point the latent decays
    to zero, which in turn makes the local deformer act as the identity
    there.
    """
    x = ad.as_tensor(x)
    single = x.data.ndim == 1
    if single:
        x = ad.reshape(x, (1, 3))
    z = ad.as_tensor(z_local)
    w = rbf_weights(cps.positions, cps.inverse_widths, x)
    out = w @ z
    return ad.reshape(out, (z.data.shape[1],)) if single else out


def compose_deformers(
    template_points,
    global_stage: tuple[ImNetMlp, np.ndarray] | None,
    local_stage: tuple[ImNetMlp, ControlPointSet, np.ndarray] | None,
    cfg: FlowConfig | None = None,
):
    """Flow points through the global deformer, then the local one.

    The local stage's per-point latents are interpolated at its own starting
    positions, i.e. the global stage's outputs, and held constant along each
    trajectory. Either stage may be None (ablation arms). Returns the same
    kind as the input (PointSet in, PointSet out).
    """
    cfg = cfg or FlowConfig()
    as_pointset = isinstance(template_points, PointSet)
    x = ad.as_tensor(template_points.points if as_pointset else template_points)

    if global_stage is not None:
        mlp_g, z_global = global_stage
        x = integrate_flow(mlp_g, x, z_global, cfg)

    if local_stage is not None:
        mlp_l, cps, z_local = local_stage
        z_pts = interpolate_latent(cps, z_local, x)
        x = integrate_flow(mlp_l, x, z_pts, cfg)

    if as_pointset:
        return PointSet(x.data.copy(), source="mesh-sampled")
    return x

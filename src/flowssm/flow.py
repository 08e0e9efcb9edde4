"""Latent-conditioned velocity fields and differentiable flow integration.

A point cloud is deformed by integrating dx/dt = v(x, t) over t in [0, 1]
with a fixed-step integrator (RK4 by default), backpropagating through the
unrolled steps. The velocity is an MLP applied to (x, t*z), scaled by the
Euclidean norm of the latent z, so z = 0 yields the exact identity map.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, NonFiniteValue
from .validation import check_count, check_rng

log = logging.getLogger(__name__)

_DIVERGENCE_LIMIT = 1e3


@dataclass
class FlowConfig:
    """Fixed-step integration settings; the time span is always [0, 1]."""

    n_steps: int = 8
    integrator: str = "rk4"  # "rk4" | "euler"

    def __post_init__(self):
        check_count(self.n_steps, "n_steps")
        if self.integrator not in ("rk4", "euler"):
            raise DataError(f"unknown integrator {self.integrator!r}")


class ImNetMlp:
    """Five fully connected layers with LeakyReLU and input skip connections.

    The raw input is copied and concatenated onto the inputs of hidden
    layers 2..4; the final layer is linear with 3 outputs. The output layer
    is zero-initialized by default so a fresh deformer starts as the
    identity flow; pass ``final_init_scale > 0`` for a random initial field.
    """

    def __init__(
        self,
        in_dim: int,
        hidden: tuple[int, ...] = (512, 512, 256, 128),
        out_dim: int = 3,
        alpha: float = 0.02,
        seed=0,
        final_init_scale: float = 0.0,
    ):
        if len(hidden) < 1:
            raise DataError("need at least one hidden layer")
        self.in_dim = int(in_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.out_dim = int(out_dim)
        self.alpha = float(alpha)
        if not 0.0 <= self.alpha <= 1.0:
            raise DataError(f"LeakyReLU slope alpha must lie in [0, 1], got {alpha}")
        rng = check_rng(seed)
        self.params: dict[str, Tensor] = {}

        fan_in = self.in_dim
        dims = []
        for i, width in enumerate(self.hidden):
            dims.append((fan_in, width))
            # hidden layers after the first receive the skip-concatenated input
            fan_in = width + self.in_dim if i + 1 < len(self.hidden) else width
        dims.append((self.hidden[-1], self.out_dim))

        for i, (n_in, n_out) in enumerate(dims):
            std = np.sqrt(2.0 / (n_in + n_out))
            if i == len(dims) - 1:
                std *= final_init_scale
            w = rng.normal(0.0, std, size=(n_in, n_out)) if std > 0 else np.zeros((n_in, n_out))
            self.params[f"w{i}"] = Tensor(w, requires_grad=True)
            self.params[f"b{i}"] = Tensor(np.zeros(n_out), requires_grad=True)
        log.debug("ImNetMlp in_dim=%d hidden=%s params=%d",
                  self.in_dim, self.hidden, self.n_parameters)

    @property
    def n_parameters(self) -> int:
        return sum(p.data.size for p in self.params.values())

    def forward(self, h0: Tensor) -> Tensor:
        """Apply the network to rows of ``h0`` (shape (P, in_dim))."""
        h0 = ad.as_tensor(h0)
        if h0.data.ndim != 2 or h0.data.shape[1] != self.in_dim:
            raise DataError(
                f"expected input shape (P, {self.in_dim}), got {h0.data.shape}"
            )
        layers = range(len(self.hidden) + 1)
        return ad.skip_mlp(h0, [self.params[f"w{i}"] for i in layers],
                           [self.params[f"b{i}"] for i in layers], self.alpha)

    def frozen(self) -> "ImNetMlp":
        """This network with gradients off; shares the weight arrays.

        Backward passes through a frozen network skip the weight gradients,
        which is what inference (latent fitting) wants.
        """
        twin = copy.copy(self)
        twin.params = {name: Tensor(p.data) for name, p in self.params.items()}
        return twin

    def load_state_arrays(self, arrays: dict[str, np.ndarray]):
        for name, p in self.params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise DataError(f"checkpoint shape mismatch for {name}")
            p.data = arr.copy()

    def spec(self) -> dict:
        return {
            "in_dim": self.in_dim,
            "hidden": list(self.hidden),
            "out_dim": self.out_dim,
            "alpha": self.alpha,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "ImNetMlp":
        return cls(
            in_dim=spec["in_dim"],
            hidden=tuple(spec["hidden"]),
            out_dim=spec.get("out_dim", 3),
            alpha=spec.get("alpha", 0.02),
        )


def broadcast_latent_rows(z: Tensor, n: int) -> Tensor:
    """Tile a single latent row to n rows, keeping gradient flow."""
    z = ad.as_tensor(z)
    if z.data.ndim == 1:
        z = ad.reshape(z, (1, z.data.shape[0]))
    return ad.gather(z, np.zeros(n, dtype=np.int64))


def velocity(mlp: ImNetMlp, x, t: float, z) -> Tensor:
    """Latent-scaled velocity: mlp(x, t*z) * |z|, rows independent.

    ``z`` is either one latent vector shared by all points or a (P, d)
    per-point matrix. The latent enters the network only through t*z.
    """
    x = ad.as_tensor(x)
    if x.data.ndim != 2:
        raise DataError(f"points must be (P, 3), got {x.data.shape}")
    n = x.data.shape[0]
    z = ad.as_tensor(z)
    if z.data.ndim == 1:
        z = broadcast_latent_rows(z, n)
    if z.data.shape[0] != n:
        raise DataError("latent rows must match point rows")
    if not -1e-9 <= t <= 1.0 + 1e-9:
        raise DataError(f"time must lie in [0, 1], got {t}")
    t = min(max(t, 0.0), 1.0)  # stage times may overshoot by an ulp
    tz = ad.scale(z, t)
    f = mlp.forward(ad.concat([x, tz], axis=1))
    norms = ad.reshape(ad.row_norm(z), (n, 1))
    return ad.mul(f, norms)


def _rk4_step(v_fn, x: Tensor, t: float, h: float) -> Tensor:
    k1 = v_fn(x, t)
    k2 = v_fn(x + ad.scale(k1, h / 2.0), t + h / 2.0)
    k3 = v_fn(x + ad.scale(k2, h / 2.0), t + h / 2.0)
    k4 = v_fn(x + ad.scale(k3, h), t + h)
    incr = k1 + ad.scale(k2, 2.0) + ad.scale(k3, 2.0) + k4
    return x + ad.scale(incr, h / 6.0)


def _euler_step(v_fn, x: Tensor, t: float, h: float) -> Tensor:
    return x + ad.scale(v_fn(x, t), h)


def integrate_velocity(v_fn, x0, cfg: FlowConfig, direction: str = "forward") -> Tensor:
    """Integrate dx/dt = v_fn(x, t) from t=0 to 1 (or the reverse flow).

    ``reverse`` integrates the time-reversed, negated field, i.e. the inverse
    map of ``forward`` up to discretization error.
    """
    if direction not in ("forward", "reverse"):
        raise DataError(f"unknown direction {direction!r}")
    x = ad.as_tensor(x0)
    if direction == "reverse":
        fwd = v_fn

        def v_fn(x, s):  # noqa: ANN001 - local closure
            return ad.scale(fwd(x, min(max(1.0 - s, 0.0), 1.0)), -1.0)

    h = 1.0 / cfg.n_steps
    step = _rk4_step if cfg.integrator == "rk4" else _euler_step
    for k in range(cfg.n_steps):
        x = step(v_fn, x, k * h, h)
        if np.abs(x.data).max() > _DIVERGENCE_LIMIT:
            raise NonFiniteValue("flow trajectory diverged")
    return x


def integrate_flow(
    mlp: ImNetMlp,
    x0,
    latents,
    cfg: FlowConfig | None = None,
    direction: str = "forward",
) -> Tensor:
    """Deform points (P, 3) through the latent-conditioned flow.

    ``latents`` is one latent vector shared by all points or a (P, d)
    matrix; it is held constant along every trajectory.
    """
    cfg = cfg or FlowConfig()
    x = ad.as_tensor(x0)
    latents = ad.as_tensor(latents)
    if latents.data.ndim == 1:
        latents = broadcast_latent_rows(latents, x.data.shape[0])
    return integrate_velocity(
        lambda pts, t: velocity(mlp, pts, t, latents), x, cfg, direction
    )


def flow_jacobian_check(
    mlp: ImNetMlp,
    x0: np.ndarray,
    latents: np.ndarray,
    cfg: FlowConfig | None = None,
    h: float = 1e-5,
    seed=0,
    max_probes_per_tensor: int = 24,
) -> float:
    """Compare flow-loss gradients against central finite differences.

    Builds a fixed-correspondence distance loss (so the loss is smooth),
    differentiates w.r.t. all MLP parameters and the latents, and probes a
    deterministic subset of coordinates. Returns the max relative error.
    """
    cfg = cfg or FlowConfig()
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape[0] > 16:
        raise DataError("jacobian check is for small point counts (<= 16)")
    rng = check_rng(seed)
    targets = x0 + rng.normal(0.0, 0.3, size=x0.shape)

    z = Tensor(np.asarray(latents, dtype=np.float64), requires_grad=True)
    leaves = dict(mlp.params)
    leaves["latents"] = z

    def loss_value() -> float:
        out = integrate_flow(mlp, x0, z, cfg)
        return float(np.sqrt(((out.data - targets) ** 2).sum(axis=1)).mean())

    with ad.Tape() as tape:
        out = integrate_flow(mlp, x0, z, cfg)
        loss = ad.tmean(ad.row_norm(out - targets))
        ad.backward(loss, tape)

    max_rel = 0.0
    for name, p in leaves.items():
        flat = p.data.reshape(-1)
        grad = p.grad.reshape(-1)
        n_probe = min(max_probes_per_tensor, flat.size)
        probe_idx = rng.permutation(flat.size)[:n_probe]
        for i in probe_idx:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = loss_value()
            flat[i] = orig - h
            f_minus = loss_value()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-6)
            max_rel = max(max_rel, rel)
        p.zero_grad()
    return max_rel


"""Latent-conditioned velocity fields and differentiable flow integration.

A point cloud is deformed by integrating dx/dt = v(x, t) over t in [0, 1]
with a fixed-step integrator (RK4 by default), backpropagating through the
unrolled steps. The velocity is an MLP applied to (x, t*z), scaled by the
Euclidean norm of the latent z, so z = 0 yields the exact identity map.

:func:`integrate_flow` records the whole integration as one tape node. Its
forward pass stores each stage's input points, hidden activations and
network output in the thread's workspace (see ``autodiff.Workspace``); its
backward pass is a reverse sweep over those stored stage states
(discretise-then-differentiate, so exact for the fixed-step scheme; Griewank
& Walther, *Evaluating Derivatives*, 2008). It keeps the operation order of
:func:`velocity` through :func:`integrate_velocity`, the generic taped
integrator, and equals it bit for bit. Without a gradient to take it stores
nothing.
"""

from __future__ import annotations

import copy
import logging
import math
import weakref
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
        z = ad.gather(ad.reshape(z, (1, z.data.shape[0])), np.zeros(n, dtype=np.int64))
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
    map of ``forward`` up to discretization error. This generic integrator
    records every operation on the tape; :func:`integrate_flow` is the fused
    form for the ImNet field.
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


class _FusedFlow:
    """One flow evaluation of the ImNet field: forward pass and reverse sweep.

    The forward pass runs the operations of ``integrate_velocity`` over
    :func:`velocity` in their order, with ``out=`` into workspace blocks. To
    be differentiated it keeps each stage's input points, hidden activations
    and network output; the reverse sweep rebuilds the network inputs
    ``[x, t z]`` and ``[activation, x, t z]`` from them and replays the
    tape's gradient accumulation stage by stage, so values and gradients
    equal the separate operations' bit for bit.
    """

    def __init__(self, mlp: ImNetMlp, x0: Tensor, z: Tensor, cfg: FlowConfig, reverse: bool):
        n, n_in = x0.data.shape[0], mlp.in_dim
        self.n, self.x0, self.z, self.reverse, self.alpha = n, x0, z, reverse, mlp.alpha
        self.weights = [mlp.params[f"w{i}"] for i in range(len(mlp.hidden) + 1)]
        self.biases = [mlp.params[f"b{i}"] for i in range(len(mlp.hidden) + 1)]
        self.rk4 = cfg.integrator == "rk4"
        self.h = h = 1.0 / cfg.n_steps
        offsets = (0.0, h / 2.0, h / 2.0, h) if self.rk4 else (0.0,)
        times = [k * h + off for k in range(cfg.n_steps) for off in offsets]
        if reverse:
            times = [min(max(1.0 - s, 0.0), 1.0) for s in times]
        self.times = [min(max(t, 0.0), 1.0) for t in times]  # as velocity() clamps them
        self.stage_shapes = [(n, 3)] + [(n, w) for w in mlp.hidden] + [(n, 3)]
        widest, fan_in = max(mlp.hidden), max(w.data.shape[0] for w in self.weights)
        # [x, t z], a layer's input [activation, x, t z], pre-activations
        inputs = [(n, n_in), (n * fan_in,), (n * widest,)]
        self.forward_shapes = inputs + [(n, 3)] * 7
        d = z.data.shape[-1]
        self.backward_shapes = inputs[:2] + [(n, 3)] * 9 + [
            (n,), (n, d), (n, d), (n * widest,), (n * fan_in,), (n, n_in),
            (max(w.data.size for w in self.weights),), (max(widest, 3),)]
        zrow = z.data.reshape(1, -1) if z.data.ndim == 1 else z.data
        norms = np.sqrt((zrow**2).sum(axis=-1))
        self.zrow, self.norms = zrow, norms[:, None]
        self.safe = np.where(norms == 0.0, 1.0, norms)
        zero = np.broadcast_to(norms == 0.0, (n,))
        self.zero_rows = zero if zero.any() else None

    def _input(self, i: int, stage, h0, cat) -> np.ndarray:
        """The input of layer ``i``: ``[x, t z]``, ``[act, x, t z]`` or the last activation."""
        if i == 0:
            return h0
        act = stage[i]
        if i == len(self.weights) - 1:
            return act
        width = act.shape[1]
        joined = cat[:self.n * (width + h0.shape[1])].reshape(self.n, -1)
        joined[:, :width] = act
        joined[:, width:] = h0
        return joined

    # ------------------------------------------------------------ forward

    def forward(self, store: bool) -> np.ndarray:
        ws = ad.workspace()
        per_stage = len(self.stage_shapes)
        if store:
            spare = max(_floats(self.forward_shapes), _floats(self.backward_shapes))
            blocks = ws.take(self.stage_shapes * len(self.times), spare)
            stages = self.stages = [blocks[i:i + per_stage]
                                    for i in range(0, len(blocks), per_stage)]
            h0, cat, pre, x, *ks, tmp, acc = ws.lend(self.forward_shapes)
        else:  # one set of stage blocks, overwritten stage by stage
            blocks = ws.lend(self.stage_shapes + self.forward_shapes)
            stages = [blocks[:per_stage]] * len(self.times)
            h0, cat, pre, x, *ks, tmp, acc = blocks[per_stage:]
        h = self.h
        np.copyto(x, self.x0.data)
        for s, (stage, t) in enumerate(zip(stages, self.times)):
            j = s % 4 if self.rk4 else 0
            if j == 0:
                np.copyto(stage[0], x)
            else:  # x + k_j (h/2, h/2, h)
                np.multiply(ks[j - 1], h if j == 3 else h / 2.0, out=tmp)
                np.add(x, tmp, out=stage[0])
            self._velocity(stage, t, h0, cat, pre, ks[j])
            if not self.rk4:
                np.multiply(ks[0], h, out=tmp)
                np.add(x, tmp, out=x)
            elif j == 3:  # x + (k1 + 2 k2 + 2 k3 + k4) h/6
                np.multiply(ks[1], 2.0, out=tmp)
                np.add(ks[0], tmp, out=acc)
                np.multiply(ks[2], 2.0, out=tmp)
                np.add(acc, tmp, out=acc)
                np.add(acc, ks[3], out=acc)
                np.multiply(acc, h / 6.0, out=acc)
                np.add(x, acc, out=x)
            else:
                continue
            if not np.abs(x).max() <= _DIVERGENCE_LIMIT:
                raise NonFiniteValue("flow trajectory diverged")
        return x.copy()

    def _velocity(self, stage, t: float, h0, cat, pre, k):
        """One stage's velocity into ``k``, from its input points ``stage[0]``."""
        n, f = self.n, stage[-1]
        np.copyto(h0[:, :3], stage[0])
        np.multiply(self.zrow, t, out=h0[:, 3:])
        for i, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            p = pre[:n * w.data.shape[1]].reshape(n, -1)
            np.matmul(self._input(i, stage, h0, cat), w.data, out=p)
            p += b.data
            act = stage[i + 1]
            np.multiply(p, self.alpha, out=act)
            np.maximum(act, p, out=act)
        np.matmul(self._input(len(self.weights) - 1, stage, h0, cat), self.weights[-1].data,
                  out=f)
        f += self.biases[-1].data
        np.multiply(f, self.norms, out=k)
        if self.reverse:
            np.multiply(k, -1.0, out=k)

    # ------------------------------------------------------------ backward

    def backward(self, g: np.ndarray, tape: weakref.ref) -> tuple:
        if tape() is None or not tape().open:
            raise RuntimeError("integrate_flow: backward after its tape closed, "
                               "which handed its buffers back")
        (self.h0, self.cat, gi3, gk1, gk2, gk3, gacc, tmp, self.gv, self.gf, self.t3, self.tn,
         self.gz, self.tz, self.slope, self.g_in, self.gx, self.wt, self.bt) = ad.workspace().lend(
            self.backward_shapes)
        self.gw = [None] * len(self.weights)
        self.gb = [None] * len(self.biases)
        self.z_started = False
        h, need_z = self.h, self.z.requires_grad
        per_step = 4 if self.rk4 else 1
        for k in reversed(range(len(self.times) // per_step)):
            stage = self.stages[k * per_step:(k + 1) * per_step]
            times = self.times[k * per_step:(k + 1) * per_step]
            need_x = k > 0 or self.x0.requires_grad
            # the tape's reverse order: x_{k+1} = x + s, s = i3 h/6, i3 = i2 + k4,
            # i2 = i1 + 2 k3, i1 = k1 + 2 k2, then k4, k3, k2, k1 with their inputs
            if self.rk4:
                np.multiply(g, h / 6.0, out=gi3)
                np.multiply(gi3, 2.0, out=gk3)
                np.multiply(gi3, 2.0, out=gk2)
                gx = self._velocity_backward(stage[3], times[3], gi3, True)
                np.add(g, gx, out=gacc)
                np.multiply(gx, h, out=tmp)
                np.add(gk3, tmp, out=gk3)
                gx = self._velocity_backward(stage[2], times[2], gk3, True)
                np.add(gacc, gx, out=gacc)
                np.multiply(gx, h / 2.0, out=tmp)
                np.add(gk2, tmp, out=gk2)
                gx = self._velocity_backward(stage[1], times[1], gk2, True)
                np.add(gacc, gx, out=gacc)
                np.multiply(gx, h / 2.0, out=tmp)
                np.add(gi3, tmp, out=gk1)
                gx = self._velocity_backward(stage[0], times[0], gk1, need_x or need_z)
                if need_x:
                    np.add(gacc, gx, out=gacc)
            else:
                np.multiply(g, h, out=gk1)
                gx = self._velocity_backward(stage[0], times[0], gk1, need_x or need_z)
                if need_x:
                    np.add(g, gx, out=gacc)
            if need_x and not np.isfinite(gacc).all():
                raise NonFiniteGradient("backward produced non-finite gradient")
            g = gacc
        grad_z = None
        if need_z:
            if self.z.data.ndim == 1:  # the tape's gather of one row, then its reshape
                grad_z = np.zeros((1, self.z.data.shape[0]))
                np.add.at(grad_z, np.zeros(self.n, dtype=np.int64), self.gz)
                grad_z = grad_z.reshape(self.z.data.shape)
            else:
                grad_z = self.gz.copy()
        grads = (gacc.copy() if self.x0.requires_grad else None, grad_z, *self.gw, *self.gb)
        if not all(gr is None or np.isfinite(gr).all() for gr in grads):
            raise NonFiniteGradient("backward produced non-finite gradient")
        return grads

    def _velocity_backward(self, stage, t: float, gk: np.ndarray, need_input: bool):
        """Gradients of one stage's velocity for output gradient ``gk``:
        weights and latent accumulate, the input points' gradient is returned."""
        n, n_layers, f = self.n, len(self.weights), stage[-1]
        if self.reverse:
            np.multiply(gk, -1.0, out=self.gv)
            gk = self.gv
        np.multiply(gk, self.norms, out=self.gf)
        if self.z.requires_grad:  # |z| of velocity() = f * |z|
            np.multiply(gk, f, out=self.t3)
            np.sum(self.t3, axis=1, out=self.tn)
            np.divide(self.tn, self.safe, out=self.tn)
            part = self.tz if self.z_started else self.gz
            np.multiply(self.tn[:, None], self.zrow, out=part)
            if self.zero_rows is not None:
                part[self.zero_rows] = 0.0
            if self.z_started:
                np.add(self.gz, part, out=self.gz)
            self.z_started = True
        if any(w.requires_grad for w in self.weights):
            np.copyto(self.h0[:, :3], stage[0])
            np.multiply(self.zrow, t, out=self.h0[:, 3:])
        g, n_in, gx_started = self.gf, self.gx.shape[1], False
        for i in reversed(range(n_layers)):
            w, b = self.weights[i], self.biases[i]
            fan_in, width = w.data.shape
            if i < n_layers - 1:  # g * slope, with the slope 1 or alpha
                slope = self.slope[:n * width].reshape(n, width)
                np.greater(stage[i + 1], 0.0, out=slope)
                np.maximum(slope, self.alpha, out=slope)
                np.multiply(slope, g, out=slope)
                g = slope
            if w.requires_grad:
                inp = self._input(i, stage, self.h0, self.cat)
                if self.gw[i] is None:
                    self.gw[i] = inp.T @ g
                else:
                    part = self.wt[:w.data.size].reshape(w.data.shape)
                    np.matmul(inp.T, g, out=part)
                    np.add(self.gw[i], part, out=self.gw[i])
            if b.requires_grad:
                if self.gb[i] is None:
                    self.gb[i] = g.sum(axis=0)
                else:
                    part = self.bt[:width]
                    np.sum(g, axis=0, out=part)
                    np.add(self.gb[i], part, out=self.gb[i])
            if i == 0 and not need_input:
                return None
            g_in = self.g_in[:n * fan_in].reshape(n, fan_in)
            np.matmul(g, w.data.T, out=g_in)
            skip = 0 < i < n_layers - 1
            if skip or i == 0:  # the input's gradient, summed in the tape's order
                if gx_started:
                    np.add(self.gx, g_in[:, fan_in - n_in:], out=self.gx)
                else:
                    np.copyto(self.gx, g_in[:, fan_in - n_in:])
                    gx_started = True
            g = g_in[:, :fan_in - n_in * skip]
        if self.z.requires_grad:  # t z of velocity()
            np.multiply(self.gx[:, 3:], t, out=self.tz)
            np.add(self.gz, self.tz, out=self.gz)
        return self.gx[:, :3]


def _floats(shapes) -> int:
    """Upper bound of the workspace floats that blocks of ``shapes`` take."""
    return sum(math.prod(s) + 8 for s in shapes)


def integrate_flow(
    mlp: ImNetMlp,
    x0,
    latents,
    cfg: FlowConfig | None = None,
    direction: str = "forward",
) -> Tensor:
    """Deform points (P, 3) through the latent-conditioned flow.

    ``latents`` is one latent vector shared by all points or a (P, d)
    matrix; it is held constant along every trajectory. The whole
    integration is one tape node. Its value and gradients equal
    :func:`integrate_velocity` over :func:`velocity` (with a one-row latent
    broadcast to all rows once) bit for bit.
    """
    cfg = cfg or FlowConfig()
    if direction not in ("forward", "reverse"):
        raise DataError(f"unknown direction {direction!r}")
    x0, z = ad.as_tensor(x0), ad.as_tensor(latents)
    if x0.data.ndim != 2 or x0.data.shape[1] != 3:
        raise DataError(f"points must be (P, 3), got {x0.data.shape}")
    if z.data.ndim not in (1, 2) or (z.data.ndim == 2 and z.data.shape[0] != x0.data.shape[0]):
        raise DataError(f"latents {z.data.shape} must be one row or one per point")
    if 3 + z.data.shape[-1] != mlp.in_dim:
        raise DataError(f"expected input shape (P, {mlp.in_dim}), got latents {z.data.shape}")
    flow = _FusedFlow(mlp, x0, z, cfg, direction == "reverse")
    inputs = (x0, z, *flow.weights, *flow.biases)
    tape = ad._ACTIVE_TAPES[-1] if ad._ACTIVE_TAPES else None
    store = tape is not None and any(t.requires_grad for t in inputs)
    tape = weakref.ref(tape) if store else None  # the tape holds this node: no cycle
    return ad.record("integrate_flow", flow.forward(store), inputs,
                     lambda g: flow.backward(g, tape))


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


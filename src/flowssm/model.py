"""The statistical shape model: auto-decoder training, PCA latent statistics,
span-restricted inference and latent-space sampling.

Training runs in two consecutive stages against the same targets: first the
global deformer (shared MLP + one latent per shape), then the local deformer
(shared MLP, trainable kernel widths, M local latents per shape) applied to
the globally deformed template. The loss is the symmetric, unsquared Chamfer
distance between freshly sampled template and target surface points. After
training, separate PCAs over the global and the flattened local latents
describe the population; inference optimizes PCA coefficients directly, so
fitted latents lie exactly in the training span.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from . import autodiff as ad
from .autodiff import Adam, Tape, Tensor
from .checkpoint import load_container, save_container
from .errors import DataError, DegenerateDataWarning, NonFiniteLoss, NonFiniteValue
from .flow import FlowConfig, ImNetMlp, integrate_flow
from .latents import (ControlPointSet, LatentState, compose_deformers,
                      place_control_points, rbf_weights)
from .mesh.core import PointSet, TriMesh
from .mesh.sampling import sample_surface
from .validation import check_count, check_matrix, check_rate, check_rng, check_seed

LOSS_MODES = ("symmetric", "one_sided_deformed_to_target", "one_sided_target_to_deformed")


@dataclass
class PcaBasis:
    """Mean, orthonormal components (modes x dim) and per-mode stddevs."""

    mean: np.ndarray
    components: np.ndarray
    stddevs: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        self.components = np.asarray(self.components, dtype=np.float64).reshape(-1, len(self.mean))
        self.stddevs = np.asarray(self.stddevs, dtype=np.float64).reshape(-1)
        if len(self.stddevs) != len(self.components):
            raise DataError("one stddev per component")
        if np.any(self.stddevs < 0) or np.any(np.diff(self.stddevs) > 1e-12):
            raise DataError("stddevs must be non-negative and sorted descending")
        if self.n_modes:
            gram = self.components @ self.components.T
            if not np.allclose(gram, np.eye(self.n_modes), atol=1e-8):
                raise DataError("components must be orthonormal")

    @property
    def n_modes(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return len(self.mean)

    def project(self, z: np.ndarray) -> np.ndarray:
        return self.components @ (np.asarray(z, dtype=np.float64) - self.mean)

    def decode(self, coeffs: np.ndarray) -> np.ndarray:
        c = np.asarray(coeffs, dtype=np.float64)
        if self.n_modes == 0:
            return self.mean.copy()
        return self.mean + c @ self.components

    def span_residual(self, z: np.ndarray) -> float:
        """Norm of the component of (z - mean) outside the span."""
        centered = np.asarray(z, dtype=np.float64) - self.mean
        if self.n_modes == 0:
            return float(np.linalg.norm(centered))
        return float(np.linalg.norm(centered - self.components.T @ (self.components @ centered)))


def fit_pca(latents) -> PcaBasis:
    """Mean-centered PCA keeping every mode with nonzero variance.

    Stddevs are the sample standard deviations (ddof=1) of the training
    projections. Component signs are fixed so the largest-magnitude entry of
    each component is positive.
    """
    x = check_matrix(latents, "latents")
    n = x.shape[0]
    if n < 2:
        raise DataError("PCA needs at least two rows")
    mean = x.mean(axis=0)
    centered = x - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    keep = s > (s[0] * 1e-10 if s.size and s[0] > 0 else 0.0)
    components = vt[keep]
    stddevs = s[keep] / np.sqrt(n - 1)
    if components.shape[0] == 0:
        warnings.warn("all latent rows identical: PCA has zero modes", DegenerateDataWarning)
        components = np.zeros((0, x.shape[1]))
        stddevs = np.zeros(0)
    else:
        flip = np.sign(components[np.arange(len(components)),
                                  np.argmax(np.abs(components), axis=1)])
        components = components * flip[:, None]
    return PcaBasis(mean, components, stddevs)


@dataclass
class TrainingConfig:
    """Training hyperparameters (defaults match the reference protocol)."""

    epochs: int = 300
    lr: float = 1e-3
    batch_size: int = 16
    n_sample_points: int = 15000
    latent_init_std: float = 0.1
    latent_dim: int = 128
    n_control_points: int = 125
    initial_eps: float = 3.0
    hidden: tuple[int, ...] = (512, 512, 256, 128)
    alpha: float = 0.02
    flow: FlowConfig = field(default_factory=FlowConfig)
    inference_epochs: int = 600
    inference_lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
        self.hidden = tuple(int(h) for h in self.hidden)
        for name in ("epochs", "batch_size", "n_sample_points", "latent_dim",
                     "n_control_points", "inference_epochs"):
            check_count(getattr(self, name), name)
        for name in ("lr", "latent_init_std", "initial_eps", "inference_lr"):
            check_rate(getattr(self, name), name)
        check_seed(self.seed)

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden": list(self.hidden)}

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        d = dict(d)
        if "flow" in d:
            d["flow"] = _from_fields(FlowConfig, d["flow"])
        return _from_fields(cls, d)


def _from_fields(cls, d: dict):
    """``cls(**d)`` for a dataclass, rejecting keys that are not its fields."""
    if not isinstance(d, dict):
        raise DataError(f"{cls.__name__} settings must be a mapping, got {d!r}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise DataError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**d)


@dataclass
class FlowSsmModel:
    """Trained shape model: template, two deformers and latent statistics."""

    template: TriMesh
    mlp_global: ImNetMlp
    mlp_local: ImNetMlp | None
    cps: ControlPointSet | None
    latent_dim: int
    z_global_train: np.ndarray  # (N, d)
    z_local_train: np.ndarray | None  # (N, M, d)
    pca_global: PcaBasis
    pca_local: PcaBasis | None
    config: TrainingConfig
    norm_scale: float | None = None
    train_log: dict = field(default_factory=dict)

    @property
    def has_local(self) -> bool:
        return self.mlp_local is not None and self.pca_local is not None

    @property
    def n_train(self) -> int:
        return self.z_global_train.shape[0]

    def decode_points(self, points, state: LatentState, cfg: FlowConfig | None = None) -> np.ndarray:
        """Deform arbitrary points through the (composed) trained flow."""
        cfg = cfg or self.config.flow
        local = (self.mlp_local, self.cps, state.z_local) if self.has_local else None
        out = compose_deformers(np.asarray(points, dtype=np.float64),
                                (self.mlp_global, state.z_global), local, cfg)
        return out.data.copy()

    def decode_mesh(self, state: LatentState, cfg: FlowConfig | None = None) -> TriMesh:
        """Deform the template vertices; connectivity is preserved."""
        return self.template.with_vertices(self.decode_points(self.template.vertices, state, cfg))

    def zero_state(self) -> LatentState:
        m = self.cps.m if self.cps is not None else 1
        return LatentState(np.zeros(self.latent_dim), np.zeros((m, self.latent_dim)))

    def training_states(self) -> list[LatentState]:
        states = []
        for i in range(self.n_train):
            zl = (self.z_local_train[i] if self.z_local_train is not None
                  else np.zeros((self.cps.m if self.cps else 1, self.latent_dim)))
            states.append(LatentState(self.z_global_train[i], zl))
        return states

    def training_weights(self) -> np.ndarray:
        """PCA coefficients of the training shapes (global, then local)."""
        cols = [np.stack([self.pca_global.project(z) for z in self.z_global_train])]
        if self.has_local:
            flat = self.z_local_train.reshape(self.n_train, -1)
            cols.append(np.stack([self.pca_local.project(z) for z in flat]))
        return np.concatenate(cols, axis=1)


def _check_preprocessed(shapes: list[TriMesh]):
    for i, s in enumerate(shapes):
        if np.abs(s.vertices).max() > 1.25:
            raise DataError(
                f"shape {i} exceeds the normalized unit box; run preprocessing first"
            )


def _chamfer_terms(deformed: Tensor, target: np.ndarray, mode: str) -> Tensor:
    """Differentiable Chamfer loss with nearest neighbors held fixed."""
    d_np = deformed.data
    if mode in ("symmetric", "one_sided_target_to_deformed"):
        idx_t2d = cKDTree(d_np).query(target, k=1)[1]
        to_def = ad.tmean(ad.row_norm(ad.gather(deformed, idx_t2d) - target))
    if mode in ("symmetric", "one_sided_deformed_to_target"):
        idx_d2t = cKDTree(target).query(d_np, k=1)[1]
        to_tgt = ad.tmean(ad.row_norm(deformed - target[idx_d2t]))
    if mode == "symmetric":
        return ad.scale(to_def + to_tgt, 0.5)
    if mode == "one_sided_deformed_to_target":
        return to_tgt
    if mode == "one_sided_target_to_deformed":
        return to_def
    raise DataError(f"unknown loss mode {mode!r}")


def _fit_loss(loss_fn, failure: str, tape: Tape | None = None) -> float:
    """Record ``loss_fn()`` on ``tape`` (a fresh one by default) and
    backpropagate; gradients land in its leaves.

    A non-finite value raises NonFiniteLoss("<failure>: <cause>").
    """
    try:
        with tape or Tape() as tape:
            loss = loss_fn()
            ad.backward(loss, tape)
    except NonFiniteValue as exc:
        raise NonFiniteLoss(f"{failure}: {exc}") from exc
    return loss.item()


def _train_stage(shapes, template, cfg: TrainingConfig, rng, name: str,
                 per_shape: int, flow_inputs, extra: dict | None = None):
    """Auto-decoder Chamfer training of one deformer: a fresh shared MLP,
    ``per_shape`` latents per shape and the ``extra`` parameters under Adam.

    ``flow_inputs(batch, x0, z)`` maps the stacked template samples of a batch
    and the latent table to the flow's start points and per-row latents.
    Returns the MLP, the trained (N * per_shape, d) latent table and the
    per-epoch mean losses.
    """
    n_shapes, n = len(shapes), cfg.n_sample_points
    mlp = ImNetMlp(3 + cfg.latent_dim, cfg.hidden, alpha=cfg.alpha,
                   seed=rng.integers(2**31))
    z = Tensor(rng.normal(0.0, cfg.latent_init_std,
                          size=(n_shapes * per_shape, cfg.latent_dim)),
               requires_grad=True)
    opt = Adam({**mlp.params, "z": z, **(extra or {})}, lr=cfg.lr)
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_shapes)
        epoch_loss = []
        for start in range(0, n_shapes, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            tpl = sample_surface(template, n, seed=rng).points
            targets = [sample_surface(shapes[i], n, seed=rng).points for i in batch]
            x0 = np.tile(tpl, (len(batch), 1))

            def batch_loss():
                out = integrate_flow(mlp, *flow_inputs(batch, x0, z), cfg.flow)
                loss = None
                for bi, tgt in enumerate(targets):
                    rows = np.arange(bi * n, (bi + 1) * n)
                    term = _chamfer_terms(ad.gather(out, rows), tgt, "symmetric")
                    loss = term if loss is None else loss + term
                return ad.scale(loss, 1.0 / len(batch))

            # The previous batch's tape is freed only here, below this batch's
            # samples on the heap. Freed at the heap top, glibc would hand it back
            # to the kernel and every batch would fault it in again: training at
            # the benchmark config ran 40% slower on 2 cores.
            tape = Tape()
            loss = _fit_loss(batch_loss, f"{name} stage diverged at epoch {epoch}", tape)
            opt.step()
            opt.zero_grad()
            epoch_loss.append(loss)
        losses.append(float(np.mean(epoch_loss)))
    return mlp, z.data.copy(), losses


def train(
    shapes: list[TriMesh],
    template: TriMesh,
    cfg: TrainingConfig | None = None,
    include_local: bool = True,
    norm_scale: float | None = None,
) -> tuple[FlowSsmModel, list[LatentState]]:
    """Fit the shape model to preprocessed (aligned, normalized) meshes.

    Latents are initialized from N(0, latent_init_std^2) and optimized
    jointly with the shared MLP weights; the two deformers train
    consecutively against the same targets. Deterministic for a given seed.
    """
    cfg = cfg or TrainingConfig()
    if len(shapes) < 2:
        raise DataError("training needs at least two shapes")
    _check_preprocessed(shapes + [template])
    rng = check_rng(cfg.seed)

    def global_inputs(batch, x0, zg):
        return x0, ad.gather(zg, np.repeat(batch, cfg.n_sample_points))

    mlp_g, zg, losses_g = _train_stage(shapes, template, cfg, rng, "global", 1,
                                       global_inputs)
    model = FlowSsmModel(
        template=template,
        mlp_global=mlp_g,
        mlp_local=None,
        cps=None,
        latent_dim=cfg.latent_dim,
        z_global_train=zg,
        z_local_train=None,
        pca_global=fit_pca(zg),
        pca_local=None,
        config=cfg,
        norm_scale=norm_scale,
        train_log={"stage1": losses_g},
    )
    if include_local:
        model = add_local_stage(model, shapes, rng=rng)
    return model, model.training_states()


def add_local_stage(
    model: FlowSsmModel, shapes: list[TriMesh], rng=None
) -> FlowSsmModel:
    """Train the local deformer on top of a (frozen) global-only model.

    Returns a new model; the input model keeps only its global stage. Used
    both by :func:`train` and by the global-vs-local ablation.
    """
    cfg = model.config
    # without a generator, continue from a documented offset so a separate
    # ablation call is reproducible without replaying stage 1's RNG consumption
    rng = check_rng(cfg.seed + 1_000_003 if rng is None else rng)
    cps = place_control_points(model.template, cfg.n_control_points,
                               cfg.initial_eps, seed=cfg.seed)
    m, n = cps.m, cfg.n_sample_points
    eps = Tensor(np.full(m, cfg.initial_eps), requires_grad=True)
    mlp_g = model.mlp_global.frozen()

    def local_inputs(batch, x0, zl):
        # frozen weights and constant latents: the global pass records nothing
        x_mid = integrate_flow(mlp_g, x0, model.z_global_train[np.repeat(batch, n)], cfg.flow)
        w = rbf_weights(cps.positions, eps, x_mid)  # (B*n, M)
        blocks = [ad.gather(w, np.arange(bi * n, (bi + 1) * n))
                  @ ad.gather(zl, shape_idx * m + np.arange(m))
                  for bi, shape_idx in enumerate(batch)]
        return x_mid, ad.concat(blocks, axis=0)

    mlp_l, zl, losses_l = _train_stage(shapes, model.template, cfg, rng, "local", m,
                                       local_inputs, {"eps": eps})
    zl = zl.reshape(len(shapes), m, cfg.latent_dim)
    return replace(
        model,
        mlp_local=mlp_l,
        cps=ControlPointSet(cps.positions, np.maximum(np.abs(eps.data), 1e-6)),
        z_local_train=zl,
        pca_local=fit_pca(zl.reshape(len(shapes), -1)),
        train_log={**model.train_log, "stage2": losses_l},
    )


def _resolve_target(target, n_points: int, rng) -> np.ndarray:
    """Fresh surface samples for meshes; fixed points for point sets."""
    if isinstance(target, TriMesh):
        return sample_surface(target, n_points, seed=rng).points
    if isinstance(target, PointSet):
        return target.points
    return np.asarray(target, dtype=np.float64)


def _span_latent(coeff, basis: PcaBasis, shape: tuple[int, ...]) -> Tensor:
    """Differentiable ``basis.decode(coeff)`` reshaped to ``shape``."""
    mean = Tensor(basis.mean.reshape(shape))
    if basis.n_modes == 0:
        return mean
    return ad.reshape(ad.reshape(coeff, (1, basis.n_modes)) @ basis.components, shape) + mean


# L-BFGS stops once an iteration lowers the fixed-sample Chamfer loss (< 1, so
# scipy's relative test is absolute here) by less than this. One sample's own
# noise is ~1e-3; going on to scipy's default 2.2e-9 made refits ~1.5x
# slower without improving them.
_LBFGS_FTOL = 1e-6


def _lbfgs_coefficients(deform, n_modes: int, target: np.ndarray, loss_mode: str,
                        iters: int, stage: str) -> np.ndarray:
    """L-BFGS over one coefficient vector from zero on a fixed-sample loss."""

    def loss_and_grad(c):
        coeff = Tensor(c, requires_grad=True)
        loss = _fit_loss(lambda: _chamfer_terms(deform(coeff), target, loss_mode),
                         f"{stage} latent fit diverged")
        return loss, coeff.grad

    result = minimize(loss_and_grad, np.zeros(n_modes), jac=True,
                      method="L-BFGS-B",
                      options={"maxiter": iters, "ftol": _LBFGS_FTOL})
    return result.x


def fit_latent(
    model: FlowSsmModel,
    target,
    loss_mode: str = "symmetric",
    iters: int | None = None,
    lr: float | None = None,
    n_sample_points: int | None = None,
    seed: int = 0,
) -> tuple[LatentState, TriMesh]:
    """Embed a target (mesh or point set) in the trained shape space.

    PCA coefficient vectors are optimized directly (MLP weights and kernel
    widths frozen), so the result lies exactly in the span of the training
    latents. The fit runs in three phases:

    1. Global coefficients from zero by L-BFGS (at most ``iters``
       iterations, fewer once an iteration gains less than 1e-6) on one
       fixed sample: ``2 n`` template points against ``8 n`` target points
       (``n = n_sample_points``).
    2. Local coefficients from zero the same way, on the same sample pushed
       through the fitted global deformer.
    3. ``iters // 2`` joint Adam steps of size ``lr`` on both coefficient
       vectors through the composed deformers, each on a fresh sample of
       ``n`` template and ``4 n`` target points. The result is the mean of
       the second half of these iterates, which averages out the sampling
       noise of single steps.

    Point-set targets are used as given; only mesh targets are sampled.
    ``iters`` and ``lr`` default to the model's ``inference_epochs`` and
    ``inference_lr``. Deterministic for a given seed. Loss modes:
    ``symmetric`` for full targets, ``one_sided_deformed_to_target`` for
    partial meshes (unobserved regions unpenalized),
    ``one_sided_target_to_deformed`` for sparse point clouds (every observed
    point must be explained).
    """
    if loss_mode not in LOSS_MODES:
        raise DataError(f"loss_mode must be one of {LOSS_MODES}")
    cfg = model.config
    iters = cfg.inference_epochs if iters is None else iters
    lr = cfg.inference_lr if lr is None else lr
    n_pts = cfg.n_sample_points if n_sample_points is None else n_sample_points
    check_count(iters, "iters")
    check_rate(lr, "lr")
    rng = check_rng(seed)

    basis_g = model.pca_global
    basis_l = model.pca_local if model.has_local else None
    shape_l = (model.cps.m if model.cps is not None else 1, model.latent_dim)
    mlp_g = model.mlp_global.frozen()
    mlp_l = model.mlp_local.frozen() if basis_l is not None else None

    def deform(points, c_g=None, c_l=None):
        """Template points through the stages whose coefficients are given."""
        stage_g = stage_l = None
        if c_g is not None:
            stage_g = (mlp_g, _span_latent(c_g, basis_g, (basis_g.dim,)))
        if c_l is not None and basis_l is not None:
            stage_l = (mlp_l, model.cps, _span_latent(c_l, basis_l, shape_l))
        return compose_deformers(points, stage_g, stage_l, cfg.flow)

    tpl = sample_surface(model.template, 2 * n_pts, seed=rng).points
    tgt = _resolve_target(target, 8 * n_pts, rng)
    c_g = np.zeros(basis_g.n_modes)
    if c_g.size:
        c_g = _lbfgs_coefficients(partial(deform, tpl), c_g.size, tgt,
                                  loss_mode, iters, "global")
    c_l = np.zeros(basis_l.n_modes if basis_l is not None else 0)
    if c_l.size:
        x_mid = deform(tpl, c_g=c_g).data
        c_l = _lbfgs_coefficients(partial(deform, x_mid, None), c_l.size, tgt,
                                  loss_mode, iters, "local")

    steps = iters // 2
    if steps and (c_g.size or c_l.size):
        params = [Tensor(c_g, requires_grad=True), Tensor(c_l, requires_grad=True)]
        opt = Adam(dict(zip("gl", params)), lr=lr)
        tail = steps - steps // 2
        sums = [np.zeros_like(c_g), np.zeros_like(c_l)]
        for step in range(steps):
            tpl = sample_surface(model.template, n_pts, seed=rng).points
            tgt = _resolve_target(target, 4 * n_pts, rng)
            _fit_loss(lambda: _chamfer_terms(deform(tpl, *params), tgt, loss_mode),
                      "joint latent fit diverged")
            opt.step()
            opt.zero_grad()
            if step >= steps - tail:
                sums = [acc + p.data for acc, p in zip(sums, params)]
        c_g, c_l = (acc / tail for acc in sums)

    z_g = basis_g.decode(c_g)
    z_l = basis_l.decode(c_l).reshape(shape_l) if basis_l is not None else np.zeros(shape_l)
    state = LatentState(z_g, z_l)
    return state, model.decode_mesh(state)


def sample_shape(model: FlowSsmModel, seed=0) -> tuple[TriMesh, LatentState]:
    """Draw a random shape: per-mode N(0, stddev^2) coefficients, decoded
    through the PCA bases and the deformers; template connectivity kept."""
    rng = check_rng(seed)
    bg = model.pca_global
    z_g = bg.decode(rng.normal(0.0, 1.0, size=bg.n_modes) * bg.stddevs)
    m = model.cps.m if model.cps is not None else 1
    if model.has_local:
        bl = model.pca_local
        z_l = bl.decode(rng.normal(0.0, 1.0, size=bl.n_modes) * bl.stddevs)
        z_l = z_l.reshape(m, model.latent_dim)
    else:
        z_l = np.zeros((m, model.latent_dim))
    state = LatentState(z_g, z_l)
    return model.decode_mesh(state), state


def save_model(model: FlowSsmModel, path) -> None:
    """Serialize to the binary tensor container + JSON manifest."""
    tensors: dict[str, np.ndarray] = {
        "template/vertices": model.template.vertices,
        "template/faces": model.template.faces.astype(np.float64),
        "z_global_train": model.z_global_train,
        "pca_global/mean": model.pca_global.mean,
        "pca_global/components": model.pca_global.components,
        "pca_global/stddevs": model.pca_global.stddevs,
    }
    for k, v in model.mlp_global.params.items():
        tensors[f"mlp_global/{k}"] = v.data
    if model.has_local:
        for k, v in model.mlp_local.params.items():
            tensors[f"mlp_local/{k}"] = v.data
        tensors["cps/positions"] = model.cps.positions
        tensors["cps/inverse_widths"] = model.cps.inverse_widths
        tensors["z_local_train"] = model.z_local_train.reshape(model.n_train, -1)
        tensors["pca_local/mean"] = model.pca_local.mean
        tensors["pca_local/components"] = model.pca_local.components
        tensors["pca_local/stddevs"] = model.pca_local.stddevs
    manifest = {
        "kind": "flowssm-model",
        "latent_dim": model.latent_dim,
        "has_local": model.has_local,
        "n_train": model.n_train,
        "n_control_points": model.cps.m if model.cps is not None else 0,
        "mlp": model.mlp_global.spec(),
        "config": model.config.to_dict(),
        "norm_scale": model.norm_scale,
        "train_log": model.train_log,
    }
    save_container(path, tensors, manifest)


def load_model(path) -> FlowSsmModel:
    tensors, manifest = load_container(path)
    if manifest.get("kind") != "flowssm-model":
        raise DataError(f"{path} is not a model checkpoint")
    cfg = TrainingConfig.from_dict(manifest["config"])
    template = TriMesh(tensors["template/vertices"],
                       tensors["template/faces"].astype(np.int64))
    mlp_g = ImNetMlp.from_spec(manifest["mlp"])
    mlp_g.load_state_arrays(
        {k.split("/", 1)[1]: v for k, v in tensors.items() if k.startswith("mlp_global/")})
    pca_g = PcaBasis(tensors["pca_global/mean"], tensors["pca_global/components"],
                     tensors["pca_global/stddevs"])
    has_local = bool(manifest["has_local"])
    mlp_l = cps = pca_l = z_local = None
    if has_local:
        mlp_l = ImNetMlp.from_spec(manifest["mlp"])
        mlp_l.load_state_arrays(
            {k.split("/", 1)[1]: v for k, v in tensors.items() if k.startswith("mlp_local/")})
        cps = ControlPointSet(tensors["cps/positions"], tensors["cps/inverse_widths"])
        pca_l = PcaBasis(tensors["pca_local/mean"], tensors["pca_local/components"],
                         tensors["pca_local/stddevs"])
        n_train = int(manifest["n_train"])
        z_local = tensors["z_local_train"].reshape(n_train, cps.m, manifest["latent_dim"])
    return FlowSsmModel(
        template=template,
        mlp_global=mlp_g,
        mlp_local=mlp_l,
        cps=cps,
        latent_dim=int(manifest["latent_dim"]),
        z_global_train=tensors["z_global_train"],
        z_local_train=z_local,
        pca_global=pca_g,
        pca_local=pca_l,
        config=cfg,
        norm_scale=manifest.get("norm_scale"),
        train_log=manifest.get("train_log", {}),
    )

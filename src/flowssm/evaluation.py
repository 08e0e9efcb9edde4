"""Model quality measurements: generality, specificity, self-intersection
counts, the global-vs-local ablation, and linear-SVM latent classification.

Generality fits the trained model to held-out shapes and reports the exact
average symmetric surface distance to the target. Specificity decodes random
latent samples and reports the symmetric Chamfer distance to the nearest
training shape. Both also count self-intersecting meshes (SIM) on the exact
geometry emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats
from scipy.spatial import cKDTree

from .errors import DataError, DegenerateLabels
from .latents import LatentState
from .mesh.core import TriMesh
from .mesh.distance import average_symmetric_surface_distance
from .mesh.intersection import count_self_intersections
from .mesh.sampling import sample_surface
from .model import FlowSsmModel, add_local_stage, fit_latent, sample_shape, train
from .validation import check_matrix, check_rng


@dataclass
class ArmResult:
    """Per-shape records plus aggregates for one evaluation arm."""

    per_shape: list[dict] = field(default_factory=list)
    metric: str = "assd"

    @property
    def values(self) -> np.ndarray:
        return np.array([r[self.metric] for r in self.per_shape])

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    @property
    def std(self) -> float:
        return float(self.values.std())

    @property
    def sim_count(self) -> int:
        return int(sum(1 for r in self.per_shape if r["self_intersecting"]))

    def to_dict(self, norm_scale: float | None = None) -> dict:
        records = [{k: v for k, v in r.items() if k not in ("mesh", "state")}
                   for r in self.per_shape]
        out = {
            "metric": self.metric,
            "mean": self.mean,
            "std": self.std,
            "sim_count": self.sim_count,
            "per_shape": records,
        }
        if norm_scale:
            out["mean_model_units"] = self.mean / norm_scale
            out["std_model_units"] = self.std / norm_scale
        return out


@dataclass
class EvalReport:
    """Generality + specificity aggregates with a config echo."""

    generality: ArmResult | None = None
    specificity: ArmResult | None = None
    norm_scale: float | None = None
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "generality": self.generality.to_dict(self.norm_scale) if self.generality else None,
            "specificity": self.specificity.to_dict(self.norm_scale) if self.specificity else None,
            "norm_scale": self.norm_scale,
            "config": self.config,
        }


def evaluate_generality(
    model: FlowSsmModel,
    test_shapes: list[TriMesh],
    iters: int | None = None,
    lr: float | None = None,
    n_sample_points: int | None = None,
    assd_samples: int = 8000,
    seed: int = 0,
    keep_fitted: bool = False,
) -> ArmResult:
    """Fit each held-out shape (symmetric loss) and measure exact ASSD.

    ``keep_fitted`` attaches the fitted mesh and latent state to each record.
    """
    result = ArmResult(metric="assd")
    for i, target in enumerate(test_shapes):
        state, fitted = fit_latent(
            model, target, loss_mode="symmetric", iters=iters, lr=lr,
            n_sample_points=n_sample_points, seed=seed + 7919 * i)
        assd = average_symmetric_surface_distance(
            fitted, target, n_samples=assd_samples, seed=seed + i)
        selfx, n_pairs = count_self_intersections(fitted)
        record = {
            "index": i,
            "assd": float(assd),
            "self_intersecting": bool(selfx),
            "intersecting_pairs": int(n_pairs),
        }
        if keep_fitted:
            record["mesh"] = fitted
            record["state"] = state
        result.per_shape.append(record)
    return result


def _uniform_random_state(model: FlowSsmModel, rng) -> LatentState:
    """Unshaped comparator latents: raw coordinates uniform in +/- 3 RMS."""
    def draw(mean, train, shape):
        r = 3.0 * float(np.std(train - mean)) if train.size else 1.0
        return (mean + rng.uniform(-r, r, size=mean.shape)).reshape(shape)

    z_g = draw(model.pca_global.mean, model.z_global_train, (model.latent_dim,))
    if model.has_local:
        z_l = draw(model.pca_local.mean,
                   model.z_local_train.reshape(model.n_train, -1), model.local_shape)
    else:
        z_l = np.zeros(model.local_shape)
    return LatentState(z_g, z_l)


def evaluate_specificity(
    model: FlowSsmModel,
    training_shapes: list[TriMesh],
    n_samples: int = 1000,
    n_points: int = 15000,
    seed: int = 0,
    latent_source: str = "pca",
    check_self_intersections: bool = True,
) -> ArmResult:
    """Chamfer distance from decoded random samples to the nearest training
    shape, on fixed dense surface samples.

    ``latent_source`` is ``"pca"`` (per-mode Gaussians scaled by the training
    stddevs) or ``"uniform"`` (unshaped raw-latent comparator).
    """
    if latent_source not in ("pca", "uniform"):
        raise DataError(f"unknown latent source {latent_source!r}")
    rng = check_rng(seed)
    train_samples = [sample_surface(s, n_points, seed=seed + 31 * i).points
                     for i, s in enumerate(training_shapes)]
    train_trees = [cKDTree(s) for s in train_samples]
    result = ArmResult(metric="chamfer")
    for k in range(n_samples):
        if latent_source == "pca":
            mesh, _ = sample_shape(model, seed=rng)
        else:
            mesh = model.decode_mesh(_uniform_random_state(model, rng))
        gen = sample_surface(mesh, n_points, seed=seed + 617 * k).points
        gen_tree = cKDTree(gen)
        best = np.inf
        for s, tree in zip(train_samples, train_trees):
            d_gen = tree.query(gen, k=1)[0].mean()
            d_train = gen_tree.query(s, k=1)[0].mean()
            best = min(best, 0.5 * d_gen + 0.5 * d_train)
        selfx, n_pairs = (count_self_intersections(mesh)
                          if check_self_intersections else (False, 0))
        result.per_shape.append({
            "index": k,
            "chamfer": float(best),
            "self_intersecting": bool(selfx),
            "intersecting_pairs": int(n_pairs),
        })
    return result


def ablate_global_vs_local(
    train_shapes: list[TriMesh],
    test_shapes: list[TriMesh],
    template: TriMesh,
    cfg,
    iters: int | None = None,
    assd_samples: int = 8000,
    seed: int = 0,
) -> dict:
    """Paired generality comparison of the global-only vs composed model.

    Stage-1 training is shared: the composed arm continues the same model
    with the local stage. Reports per-shape paired ASSD and a one-sided
    paired t-test (alternative: composed < global-only).
    """
    global_model, _ = train(train_shapes, template, cfg, include_local=False)
    composed_model = add_local_stage(global_model, train_shapes)

    arm_global = evaluate_generality(
        global_model, test_shapes, iters=iters, assd_samples=assd_samples, seed=seed)
    arm_composed = evaluate_generality(
        composed_model, test_shapes, iters=iters, assd_samples=assd_samples, seed=seed)

    a = arm_global.values
    b = arm_composed.values
    t_stat, p_value = stats.ttest_rel(b, a, alternative="less")
    return {
        "global_only": arm_global,
        "composed": arm_composed,
        "mean_global_only": float(a.mean()),
        "mean_composed": float(b.mean()),
        "t_statistic": float(t_stat),
        "p_value": float(p_value),
        "models": (global_model, composed_model),
    }


@dataclass
class LinearSvm:
    """Linear decision rule sign(w . x + b) with L2 regularization weight."""

    weights: np.ndarray
    bias: float
    lam: float

    def decision(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x) @ self.weights + self.bias

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.where(self.decision(x) >= 0, 1, -1)


def train_svm(features, labels, lam: float = 1e-3, iters: int = 400) -> LinearSvm:
    """Deterministic full-batch subgradient descent on the hinge loss.

    Minimizes lam/2 |w|^2 + mean(max(0, 1 - y (w.x + b))) with Pegasos-style
    1/(lam*t) steps and tail averaging; the bias is unregularized. No
    randomness: same data, same model.
    """
    x = check_matrix(features, "features")
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if set(np.unique(y)) - {-1.0, 1.0}:
        raise DataError("labels must be +/-1")
    if len(np.unique(y)) < 2:
        raise DegenerateLabels("training labels contain a single class")
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    w_avg = np.zeros(d)
    b_avg = 0.0
    tail = max(1, iters // 2)
    for t in range(1, iters + 1):
        eta = 1.0 / (lam * t)
        margin = y * (x @ w + b)
        viol = margin < 1.0
        grad_w = lam * w - (y[viol, None] * x[viol]).sum(axis=0) / n
        grad_b = -y[viol].sum() / n
        w = w - eta * grad_w
        b = b - eta * grad_b
        # Pegasos projection keeps the iterates bounded
        norm = np.linalg.norm(w)
        cap = 1.0 / np.sqrt(lam)
        if norm > cap:
            w = w * (cap / norm)
        if t > iters - tail:
            w_avg += w
            b_avg += b
    return LinearSvm(w_avg / tail, float(b_avg / tail), lam)


def classify_monte_carlo(
    features,
    labels,
    train_fractions=tuple(np.round(np.arange(0.1, 0.91, 0.1), 2)),
    n_splits: int = 1000,
    lam: float = 1e-3,
    iters: int = 200,
    seed: int = 0,
) -> list[dict]:
    """Stratified Monte-Carlo cross-validation of the linear SVM.

    For each training fraction, draws ``n_splits`` stratified random splits,
    standardizes features on the training split, fits the SVM and records
    test accuracy. Returns one record per fraction with mean and std.
    """
    x = check_matrix(features, "features")
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if len(y) != len(x):
        raise DataError("labels must match feature rows")
    classes = np.unique(y)
    if len(classes) != 2:
        raise DegenerateLabels(f"need exactly two classes, got {classes}")
    y_pm = np.where(y == classes[1], 1.0, -1.0)
    idx_pos = np.nonzero(y_pm == 1.0)[0]
    idx_neg = np.nonzero(y_pm == -1.0)[0]
    rng = check_rng(seed)
    results = []
    for frac in train_fractions:
        accs = np.empty(n_splits)
        for s in range(n_splits):
            tr = []
            te = []
            for idx in (idx_pos, idx_neg):
                perm = idx[rng.permutation(len(idx))]
                k = int(np.clip(round(frac * len(idx)), 1, len(idx) - 1))
                tr.append(perm[:k])
                te.append(perm[k:])
            tr = np.concatenate(tr)
            te = np.concatenate(te)
            mu = x[tr].mean(axis=0)
            sd = x[tr].std(axis=0)
            sd[sd < 1e-12] = 1.0
            svm = train_svm((x[tr] - mu) / sd, y_pm[tr], lam=lam, iters=iters)
            pred = svm.predict((x[te] - mu) / sd)
            accs[s] = np.mean(pred == y_pm[te])
        results.append({
            "fraction": float(frac),
            "accuracy_mean": float(accs.mean()),
            "accuracy_std": float(accs.std()),
            "n_splits": int(n_splits),
        })
    return results

"""The benchmark's workloads: inputs, one round of operations, output checks.

A workload's ``setup`` builds its inputs from the workload seed; ``round``
runs one round of operations and returns one record per operation; ``checks``
tests the outputs of a run against references computed here or against
properties the method must have. Every call into the library goes through a
module attribute (``fm.train``, ``fe.evaluate_generality``) so the tracer's
wrappers see it.
"""

from __future__ import annotations

import time

import numpy as np

from flowssm import autodiff as ad
from flowssm import evaluation as fe
from flowssm import mesh
from flowssm import model as fm
from flowssm import synthetic
from flowssm.errors import FlowSsmError
from flowssm.flow import integrate_flow
from flowssm.latents import LatentState

import checks
import common
import inputs

# Operations per round. Training runs long enough for each stage's loss to
# fall below its first epoch; a reconstruct round fits two held-out members
# in one evaluate_generality call, so batching across targets has something
# to batch, and a sparse round fits clouds of the same two members.
# Specificity amortises its per-call sampling of the 40 training shapes over
# 40 samples.
TRAIN_EPOCHS = 4
FIT_TARGETS = 2
SPECIFICITY_SAMPLES = 40
FIT_ITERS = 150
ASSD_SAMPLES = 6000
SPARSE_POINTS = 200
SPECIFICITY_POINTS = 1500

# Fit inputs do not follow the workload seed: L-BFGS stops on a tolerance, so
# the loss evaluations of one fit vary by about +/-20% with its sample, more
# than a bound can absorb. These are the acceptance protocol's seeds
# (evaluate_generality seed 11; sparse cloud seed 99 and fit seed 12), and
# every round repeats the same fits.
RECONSTRUCT_SEED = 11
SPARSE_CLOUD_SEED = 99
SPARSE_FIT_SEED = 12


def _family():
    shapes = [m for m, _ in synthetic.generate_family(inputs.FAMILY, inputs.N_MEMBERS)]
    return shapes[:inputs.N_TRAIN], shapes[inputs.N_TRAIN:]


def _load_model():
    if not common.MODEL_PATH.is_file():
        raise common.SetupError(f"stored model {common.MODEL_PATH} is missing")
    return fm.load_model(common.MODEL_PATH)


def _op(records: list, fn):
    """Run one operation; a library error counts it as failed."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except FlowSsmError as exc:
        records.append({"failed": True, "exception": repr(exc)})
        return None
    records.append({"failed": False, "seconds": time.perf_counter() - t0})
    return out


def _span_residual(model, state) -> float:
    res = model.pca_global.span_residual(state.z_global)
    if model.has_local:
        res = max(res, model.pca_local.span_residual(state.z_local.reshape(-1)))
    return res


class Train:
    """Two-stage training from scratch on the 40 training members."""

    name = "train"
    per_op_unit = "epoch of both stages"

    def setup(self, seed: int) -> dict:
        train_shapes, _ = _family()
        return {"shapes": train_shapes, "template": inputs.template(), "seed": seed}

    def round(self, state: dict, r: int) -> list[dict]:
        records: list[dict] = []
        cfg = inputs.training_config(TRAIN_EPOCHS, 1000 * state["seed"] + r)
        out = _op(records, lambda: fm.train(state["shapes"], state["template"], cfg))
        if out is not None:
            model = out[0]
            records[-1].update(per_op_s=records[-1]["seconds"] / TRAIN_EPOCHS,
                               error=model.train_log["stage2"][-1], model=model)
        return records

    def checks(self, state: dict, records: list[dict]) -> list[tuple[str, bool, str]]:
        done = [r for r in records if not r["failed"]]
        if not done:
            return []
        model = done[0]["model"]
        logs = [r["model"].train_log for r in done]
        losses = [v for log in logs for stage in ("stage1", "stage2") for v in log[stage]]
        out = [("epoch losses finite", bool(np.all(np.isfinite(losses))), f"{len(losses)} losses")]
        for stage in ("stage1", "stage2"):
            out.append((f"{stage} ends below its first epoch",
                        all(log[stage][-1] < log[stage][0] for log in logs),
                        "; ".join(f"{log[stage][0]:.6f} -> {log[stage][-1]:.6f}"
                                  for log in logs)))
        zero = model.decode_mesh(model.zero_state()).vertices
        out.append(("zero latent decodes to the template",
                    bool(np.array_equal(zero, model.template.vertices)),
                    f"max shift {np.abs(zero - model.template.vertices).max():.3g}"))
        worst = max(_span_residual(model, s) for s in model.training_states())
        out.append(("training latents in their PCA span", worst < 1e-9, f"residual {worst:.3g}"))
        out.append(self._gradient_check(model))
        return out

    @staticmethod
    def _gradient_check(model) -> tuple[str, bool, str]:
        """Latent gradient of a fixed-correspondence flow loss against central
        differences of the benchmark's own forward pass."""
        mlp = model.mlp_global
        n_layers = len(mlp.hidden) + 1
        weights = [mlp.params[f"w{i}"].data for i in range(n_layers)]
        biases = [mlp.params[f"b{i}"].data for i in range(n_layers)]
        steps = model.config.flow.n_steps
        x0 = model.template.vertices[:12]
        target = x0 + np.random.default_rng(5).normal(0.0, 0.3, size=x0.shape)
        z0 = model.z_global_train[0]

        def loss(z):
            out = checks.reference_flow(weights, biases, mlp.alpha, x0, z, steps)
            return float(np.linalg.norm(out - target, axis=1).mean())

        z = ad.Tensor(z0, requires_grad=True)
        with ad.Tape() as tape:
            out = integrate_flow(mlp.frozen(), x0, z, model.config.flow)
            ad.backward(ad.tmean(ad.row_norm(out - target)), tape)
        forward_gap = float(np.abs(out.data - checks.reference_flow(
            weights, biases, mlp.alpha, x0, z0, steps)).max())
        fd = checks.central_difference_gradient(loss, z0)
        rel = float(np.abs(z.grad - fd).max() / max(np.abs(fd).max(), 1e-12))
        return ("latent gradient matches central differences",
                rel < 1e-6 and forward_gap < 1e-12,
                f"relative error {rel:.2e}, forward gap {forward_gap:.2e}")


class _StoredModel:
    """Workloads on the stored model: family members 40-49 are held out."""

    def setup(self, seed: int) -> dict:
        train_shapes, heldout = _family()
        return {"train": train_shapes, "heldout": heldout, "model": _load_model(),
                "seed": seed}

    def fit_checks(self, state: dict, done: list[dict]) -> list[tuple[str, bool, str]]:
        """Checks shared by dense and sparse fits."""
        model, heldout = state["model"], state["heldout"]
        worst = max(_span_residual(model, r["state"]) for r in done)
        out = [("fitted latents in the PCA span", worst < 1e-9, f"max residual {worst:.3g}"),
               ("template connectivity kept",
                all(np.array_equal(r["mesh"].faces, model.template.faces) for r in done),
                f"{len(done)} fits")]
        mean_mesh = _mean_shape(model)
        for r in done:
            mean_assd = mesh.average_symmetric_surface_distance(
                mean_mesh, heldout[r["target"]], n_samples=ASSD_SAMPLES, seed=r["assd_seed"])
            out.append((f"fit of held-out {r['target']} beats the PCA mean shape",
                        r["error"] < mean_assd, f"ASSD {r['error']:.5f} < {mean_assd:.5f}"))
        return out


def _mean_shape(model):
    shape_l = model.zero_state().z_local.shape
    z_l = model.pca_local.mean.reshape(shape_l) if model.has_local else np.zeros(shape_l)
    return model.decode_mesh(LatentState(model.pca_global.mean, z_l))


class Reconstruct(_StoredModel):
    """evaluate_generality on two held-out members (symmetric loss)."""

    name = "reconstruct"
    per_op_unit = "dense held-out fit"

    def round(self, state: dict, r: int) -> list[dict]:
        idx = list(range(FIT_TARGETS))
        seed = RECONSTRUCT_SEED
        records: list[dict] = []
        arm = _op(records, lambda: fe.evaluate_generality(
            state["model"], [state["heldout"][i] for i in idx], iters=FIT_ITERS,
            assd_samples=ASSD_SAMPLES, seed=seed, keep_fitted=True))
        if arm is None:
            records[0]["count"] = len(idx)
            return records
        seconds = records[0]["seconds"]
        # evaluate_generality fits target k with seed + 7919 k and samples its
        # ASSD with seed + k
        return [{"failed": False, "per_op_s": seconds / len(idx), "error": rec["assd"],
                 "target": i, "assd_seed": seed + k, "mesh": rec["mesh"], "state": rec["state"],
                 "intersecting_pairs": rec["intersecting_pairs"]}
                for k, (i, rec) in enumerate(zip(idx, arm.per_shape))]

    def checks(self, state: dict, records: list[dict]) -> list[tuple[str, bool, str]]:
        done = [r for r in records if not r["failed"]]
        if not done:
            return []
        out = self.fit_checks(state, done)
        for r in done[:FIT_TARGETS]:  # later rounds repeat the same fits
            exhaustive = mesh.count_self_intersections(r["mesh"], method="exhaustive")[1]
            out.append((f"self-intersections of held-out {r['target']} fit equal all-pairs count",
                        exhaustive == r["intersecting_pairs"],
                        f"{r['intersecting_pairs']} == {exhaustive}"))
        first = done[0]
        target = state["heldout"][first["target"]]
        pa = mesh.sample_surface(first["mesh"], ASSD_SAMPLES, seed=first["assd_seed"]).points
        pb = mesh.sample_surface(target, ASSD_SAMPLES, seed=first["assd_seed"] + 1).points
        brute = checks.brute_force_assd(pa, first["mesh"], pb, target)
        out.append(("ASSD equals brute force over all faces",
                    abs(brute - first["error"]) <= 1e-12 * brute,
                    f"{first['error']:.12f} vs {brute:.12f}"))
        return out


class Sparse(_StoredModel):
    """fit_latent to 200-point clouds of two held-out members, one-sided loss."""

    name = "sparse"
    per_op_unit = "partial-cloud fit"

    def round(self, state: dict, r: int) -> list[dict]:
        records: list[dict] = []
        for i in range(FIT_TARGETS):
            target = state["heldout"][i]
            cloud = mesh.sample_surface(target, SPARSE_POINTS, seed=SPARSE_CLOUD_SEED + i)
            out = _op(records, lambda: fm.fit_latent(
                state["model"], cloud, loss_mode="one_sided_target_to_deformed",
                iters=FIT_ITERS, seed=SPARSE_FIT_SEED))
            if out is None:
                continue
            fit_state, fitted = out
            seed = 1000 * state["seed"] + i
            assd = mesh.average_symmetric_surface_distance(
                fitted, target, n_samples=ASSD_SAMPLES, seed=seed)
            records[-1].update(per_op_s=records[-1]["seconds"], error=assd, target=i,
                               assd_seed=seed, mesh=fitted, state=fit_state, cloud=cloud.points)
        return records

    def checks(self, state: dict, records: list[dict]) -> list[tuple[str, bool, str]]:
        done = [r for r in records if not r["failed"]]
        if not done:
            return []
        out = self.fit_checks(state, done)
        mean_tri = _mean_shape(state["model"]).triangles()
        for r in done:
            fit_d = checks.point_to_faces_distance(r["cloud"], r["mesh"].triangles()).mean()
            mean_d = checks.point_to_faces_distance(r["cloud"], mean_tri).mean()
            out.append((f"cloud of held-out {r['target']} closer to the fit than to the mean shape",
                        fit_d < mean_d, f"brute force {fit_d:.5f} < {mean_d:.5f}"))
        return out


class Specificity(_StoredModel):
    """evaluate_specificity against the 40 training members."""

    name = "specificity"
    per_op_unit = "specificity sample"

    def round(self, state: dict, r: int) -> list[dict]:
        seed = 1000 * state["seed"] + r
        records: list[dict] = []
        arm = _op(records, lambda: fe.evaluate_specificity(
            state["model"], state["train"], n_samples=SPECIFICITY_SAMPLES,
            n_points=SPECIFICITY_POINTS, seed=seed))
        if arm is None:
            records[0]["count"] = SPECIFICITY_SAMPLES
            return records
        seconds = records[0]["seconds"]
        return [{"failed": False, "per_op_s": seconds / SPECIFICITY_SAMPLES,
                 "error": rec["chamfer"], "seed": seed, "index": rec["index"],
                 "self_intersecting": rec["self_intersecting"]}
                for rec in arm.per_shape]

    def checks(self, state: dict, records: list[dict]) -> list[tuple[str, bool, str]]:
        done = [r for r in records if not r["failed"]]
        if not done:
            return []
        model, train = state["model"], state["train"]
        first = done[0]
        # evaluate_specificity draws sample k from one generator seeded with
        # its seed, and samples surfaces with seed + 617 k (samples) and
        # seed + 31 i (training shape i)
        sample, _ = fm.sample_shape(model, seed=np.random.default_rng(first["seed"]))
        gen = mesh.sample_surface(sample, SPECIFICITY_POINTS, seed=first["seed"]).points
        brute = min(checks.brute_force_chamfer(
            gen, mesh.sample_surface(s, SPECIFICITY_POINTS, seed=first["seed"] + 31 * i).points)
            for i, s in enumerate(train))
        out = [("nearest-shape Chamfer equals brute force",
                abs(brute - first["error"]) <= 1e-12 * brute,
                f"{first['error']:.12f} vs {brute:.12f}")]
        spread = synthetic.family_nearest_neighbor_spread(train, n_points=SPECIFICITY_POINTS,
                                                          seed=3)
        mean = float(np.mean([r["error"] for r in done]))
        out.append(("mean below twice the family spread", mean < 2.0 * spread,
                    f"{mean:.5f} < 2 x {spread:.5f}"))
        sampled = sum(r["self_intersecting"] for r in done)
        training = sum(mesh.count_self_intersections(s)[0] for s in train)
        out.append(("self-intersecting share of samples no more than of training shapes",
                    sampled / len(done) <= training / len(train),
                    f"{sampled} of {len(done)} vs {training} of {len(train)}"))
        return out


WORKLOADS = {w.name: w for w in (Train(), Reconstruct(), Sparse(), Specificity())}

"""Acceptance suite: one test per criterion, each printing a PASS line.

The two training-based fixtures (bumpy generality run, lobed ablation run)
dominate the runtime; their configurations are frozen here and the measured
values of the one-off calibration run live in ``acceptance_baseline.json``
next to this file.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from flowssm import autodiff as ad
from flowssm.autodiff import Tape, Tensor
from flowssm.evaluation import (ablate_global_vs_local, classify_monte_carlo,
                                evaluate_generality, evaluate_specificity)
from flowssm.flow import (FlowConfig, ImNetMlp, flow_jacobian_check,
                          integrate_flow, integrate_velocity)
from flowssm.latents import ControlPointSet, interpolate_latent
from flowssm.mesh import (average_symmetric_surface_distance, chamfer_distance,
                          count_self_intersections, sample_surface)
from flowssm.model import TrainingConfig, fit_latent, train
from flowssm.synthetic import (FamilySpec, family_nearest_neighbor_spread,
                               family_template, generate_family,
                               vertex_pca_baseline)

from conftest import prefetched

BASELINE = json.loads(
    (Path(__file__).parent / "acceptance_baseline.json").read_text())


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ------------------------------------------------------------ fixtures


@pytest.fixture(scope="module")
def bumpy_run():
    """Criterion 6 protocol: 40 bumpy ellipsoids, d=16, M=125, 100 epochs."""
    t0 = time.monotonic()
    spec = FamilySpec(family="bumpy_ellipsoid", n_vertices=500, jitter=True,
                      axis_range=(0.65, 0.95), bump_amplitude=(0.05, 0.13),
                      bump_width=(0.35, 0.55), n_bumps=6, seed=42)
    members = generate_family(spec, 50)
    shapes = [m for m, _ in members]
    template = family_template(spec, subdivisions=3)
    cfg = TrainingConfig(
        epochs=100, lr=2e-3, batch_size=8, n_sample_points=700,
        latent_dim=16, n_control_points=125, initial_eps=3.0,
        hidden=(32, 32, 16, 16), flow=FlowConfig(n_steps=4),
        inference_epochs=150, inference_lr=0.01, seed=0)
    model, states = train(shapes[:40], template, cfg)
    train_seconds = time.monotonic() - t0

    generality = evaluate_generality(
        model, shapes[40:], iters=150, assd_samples=6000, seed=11,
        keep_fitted=True)
    total_seconds = time.monotonic() - t0
    return {
        "spec": spec,
        "shapes": shapes,
        "train_shapes": shapes[:40],
        "test_shapes": shapes[40:],
        "template": template,
        "cfg": cfg,
        "model": model,
        "states": states,
        "generality": generality,
        "train_seconds": train_seconds,
        "total_seconds": total_seconds,
    }


@prefetched
def lobed_ablation():
    """Criterion 7 protocol: shared stage 1, 20 held-out lobed shapes."""
    spec = FamilySpec(family="lobed_blob", n_vertices=480, jitter=False,
                      axis_range=(0.7, 0.95), lobe_amplitude=(0.13, 0.23),
                      lobe_freq_range=(4, 9), seed=23)
    members = generate_family(spec, 44)
    shapes = [m for m, _ in members]
    template = family_template(spec, subdivisions=3)
    cfg = TrainingConfig(
        epochs=70, lr=2e-3, batch_size=8, n_sample_points=600,
        latent_dim=12, n_control_points=100, initial_eps=3.0,
        hidden=(32, 32, 16, 16), flow=FlowConfig(n_steps=4),
        inference_epochs=150, inference_lr=0.01, seed=1)
    result = ablate_global_vs_local(shapes[:24], shapes[24:], template, cfg,
                                    iters=150, assd_samples=5000, seed=5)
    result["shapes"] = shapes
    result["template"] = template
    return result


# ------------------------------------------------------------ criteria


def test_criterion_1_gradient_correctness():
    t0 = time.monotonic()

    # primitive sweep against central finite differences
    def fd(f, arr, h=1e-5):
        g = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * h)
        return g

    rng = np.random.default_rng(0)
    probes = 0
    worst = 0.0
    idx = np.array([0, 2, 1, 2])
    weight = rng.normal(size=(4, 3))
    builders = [
        (lambda a, b: ad.tmean(ad.mul(ad.add(a, b), ad.sub(a, b))), [(3, 4), (3, 4)], 0.0),
        (lambda a, b: ad.tmean(ad.matmul(a, b)), [(4, 3), (3, 5)], 0.0),
        (lambda a, b: ad.tmean(ad.leaky_relu(ad.concat([a, b], axis=1), 0.02)),
         [(3, 2), (3, 4)], 0.0),
        (lambda a: ad.tmean(ad.exp(ad.scale(a, 0.4))), [(3, 3)], 0.0),
        (lambda a: ad.tmean(ad.mul(ad.gather(a, idx), ad.gather(a, idx))), [(4, 3)], 0.0),
        (lambda a: ad.tmean(ad.row_norm(a)), [(5, 3)], 2.0),
        (lambda a, c: ad.tmean(ad.mul(ad.pairwise_sqdist(a, c), Tensor(weight))),
         [(4, 2), (3, 2)], 0.0),
        (lambda a: ad.tmean(ad.tmean(ad.reshape(ad.mul(a, a), (2, 6)), axis=1)),
         [(3, 4)], 0.0),
    ]
    for rep in range(3):
        for j, (build, shapes, shift) in enumerate(builders):
            tensors = [Tensor(rng.normal(size=s) + shift, requires_grad=True)
                       for s in shapes]
            with Tape() as tape:
                ad.backward(build(*tensors), tape)
            for t in tensors:
                got = t.grad
                want = fd(lambda: build(*tensors).item(), t.data)
                rel = np.abs(got - want) / np.maximum(
                    np.maximum(np.abs(got), np.abs(want)), 1e-6)
                worst = max(worst, float(rel.max()))
                probes += t.data.size
    primitives_ok = worst < 1e-4 and probes >= 100

    # end-to-end: loss through an 8-step RK4 flow
    mlp = ImNetMlp(3 + 3, hidden=(8, 8, 8, 8), seed=2, final_init_scale=0.4)
    x0 = rng.normal(0, 0.4, size=(5, 3))
    latents = rng.normal(0, 0.3, size=(5, 3))
    flow_err = flow_jacobian_check(mlp, x0, latents, FlowConfig(n_steps=8),
                                   max_probes_per_tensor=8, seed=3)
    elapsed = time.monotonic() - t0
    report(1, primitives_ok and flow_err < 1e-3 and elapsed < 60,
           f"primitive max rel err {worst:.2e} over {probes} probes, "
           f"flow max rel err {flow_err:.2e}, runtime {elapsed:.1f}s")


def test_criterion_2_identity_and_invertibility(bumpy_run):
    mlp = ImNetMlp(3 + 4, hidden=(16, 16, 8, 8), seed=7, final_init_scale=0.5)
    rng = np.random.default_rng(8)
    x0 = rng.normal(0, 0.5, size=(40, 3))

    identity_ok = True
    for integrator in ("rk4", "euler"):
        out = integrate_flow(mlp, x0, np.zeros(4), FlowConfig(8, integrator))
        identity_ok &= np.array_equal(out.data, x0)

    z = rng.normal(0, 0.4, size=4)
    errs = {}
    for n in (4, 8, 16, 32):
        cfg = FlowConfig(n_steps=n)
        fwd = integrate_flow(mlp, x0, z, cfg)
        back = integrate_flow(mlp, fwd.data, z, cfg, direction="reverse")
        errs[n] = float(np.abs(back.data - x0).max())
    random_ok = errs[32] < 1e-3 and errs[32] < errs[16] < errs[8] < errs[4]

    # trained model: round trip improves with step count too
    model = bumpy_run["model"]
    state = bumpy_run["states"][0]
    verts = model.template.vertices[:200]
    lat = np.tile(state.z_global, (len(verts), 1))
    trained_errs = {}
    for n in (4, 32):
        cfg = FlowConfig(n_steps=n)
        fwd = integrate_flow(model.mlp_global, verts, lat, cfg)
        back = integrate_flow(model.mlp_global, fwd.data, lat, cfg, direction="reverse")
        trained_errs[n] = float(np.abs(back.data - verts).max())
    trained_ok = trained_errs[32] < trained_errs[4]

    report(2, identity_ok and random_ok and trained_ok,
           f"zero-latent identity exact; round trip errs {errs}; "
           f"trained model {trained_errs[32]:.2e} < {trained_errs[4]:.2e}")


def test_criterion_3_rbf_literal_correctness():
    # M=1, d=1: kernel value 1 at the control point
    cps = ControlPointSet(np.array([[0.2, -0.1, 0.4]]), np.array([3.0]))
    v1 = interpolate_latent(cps, np.array([[1.75]]), np.array([0.2, -0.1, 0.4]))
    ok1 = abs(v1.data[0] - 1.75) < 1e-12

    # M=2, d=1 hand case: 1*1 + 2*exp(-1)
    cps = ControlPointSet(np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.array([1.0, 1.0]))
    v2 = interpolate_latent(cps, np.array([[1.0], [2.0]]), np.zeros(3))
    expect2 = 1.0 + 2.0 * np.exp(-1.0)
    ok2 = abs(v2.data[0] - expect2) < 1e-12

    # M=3, d=2 hand case with distinct widths
    positions = np.array([[0.0, 0, 0], [0.5, 0, 0], [0, 1.0, 0]])
    eps = np.array([1.0, 2.0, 0.5])
    z = np.array([[1.0, -1.0], [0.5, 2.0], [-2.0, 0.25]])
    x = np.array([0.25, 0.25, 0.0])
    r = np.linalg.norm(positions - x, axis=1)
    phi = np.exp(-((eps * r) ** 2))
    expect3 = phi @ z
    v3 = interpolate_latent(ControlPointSet(positions, eps), z, x)
    ok3 = np.abs(v3.data - expect3).max() < 1e-12

    report(3, ok1 and ok2 and ok3,
           f"M=1 exact, M=2 -> {v2.data[0]:.12f} (expect {expect2:.12f}), "
           f"M=3/d=2 max err {np.abs(v3.data - expect3).max():.1e}")


def test_criterion_4_chamfer_literal_correctness():
    a = np.array([[0.0, 0, 0]])
    b = np.array([[1.0, 0, 0], [3.0, 0, 0]])
    hand_ok = abs(chamfer_distance(a, b) - 1.5) < 1e-12

    worst = 0.0
    rng = np.random.default_rng(4)
    for n, m in ((1000, 1000), (537, 911), (3, 1000)):
        pa = rng.normal(size=(n, 3))
        pb = rng.normal(size=(m, 3))
        d = np.linalg.norm(pa[:, None] - pb[None], axis=2)
        oracle = 0.5 * d.min(axis=1).mean() + 0.5 * d.min(axis=0).mean()
        worst = max(worst, abs(chamfer_distance(pa, pb) - oracle))
    report(4, hand_ok and worst < 1e-12,
           f"hand case 1.5 exact, max |kd-tree - exhaustive| = {worst:.2e}")


def test_criterion_5_linear_field_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(3):
        a = rng.normal(0, 0.5, size=(3, 3))
        a_t = Tensor(a.T)
        x0 = rng.normal(0, 0.6, size=(12, 3))
        out = integrate_velocity(lambda x, t: x @ a_t, Tensor(x0),
                                 FlowConfig(n_steps=8, integrator="rk4"))
        worst = max(worst, float(np.abs(out.data - x0 @ expm(a).T).max()))
    report(5, worst < 1e-4, f"max |RK4(8) - expm| = {worst:.2e}")


def test_criterion_6_synthetic_generality(bumpy_run):
    gen = bumpy_run["generality"]
    minutes = bumpy_run["total_seconds"] / 60.0
    threshold = BASELINE["generality_threshold"]
    ok = gen.mean < threshold and minutes < 30.0
    report(6, ok,
           f"mean ASSD {gen.mean:.4f} +- {gen.std:.4f} over 10 held-out "
           f"(threshold {threshold}, calibration run {BASELINE['generality_mean']}), "
           f"runtime {minutes:.1f} min")


def test_criterion_7_ablation_direction(lobed_ablation):
    r = lobed_ablation
    n = len(r["composed"].per_shape)
    ok = (r["mean_composed"] < r["mean_global_only"]
          and r["p_value"] < 0.05 and n >= 20)
    report(7, ok,
           f"global-only {r['mean_global_only']:.4f} -> composed "
           f"{r['mean_composed']:.4f} over {n} shapes, paired one-sided "
           f"p = {r['p_value']:.2e}")


def test_criterion_8_specificity(bumpy_run):
    model = bumpy_run["model"]
    train_shapes = bumpy_run["train_shapes"]
    spread = family_nearest_neighbor_spread(train_shapes, n_points=1500, seed=3)

    spec_pca = evaluate_specificity(model, train_shapes, n_samples=100,
                                    n_points=1500, seed=7)
    spec_uniform = evaluate_specificity(model, train_shapes, n_samples=100,
                                        n_points=1500, seed=7,
                                        latent_source="uniform",
                                        check_self_intersections=False)
    train_sim = sum(count_self_intersections(s)[0] for s in train_shapes)
    ok = (spec_pca.mean < 2.0 * spread
          and spec_pca.mean < spec_uniform.mean
          and spec_pca.sim_count <= train_sim)
    report(8, ok,
           f"specificity {spec_pca.mean:.4f} < 2 x spread {spread:.4f}; "
           f"uniform-latent comparator {spec_uniform.mean:.4f}; "
           f"SIM sampled {spec_pca.sim_count} <= SIM train {train_sim}")


def test_criterion_9_span_restriction(bumpy_run):
    model = bumpy_run["model"]
    worst = 0.0
    for rec in bumpy_run["generality"].per_shape:
        state = rec["state"]
        worst = max(worst, model.pca_global.span_residual(state.z_global))
        worst = max(worst, model.pca_local.span_residual(state.z_local.ravel()))
    report(9, worst < 1e-9, f"max span residual {worst:.2e} over 10 fits")


def test_criterion_10_classification_protocol():
    rng = np.random.default_rng(10)
    n = 58  # matches the reference protocol's class sizes
    pos = rng.normal(0, 1.0, size=(n, 6)) + 3.5
    neg = rng.normal(0, 1.0, size=(n, 6)) - 3.5
    x = np.vstack([pos, neg])
    y = np.concatenate([np.ones(n), -np.ones(n)])

    separable = classify_monte_carlo(x, y, n_splits=150, seed=11)
    sep_ok = all(rec["accuracy_mean"] == 1.0 for rec in separable)

    means = []
    shuffle_rng = np.random.default_rng(12)
    for k in range(5):
        y_shuf = y[shuffle_rng.permutation(len(y))]
        res = classify_monte_carlo(x, y_shuf, train_fractions=(0.5,),
                                   n_splits=150, seed=13 + k)
        means.append(res[0]["accuracy_mean"])
    null_mean = float(np.mean(means))
    null_ok = abs(null_mean - 0.5) < 0.05
    report(10, sep_ok and null_ok,
           f"separable accuracy 1.0 at all 9 fractions: {sep_ok}; "
           f"label-shuffled mean accuracy {null_mean:.3f} (target 0.5 +- 0.05)")


def test_criterion_11_determinism(tmp_path):
    spec = FamilySpec(family="ellipsoid", n_vertices=300, seed=3,
                      axis_range=(0.6, 0.95))
    shapes = [m for m, _ in generate_family(spec, 4)]
    template = family_template(spec, subdivisions=2)
    cfg = TrainingConfig(epochs=3, lr=2e-3, batch_size=4, n_sample_points=250,
                         latent_dim=4, n_control_points=8, initial_eps=3.0,
                         hidden=(12, 12, 8, 8), flow=FlowConfig(n_steps=2),
                         inference_epochs=5, seed=0)
    m1, _ = train(shapes, template, cfg)
    m2, _ = train(shapes, template, cfg)
    loss_gap = abs(m1.train_log["stage2"][-1] - m2.train_log["stage2"][-1])
    losses_ok = loss_gap < 1e-10

    # CLI outputs byte-identical under a fixed seed
    from flowssm.model import save_model
    from flowssm.cli import main as cli_main

    ckpt = tmp_path / "model.fssm"
    save_model(m1, ckpt)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["sample", "--checkpoint", str(ckpt), "--n", "2",
                         "--seed", "9", "--out-dir", str(out)]) == 0
        outs.append(out)
    bytes_ok = all(
        (outs[0] / f"sample_{i:03d}.obj").read_bytes()
        == (outs[1] / f"sample_{i:03d}.obj").read_bytes()
        for i in range(2))
    ckpt2 = tmp_path / "model2.fssm"
    save_model(m2, ckpt2)
    ckpt_ok = ckpt.read_bytes() == ckpt2.read_bytes()
    report(11, losses_ok and bytes_ok and ckpt_ok,
           f"final-loss gap {loss_gap:.1e}; checkpoints byte-identical: "
           f"{ckpt_ok}; CLI sample outputs byte-identical: {bytes_ok}")


# ------------------------------------------------ supporting spec checks


def test_refit_of_training_subset_reaches_training_quality(bumpy_run):
    """Generality on a training subset stays within 10% of the training fit."""
    model = bumpy_run["model"]
    subset = bumpy_run["train_shapes"][:3]
    states = bumpy_run["states"][:3]
    train_fit = [
        average_symmetric_surface_distance(model.decode_mesh(s), shape,
                                           n_samples=5000, seed=31 + i)
        for i, (s, shape) in enumerate(zip(states, subset))
    ]
    refit = evaluate_generality(model, subset, iters=150, assd_samples=5000,
                                seed=17)
    assert refit.mean <= 1.1 * float(np.mean(train_fit)), (
        refit.mean, float(np.mean(train_fit)))


def test_heldout_chamfer_close_to_training_fit(bumpy_run):
    """Held-out fits land within 1.5x the mean training-set fit error."""
    model = bumpy_run["model"]
    train_chamfer = []
    for i in (0, 5, 11, 17):
        shape = bumpy_run["train_shapes"][i]
        fitted = model.decode_mesh(bumpy_run["states"][i])
        a = sample_surface(fitted, 2500, seed=41 + i).points
        b = sample_surface(shape, 2500, seed=77 + i).points
        train_chamfer.append(chamfer_distance(a, b))
    test_chamfer = []
    for rec, shape in zip(bumpy_run["generality"].per_shape,
                          bumpy_run["test_shapes"]):
        a = sample_surface(rec["mesh"], 2500, seed=151 + rec["index"]).points
        b = sample_surface(shape, 2500, seed=211 + rec["index"]).points
        test_chamfer.append(chamfer_distance(a, b))
    assert float(np.mean(test_chamfer)) < 1.5 * float(np.mean(train_chamfer)), (
        np.mean(test_chamfer), np.mean(train_chamfer))


def test_sparse_reconstruction(bumpy_run):
    """200-point one-sided fit recovers the full mesh within 3x the dense fit."""
    model = bumpy_run["model"]
    target = bumpy_run["test_shapes"][0]
    dense_assd = bumpy_run["generality"].per_shape[0]["assd"]
    sparse = sample_surface(target, 200, seed=99)
    _, fitted = fit_latent(model, sparse,
                           loss_mode="one_sided_target_to_deformed",
                           iters=150, seed=12)
    sparse_assd = average_symmetric_surface_distance(fitted, target,
                                                     n_samples=5000, seed=1)
    assert sparse_assd < 3.0 * dense_assd, (sparse_assd, dense_assd)


def test_vertex_pca_baseline_on_lobed_family(lobed_ablation):
    """The flow model matches or beats the PDM baseline at matched budget."""
    shapes = lobed_ablation["shapes"]
    composed = lobed_ablation["composed"]
    model = lobed_ablation["models"][1]
    budget = model.pca_global.n_modes + model.pca_local.n_modes
    pdm = vertex_pca_baseline(shapes[:24], shapes[24:],
                              n_modes=min(budget, 23), assd_samples=5000)
    assert composed.mean <= pdm["mean"], (composed.mean, pdm["mean"])


@prefetched
def ablation_control():
    spec = FamilySpec(family="ellipsoid", n_vertices=420, jitter=True,
                      axis_range=(0.7, 0.92), seed=31)
    members = generate_family(spec, 18)
    shapes = [m for m, _ in members]
    template = family_template(spec, subdivisions=2)
    cfg = TrainingConfig(
        epochs=120, lr=2e-3, batch_size=4, n_sample_points=600,
        latent_dim=16, n_control_points=64, initial_eps=3.0,
        hidden=(32, 32, 16, 16), flow=FlowConfig(n_steps=4),
        inference_epochs=250, inference_lr=0.01, seed=2)
    return ablate_global_vs_local(shapes[:12], shapes[12:], template, cfg,
                                  iters=250, assd_samples=4000, seed=9)


def test_ablation_control_family_without_local_signal(ablation_control):
    """Pure ellipsoid scaling: both ablation arms land within 20%.

    The comparison isolates the absence of high-frequency signal, so the
    global arm must be run to saturation (longer training and inference);
    otherwise the local stage mops up leftover smooth residual and the
    relative gap reflects under-convergence, not signal.
    """
    a, b = ablation_control["mean_global_only"], ablation_control["mean_composed"]
    assert abs(a - b) <= 0.2 * max(a, b), (a, b)

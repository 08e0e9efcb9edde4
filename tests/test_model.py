import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from flowssm.autodiff import Tensor
from flowssm.errors import DataError, DegenerateDataWarning, NonFiniteLoss
from flowssm.mesh import chamfer_distance, sample_surface
from flowssm.flow import FlowConfig
from flowssm.model import (PcaBasis, TrainingConfig, fit_latent, fit_pca,
                           load_model, sample_shape, save_model, train)
from flowssm.synthetic import FamilySpec, family_template, generate_family

from conftest import prefetched, tiny_config


def test_fit_pca_hand_case():
    rows = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]])
    basis = fit_pca(rows)
    assert basis.n_modes == 1
    np.testing.assert_allclose(basis.mean, [2.0, 0.0])
    np.testing.assert_allclose(np.abs(basis.components[0]), [1.0, 0.0], atol=1e-12)
    assert basis.stddevs[0] == pytest.approx(2.0)  # sample stddev of {-2, 0, 2}


def test_fit_pca_identical_rows_zero_modes():
    rows = np.tile([1.0, 2.0, 3.0], (5, 1))
    with pytest.warns(DegenerateDataWarning):
        basis = fit_pca(rows)
    assert basis.n_modes == 0
    np.testing.assert_allclose(basis.decode(np.zeros(0)), [1.0, 2.0, 3.0])


def test_fit_pca_full_rank_reconstruction():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(10, 6))
    basis = fit_pca(x)
    for row in x:
        recon = basis.decode(basis.project(row))
        np.testing.assert_allclose(recon, row, atol=1e-9)
    gram = basis.components @ basis.components.T
    np.testing.assert_allclose(gram, np.eye(basis.n_modes), atol=1e-8)


def test_fit_pca_rank_bound():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 20))
    basis = fit_pca(x)
    assert basis.n_modes <= 3


def test_fit_pca_requires_two_rows():
    with pytest.raises(DataError):
        fit_pca(np.zeros((1, 5)))


def test_pca_basis_validates_orthonormality():
    with pytest.raises(DataError):
        PcaBasis(np.zeros(2), np.array([[1.0, 1.0]]), np.array([1.0]))


def test_train_rejects_unnormalized_shapes(ellipsoid_family):
    big = [s.with_vertices(s.vertices * 10.0) for s in ellipsoid_family["shapes"][:2]]
    with pytest.raises(DataError):
        train(big, ellipsoid_family["template"], tiny_config(epochs=1))


@pytest.mark.parametrize("bad", [
    {"epochs": 1.5}, {"epochs": True}, {"batch_size": 4.0}, {"n_sample_points": "350"},
    {"latent_dim": 0}, {"n_control_points": 2.5}, {"inference_epochs": -3},
    {"lr": float("inf")}, {"inference_lr": float("nan")}, {"latent_init_std": True},
    {"seed": 1.5}, {"seed": -1}, {"seed": True},
])
def test_training_config_rejects_bad_values(bad):
    with pytest.raises(DataError):
        tiny_config(**bad)


def test_config_dict_round_trip_and_key_checks():
    cfg = tiny_config()
    assert TrainingConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(DataError):
        FlowConfig(n_steps=2.5)
    with pytest.raises(DataError):
        FlowConfig(n_steps=False)
    with pytest.raises(DataError):
        TrainingConfig.from_dict({"flow": {"n_steps": 4, "order": 2}})
    with pytest.raises(DataError):
        TrainingConfig.from_dict({"epochs": 3, "nonsense": True})


def test_trained_model_basics(tiny_model):
    model = tiny_model["model"]
    assert model.has_local
    assert model.pca_global.n_modes <= model.n_train - 1
    assert model.pca_local.n_modes <= model.n_train - 1
    # loss curves exist for both stages
    assert len(model.train_log["stage1"]) == model.config.epochs
    assert len(model.train_log["stage2"]) == model.config.epochs
    # the local stage runs the global deformer frozen: no gradient lands there
    assert all(p._grad is None for p in model.mlp_global.params.values())


def test_stage2_starts_near_stage1_loss(tiny_model):
    log = tiny_model["model"].train_log
    assert log["stage2"][0] <= 1.1 * log["stage1"][-1]


def test_training_improves_over_identity(tiny_model):
    """Learned latents beat the undeformed template on their own targets."""
    model = tiny_model["model"]
    shapes = tiny_model["shapes"][:8]
    tpl_sample = sample_surface(model.template, 2000, seed=1).points
    improved = 0
    for i, (shape, state) in enumerate(zip(shapes, tiny_model["states"])):
        tgt = sample_surface(shape, 2000, seed=2 + i).points
        fitted_pts = model.decode_points(tpl_sample, state)
        base = chamfer_distance(tpl_sample, tgt)
        fit = chamfer_distance(fitted_pts, tgt)
        improved += int(fit < base)
    assert improved >= 7  # allow one marginal member


def test_two_identical_shapes_sanity(identical_pair_model):
    model = identical_pair_model["model"]
    shape = identical_pair_model["shape"]
    tpl = sample_surface(model.template, 1500, seed=0).points
    tgt = sample_surface(shape, 1500, seed=1).points
    base = chamfer_distance(tpl, tgt)
    fit = chamfer_distance(model.decode_points(tpl, identical_pair_model["states"][0]), tgt)
    assert fit < base


def test_sample_shape_preserves_connectivity(tiny_model):
    model = tiny_model["model"]
    mesh, state = sample_shape(model, seed=3)
    np.testing.assert_array_equal(mesh.faces, model.template.faces)
    assert state.z_global.shape == (model.latent_dim,)


def test_zero_coefficients_decode_to_pca_means(tiny_model):
    model = tiny_model["model"]
    assert np.array_equal(model.pca_global.decode(np.zeros(model.pca_global.n_modes)),
                          model.pca_global.mean)
    assert np.array_equal(model.pca_local.decode(np.zeros(model.pca_local.n_modes)),
                          model.pca_local.mean)


def test_fit_latent_span_restriction(tiny_model):
    model = tiny_model["model"]
    target = tiny_model["shapes"][8]  # held out from training
    state, fitted = fit_latent(model, target, iters=25, seed=11)
    assert model.pca_global.span_residual(state.z_global) < 1e-9
    assert model.pca_local.span_residual(state.z_local.ravel()) < 1e-9
    np.testing.assert_array_equal(fitted.faces, model.template.faces)


@pytest.mark.parametrize("kwargs", [
    {"iters": 0}, {"iters": -3}, {"iters": 2.5}, {"iters": True},
    {"lr": 0.0}, {"lr": -0.01}, {"lr": float("nan")}, {"lr": float("inf")},
])
def test_fit_latent_rejects_invalid_arguments(tiny_model, kwargs):
    model = tiny_model["model"]
    with pytest.raises(DataError):
        fit_latent(model, tiny_model["shapes"][8], **kwargs)


def test_fit_latent_on_fresh_model_does_not_worsen_identity(ellipsoid_family):
    """Fresh model, PCA from near-zero latents: fitting the template target
    cannot do worse than the zero latent (both decode to the identity)."""
    from flowssm.flow import ImNetMlp
    from flowssm.latents import place_control_points
    from flowssm.model import FlowSsmModel

    template = ellipsoid_family["template"]
    cfg = tiny_config(epochs=1)
    rng = np.random.default_rng(0)
    n, d, m = 6, cfg.latent_dim, cfg.n_control_points
    zg = rng.normal(0, 0.1, size=(n, d))
    zl = rng.normal(0, 0.1, size=(n, m * d))
    model = FlowSsmModel(
        template=template,
        mlp_global=ImNetMlp(3 + d, cfg.hidden, seed=1),
        mlp_local=ImNetMlp(3 + d, cfg.hidden, seed=2),
        cps=place_control_points(template, m, cfg.initial_eps, seed=0),
        latent_dim=d,
        z_global_train=zg,
        z_local_train=zl.reshape(n, m, d),
        pca_global=fit_pca(zg),
        pca_local=fit_pca(zl),
        config=cfg,
    )
    target = sample_surface(template, 900, seed=5)
    state, _ = fit_latent(model, target, iters=15, seed=6)
    tpl = sample_surface(template, 900, seed=7).points
    fit_chamfer = chamfer_distance(model.decode_points(tpl, state), target.points)
    zero_chamfer = chamfer_distance(model.decode_points(tpl, model.zero_state()),
                                    target.points)
    assert fit_chamfer <= zero_chamfer + 1e-12


def test_fit_latent_in_two_threads_equals_sequential(tiny_model):
    """Tapes and flow workspaces are per thread: two fits at once give the
    states the same fits give one after the other."""
    model = tiny_model["model"]
    targets = tiny_model["shapes"][8:10]
    expected = [fit_latent(model, t, iters=12, seed=5)[0] for t in targets]
    start = threading.Barrier(2)

    def fit(target):
        start.wait()
        return fit_latent(model, target, iters=12, seed=5)[0]

    with ThreadPoolExecutor(2) as pool:
        states = list(pool.map(fit, targets))
    for got, want in zip(states, expected):
        np.testing.assert_array_equal(got.z_global, want.z_global)
        np.testing.assert_array_equal(got.z_local, want.z_local)


def test_fit_latent_divergence_is_a_non_finite_loss(tiny_model):
    model = tiny_model["model"]
    wild = model.mlp_global.frozen()
    wild.params = {k: Tensor(p.data * 1e3) for k, p in wild.params.items()}
    with pytest.raises(NonFiniteLoss, match="global latent fit diverged: flow trajectory diverged"):
        with np.errstate(over="ignore", invalid="ignore"):
            fit_latent(replace(model, mlp_global=wild), tiny_model["shapes"][8], iters=3, seed=0)


def test_fit_latent_sparse_one_sided(tiny_model):
    model = tiny_model["model"]
    target_mesh = tiny_model["shapes"][9]
    sparse = sample_surface(target_mesh, 200, seed=13)
    state, fitted = fit_latent(model, sparse,
                               loss_mode="one_sided_target_to_deformed",
                               iters=40, seed=13)
    np.testing.assert_array_equal(fitted.faces, model.template.faces)
    from flowssm.mesh import average_symmetric_surface_distance

    assd = average_symmetric_surface_distance(fitted, target_mesh,
                                              n_samples=3000, seed=0)
    assert np.isfinite(assd)


def test_checkpoint_round_trip(tiny_model, tmp_path):
    model = tiny_model["model"]
    path = tmp_path / "model.fssm"
    save_model(model, path)
    back = load_model(path)
    state = tiny_model["states"][0]
    a = model.decode_mesh(state)
    b = back.decode_mesh(state)
    np.testing.assert_array_equal(a.vertices, b.vertices)
    np.testing.assert_array_equal(back.z_global_train, model.z_global_train)
    np.testing.assert_allclose(back.cps.inverse_widths, model.cps.inverse_widths)
    assert back.config.latent_dim == model.config.latent_dim


@prefetched
def wide_ellipsoid_training():
    spec = FamilySpec(family="ellipsoid", n_vertices=450, seed=17,
                      axis_range=(0.45, 1.0))
    shapes = [m for m, _ in generate_family(spec, 20)]
    template = family_template(spec, subdivisions=2)
    cfg = tiny_config(epochs=100, latent_dim=16, n_control_points=27,
                      batch_size=4, n_sample_points=800, lr=2e-3,
                      hidden=(24, 24, 12, 12))
    model, _ = train(shapes, template, cfg)
    return {"shapes": shapes, "template": template, "model": model}


def test_training_progress_on_wide_ellipsoid_family(wide_ellipsoid_training):
    """20 ellipsoids, d=16, M=27, 100 epochs: loss falls below 25% of the
    initial random-latent value (which equals the undeformed-template loss)."""
    shapes = wide_ellipsoid_training["shapes"]
    template = wide_ellipsoid_training["template"]
    model = wide_ellipsoid_training["model"]

    rng_initial = []
    tpl = sample_surface(template, 800, seed=100).points
    for i, s in enumerate(shapes):
        tgt = sample_surface(s, 800, seed=200 + i).points
        rng_initial.append(chamfer_distance(tpl, tgt))
    initial = float(np.mean(rng_initial))
    final = model.train_log["stage2"][-1]
    assert final < 0.25 * initial, (final, initial)


def test_training_reproducibility(ellipsoid_family):
    cfg = tiny_config(epochs=4, latent_dim=4, n_control_points=8,
                      n_sample_points=250)
    shapes = ellipsoid_family["shapes"][:4]
    m1, _ = train(shapes, ellipsoid_family["template"], cfg)
    m2, _ = train(shapes, ellipsoid_family["template"], cfg)
    assert abs(m1.train_log["stage1"][-1] - m2.train_log["stage1"][-1]) < 1e-10
    assert abs(m1.train_log["stage2"][-1] - m2.train_log["stage2"][-1]) < 1e-10
    np.testing.assert_array_equal(m1.z_global_train, m2.z_global_train)

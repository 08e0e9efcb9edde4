import numpy as np
import pytest

from flowssm import autodiff as ad
from flowssm.autodiff import Tape, Tensor
from flowssm.flow import FlowConfig, ImNetMlp
from flowssm.latents import (ControlPointSet, LatentState, compose_deformers,
                             interpolate_latent, place_control_points,
                             rbf_weights)
from flowssm.synthetic import icosphere


def test_place_control_points_basic():
    template = icosphere(2)
    cps = place_control_points(template, 1, initial_eps=2.0, seed=0)
    assert cps.m == 1
    assert cps.inverse_widths[0] == 2.0

    cps216 = place_control_points(template, 216, initial_eps=2.5963, seed=0)
    assert cps216.m == 216
    assert np.all(cps216.inverse_widths == 2.5963)
    # positions on the (faceted) unit sphere inside the normalized box
    radii = np.linalg.norm(cps216.positions, axis=1)
    assert radii.max() <= 1.0 + 1e-9 and radii.min() > 0.9


def test_single_control_point_kernel_at_zero_radius():
    cps = ControlPointSet(np.array([[0.1, 0.2, 0.3]]), np.array([4.0]))
    z = np.array([[2.5, -1.0]])
    out = interpolate_latent(cps, z, np.array([0.1, 0.2, 0.3]))
    np.testing.assert_allclose(out.data, [2.5, -1.0], atol=1e-15)


def test_hand_computed_two_point_case():
    cps = ControlPointSet(np.array([[0, 0, 0], [1, 0, 0]], dtype=float),
                          np.array([1.0, 1.0]))
    z = np.array([[1.0], [2.0]])
    out = interpolate_latent(cps, z, np.array([0.0, 0.0, 0.0]))
    expect = 1.0 * 1.0 + 2.0 * np.exp(-1.0)
    assert out.data[0] == pytest.approx(expect, abs=1e-12)
    assert out.data[0] == pytest.approx(1.7357588823428847, abs=1e-12)


def test_zero_local_latents_give_zero_field():
    cps = ControlPointSet(np.random.default_rng(0).normal(size=(5, 3)) * 0.4,
                          np.full(5, 2.0))
    z = np.zeros((5, 3))
    x = np.random.default_rng(1).normal(size=(11, 3))
    out = interpolate_latent(cps, z, x)
    assert np.array_equal(out.data, np.zeros((11, 3)))


def test_kernel_gradient_matches_analytic():
    # d/dx exp(-(eps |c-x|)^2) = 2 eps^2 (c - x) exp(...)
    c = np.array([[0.5, -0.2, 0.1]])
    eps = np.array([1.7])
    x0 = np.array([[0.1, 0.3, -0.4]])
    x = Tensor(x0.copy(), requires_grad=True)
    with Tape() as tape:
        w = rbf_weights(c, eps, x)
        ad.backward(ad.tmean(w), tape)  # w is (1, 1)
    diff = c[0] - x0[0]
    analytic = 2.0 * eps[0] ** 2 * diff * np.exp(-(eps[0] ** 2) * (diff @ diff))
    np.testing.assert_allclose(x.grad[0], analytic, atol=1e-12)


def test_influence_strictly_decreases_with_inverse_width():
    c = np.array([[0.0, 0.0, 0.0]])
    x = np.array([[0.5, 0.0, 0.0]])
    values = [rbf_weights(c, np.array([e]), x).data[0, 0]
              for e in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_compose_identity_at_zero_latents():
    template = icosphere(1)
    mlp_g = ImNetMlp(3 + 4, hidden=(8, 8, 8, 8), seed=0, final_init_scale=0.5)
    mlp_l = ImNetMlp(3 + 4, hidden=(8, 8, 8, 8), seed=1, final_init_scale=0.5)
    cps = place_control_points(template, 8, 2.0, seed=0)
    out = compose_deformers(
        template.vertices,
        (mlp_g, np.zeros(4)),
        (mlp_l, cps, np.zeros((8, 4))),
        FlowConfig(n_steps=4),
    )
    assert np.array_equal(out.data, template.vertices)


def test_compose_local_disabled_equals_global_only():
    template = icosphere(1)
    mlp_g = ImNetMlp(3 + 4, hidden=(8, 8, 8, 8), seed=2, final_init_scale=0.4)
    z = np.random.default_rng(3).normal(0, 0.3, size=4)
    full = compose_deformers(template.vertices, (mlp_g, z), None, FlowConfig(4))
    from flowssm.flow import integrate_flow

    direct = integrate_flow(mlp_g, template.vertices, z, FlowConfig(4))
    assert np.array_equal(full.data, direct.data)


def test_gradient_through_both_stages():
    rng = np.random.default_rng(8)
    mlp_g = ImNetMlp(3 + 2, hidden=(8, 8, 8, 8), seed=4, final_init_scale=0.4)
    mlp_l = ImNetMlp(3 + 2, hidden=(8, 8, 8, 8), seed=5, final_init_scale=0.4)
    positions = rng.normal(0, 0.5, size=(4, 3))
    x0 = rng.normal(0, 0.5, size=(5, 3))
    targets = x0 + rng.normal(0, 0.2, size=x0.shape)
    cfg = FlowConfig(n_steps=2)

    z_g = Tensor(rng.normal(0, 0.3, size=2), requires_grad=True)
    z_l = Tensor(rng.normal(0, 0.3, size=(4, 2)), requires_grad=True)
    eps = Tensor(np.full(4, 1.5), requires_grad=True)

    def loss_value():
        from flowssm.flow import integrate_flow

        x = integrate_flow(mlp_g, x0, ad.as_tensor(z_g), cfg)
        w = rbf_weights(positions, eps, x)
        x = integrate_flow(mlp_l, x, w @ z_l, cfg)
        return ad.tmean(ad.row_norm(x - targets))

    with Tape() as tape:
        loss = loss_value()
        ad.backward(loss, tape)
    grads = {"z_g": z_g.grad.copy(), "z_l": z_l.grad.copy(), "eps": eps.grad.copy()}

    h = 1e-5
    for name, tensor in (("z_g", z_g), ("z_l", z_l), ("eps", eps)):
        flat = tensor.data.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_value().item()
            flat[i] = orig - h
            fm = loss_value().item()
            flat[i] = orig
            fd[i] = (fp - fm) / (2 * h)
        got = grads[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(got), np.abs(fd)), 1e-6)
        assert (np.abs(got - fd) / denom).max() < 1e-3, name


def test_latent_state_validation():
    with pytest.raises(Exception):
        LatentState(np.zeros(4), np.zeros(4))  # z_local must be 2-D
    state = LatentState(np.zeros(4), np.zeros((3, 4)))
    assert state.z_global.shape == (4,)

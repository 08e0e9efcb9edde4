import numpy as np
import pytest
from scipy.linalg import expm

from flowssm import autodiff as ad
from flowssm.autodiff import Tensor
from flowssm.errors import DataError, NonFiniteValue
from flowssm.flow import (FlowConfig, ImNetMlp, flow_jacobian_check,
                          integrate_flow, integrate_velocity, velocity)


def small_mlp(d=4, seed=0, final_scale=0.3) -> ImNetMlp:
    return ImNetMlp(3 + d, hidden=(16, 16, 8, 8), seed=seed,
                    final_init_scale=final_scale)


def rand_points(n, seed=0):
    return np.random.default_rng(seed).normal(0, 0.5, size=(n, 3))


def test_mlp_output_shape_and_param_count():
    mlp = small_mlp()
    out = mlp.forward(Tensor(np.zeros((5, 7))))
    assert out.data.shape == (5, 3)
    assert mlp.n_parameters > 0


def test_zero_latent_velocity_is_zero_everywhere():
    mlp = small_mlp(final_scale=0.5)
    x = rand_points(10, 1)
    for t in (0.0, 0.3, 1.0):
        v = velocity(mlp, x, t, np.zeros(4))
        assert np.array_equal(v.data, np.zeros((10, 3)))


def test_zero_latent_flow_is_bitwise_identity():
    mlp = small_mlp(final_scale=0.5)
    x = rand_points(20, 2)
    for integrator in ("rk4", "euler"):
        out = integrate_flow(mlp, x, np.zeros(4),
                             FlowConfig(n_steps=8, integrator=integrator))
        assert np.array_equal(out.data, x)


def test_velocity_latent_scaling_decomposition():
    # v(x, t; z) must equal f(x, t z) * |z| exactly
    mlp = small_mlp(final_scale=0.4, seed=5)
    x = rand_points(6, 3)
    z = np.random.default_rng(4).normal(0, 0.5, size=4)
    t = 0.37
    v = velocity(mlp, x, t, z)
    inp = np.concatenate([x, np.tile(t * z, (6, 1))], axis=1)
    f = mlp.forward(Tensor(inp)).data
    np.testing.assert_allclose(v.data, f * np.linalg.norm(z), rtol=1e-14)


def test_velocity_matches_scripted_forward_pass():
    """Independent numpy re-implementation of the skip-connection MLP."""
    d = 3
    mlp = ImNetMlp(3 + d, hidden=(8, 8, 8, 8), seed=9, final_init_scale=0.7)
    x = rand_points(4, 7)
    z = np.array([0.3, -0.2, 0.5])
    t = 0.6

    def lrelu(a):
        return np.where(a > 0, a, 0.02 * a)

    h0 = np.concatenate([x, np.tile(t * z, (4, 1))], axis=1)
    p = {k: v.data for k, v in mlp.params.items()}
    h = lrelu(h0 @ p["w0"] + p["b0"])
    h = lrelu(np.concatenate([h, h0], axis=1) @ p["w1"] + p["b1"])
    h = lrelu(np.concatenate([h, h0], axis=1) @ p["w2"] + p["b2"])
    h = lrelu(np.concatenate([h, h0], axis=1) @ p["w3"] + p["b3"])
    expect = (h @ p["w4"] + p["b4"]) * np.linalg.norm(z)

    got = velocity(mlp, x, t, z)
    np.testing.assert_allclose(got.data, expect, rtol=1e-13)


def test_constant_field_integrates_exactly():
    c = np.array([0.3, -0.1, 0.2])

    def v_fn(x, t):
        return ad.as_tensor(np.tile(c, (x.data.shape[0], 1)))

    x0 = rand_points(7, 5)
    for integrator in ("euler", "rk4"):
        out = integrate_velocity(v_fn, Tensor(x0), FlowConfig(4, integrator))
        np.testing.assert_allclose(out.data, x0 + c, atol=1e-14)


def test_linear_field_matches_matrix_exponential():
    rng = np.random.default_rng(11)
    a = rng.normal(0, 0.4, size=(3, 3))
    a_t = Tensor(a.T)

    def v_fn(x, t):
        return x @ a_t

    x0 = rand_points(9, 6)
    out = integrate_velocity(v_fn, Tensor(x0), FlowConfig(n_steps=8, integrator="rk4"))
    expect = x0 @ expm(a).T
    assert np.abs(out.data - expect).max() < 1e-4

    # diag(ln 2) doubles every coordinate
    half = np.diag([np.log(2.0)] * 3)
    out2 = integrate_velocity(lambda x, t: x @ Tensor(half),
                              Tensor(x0), FlowConfig(8, "rk4"))
    assert np.abs(out2.data - 2 * x0).max() < 1e-4


def test_rk4_convergence_order():
    rng = np.random.default_rng(13)
    a = rng.normal(0, 0.5, size=(3, 3))
    a_t = Tensor(a.T)

    def v_fn(x, t):
        return x @ a_t

    x0 = rand_points(5, 8)
    ref = integrate_velocity(v_fn, Tensor(x0), FlowConfig(1024, "rk4")).data
    errors = []
    for n in (2, 4, 8, 16):
        out = integrate_velocity(v_fn, Tensor(x0), FlowConfig(n, "rk4")).data
        errors.append(np.abs(out - ref).max())
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(3)]
    assert all(r > 3.4 for r in rates), rates  # ~h^4


def test_forward_reverse_round_trip_shrinks_with_steps():
    mlp = small_mlp(final_scale=0.5, seed=21)
    x0 = rand_points(30, 9)
    z = np.random.default_rng(10).normal(0, 0.4, size=4)
    errs = {}
    for n in (4, 8, 16, 32):
        cfg = FlowConfig(n_steps=n)
        fwd = integrate_flow(mlp, x0, z, cfg)
        back = integrate_flow(mlp, fwd.data, z, cfg, direction="reverse")
        errs[n] = np.abs(back.data - x0).max()
    assert errs[32] < 1e-3
    assert errs[32] < errs[16] < errs[8] < errs[4]


def test_odd_step_counts_stay_in_time_bounds():
    mlp = small_mlp(d=2, seed=12, final_scale=0.3)
    x0 = rand_points(5, 22)
    z = np.random.default_rng(23).normal(0, 0.3, size=2)
    for n_steps in (3, 5, 7, 9):
        out = integrate_flow(mlp, x0, z, FlowConfig(n_steps))
        assert np.all(np.isfinite(out.data))


def test_divergence_guard():
    def v_fn(x, t):
        return ad.scale(x, 50.0)  # exponential blow-up

    with pytest.raises(NonFiniteValue):
        integrate_velocity(v_fn, Tensor(np.ones((2, 3))), FlowConfig(64, "euler"))


def test_flow_gradients_match_finite_differences():
    mlp = ImNetMlp(3 + 3, hidden=(8, 8, 8, 8), seed=3, final_init_scale=0.4)
    x0 = rand_points(5, 12)
    latents = np.random.default_rng(14).normal(0, 0.3, size=(5, 3))
    for n_steps in (1, 4, 8):
        err = flow_jacobian_check(mlp, x0, latents, FlowConfig(n_steps=n_steps),
                                  max_probes_per_tensor=6)
        assert err < 1e-3, (n_steps, err)


def test_frozen_network_keeps_latent_gradient_and_skips_weights():
    mlp = small_mlp(d=3, seed=4)
    frozen = mlp.frozen()
    x0 = rand_points(6, 17)
    grads = []
    for net in (mlp, frozen):
        z = Tensor(np.random.default_rng(18).normal(0, 0.3, size=3), requires_grad=True)
        with ad.Tape() as tape:
            ad.backward(ad.tmean(ad.row_norm(integrate_flow(net, x0, z))), tape)
        grads.append(z.grad)
    np.testing.assert_array_equal(grads[0], grads[1])
    assert all(p._grad is None for p in frozen.params.values())
    assert all(p._grad is not None for p in mlp.params.values())
    assert all(frozen.params[k].data is p.data for k, p in mlp.params.items())


def test_euler_gradient_gap_shrinks_with_steps():
    """Gradient of the discrete map converges as the discretization refines."""
    mlp = ImNetMlp(3 + 2, hidden=(8, 8, 8, 8), seed=6, final_init_scale=0.5)
    x0 = rand_points(3, 15)
    z = Tensor(np.random.default_rng(16).normal(0, 0.4, size=(3, 2)),
               requires_grad=True)
    targets = x0 + 0.1

    def grad_for(n_steps):
        z.zero_grad()
        with ad.Tape() as tape:
            out = integrate_flow(mlp, x0, z, FlowConfig(n_steps, "euler"))
            loss = ad.tmean(ad.row_norm(out - targets))
            ad.backward(loss, tape)
        return z.grad.copy()

    ref = grad_for(256)
    gaps = [np.abs(grad_for(n) - ref).max() for n in (1, 4, 16, 64)]
    assert gaps[0] > gaps[1] > gaps[2] > gaps[3]


def test_mlp_rejects_slope_outside_unit_interval():
    with pytest.raises(DataError):
        ImNetMlp(7, alpha=-0.1)

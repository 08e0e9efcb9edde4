import numpy as np
import pytest

from flowssm import autodiff as ad
from flowssm.autodiff import Adam, Tape, Tensor
from flowssm.errors import DataError, NonFiniteValue, ShapeMismatch


def fd_grad(f, x, h=1e-5):
    """Central finite differences of scalar f w.r.t. flat array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_op(build, *shapes, seed=0, rel_tol=1e-4, shift=0.0):
    """Gradient-check an op: build(tensors...) -> scalar Tensor."""
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.normal(size=s) + shift, requires_grad=True) for s in shapes]
    with Tape() as tape:
        loss = build(*tensors)
        ad.backward(loss, tape)
    for t in tensors:
        got = t.grad

        def f(t=t):
            return build(*tensors).item()

        want = fd_grad(f, t.data)
        denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-6)
        rel = np.abs(got - want) / denom
        assert rel.max() < rel_tol, f"max rel err {rel.max()}"


def test_simple_analytic_grads():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as t:
        ad.backward(ad.tmean(ad.mul(x, x)), t)
    np.testing.assert_allclose(x.grad, [2 / 3, 4 / 3, 2])


def test_leaky_relu_values():
    out = ad.leaky_relu(Tensor([-1.0, 2.0]), alpha=0.02)
    np.testing.assert_allclose(out.data, [-0.02, 2.0])


def test_concat_shapes():
    out = ad.concat([Tensor(np.zeros(2)), Tensor(np.zeros(3))])
    assert out.data.shape == (5,)


def test_every_primitive_against_finite_differences():
    """>= 100 random probes across the primitive set."""
    probes = 0
    rng = np.random.default_rng(1)
    for seed in range(4):
        w = rng.normal(size=(4, 3))
        idx = np.array([0, 2, 2, 4, 1])

        # (build, operand shapes, input shift away from subgradient kinks)
        cases = [
            (lambda a, b: ad.tmean(ad.add(a, b)), [(3, 4), (3, 4)], 0.0),
            (lambda a, b: ad.tmean(ad.sub(a, b)), [(3, 4), (3, 4)], 0.0),
            (lambda a, b: ad.tmean(ad.mul(a, b)), [(3, 4), (3, 4)], 0.0),
            (lambda a, b: ad.tmean(ad.mul(a, b)), [(3, 4), (4,)], 0.0),    # row broadcast
            (lambda a, b: ad.tmean(ad.mul(a, b)), [(3, 4), (3, 1)], 0.0),  # column broadcast
            (lambda a, b: ad.tmean(ad.matmul(a, b)), [(3, 4), (4, 2)], 0.0),
            (lambda a, b: ad.tmean(ad.mul(ad.concat([a, b], axis=1), ad.concat([a, b], axis=1))),
             [(3, 2), (3, 3)], 0.0),
            (lambda a: ad.tmean(ad.leaky_relu(a, 0.02)), [(5, 4)], 0.0),
            (lambda a: ad.tmean(ad.exp(ad.scale(a, 0.3))), [(4, 4)], 0.0),
            (lambda a: ad.tmean(ad.mul(ad.reshape(a, (2, 6)), ad.reshape(a, (2, 6)))),
             [(3, 4)], 0.0),
            (lambda a: ad.tmean(ad.mul(ad.gather(a, idx), ad.gather(a, idx))), [(5, 3)], 0.0),
            (lambda a: ad.tmean(ad.mul(a, a)), [(3, 4)], 0.0),
            (lambda a: ad.tmean(ad.tmean(ad.mul(a, a), axis=1)), [(3, 4)], 0.0),
            (lambda a: ad.tmean(ad.row_norm(a)), [(6, 3)], 1.5),
            (lambda a, c: ad.tmean(ad.mul(ad.pairwise_sqdist(a, c), Tensor(w))),
             [(4, 2), (3, 2)], 0.0),
        ]
        for i, (build, shapes, shift) in enumerate(cases):
            check_op(build, *shapes, seed=100 * seed + i, shift=shift)
            probes += sum(int(np.prod(s)) for s in shapes)
    assert probes >= 100


def _skip_mlp_separate_ops(x, ws, bs, alpha):
    h = x
    for i, (w, b) in enumerate(zip(ws, bs)):
        if 0 < i < len(ws) - 1:
            h = ad.concat([h, x], axis=1)
        h = ad.add(ad.matmul(h, w), b)
        if i < len(ws) - 1:
            h = ad.leaky_relu(h, alpha)
    return h


@pytest.mark.parametrize("alpha", [0.02, 0.0, 1.0])
@pytest.mark.parametrize("trainable", ["all", "frozen_weights", "constant_input"])
@pytest.mark.parametrize("widths", [(6, 6, 4, 4), (5,)])
def test_skip_mlp_is_bit_identical_to_separate_ops(alpha, trainable, widths):
    rng = np.random.default_rng(11)
    dims = [(7, widths[0])]
    for i in range(1, len(widths)):
        dims.append((widths[i - 1] + 7, widths[i]))
    dims.append((widths[-1], 3))
    x_data = rng.normal(size=(40, 7))
    x_data[3] = 0.0  # a row whose first pre-activation is the bias alone
    w_data = [rng.normal(size=d) for d in dims]
    b_data = [rng.normal(size=d[1]) * 0.1 for d in dims]

    def run(fused):
        x = Tensor(x_data.copy(), requires_grad=trainable != "constant_input")
        ws = [Tensor(w.copy(), requires_grad=trainable != "frozen_weights") for w in w_data]
        bs = [Tensor(b.copy(), requires_grad=trainable != "frozen_weights") for b in b_data]
        with Tape() as t:
            op = ad.skip_mlp if fused else _skip_mlp_separate_ops
            out = op(x, ws, bs, alpha)
            ad.backward(ad.tmean(ad.row_norm(out)), t)
        return [out.data, x.grad, *[p.grad for p in ws + bs]]

    for got, want in zip(run(True), run(False)):
        assert got.tobytes() == want.tobytes()


def test_skip_mlp_against_finite_differences():
    def build(x, w0, b0, w1, b1, w2, b2):
        return ad.tmean(ad.skip_mlp(x, [w0, w1, w2], [b0, b1, b2], 0.02))

    check_op(build, (5, 3), (3, 4), (4,), (7, 4), (4,), (4, 2), (2,))


def test_skip_mlp_rejects_bad_operands():
    x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4)))
    with pytest.raises(ShapeMismatch):
        ad.skip_mlp(x, [w], [Tensor(np.ones(3))], 0.02)
    with pytest.raises(ShapeMismatch):  # the second layer also sees x
        ad.skip_mlp(x, [w, Tensor(np.ones((4, 4))), w], [Tensor(np.ones(4))] * 3, 0.02)
    with pytest.raises(ShapeMismatch):
        ad.skip_mlp(Tensor(np.ones(3)), [w], [Tensor(np.ones(4))], 0.02)
    with pytest.raises(ShapeMismatch):
        ad.skip_mlp(x, [], [], 0.02)
    with pytest.raises(DataError):
        ad.skip_mlp(x, [w], [Tensor(np.ones(4))], alpha=1.5)


def test_backward_linearity():
    rng = np.random.default_rng(7)
    x_data = rng.normal(size=(4, 3))

    def grad_of(a, b):
        x = Tensor(x_data.copy(), requires_grad=True)
        with Tape() as t:
            f = ad.tmean(ad.mul(x, x))
            g = ad.tmean(ad.exp(ad.scale(x, 0.1)))
            ad.backward(ad.add(ad.scale(f, a), ad.scale(g, b)), t)
        return x.grad

    ga = grad_of(2.0, 0.0)
    gb = grad_of(0.0, 3.0)
    gab = grad_of(2.0, 3.0)
    np.testing.assert_allclose(gab, ga + gb, rtol=1e-12)


def test_tape_replay_determinism():
    rng = np.random.default_rng(9)
    data = rng.normal(size=(8, 5))

    def run():
        x = Tensor(data.copy(), requires_grad=True)
        w = Tensor(np.linspace(-1, 1, 15).reshape(5, 3), requires_grad=True)
        with Tape() as t:
            out = ad.leaky_relu(ad.matmul(x, w))
            loss = ad.tmean(ad.row_norm(out))
            ad.backward(loss, t)
        return x.grad.copy(), w.grad.copy()

    g1 = run()
    g2 = run()
    assert np.array_equal(g1[0], g2[0])
    assert np.array_equal(g1[1], g2[1])


def test_leaves_off_path_get_zero_grad():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0], requires_grad=True)
    with Tape() as t:
        ad.backward(ad.tmean(ad.mul(x, x)), t)
    assert np.array_equal(y.grad, np.zeros(1))


def test_leaf_gradients_are_private_arrays():
    """add passes one gradient array to both operands; each leaf owns a copy."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = Tensor([3.0, 4.0], requires_grad=True)
    with Tape() as t:
        ad.backward(ad.tmean(ad.add(x, y)), t)
    x.grad[0] = 7.0
    assert np.array_equal(y.grad, np.full(2, 0.5))


def test_constant_operands_get_no_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor([3.0, 4.0])
    with Tape() as t:
        ad.backward(ad.tmean(ad.mul(x, c)), t)
    assert np.array_equal(x.grad, [1.5, 2.0])
    assert c._grad is None


def test_shape_mismatch_raises():
    with pytest.raises(ShapeMismatch):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    with pytest.raises(ShapeMismatch):
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_non_finite_forward_raises():
    big = Tensor(np.full(4, 1e308))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
        ad.mul(big, big)


def test_adam_first_step_matches_hand_computation():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p._grad = np.array([1.0])
    Adam({"p": p}, lr=0.001).step()
    # bias-corrected first step: lr * g / (|g| + eps) = lr / (1 + 1e-8)
    assert p.data[0] == pytest.approx(1.0 - 0.001 / (1.0 + 1e-8), abs=1e-12)


def test_adam_zero_gradient_keeps_param():
    p = Tensor(np.array([2.5]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.01)
    opt.step()
    assert p.data[0] == 2.5
    assert opt.t == 1


def test_adam_two_steps_match_scripted_reference():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g = np.array([0.3, -1.2])
    # independent reference
    m = np.zeros(2)
    v = np.zeros(2)
    ref = np.array([1.0, -2.0])
    for t in range(1, 3):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)

    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=lr)
    for _ in range(2):
        p._grad = g.copy()
        opt.step()
    np.testing.assert_allclose(p.data, ref, atol=1e-15)


def test_adam_step_consumes_and_clears_tensor_grads():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)  # off the loss path
    opt = Adam({"p": p, "q": q}, lr=0.1)
    with Tape() as t:
        ad.backward(ad.tmean(ad.mul(p, p)), t)
    opt.step()
    assert np.all(p.data < 1.0)
    assert np.array_equal(q.data, np.ones(2))
    assert all(x._grad is None for x in opt.params.values())

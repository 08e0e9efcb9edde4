"""Minimal dense-tensor reverse-mode autodiff and the Adam optimizer.

Tensors wrap float64 numpy arrays. Operations executed while a
:class:`Tape` is active append themselves to it in execution order;
:func:`backward` replays the tape in reverse, visiting each node once.
Every primitive raises on NaN/Inf outputs. Backward functions skip the
gradients of operands that do not require one (data, frozen weights).

Elementwise ``add``/``mul`` support numpy broadcasting with gradients
sum-reduced back to the operand shape (bias rows, kernel-width rows and
per-point norm columns all ride on this one rule).

:class:`Adam` runs at fixed betas (0.9, 0.999) and eps 1e-8, the defaults
of Kingma & Ba; only the step size is set. Its ``step()`` consumes the parameters'
gradients and clears them for the next backward pass.

Tapes and workspaces are per thread: several threads may record and
backpropagate at once, each on its own tapes.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import DataError, NonFiniteGradient, NonFiniteValue, ShapeMismatch

_ALIGN = 8  # floats in 64 bytes: every workspace block starts on such a boundary


class Workspace:
    """One thread's grow-only float64 arena for nodes that own their buffers.

    :meth:`take` hands a node blocks that stay its own until the tape it is
    recorded on closes; :meth:`lend` hands out blocks above every taken one,
    for one computation. The arena grows to the largest demand and is kept,
    so the next pass finds its memory already faulted in. Blocks taken
    before a growth stay valid: they keep the old buffer alive.
    """

    def __init__(self):
        self._buf = np.empty(0)
        self.top = 0  # floats taken

    def _blocks(self, start: int, shapes, spare: int = 0) -> tuple[list[np.ndarray], int]:
        sizes = [math.prod(shape) for shape in shapes]
        end = start + sum(-(-size // _ALIGN) * _ALIGN for size in sizes)
        if end + spare + _ALIGN > self._buf.size:
            self._buf = np.empty(end + spare + _ALIGN)
        pos = start + (-self._buf.ctypes.data // 8) % _ALIGN
        blocks = []
        for shape, size in zip(shapes, sizes):
            blocks.append(self._buf[pos:pos + size].reshape(shape))
            pos += -(-size // _ALIGN) * _ALIGN
        return blocks, end

    def take(self, shapes, spare: int = 0) -> list[np.ndarray]:
        """C-contiguous blocks of ``shapes``, held until the innermost open
        tape closes; room for ``spare`` more floats is made at once."""
        blocks, self.top = self._blocks(self.top, shapes, spare)
        return blocks

    def lend(self, shapes) -> list[np.ndarray]:
        """C-contiguous blocks of ``shapes`` above every taken block, valid
        until the next :meth:`take` or :meth:`lend`."""
        return self._blocks(self.top, shapes)[0]


class _ThreadTapes(threading.local):
    """The calling thread's open tapes and its workspace.

    Reads as a list of tapes: true while one is open, ``[-1]`` the innermost.
    """

    def __init__(self):
        self.tapes: list[Tape] = []
        self.workspace = Workspace()

    def __bool__(self) -> bool:
        return bool(self.tapes)

    def __getitem__(self, index) -> "Tape":
        return self.tapes[index]


_ACTIVE_TAPES = _ThreadTapes()


def workspace() -> Workspace:
    """The calling thread's workspace."""
    return _ACTIVE_TAPES.workspace


class Tape:
    """Ordered record of primitive operations for one backward pass.

    Closing it hands the workspace blocks its nodes took back to the thread's
    workspace; a node that owns such blocks cannot be backpropagated after that.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.open = False
        self._mark = 0

    def __enter__(self) -> "Tape":
        _ACTIVE_TAPES.tapes.append(self)
        self._mark = _ACTIVE_TAPES.workspace.top
        self.open = True
        return self

    def __exit__(self, *exc):
        popped = _ACTIVE_TAPES.tapes.pop()
        assert popped is self
        _ACTIVE_TAPES.workspace.top = self._mark
        self.open = False
        return False


class _Node:
    __slots__ = ("output", "inputs", "backward_fn")

    def __init__(self, output, inputs, backward_fn):
        self.output = output
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """Dense float64 array, optionally tracked for gradients."""

    __slots__ = ("data", "requires_grad", "_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteValue("tensor initialized with non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros if this leaf was off the loss path."""
        if self._grad is None:
            return np.zeros_like(self.data)
        return self._grad

    def zero_grad(self):
        self._grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NonFiniteValue(f"{op} produced non-finite values")
    return arr


def record(op: str, out_data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap ``out_data`` as the output of ``op`` on ``inputs``; while a tape is
    open and an input requires a gradient, append the node to the innermost one.

    ``backward_fn(g)`` returns one gradient (or None) per input.
    """
    _finite(out_data, op)
    requires = any(t.requires_grad for t in inputs)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = requires
    out._grad = None
    if requires and _ACTIVE_TAPES:
        _ACTIVE_TAPES[-1].nodes.append(_Node(out, inputs, backward_fn))
    return out


def _accumulate(t: Tensor, g: np.ndarray, private: bool = True):
    """Add ``g`` to ``t``'s gradient; ``private`` stores a copy, not ``g`` itself."""
    if t._grad is None:
        if not isinstance(g, np.ndarray):
            t._grad = np.asarray(g, dtype=np.float64)
        else:
            t._grad = g.copy() if private else g
    else:
        t._grad = t._grad + g


def backward(loss: Tensor, tape: Tape | None = None):
    """Reverse-mode gradients of a scalar loss w.r.t. all tape leaves.

    Gradients accumulate into ``Tensor._grad``; leaves off the path report
    zero via the ``grad`` property.
    """
    if loss.data.size != 1:
        raise ShapeMismatch("backward requires a scalar loss")
    if tape is None:
        if not _ACTIVE_TAPES:
            raise RuntimeError("backward called with no active tape")
        tape = _ACTIVE_TAPES[-1]
    _accumulate(loss, np.ones_like(loss.data))
    # Intermediate gradients are never written in place, so they may share
    # arrays; only the leaves, which callers read and update, get copies.
    intermediate = {id(node.output) for node in tape.nodes}
    for node in reversed(tape.nodes):
        g = node.output._grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise NonFiniteGradient("backward produced non-finite gradient")
        for t, ig in zip(node.inputs, node.backward_fn(g)):
            if t.requires_grad and ig is not None:
                _accumulate(t, ig, private=id(t) not in intermediate)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to the operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str):
    if a.data.shape == b.data.shape:
        return
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError as exc:
        raise ShapeMismatch(f"{op}: shapes {a.data.shape} and {b.data.shape}") from exc


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")
    out = a.data + b.data

    def bwd(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return record("add", out, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")
    out = a.data - b.data

    def bwd(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.data.shape) if b.requires_grad else None)

    return record("sub", out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")
    out = a.data * b.data
    a_data, b_data = a.data, b.data

    def bwd(g):
        return (
            _unbroadcast(g * b_data, a_data.shape) if a.requires_grad else None,
            _unbroadcast(g * a_data, b_data.shape) if b.requires_grad else None,
        )

    return record("mul", out, (a, b), bwd)


def scale(x, s: float) -> Tensor:
    """Multiply by a constant scalar."""
    return mul(x, float(s))


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeMismatch(f"matmul: shapes {a.data.shape} and {b.data.shape}")
    out = a.data @ b.data
    a_data, b_data = a.data, b.data

    def bwd(g):
        return (g @ b_data.T if a.requires_grad else None,
                a_data.T @ g if b.requires_grad else None)

    return record("matmul", out, (a, b), bwd)


def skip_mlp(x, weights, biases, alpha: float) -> Tensor:
    """Fully connected network on the rows of ``x``, as one tape node.

    Layer ``i`` computes ``h @ weights[i] + biases[i]``. The hidden layers
    (all but the last) apply ``leaky_relu(., alpha)``, and each hidden layer
    but the first takes ``concat([h, x], axis=1)`` as its input. Bit-identical
    in value and gradient to those separate ops for a slope
    ``0 <= alpha <= 1``, without their per-op tape nodes, checks and
    intermediate arrays.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DataError(f"skip_mlp: leaky slope must lie in [0, 1], got {alpha}")
    x = as_tensor(x)
    ws, bs = [as_tensor(w) for w in weights], [as_tensor(b) for b in biases]
    n, n_in = len(ws), x.data.shape[-1] if x.data.ndim else 0
    skip = [0 < i < n - 1 for i in range(n)]
    fan_in = [n_in] + [w.data.shape[-1] + n_in * s for w, s in zip(ws, skip[1:])]
    if x.data.ndim != 2 or not n or n != len(bs) or any(
            w.data.shape != (f, *b.data.shape) for w, b, f in zip(ws, bs, fan_in)):
        raise ShapeMismatch(f"skip_mlp: input {x.data.shape}, layers "
                            f"{[(w.data.shape, b.data.shape) for w, b in zip(ws, bs)]}")
    inputs, acts = [x.data], []
    for i in range(n - 1):
        pre = inputs[i] @ ws[i].data
        pre += bs[i].data
        act = pre * alpha
        np.maximum(act, pre, out=act)
        acts.append(act)
        inputs.append(np.concatenate([act, x.data], axis=1) if skip[i + 1] else act)
    out = inputs[-1] @ ws[-1].data
    out += bs[-1].data

    def bwd(g):
        grad_w, grad_b, grad_x = [None] * n, [None] * n, None
        for i in reversed(range(n)):
            if i < n - 1:  # g * slope, with the slope 1 or alpha
                slope = (acts[i] > 0).astype(np.float64)
                np.maximum(slope, alpha, out=slope)
                slope *= g
                g = slope
            if ws[i].requires_grad:
                grad_w[i] = inputs[i].T @ g
            if bs[i].requires_grad:
                grad_b[i] = g.sum(axis=0)
            if i == 0 and not x.requires_grad:
                break
            g_in = g @ ws[i].data.T
            if skip[i] or i == 0:
                # x's gradient summed in the order of the separate ops
                g_x = g_in[:, g_in.shape[1] - n_in:]
                grad_x = g_x if grad_x is None else grad_x + g_x
            g = g_in[:, :g_in.shape[1] - n_in * skip[i]]
        return (grad_x, *grad_w, *grad_b)

    return record("skip_mlp", out, (x, *ws, *bs), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return record("concat", out, tuple(ts), bwd)


def leaky_relu(x, alpha: float = 0.02) -> Tensor:
    x = as_tensor(x)
    # table lookup and product: exact (x * 1.0 == x) and several times
    # faster than np.where with scalar branches
    slope = np.array([alpha, 1.0])[(x.data > 0).view(np.uint8)]
    out = x.data * slope

    def bwd(g):
        return (g * slope,)

    return record("leaky_relu", out, (x,), bwd)


def exp(x) -> Tensor:
    x = as_tensor(x)
    out = np.exp(x.data)

    def bwd(g):
        return (g * out,)

    return record("exp", out, (x,), bwd)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = x.data.reshape(shape)
    orig = x.data.shape

    def bwd(g):
        return (g.reshape(orig),)

    return record("reshape", out, (x,), bwd)


def gather(x, index) -> Tensor:
    """Select rows along axis 0; duplicate indices accumulate gradient."""
    x = as_tensor(x)
    idx = np.asarray(index, dtype=np.int64)
    out = x.data[idx]
    in_shape = x.data.shape

    def bwd(g):
        gx = np.zeros(in_shape, dtype=np.float64)
        np.add.at(gx, idx, g)
        return (gx,)

    return record("gather", out, (x,), bwd)


def tmean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    n = x.data.size if axis is None else x.data.shape[axis]
    out = x.data.mean(axis=axis)
    in_shape = x.data.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g / n, in_shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, in_shape).copy(),)

    return record("mean", out, (x,), bwd)


def row_norm(x) -> Tensor:
    """Euclidean norm along the last axis; subgradient 0 for zero rows."""
    x = as_tensor(x)
    norms = np.sqrt((x.data**2).sum(axis=-1))
    x_data = x.data

    def bwd(g):
        safe = np.where(norms == 0.0, 1.0, norms)
        gx = (g / safe)[..., None] * x_data
        gx[norms == 0.0] = 0.0
        return (gx,)

    return record("row_norm", norms, (x,), bwd)


def pairwise_sqdist(x, c) -> Tensor:
    """Squared Euclidean distances between rows: out[i, k] = |x_i - c_k|^2."""
    x, c = as_tensor(x), as_tensor(c)
    if x.data.ndim != 2 or c.data.ndim != 2 or x.data.shape[1] != c.data.shape[1]:
        raise ShapeMismatch(f"pairwise_sqdist: shapes {x.data.shape} and {c.data.shape}")
    x_data, c_data = x.data, c.data
    x2 = (x_data**2).sum(axis=1)[:, None]
    c2 = (c_data**2).sum(axis=1)[None, :]
    out = np.maximum(x2 + c2 - 2.0 * (x_data @ c_data.T), 0.0)

    def bwd(g):
        gx = gc = None
        if x.requires_grad:
            gs = g.sum(axis=1)
            gx = 2.0 * (x_data * gs[:, None] - g @ c_data)
        if c.requires_grad:
            gc_s = g.sum(axis=0)
            gc = 2.0 * (c_data * gc_s[:, None] - g.T @ x_data)
        return gx, gc

    return record("pairwise_sqdist", out, (x, c), bwd)


class Adam:
    """Bias-corrected Adam (Kingma & Ba, 2015) over named tensors."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self):
        """Update from the parameters' gradients (zero where unset), then clear them."""
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for name, p in self.params.items():
            g = np.zeros_like(p.data) if p._grad is None else p._grad
            m = self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            # a new array, not an in-place update: frozen MLP copies share p.data
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
            p._grad = None

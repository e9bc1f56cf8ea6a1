"""Dense tensors with reverse-mode automatic differentiation.

Storage is row-major numpy, float64 by default (float32 is an opt-in
storage mode, never used for gradient checking). Differentiable ops
record nodes on a thread-local tape; ``backward`` replays that tape once
in reverse, accumulating gradients into ``.grad`` of every
``requires_grad`` ancestor. A tape belongs to a single forward pass and
is discarded after backward, so there are no higher-order derivatives.

Broadcasting is deliberately restricted: the shorter operand of an
elementwise op must equal a trailing suffix of the longer one (classic
bias-add), and matmul only broadcasts a 2-D operand across the other
side's leading batch dims. Anything else needs an explicit reshape,
which keeps shape errors loud.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "no_grad",
    "matmul",
    "softmax",
    "add",
    "sub",
    "mul",
    "relu",
    "scale",
    "reduce",
    "permute",
    "reshape",
    "slice_axis",
    "conv_time",
    "gather_rows",
    "backward",
    "zero_grads",
    "gradient_check",
]


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class Tensor:
    """N-dimensional float array, optionally participating in the grad tape."""

    __slots__ = ("data", "requires_grad", "grad", "_tracked")

    def __init__(self, data, requires_grad=False, dtype=np.float64):
        self.data = np.array(data, dtype=dtype, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tracked = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; scalars only where the op is a scalar op.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, 1.0 / other)
        return NotImplemented

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


class _Node:
    """One executed op: inputs, output, and the function producing input grads.

    The output reference is strong on purpose: node identity during the
    backward sweep is the output's ``id()``, which stays unique only while
    the tensor is alive. Tensors therefore live as long as the tape, which
    is one forward pass.
    """

    __slots__ = ("op", "inputs", "out", "fn")

    def __init__(self, op, inputs, out, fn):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.fn = fn


class Tape:
    """Ordered record of executed differentiable ops for one forward pass.

    Execution order is topological by construction (an op's inputs always
    exist before its output), so backward is a single reverse sweep that
    touches each node exactly once.
    """

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []

    def __len__(self):
        return len(self.nodes)


_STATE = threading.local()


def _st():
    if not hasattr(_STATE, "enabled"):
        _STATE.enabled = True
        _STATE.tape = None
    return _STATE


def current_tape():
    """The thread's active tape, or None if nothing has been recorded."""
    return _st().tape


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation / finite differences)."""
    st = _st()
    prev = st.enabled
    st.enabled = False
    try:
        yield
    finally:
        st.enabled = prev


def _record(op, inputs, out, fn):
    st = _st()
    if st.enabled and any(t.requires_grad or t._tracked for t in inputs):
        if st.tape is None:
            st.tape = Tape()
        out._tracked = True
        st.tape.nodes.append(_Node(op, tuple(inputs), out, fn))
    return out


def backward(loss):
    """Replay the active tape in reverse, accumulating grads from ``loss``.

    Grads sum when a tensor feeds multiple consumers; tensors that do not
    participate are untouched. ``.grad`` accumulates across calls until
    `zero_grads`, which is what batch-wise accumulation relies on. The
    tape is discarded afterwards.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    st = _st()
    tape = st.tape
    if tape is None or not loss._tracked:
        raise ValueError("loss is not connected to any recorded operation")

    grads = {id(loss): np.ones_like(loss.data)}
    holders = {id(loss): loss}
    for node in reversed(tape.nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        in_grads = node.fn(g)
        for t, ig in zip(node.inputs, in_grads):
            if ig is None:
                continue
            k = id(t)
            holders[k] = t
            if k in grads:
                grads[k] = grads[k] + ig
            else:
                grads[k] = ig
    for k, g in grads.items():
        t = holders[k]
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g
    st.tape = None


def zero_grads(tensors):
    for t in tensors:
        t.grad = None


# --------------------------------------------------------------------------
# shape helpers
# --------------------------------------------------------------------------


def _check_suffix_broadcast(op, sa, sb):
    k = min(len(sa), len(sb))
    if k and sa[len(sa) - k:] != sb[len(sb) - k:]:
        raise ShapeError(f"{op}: shapes {sa} and {sb} are not suffix-compatible")


def _sum_to(g, shape):
    # Collapse the leading axes a suffix-broadcast introduced.
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra)))


def _as_tensor_pair(op, a, b):
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TypeError(f"{op} expects Tensor operands")
    return a, b


# --------------------------------------------------------------------------
# elementwise ops
# --------------------------------------------------------------------------


def add(a, b):
    a, b = _as_tensor_pair("add", a, b)
    _check_suffix_broadcast("add", a.shape, b.shape)
    out = Tensor(a.data + b.data, dtype=np.result_type(a.data, b.data))
    sa, sb = a.shape, b.shape

    def fn(g):
        return _sum_to(g, sa), _sum_to(g, sb)

    return _record("add", [a, b], out, fn)


def sub(a, b):
    a, b = _as_tensor_pair("sub", a, b)
    _check_suffix_broadcast("sub", a.shape, b.shape)
    out = Tensor(a.data - b.data, dtype=np.result_type(a.data, b.data))
    sa, sb = a.shape, b.shape

    def fn(g):
        return _sum_to(g, sa), -_sum_to(g, sb)

    return _record("sub", [a, b], out, fn)


def mul(a, b):
    a, b = _as_tensor_pair("mul", a, b)
    _check_suffix_broadcast("mul", a.shape, b.shape)
    out = Tensor(a.data * b.data, dtype=np.result_type(a.data, b.data))
    da, db = a.data, b.data
    sa, sb = a.shape, b.shape

    def fn(g):
        return _sum_to(g * db, sa), _sum_to(g * da, sb)

    return _record("mul", [a, b], out, fn)


def relu(x):
    out = Tensor(np.maximum(x.data, 0.0), dtype=x.data.dtype)
    mask = x.data > 0  # subgradient at 0 is 0

    def fn(g):
        return (g * mask,)

    return _record("relu", [x], out, fn)


def scale(x, c):
    c = float(c)
    out = Tensor(x.data * c, dtype=x.data.dtype)

    def fn(g):
        return (g * c,)

    return _record("scale", [x], out, fn)


# --------------------------------------------------------------------------
# matmul / softmax
# --------------------------------------------------------------------------


def matmul(a, b):
    """Batched matrix product [..,p,q] x [..,q,r] -> [..,p,r].

    Leading batch dims must match exactly, or one operand is 2-D and is
    shared across the other's batch.
    """
    a, b = _as_tensor_pair("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ between {a.shape} and {b.shape}")
    la, lb = a.shape[:-2], b.shape[:-2]
    if la != lb and la != () and lb != ():
        raise ShapeError(f"matmul: batch dims differ between {a.shape} and {b.shape}")
    out = Tensor(np.matmul(a.data, b.data), dtype=np.result_type(a.data, b.data))
    da, db = a.data, b.data

    def fn(g):
        ga = np.matmul(g, np.swapaxes(db, -1, -2))
        gb = np.matmul(np.swapaxes(da, -1, -2), g)
        if ga.ndim > da.ndim:
            ga = ga.sum(axis=tuple(range(ga.ndim - da.ndim)))
        if gb.ndim > db.ndim:
            gb = gb.sum(axis=tuple(range(gb.ndim - db.ndim)))
        return ga, gb

    return _record("matmul", [a, b], out, fn)


def _softmax_grad(y, g, axis):
    return (g - (g * y).sum(axis=axis, keepdims=True)) * y


def softmax(x, axis=-1):
    """Softmax along ``axis``, computed with max-subtraction for stability."""
    if not -x.ndim <= axis < x.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {x.shape}")
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, dtype=x.data.dtype)

    def fn(g):
        return (_softmax_grad(out.data, g, axis),)

    return _record("softmax", [x], out, fn)


# --------------------------------------------------------------------------
# shape ops
# --------------------------------------------------------------------------


def reduce(x, axis=None, kind="sum"):
    """Sum or mean over ``axis`` (int, tuple, or None for all elements)."""
    if kind not in ("sum", "mean"):
        raise ValueError(f"reduce: unknown kind {kind!r}")
    if axis is None:
        axes = tuple(range(x.ndim))
    elif isinstance(axis, int):
        axes = (axis % x.ndim,)
    else:
        axes = tuple(ax % x.ndim for ax in axis)
    count = 1
    for ax in axes:
        count *= x.shape[ax]
    data = x.data.sum(axis=axes)
    if kind == "mean":
        data = data / count
    out = Tensor(data, dtype=x.data.dtype)
    in_shape = x.shape
    factor = 1.0 / count if kind == "mean" else 1.0

    def fn(g):
        ge = g * factor
        for ax in sorted(axes):
            ge = np.expand_dims(ge, ax)
        return (np.broadcast_to(ge, in_shape).copy(),)

    return _record("reduce", [x], out, fn)


def permute(x, axes):
    """Reorder axes; the result is a materialized row-major copy."""
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for shape {x.shape}")
    out = Tensor(np.ascontiguousarray(np.transpose(x.data, axes)), dtype=x.data.dtype)
    inv = np.argsort(axes)

    def fn(g):
        return (np.ascontiguousarray(np.transpose(g, inv)),)

    return _record("permute", [x], out, fn)


def reshape(x, shape):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = Tensor(x.data.reshape(shape), dtype=x.data.dtype)
    in_shape = x.shape

    def fn(g):
        return (g.reshape(in_shape),)

    return _record("reshape", [x], out, fn)


def slice_axis(x, axis, start, stop):
    """Contiguous slice [start, stop) along one axis."""
    axis = axis % x.ndim
    n = x.shape[axis]
    if not (0 <= start < stop <= n):
        raise ShapeError(f"slice_axis: [{start},{stop}) invalid for axis {axis} of {x.shape}")
    idx = tuple(slice(None) if ax != axis else slice(start, stop) for ax in range(x.ndim))
    out = Tensor(x.data[idx], dtype=x.data.dtype)
    in_shape = x.shape

    def fn(g):
        buf = np.zeros(in_shape, dtype=g.dtype)
        buf[idx] = g
        return (buf,)

    return _record("slice_axis", [x], out, fn)


# --------------------------------------------------------------------------
# convolution / gather
# --------------------------------------------------------------------------


def conv_time(x, kernel):
    """Valid correlation along the time axis.

    x: [B, T, C_in], kernel: [w, C_in, C_out] -> [B, T-w+1, C_out].
    w=1 reduces to a per-step linear map.
    """
    x, kernel = _as_tensor_pair("conv_time", x, kernel)
    if x.ndim != 3 or kernel.ndim != 3:
        raise ShapeError(f"conv_time: expected 3-D x and kernel, got {x.shape}, {kernel.shape}")
    w, c_in, _ = kernel.shape
    if c_in != x.shape[2]:
        raise ShapeError(f"conv_time: channel mismatch between {x.shape} and {kernel.shape}")
    if w > x.shape[1]:
        raise ShapeError(f"conv_time: kernel width {w} exceeds sequence length {x.shape[1]}")
    windows = np.lib.stride_tricks.sliding_window_view(x.data, w, axis=1)  # [B,T',C,w]
    out = Tensor(np.einsum("bscj,jcd->bsd", windows, kernel.data))
    xd, kd = x.data, kernel.data
    t_out = out.shape[1]

    def fn(g):
        gk = np.einsum("bscj,bsd->jcd", windows, g)
        gx = np.zeros_like(xd)
        for j in range(w):
            gx[:, j:j + t_out, :] += np.matmul(g, kd[j].T)
        return gx, gk

    return _record("conv_time", [x, kernel], out, fn)


def gather_rows(table, indices):
    """Select rows of ``table`` along axis 0: output shape = indices.shape + table.shape[1:].

    Backward scatter-adds, so repeated indices accumulate.
    """
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError("gather_rows: indices must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(
            f"gather_rows: index out of range [0, {table.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    out = Tensor(table.data[idx], dtype=table.data.dtype)
    tshape = table.shape

    def fn(g):
        buf = np.zeros(tshape, dtype=g.dtype)
        np.add.at(buf, idx, g)
        return (buf,)

    return _record("gather_rows", [table], out, fn)


# --------------------------------------------------------------------------
# gradient checking
# --------------------------------------------------------------------------


def gradient_check(f, x, eps=1e-5, elements=None):
    """Max relative error between analytic grad of f(x) and central differences.

    ``f`` must be a deterministic scalar-valued function of ``x`` (checked by
    double evaluation). ``elements`` optionally restricts the check to a list
    of flat indices into ``x`` (used for large lookup tables where only a few
    rows participate); default checks every element. 64-bit inputs only.
    """
    if x.data.dtype != np.float64:
        raise TypeError("gradient_check requires float64 storage")
    with no_grad():
        y0 = f(x)
        y1 = f(x)
    if y0.data.size != 1:
        raise ShapeError("gradient_check: f must be scalar-valued")
    if y0.data.tobytes() != y1.data.tobytes():
        raise ValueError("gradient_check: f is non-deterministic (double evaluation mismatch)")

    was_required = x.requires_grad
    x.requires_grad = True
    saved_grad = x.grad
    x.grad = None
    y = f(x)
    backward(y)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    x.grad = saved_grad
    x.requires_grad = was_required

    flat = x.data.reshape(-1)
    if elements is None:
        elements = range(flat.size)
    worst = 0.0
    with no_grad():
        for i in elements:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = f(x).item()
            flat[i] = orig - eps
            f_minus = f(x).item()
            flat[i] = orig
            cd = (f_plus - f_minus) / (2.0 * eps)
            a = analytic.reshape(-1)[i]
            rel = abs(a - cd) / max(abs(a), abs(cd), 1e-8)
            if rel > worst:
                worst = rel
    return worst

"""Dense tensors with reverse-mode automatic differentiation.

Storage is row-major float64 numpy. The public ``Tensor`` constructor
copies the caller's array, because Adam updates parameter data in place;
op outputs are not copied: an op wraps the array it just computed (a
view, for ``reshape``), and copies only a strided result such as a
``permute`` view to keep storage row-major. Differentiable ops
record nodes on a thread-local tape; ``backward`` detaches that tape and
replays it once in reverse, accumulating gradients into ``.grad`` of every
``requires_grad`` ancestor. A node links to its inputs' producer nodes,
never to tensors: it keeps its output shape and a weak reference to the
output array, and its gradient function keeps only the operands that the
gradients it must compute read. So an activation lives only while the
caller or some gradient function holds it; an addend, a ReLU input or a
permute input that no gradient reads is freed as soon as the forward
code drops it. The sweep clears each node's gradient function as it
passes it, so the operands it saved are freed as soon as no earlier
node needs them, not when the sweep ends. Gradients
that meet at a tensor are added in place only into a buffer the sweep
owns, one that a gradient function just allocated or a sum it made; an
op's ``g``, views of it and read-only broadcasts are never written. An op
computes an input's gradient only when that input is ``requires_grad`` or
itself recorded, so constants such as data blocks and graph bases cost no
backward work. A tape belongs to a single forward pass: `backward`
consumes it, and `drop_tape` discards one a failed pass left behind; both
unlink every node, so an output the caller keeps holds no graph alive and
acts as a constant in a later pass. There are no higher-order
derivatives.

Broadcasting is deliberately restricted: the shorter operand of an
elementwise op must equal a trailing suffix of the longer one (classic
bias-add), matmul only broadcasts a 2-D operand across the other side's
leading batch dims, its optional addend ``c`` (``matmul(a, b, c)`` is
a @ b + c in one node) must be a suffix of the output shape, and
attention broadcasts only inside the projections of its operands, each a
2-D weight and an addend under matmul's rules, except that an addend may
hold length 1 on the attended axis and so be shared by every position.
Anything else needs an explicit reshape, which keeps shape errors loud.
"""

from __future__ import annotations

import math
import threading
import weakref
from contextlib import contextmanager

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "no_grad",
    "matmul",
    "attention",
    "add",
    "mul",
    "relu",
    "reduce",
    "permute",
    "reshape",
    "gather_rows",
    "backward",
    "drop_tape",
    "zero_grads",
    "gradient_check",
]

# the names in ``__all__`` that are not differentiable ops
NOT_OPS = frozenset({"Tensor", "Tape", "ShapeError", "no_grad", "backward", "drop_tape",
                     "zero_grads", "gradient_check"})


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class Tensor:
    """N-dimensional float array, optionally participating in the grad tape."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._node = None   # the node that produced this tensor, if one was recorded

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _wrap(data):
    """Tensor around an op's freshly computed result, copied only if strided."""
    data = np.asarray(data)
    out = Tensor.__new__(Tensor)
    out.data = data if data.flags.c_contiguous else data.copy()
    out.requires_grad = False
    out.grad = None
    out._node = None
    return out


class _Node:
    """One executed op: its parents, its output's shape, and the function producing input grads.

    ``parents`` has one entry per input: the input's producer node if it
    was recorded, the input itself if it is a ``requires_grad`` leaf, and
    None for a constant. `backward` files gradients under these objects.
    The node holds no tensor, and only a weak reference to its output
    array, so it keeps no activation alive; ``fn`` holds what the input
    gradients read. The sweep clears ``fn`` and ``parents`` as it passes
    a node, and `drop_tape` clears them on every node of a discarded tape,
    so a node the caller still reaches (through an output it keeps) holds
    nothing but its op, shape and weak reference.
    """

    __slots__ = ("op", "parents", "shape", "_out", "fn")

    def __init__(self, op, parents, data, fn):
        self.op = op
        self.parents = parents
        self.shape = data.shape
        self._out = weakref.ref(data)
        self.fn = fn

    @property
    def out(self):
        """A tensor over the output array while anything holds it, else an empty placeholder."""
        data = self._out()
        return _wrap(np.empty(0) if data is None else data)

    def release(self):
        self.fn = self.parents = None


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


class _State(threading.local):
    """Each thread's recording switch and active tape; a new thread starts with these defaults."""

    enabled = True
    tape = None


_STATE = _State()


def current_tape():
    """The thread's active tape, or None if nothing has been recorded."""
    return _STATE.tape


@contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation / finite differences)."""
    prev = _STATE.enabled
    _STATE.enabled = False
    try:
        yield
    finally:
        _STATE.enabled = prev


def _parent(t):
    """What `backward` files ``t``'s gradient under, or None if it gets none.

    That is the node that produced ``t`` while its tape is live, else ``t``
    itself if it is a ``requires_grad`` leaf. An output of a finished or
    discarded pass is a constant, and so is an absent operand (None).
    Nothing gets a gradient under `no_grad`.
    """
    if t is None or not _STATE.enabled:
        return None
    node = t._node
    if node is not None and node.fn is not None:
        return node
    return t if t.requires_grad else None


def _needs_grad(t):
    return _parent(t) is not None


def _record(op, inputs, out, fn):
    parents = tuple(_parent(t) for t in inputs)
    if any(p is not None for p in parents):
        if _STATE.tape is None:
            _STATE.tape = Tape()
        out._node = _Node(op, parents, out.data, fn)
        _STATE.tape.nodes.append(out._node)
    return out


def backward(loss):
    """Replay the active tape in reverse, accumulating grads from ``loss``.

    Grads sum when a tensor feeds multiple consumers; tensors that do not
    participate are untouched. ``.grad`` accumulates across calls until
    `zero_grads`, which is what batch-wise accumulation relies on. The
    tape is detached before the sweep, so none is left on the thread even
    if a gradient function raises. Gradients are filed under each input's
    parent (`_Node`): a node, or a leaf. Each node is popped together with
    its gradient and released, so the sweep frees the operands its
    gradient function saved as soon as it has passed them.

    Ownership: the first gradient to reach a parent is stored as it is. The
    entry is owned only if the gradient function just allocated that array
    (no ``base``, not the ``g`` it was given, returned once), so nothing
    else can see it. A later arrival is added in place into an owned entry;
    into any other entry it is summed out of place once, and the sum is
    owned. Gradient functions may thus return ``g``, views of it or
    read-only broadcasts, but never an array they keep. Leaf ``.grad`` is
    always accumulated out of place.
    """
    tape, _STATE.tape = _STATE.tape, None
    nodes = [] if tape is None else tape.nodes
    try:
        if loss.data.size != 1:
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
        if tape is None or loss._node is None or loss._node.fn is None:
            raise ValueError("loss is not connected to any recorded operation")
        grads = {loss._node: np.ones_like(loss.data)}
        owned = set()   # parents whose gradient buffer no one else holds
        while nodes:
            node = nodes.pop()
            g = grads.pop(node, None)
            owned.discard(node)
            fn, parents = node.fn, node.parents
            node.release()   # unlinked even if fn raises
            if g is not None:
                igs = fn(g)
                for p, ig in zip(parents, igs):
                    if p is None or ig is None:
                        continue
                    if p in owned:
                        grads[p] += ig
                    elif p in grads:
                        grads[p] = grads[p] + ig
                        owned.add(p)
                    else:
                        grads[p] = ig
                        if ig is not g and ig.base is None and sum(x is ig for x in igs) == 1:
                            owned.add(p)
            node = fn = parents = g = p = ig = igs = None   # frees the operands fn saved
    finally:
        for node in nodes:   # left unswept by a gradient function that raised
            node.release()
    for leaf, g in grads.items():   # every node's entry was popped with it
        leaf.grad = g if leaf.grad is None else leaf.grad + g


def drop_tape():
    """Discard the thread's tape: the end of a pass that raised before `backward`."""
    tape, _STATE.tape = _STATE.tape, None
    for node in [] if tape is None else tape.nodes:
        node.release()


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
    # Collapse the axes a broadcast introduced: the leading ones a suffix
    # adds, then any that ``shape`` holds at length 1.
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    ones = tuple(i for i, (a, b) in enumerate(zip(g.shape, shape)) if b == 1 != a)
    return g.sum(axis=ones, keepdims=True) if ones else g


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
    out = _wrap(a.data + b.data)
    sa, sb = a.shape, b.shape

    def fn(g):
        return _sum_to(g, sa), _sum_to(g, sb)

    return _record("add", [a, b], out, fn)


def mul(a, b):
    a, b = _as_tensor_pair("mul", a, b)
    _check_suffix_broadcast("mul", a.shape, b.shape)
    out = _wrap(a.data * b.data)
    sa, sb = a.shape, b.shape
    need_a, need_b = _needs_grad(a), _needs_grad(b)
    da = a.data if need_b else None   # each operand is kept only for the other's gradient
    db = b.data if need_a else None

    def fn(g):
        return (_sum_to(g * db, sa) if need_a else None,
                _sum_to(g * da, sb) if need_b else None)

    return _record("mul", [a, b], out, fn)


def relu(x):
    out = _wrap(np.maximum(x.data, 0.0))
    mask = x.data > 0 if _needs_grad(x) else None  # subgradient at 0 is 0

    def fn(g):
        return (g * mask,)

    return _record("relu", [x], out, fn)


# --------------------------------------------------------------------------
# matmul / attention
# --------------------------------------------------------------------------


def _transposed(w):
    """A 2-D weight transposed into a copy, so BLAS runs its no-transpose path."""
    return np.ascontiguousarray(w.T)


def _shared_weight_grad(a, g):
    """Gradient of a 2-D weight shared across a's batch rows: one GEMM over all of them."""
    rows = math.prod(g.shape[:-1])   # not -1: a zero width leaves it ambiguous
    return a.reshape(rows, a.shape[-1]).T @ g.reshape(rows, g.shape[-1])


def matmul(a, b, c=None):
    """Batched matrix product plus an optional addend: [..,p,q] x [..,q,r] (+ c) -> [..,p,r].

    Leading batch dims must match exactly, or one operand is 2-D and is
    shared across the other's batch. ``c``, when given, is added in place
    into the fresh product, as GEMM computes C = AB + C; ``c`` itself is
    never written. Its shape must be a suffix of the output shape (a bias
    [r], a full [.., p, r] residual, or anything between), the rule of
    `add`. A constant operand (neither ``requires_grad`` nor recorded) gets
    no gradient.
    """
    a, b = _as_tensor_pair("matmul", a, b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ between {a.shape} and {b.shape}")
    la, lb = a.shape[:-2], b.shape[:-2]
    if la != lb and la != () and lb != ():
        raise ShapeError(f"matmul: batch dims differ between {a.shape} and {b.shape}")
    data = np.matmul(a.data, b.data)
    inputs = [a, b]
    if c is not None:
        if not isinstance(c, Tensor):
            raise TypeError("matmul expects a Tensor addend")
        so, sc = data.shape, c.shape
        if len(sc) > len(so) or so[len(so) - len(sc):] != sc:
            raise ShapeError(f"matmul: addend {sc} is not a suffix of the output shape {so}")
        data += c.data
        inputs.append(c)
    out = _wrap(data)
    need_a, need_b = _needs_grad(a), _needs_grad(b)
    need_c = c is not None and _needs_grad(c)
    da = a.data if need_b else None   # each factor is kept only for the other's gradient
    db = b.data if need_a else None
    na, nb, n_in = a.ndim, b.ndim, len(inputs)

    def fn(g):
        ga = gb = gc = None
        if need_c:
            gc = _sum_to(g, sc)
        if need_a:
            ga = np.matmul(g, _transposed(db) if nb == 2 else np.swapaxes(db, -1, -2))
            if ga.ndim > na:
                ga = ga.sum(axis=tuple(range(ga.ndim - na)))
        if need_b and nb < na:
            gb = _shared_weight_grad(da, g)
        elif need_b:
            gb = np.matmul(np.swapaxes(da, -1, -2), g)
        return (ga, gb, gc)[:n_in]  # one gradient per input

    return _record("matmul", inputs, out, fn)


def _softmax_grad(p, g):
    """Gradient through a row softmax ``p`` (last axis), written into ``g``."""
    g -= (g * p).sum(axis=-1, keepdims=True)
    g *= p
    return g


def _project(x, w, c):
    """x @ w + c on arrays, as `matmul` computes it; without w it is x (+ c)."""
    y = x if w is None else np.matmul(x, w)
    if c is not None:
        y = y + c if w is None else np.add(y, c, out=y)
    return y


def attention(q, k, v, scale, axis=-2):
    """Scaled dot-product attention over ``axis``; returns (out, scores).

    Each of q, k and v is a bare tensor x or a source triple (x, w, c) that
    stands for the projection ``matmul(x, w, c)``, w [d, d'] and c being
    optional. The op reads every source with ``axis`` moved to -2, in a
    transient contiguous copy, and in that layout the projections
    q [..., L_q, d_k], k [..., L_k, d_k] and v [..., L_k, d_v] must have
    equal batch dims. Each addend must be a suffix of its projection, or
    such a suffix with length 1 on the attended axis (-2): an addend shared
    by every position, such as a [B, m, 1, d] term of a [B, m, N, d]
    projection attended over N, whose gradient is summed over that axis.
    scores [..., L_q, L_k] = softmax(scale * q kᵀ) along the last axis,
    computed in place with max-subtraction, is a read-only array in that
    layout; out = scores @ v has the attended axis moved back.

    Forward drops q and k once the scores have read them. The gradient
    function keeps only the sources, weights, addends and scores its
    gradients read, and finishes one operand before it makes the next: v's
    terms (its weight and addend gradients, and gv wvᵀ of its source's),
    then k's, then q's, each projection recomputed just before its product.
    Besides what it keeps, the sources in the attended layout and the
    source-gradient sums, backward holds at one time only g with gv; or
    g, v and the score gradient gs (g is dropped once gs = g vᵀ is formed);
    or gs, q and gk; or gs, k and gq (gs is dropped once gq is formed).
    A source that several operands share, as in self-attention, gets one
    gradient, ((gv wvᵀ) + gk wkᵀ) + gq wqᵀ, moved back once. A constant
    gets no gradient.
    """
    srcs = [(op, None, None) if isinstance(op, Tensor) else op for op in (q, k, v)]
    nd = srcs[0][0].ndim
    if nd < 2 or any(x.ndim != nd for x, _, _ in srcs) or not -nd <= axis < nd - 1:
        raise ShapeError(f"attention: sources need one rank >= 2 and an axis before the last; "
                         f"got {[x.shape for x, _, _ in srcs]}, axis {axis}")
    ax = axis % nd

    def move(a, src, dst):   # a transient contiguous copy, unless the axis is -2 already
        return a if ax == nd - 2 else np.ascontiguousarray(np.moveaxis(a, src, dst))

    shapes = []
    for x, w, c in srcs:
        s = x.shape[:ax] + x.shape[ax + 1:-1] + (x.shape[ax], x.shape[-1])
        if w is not None and (w.ndim != 2 or w.shape[0] != s[-1]):
            raise ShapeError(f"attention: weight {w.shape} does not map a source {x.shape}")
        s = s if w is None else s[:-1] + w.shape[1:]
        if c is not None:
            want = s[len(s) - c.ndim:]
            if c.ndim >= 2 and c.shape[-2] == 1:   # shared by every attended position
                want = want[:-2] + (1,) + want[-1:]
            if c.ndim > len(s) or c.shape != want:
                raise ShapeError(f"attention: addend {c.shape} is not a suffix of its "
                                 f"projection {s}")
        shapes.append(s)
    sq, sk, sv = shapes
    if not sq[:-2] == sk[:-2] == sv[:-2] or sq[-1] != sk[-1] or sk[-2] != sv[-2] or not sk[-2]:
        raise ShapeError(f"attention: need q [..., L_q, d], k [..., L_k, d], v [..., L_k, d_v], "
                         f"L_k > 0; got {sq}, {sk}, {sv}")
    scale = float(scale)
    needs = [[_needs_grad(t) for t in src] for src in srcs]
    need_q, need_k, need_v = (any(n) for n in needs)
    # x is read by its projection and its weight's gradient, w by its
    # projection and its source's gradient, c by its projection only
    kept = [tuple(None if t is None or not keep else t.data
                  for t, keep in zip(src, (redo or nw, redo or nx, redo)))
            for src, (nx, nw, _), redo in zip(srcs, needs, (need_k, need_q, need_q or need_k))]
    ids = [id(x) for x, _, _ in srcs]
    c_shapes = [None if c is None else c.shape for _, _, c in srcs]

    def sources(arrays):   # each distinct source moved once
        moved = {}
        for x, _, _ in arrays:
            if x is not None and id(x) not in moved:
                moved[id(x)] = move(x, ax, -2)
        return [None if x is None else moved[id(x)] for x, _, _ in arrays]

    arrays = [tuple(None if t is None else t.data for t in src) for src in srcs]
    pq, pk, pv = (_project(x, w, c) for x, (_, w, c) in zip(sources(arrays), arrays))
    p = np.matmul(pq, np.swapaxes(pk, -1, -2))
    pq = pk = None
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    p.flags.writeable = False
    out = _wrap(move(np.matmul(p, pv), -2, ax))

    def fn(g):
        g = move(g, ax, -2)
        xs = sources(kept)
        grads = [[None] * 3 for _ in kept]
        sums = {}   # id(source) -> (operand, gradient so far, whether fn alone holds it)

        def take(i, gy):   # operand i's weight, addend and source terms of its gradient gy
            (nx, nw, nc), w = needs[i], kept[i][1]
            if nw:
                grads[i][1] = _shared_weight_grad(xs[i], gy)
            if nc:
                grads[i][2] = _sum_to(gy, c_shapes[i])   # may be gy itself
            if nx:
                part = gy if w is None else np.matmul(gy, _transposed(w))
                j, gx, owned = sums.get(ids[i], (i, None, False))
                if gx is not None:   # in place only into a sum or product made here
                    part, owned = np.add(gx, part, out=gx if owned else None), True
                sums[ids[i]] = j, part, owned or w is not None

        if need_v:   # v's terms, then k's, then q's, one operand at a time
            take(2, np.matmul(np.swapaxes(p, -1, -2), g))
        if need_q or need_k:
            gs = np.matmul(g, np.swapaxes(_project(xs[2], *kept[2][1:]), -1, -2))
            g = None
            gs = _softmax_grad(p, gs)
            gs *= scale
            if need_k:
                take(1, np.matmul(np.swapaxes(gs, -1, -2), _project(xs[0], *kept[0][1:])))
            if need_q:
                gq, gs = np.matmul(gs, _project(xs[1], *kept[1][1:])), None
                take(0, gq)
        for i, gx, _ in sums.values():
            grads[i][0] = move(gx, -2, ax)
        return [g for row in grads for g in row]

    return _record("attention", [t for src in srcs for t in src], out, fn), p


# --------------------------------------------------------------------------
# shape ops
# --------------------------------------------------------------------------


def reduce(x, axis=None, kind="sum"):
    """Sum or mean over ``axis`` (int, tuple, or None for all elements)."""
    if kind not in ("sum", "mean"):
        raise ValueError(f"reduce: unknown kind {kind!r}")
    if axis is None:
        axis = tuple(range(x.ndim))
    axes = (axis,) if isinstance(axis, (int, np.integer)) else tuple(axis)
    if (not all(-x.ndim <= ax < x.ndim for ax in axes)
            or len({ax % x.ndim for ax in axes}) < len(axes)):
        raise ShapeError(f"reduce: axis {axis} invalid for shape {x.shape}")
    axes = tuple(ax % x.ndim for ax in axes)
    count = math.prod(x.shape[ax] for ax in axes)
    if kind == "mean" and not count:
        raise ShapeError(f"reduce: mean over no elements, axis {axis} of shape {x.shape}")
    data = x.data.sum(axis=axes)
    if kind == "mean":
        data = data / count
    out = _wrap(data)
    in_shape = x.shape
    factor = 1.0 / count if kind == "mean" else 1.0

    def fn(g):
        ge = g * factor
        for ax in sorted(axes):
            ge = np.expand_dims(ge, ax)
        return (np.broadcast_to(ge, in_shape),)   # read-only: `backward` never writes it

    return _record("reduce", [x], out, fn)


def permute(x, axes):
    """Reorder axes; the result is stored row-major."""
    axes = tuple(axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute: axes {axes} invalid for shape {x.shape}")
    out = _wrap(np.transpose(x.data, axes))
    inv = np.argsort(axes)

    def fn(g):
        return (np.transpose(g, inv).copy(),)   # row-major, and 0-d stays 0-d

    return _record("permute", [x], out, fn)


def reshape(x, shape):
    """View ``x`` under a new shape; the output shares the input's storage."""
    shape = tuple(int(s) for s in shape)
    if min(shape, default=0) < 0 or math.prod(shape) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out = _wrap(x.data.reshape(shape))
    in_shape = x.shape

    def fn(g):
        return (g.reshape(in_shape),)

    return _record("reshape", [x], out, fn)


# --------------------------------------------------------------------------
# gather
# --------------------------------------------------------------------------


def gather_rows(table, indices):
    """Select rows of ``table`` along axis 0: output shape = indices.shape + table.shape[1:].

    Backward scatter-adds, so repeated indices accumulate: one `np.bincount`
    over the flat positions of every gathered element, which adds the
    contributions to each element in index order, as `np.add.at` does.
    """
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError("gather_rows: indices must be integers")
    if table.ndim == 0:
        raise ShapeError("gather_rows: a 0-d table has no rows")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(
            f"gather_rows: index out of range [0, {table.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    out = _wrap(table.data[idx])
    tshape = table.shape
    width = int(np.prod(tshape[1:]))   # elements per row

    def fn(g):
        flat = idx.astype(np.intp)[..., None] * width + np.arange(width)
        grad = np.bincount(flat.ravel(), weights=g.ravel(), minlength=tshape[0] * width)
        grad.shape = tshape   # in place, not a view: `backward` owns the buffer
        return (grad,)

    return _record("gather_rows", [table], out, fn)


# --------------------------------------------------------------------------
# gradient checking
# --------------------------------------------------------------------------


def gradient_check(f, x, eps=1e-5, elements=None):
    """Max relative error between analytic grad of f(x) and central differences.

    ``f`` must be a deterministic scalar-valued function of ``x`` (checked by
    double evaluation). ``elements`` optionally restricts the check to a list
    of flat indices into ``x`` (used for large lookup tables where only a few
    rows participate); default checks every element.

    Rounding puts each evaluation of f off by a few machine epsilons of
    the magnitudes it sums, and the central difference divides that by
    ``eps``, so its rounding bound is 4 * max(|f(x)|, 1) * macheps / eps;
    the 1 stands for unit-scale summands, which a loss that cancels to
    near zero still has. A gap within that bound is no error; beyond it,
    the gap less the bound counts, relative to the larger of the two
    gradients. A gradient that is zero in exact arithmetic, which both
    sides see as rounding noise, thus passes, and a wrong one above the
    noise does not.
    """
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
    try:
        backward(f(x))
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    finally:
        drop_tape()
        x.grad = saved_grad
        x.requires_grad = was_required

    flat = x.data.reshape(-1)
    if elements is None:
        elements = range(flat.size)
    noise = 4.0 * max(abs(y0.item()), 1.0) * np.finfo(np.float64).eps / eps
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
            gap = abs(a - cd) - noise
            if gap > 0:   # then max(|a|, |cd|) > 0
                worst = max(worst, gap / max(abs(a), abs(cd)))
    return worst

"""Tensor op semantics, backward correctness, and gradient-check harness."""

import ast
import inspect
import itertools
import re
import tracemalloc
import weakref
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import embsformer
from embsformer import checks, graph, model
from embsformer import tensor as T
from embsformer.model import _align


def rng_for(seed):
    return np.random.default_rng(seed)


# --------------------------------------------------------------------------
# matmul
# --------------------------------------------------------------------------


class TestMatmul:
    def test_identity(self):
        m = T.Tensor([[2.0, -1.0], [0.5, 3.0]])
        eye = T.Tensor(np.eye(2))
        assert np.array_equal(T.matmul(eye, m).data, m.data)

    def test_hand_case(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[1.0], [1.0]])
        assert np.array_equal(T.matmul(a, b).data, [[3.0], [7.0]])

    def test_triple_loop_oracle(self):
        rng = rng_for(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_loop_oracle_random_shapes(self, seed):
        rng = rng_for(100 + seed)
        p, q, r = rng.integers(1, 9, 3)
        a = rng.standard_normal((p, q))
        b = rng.standard_normal((q, r))
        expected = np.einsum("pq,qr->pr", a, b)
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_shape_error_names_both_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        b = T.Tensor(np.zeros((4, 2)))
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.matmul(a, b)

    def test_batched_against_loop(self):
        rng = rng_for(1)
        a = rng.standard_normal((5, 3, 4))
        b = rng.standard_normal((5, 4, 2))
        got = T.matmul(T.Tensor(a), T.Tensor(b)).data
        for i in range(5):
            assert np.allclose(got[i], a[i] @ b[i], atol=1e-12)

    def test_shared_weight_gradient_matches_batched_sum(self):
        # desk shapes: a [B, m, N, d] block times a shared [d, d] weight
        rng = rng_for(2)
        a = T.Tensor(rng.standard_normal((16, 15, 12, 32)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((32, 32)), requires_grad=True)
        g = rng.standard_normal((16, 15, 12, 32))
        T.backward(T.reduce(T.mul(T.matmul(a, w), T.Tensor(g)), kind="sum"))
        batched = np.matmul(np.swapaxes(a.data, -1, -2), g).sum(axis=(0, 1))
        assert w.grad.shape == (32, 32)
        assert np.max(np.abs(w.grad - batched)) <= 1e-12 * np.max(np.abs(batched))
        assert np.max(np.abs(a.grad - g @ w.data.T)) <= 1e-12 * np.max(np.abs(a.grad))

    @pytest.mark.parametrize("a_shape,w_shape", [((2, 3, 0), (0, 4)), ((2, 3, 4), (4, 0))],
                             ids=["zero-inner", "zero-output"])
    def test_shared_weight_gradient_with_a_zero_width(self, a_shape, w_shape):
        # the one-GEMM weight gradient must not ask reshape to infer -1 beside a 0
        a = T.Tensor(np.ones(a_shape), requires_grad=True)
        w = T.Tensor(np.ones(w_shape), requires_grad=True)
        T.backward(T.reduce(T.matmul(a, w)))
        assert (a.grad.shape, w.grad.shape) == (a_shape, w_shape)
        assert not a.grad.any() and not w.grad.any()

    @pytest.mark.parametrize("addend_shape", [(32,), (16, 12, 15, 32)], ids=["bias", "full"])
    def test_addend_bytes_equal_numpy(self, addend_shape):
        rng = rng_for(3)
        a = rng.standard_normal((16, 12, 15, 32))
        b = rng.standard_normal((32, 32))
        c = rng.standard_normal(addend_shape)
        got = T.matmul(T.Tensor(a), T.Tensor(b), T.Tensor(c)).data
        assert got.tobytes() == (np.matmul(a, b) + c).tobytes()

    def test_read_only_addend_left_unchanged(self):
        rng = rng_for(4)
        a, b = T.Tensor(rng.standard_normal((4, 3))), T.Tensor(rng.standard_normal((3, 2)))
        c = T.Tensor(rng.standard_normal((4, 2)))
        c.data.flags.writeable = False
        before = c.data.copy()
        out = T.matmul(a, b, c)
        assert np.array_equal(c.data, before)
        assert not np.shares_memory(out.data, c.data)

    @pytest.mark.parametrize("a_shape,b_shape,c_shape,out_shape", [
        ((16, 12, 15, 32), (32, 32), (12, 32), (16, 12, 15, 32)),   # not a suffix
        ((4, 3), (3, 2), (1, 4, 2), (4, 2)),                        # longer than the output
    ], ids=["not-suffix", "longer"])
    def test_addend_shape_error_names_both_shapes(self, a_shape, b_shape, c_shape, out_shape):
        a, b, c = (T.Tensor(np.zeros(s)) for s in (a_shape, b_shape, c_shape))
        names_both = re.escape(str(c_shape)) + ".*" + re.escape(str(out_shape))
        with pytest.raises(T.ShapeError, match=names_both):
            T.matmul(a, b, c)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(data=st.data())
    def test_addend_shape_contract_fuzz(self, data):
        # the result is a @ b + c exactly when c's shape is a suffix of the
        # output shape, and a ShapeError otherwise
        dim = st.integers(1, 4)
        batch = tuple(data.draw(st.lists(dim, max_size=2)))
        p, q, r = data.draw(dim), data.draw(dim), data.draw(dim)
        out_shape = batch + (p, r)
        keep = data.draw(st.integers(0, len(out_shape)))
        c_shape = out_shape[len(out_shape) - keep:]
        if data.draw(st.booleans()):   # perturb: grow it or change one of its dims
            if not c_shape or data.draw(st.booleans()):
                c_shape = (data.draw(dim),) + out_shape
            else:
                i = data.draw(st.integers(0, len(c_shape) - 1))
                c_shape = c_shape[:i] + (data.draw(dim),) + c_shape[i + 1:]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shared = data.draw(st.sampled_from(["none", "a", "b"]))   # the 2-D operand, if any
        a = rng.standard_normal((p, q) if shared == "a" else batch + (p, q))
        b = rng.standard_normal((q, r) if shared == "b" else batch + (q, r))
        c = rng.standard_normal(c_shape)
        if len(c_shape) > len(out_shape) or out_shape[len(out_shape) - len(c_shape):] != c_shape:
            with pytest.raises(T.ShapeError):
                T.matmul(T.Tensor(a), T.Tensor(b), T.Tensor(c))
            return
        got = T.matmul(T.Tensor(a), T.Tensor(b), T.Tensor(c)).data
        assert got.tobytes() == (np.matmul(a, b) + c).tobytes()


# --------------------------------------------------------------------------
# attention
# --------------------------------------------------------------------------


def softmax(x):
    """Row softmax of a Tensor over its last axis, through attention.

    A unit query against keys ``x[..., :, None]`` with identity values and
    scale 1 gives exactly softmax(x): the logits are x itself and the
    output is the score row.
    """
    x = x if isinstance(x, T.Tensor) else T.Tensor(x)
    lead, n = x.shape[:-1], x.shape[-1]
    q = T.Tensor(np.ones(lead + (1, 1)))
    v = T.Tensor(np.broadcast_to(np.eye(n), lead + (n, n)))
    out, _ = T.attention(q, T.reshape(x, lead + (n, 1)), v, 1.0)
    return T.reshape(out, x.shape)


class TestSoftmax:
    def test_uniform(self):
        out = softmax([0.0, 0.0, 0.0])
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_inputs_no_overflow(self):
        out = softmax([1000.0, 1000.0])
        assert np.allclose(out.data, [0.5, 0.5])
        assert np.all(np.isfinite(out.data))

    def test_exp_sum_oracle(self):
        rng = rng_for(2)
        x = rng.standard_normal(7)
        expected = np.exp(x) / np.exp(x).sum()
        got = softmax(x).data
        assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one_and_shift_invariant(self, seed):
        rng = rng_for(200 + seed)
        x = rng.standard_normal((4, 6)) * 5
        y = softmax(x).data
        assert np.max(np.abs(y.sum(axis=-1) - 1.0)) < 1e-9
        shifted = softmax(x + 123.456).data
        assert np.max(np.abs(y - shifted)) < 1e-9


class TestAttention:
    def test_matches_numpy_chain(self):
        # desk spatial shape: [B, m, N, d]
        rng = rng_for(9)
        q, k, v = (rng.standard_normal((16, 12, 15, 32)) for _ in range(3))
        out, scores = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), 1.0 / np.sqrt(32))
        logits = np.matmul(q, np.ascontiguousarray(np.swapaxes(k, -1, -2))) / np.sqrt(32)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        expected_scores = e / e.sum(axis=-1, keepdims=True)
        expected = np.matmul(expected_scores, v)
        assert scores.shape == (16, 12, 15, 15) and out.shape == (16, 12, 15, 32)
        assert np.max(np.abs(scores - expected_scores)) <= 1e-12 * np.max(np.abs(expected_scores))
        assert np.max(np.abs(out.data - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("shapes", [
        ((2, 3, 4), (3, 5, 4), (3, 5, 6)),   # batch dims differ
        ((2, 3, 4), (2, 5, 3), (2, 5, 6)),   # query and key widths differ
        ((2, 3, 4), (2, 5, 4), (2, 4, 6)),   # key and value lengths differ
        ((1, 1), (1,), (1, 1)),              # a key without a length axis
        ((2, 3, 4), (2, 0, 4), (2, 0, 6)),   # no keys to attend to
    ], ids=["batch", "width", "length", "rank", "no-keys"])
    def test_shape_mismatch_raises(self, shapes):
        q, k, v = (T.Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(T.ShapeError):
            T.attention(q, k, v, 1.0)

    def test_constant_value_gets_no_gradient(self):
        rng = rng_for(10)
        q = T.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        k = T.Tensor(rng.standard_normal((2, 5, 4)), requires_grad=True)
        v = T.Tensor(rng.standard_normal((2, 5, 6)))
        out, _ = T.attention(q, k, v, 0.5)
        node = T.current_tape().nodes[-1]
        fn, parents = node.fn, node.parents   # the sweep releases both
        T.backward(T.reduce(out, kind="sum"))
        grads = fn(np.ones(out.shape))   # x, w and c of q, of k and of v
        assert grads[0].shape == q.shape and grads[3].shape == k.shape
        assert grads[1:3] + grads[4:] == [None] * 7
        assert parents == (q, None, None, k, None, None, None, None, None)
        assert v.grad is None

    def test_keeps_only_what_its_gradients_read(self):
        # gv = scoresᵀ g reads neither q, k nor v; with the value's weight the
        # only operand to differentiate, its source is all the node keeps
        rng = rng_for(15)
        q, k, xv = (T.Tensor(rng.standard_normal((2, 5, 4))) for _ in range(3))
        wv = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out, scores = T.attention(q, k, (xv, wv, None), 0.5)
        kept = {id(a) for a in reachable_arrays(out._node.fn)}
        T.backward(T.reduce(out, kind="sum"))
        assert id(xv.data) in kept and id(scores) in kept
        assert id(q.data) not in kept and id(k.data) not in kept and id(wv.data) not in kept

    def test_scores_are_read_only(self):
        q = T.Tensor(np.ones((2, 3)))
        _, scores = T.attention(q, q, q, 1.0)
        with pytest.raises(ValueError):
            scores[0, 0] = 0.0


def self_attention_run(arrays, needs, axis=-2):
    """Output, scores and the six operand gradients of `T.attention` of x to itself.

    ``arrays`` are x, wq, wk, wv, bq, bv; ``needs`` says which of them are
    ``requires_grad``. The loss weights the output by `loss_weights`.
    """
    ts = [T.Tensor(a, requires_grad=n) for a, n in zip(arrays, needs)]
    x, wq, wk, wv, bq, bv = ts
    out, scores = T.attention((x, wq, bq), (x, wk, None), (x, wv, bv),
                              1.0 / np.sqrt(x.shape[-1]), axis)
    if any(needs):
        T.backward(T.reduce(T.mul(out, T.Tensor(loss_weights(out.shape))), kind="sum"))
    return [out.data, scores] + [t.grad for t in ts]


def loss_weights(shape):
    return rng_for(12).standard_normal(shape)


def self_attention_oracle(arrays, axis=-2):
    """What `self_attention_run` returns with every gradient, computed in numpy.

    The projections (matmul), then attention, then their gradients, each
    product and sum in the op's order and grouping, on x with ``axis``
    moved to -2; the output and x's gradient are moved back.
    """
    x, wq, wk, wv, bq, bv = arrays
    g = loss_weights(x.shape[:-1] + wv.shape[1:])
    x, g = (np.ascontiguousarray(np.moveaxis(a, axis, -2)) for a in (x, g))
    c = 1.0 / np.sqrt(x.shape[-1])
    q, k, v = x @ wq + bq, x @ wk, x @ wv + bv
    p = q @ np.swapaxes(k, -1, -2) * c
    p = np.exp(p - p.max(axis=-1, keepdims=True))
    p = p / p.sum(axis=-1, keepdims=True)
    gv = np.swapaxes(p, -1, -2) @ g
    gs = g @ np.swapaxes(v, -1, -2)
    gs = (gs - (gs * p).sum(axis=-1, keepdims=True)) * p * c
    gq, gk = gs @ k, np.swapaxes(gs, -1, -2) @ q
    gx = gv @ wv.T.copy() + gk @ wk.T.copy() + gq @ wq.T.copy()

    def weight_grad(gy):
        return x.reshape(-1, x.shape[-1]).T @ gy.reshape(-1, gy.shape[-1])

    lead = tuple(range(x.ndim - 1))
    return [np.moveaxis(p @ v, -2, axis), p, np.moveaxis(gx, -2, axis),
            weight_grad(gq), weight_grad(gk), weight_grad(gv), gq.sum(axis=lead), gv.sum(axis=lead)]


def reachable_arrays(obj, found=None):
    """Every ndarray a gradient function reaches through closures, containers and tensors."""
    found = [] if found is None else found
    if isinstance(obj, np.ndarray):
        found.append(obj)
    elif isinstance(obj, T.Tensor):
        reachable_arrays(obj.data, found)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            reachable_arrays(item, found)
    elif callable(obj) and getattr(obj, "__closure__", None):
        for cell in obj.__closure__:
            reachable_arrays(cell.cell_contents, found)
    return found


class TestSelfAttention:
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(batch=st.lists(st.integers(1, 3), max_size=2), length=st.integers(1, 6),
                      d=st.integers(1, 6), d_k=st.integers(1, 6), d_v=st.integers(1, 6),
                      needs=st.lists(st.booleans(), min_size=6, max_size=6),
                      back=st.integers(2, 4))
    def test_equals_the_matmul_attention_chain(self, batch, length, d, d_k, d_v, needs, back):
        # byte for byte against the numpy oracle: the output, the scores and
        # every gradient, whichever operands need one, over any axis
        rng = rng_for(11)
        shapes = [tuple(batch) + (length, d), (d, d_k), (d, d_k), (d, d_v), (d_k,), (d_v,)]
        arrays = [rng.standard_normal(s) for s in shapes]
        axis = -min(back, len(shapes[0]))
        got = self_attention_run(arrays, needs, axis)
        ref = self_attention_oracle(arrays, axis)
        assert [g is not None for g in got[2:]] == needs
        for a, b in zip(got, ref):
            assert a is None or (a.shape == b.shape and a.tobytes() == b.tobytes())

    @pytest.mark.parametrize("shape", [(16, 12, 15, 32), (1, 12, 170, 32)],
                             ids=["desk-spatial", "pems-spatial"])
    def test_equals_the_chain_at_model_shapes(self, shape):
        # spatial attention as the model runs it: node-first x [N, B, m, d]
        # attended over axis 0
        rng = rng_for(13)
        d = shape[-1]
        arrays = [np.moveaxis(rng.standard_normal(shape), -2, 0).copy()]
        arrays += [rng.standard_normal(s) for s in ((d, d), (d, d), (d, d), (d,), (d,))]
        got = self_attention_run(arrays, [True] * 6, axis=0)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in self_attention_oracle(arrays, 0)]

    @pytest.mark.parametrize("shape", [(4, 2, 3, 5), (3, 3, 3, 5)], ids=["distinct", "N=B=m"])
    def test_addend_shared_across_the_attended_axis(self, shape):
        # attention over axis 0 of x [N, B, m, d] whose addends hold length 1
        # on the attended axis, [B, m, 1, d'], equals the same addends
        # broadcast to the full [B, m, N, d'] projections: the output, the
        # scores, and gradients that are the full addends' summed over N
        rng = rng_for(16)
        n, b, m, d = shape
        x = rng.standard_normal(shape)
        ws = [rng.standard_normal((d, w)) for w in (4, 4, 6)]
        cs = [rng.standard_normal((b, m, 1, w.shape[1])) for w in ws]

        def run(full):
            ts = [T.Tensor(a, requires_grad=True) for a in [x, *ws]]
            addends = [T.Tensor(np.broadcast_to(c, (b, m, n, c.shape[-1])) if full else c,
                                requires_grad=True) for c in cs]
            out, scores = T.attention(*((ts[0], w, c) for w, c in zip(ts[1:], addends)), 0.5, 0)
            T.backward(T.reduce(T.mul(out, T.Tensor(loss_weights(out.shape)))))
            return ([out.data, scores] + [t.grad for t in ts]
                    + [c.grad.sum(axis=-2, keepdims=True) if full else c.grad for c in addends])

        for got, ref in zip(run(False), run(True)):
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    def test_gradient_function_keeps_x_and_no_projection(self):
        # q, k and v are recomputed in backward, and x is moved to the
        # attended layout again there: of the arrays the node's gradient
        # function reaches, only x is as large as a projection
        rng = rng_for(14)
        for axis in (-2, 0):
            x = T.Tensor(rng.standard_normal((16, 12, 15, 32)), requires_grad=True)
            wq, wk, wv, bq, bv = (T.Tensor(rng.standard_normal(s), requires_grad=True)
                                  for s in ((32, 32), (32, 32), (32, 32), (32,), (32,)))
            out, _ = T.attention((x, wq, bq), (x, wk, None), (x, wv, bv), 0.25, axis)
            large = {id(a): a for a in reachable_arrays(out._node.fn) if a.size >= x.size}
            T.backward(T.reduce(out, kind="sum"))
            assert list(large) == [id(x.data)]

    def test_peaks_in_multiples_of_x(self):
        # spatial attention at the desk shape, x [N, B, m, d] over axis 0,
        # every weight and both biases live. Forward drops q and k once the
        # scores have read them: 4.1 x.nbytes traced with its output (5.5
        # with both kept to the end). Backward holds one operand's projection
        # and gradient at a time: 4.5 (7.5 with every projection's gradient
        # alive at once)
        rng = rng_for(15)
        x = T.Tensor(rng.standard_normal((15, 16, 12, 32)), requires_grad=True)
        wq, wk, wv, bq, bv = (T.Tensor(rng.standard_normal(s), requires_grad=True)
                              for s in ((32, 32), (32, 32), (32, 32), (32,), (32,)))
        tracemalloc.start()
        try:
            out, _ = T.attention((x, wq, bq), (x, wk, None), (x, wv, bv), 0.25, axis=0)
            forward_peak = tracemalloc.get_traced_memory()[1]
            loss = T.reduce(out)
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            T.backward(loss)
            backward_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert forward_peak <= 4.1 * x.data.nbytes
        assert backward_peak <= 4.6 * x.data.nbytes

    @pytest.mark.parametrize("shapes", [
        ((2, 3, 4), (4, 5), (4, 6), (4, 6), (5,), (6,)),     # query and key widths differ
        ((2, 3, 4), (3, 5), (3, 5), (3, 6), (5,), (6,)),     # weights do not take x's width
        ((2, 3, 4), (4, 5), (4, 5), (4, 6), (6,), (6,)),     # query bias of the value width
        ((2, 3, 4), (4, 5), (4, 5), (4, 6), (5,), (4, 6)),   # a value bias that is no suffix
        ((2, 0, 4), (4, 5), (4, 5), (4, 6), (5,), (6,)),     # no positions to attend to
        ((4,), (4, 5), (4, 5), (4, 6), (5,), (6,)),          # x without a length axis
    ], ids=["key-width", "input-width", "query-bias", "value-bias", "no-keys", "rank"])
    def test_shape_mismatch_raises(self, shapes):
        x, wq, wk, wv, bq, bv = (T.Tensor(np.zeros(s)) for s in shapes)
        with pytest.raises(T.ShapeError, match="attention: "):
            T.attention((x, wq, bq), (x, wk, None), (x, wv, bv), 1.0)


# --------------------------------------------------------------------------
# elementwise / shape ops
# --------------------------------------------------------------------------


class TestElementwise:
    def test_relu(self):
        out = T.relu(T.Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_permute_involution(self):
        rng = rng_for(3)
        x = T.Tensor(rng.standard_normal((2, 3, 4)))
        back = T.permute(T.permute(x, (2, 0, 1)), (1, 2, 0))
        assert np.array_equal(back.data, x.data)

    def test_permute_gradient_of_a_0d_tensor_is_0d(self):
        # np.ascontiguousarray returns at least 1-d, which once gave shape (1,)
        x = T.Tensor(2.0, requires_grad=True)
        T.backward(T.reduce(T.permute(x, ())))
        assert x.grad.shape == () and x.grad == 1.0

    def test_reduce_sum_axis(self):
        out = T.reduce(T.Tensor(np.ones((3, 4))), axis=1, kind="sum")
        assert np.array_equal(out.data, [4.0, 4.0, 4.0])

    def test_reduce_takes_a_numpy_integer_axis(self):
        out = T.reduce(T.Tensor(np.ones((3, 4))), axis=np.int64(-1))
        assert np.array_equal(out.data, [4.0, 4.0, 4.0])

    def test_reduce_mean_all(self):
        out = T.reduce(T.Tensor([[2.0, 4.0], [6.0, 8.0]]), kind="mean")
        assert out.item() == 5.0

    @pytest.mark.parametrize("axis", [3, -5, (0, 0), (1, -1)],
                             ids=["past-the-end", "before-the-start", "repeated", "aliased"])
    def test_reduce_rejects_a_bad_axis(self, axis):
        # an out-of-range axis once wrapped around, and a repeated one hit numpy
        x = T.Tensor(np.arange(6.0).reshape(2, 3))
        with pytest.raises(T.ShapeError, match=re.escape(f"reduce: axis {axis} invalid for "
                                                         "shape (2, 3)")):
            T.reduce(x, axis=axis)

    def test_reduce_mean_over_no_elements_raises(self):
        with pytest.raises(T.ShapeError, match="reduce: mean over no elements"):
            T.reduce(T.Tensor(np.zeros((2, 0))), axis=1, kind="mean")

    def test_shape_mismatch_raises(self):
        with pytest.raises(T.ShapeError):
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 4))))

    def test_suffix_broadcast_bias(self):
        x = T.Tensor(np.ones((2, 3, 4)))
        b = T.Tensor(np.arange(4.0))
        out = T.add(x, b)
        assert out.shape == (2, 3, 4)
        assert np.array_equal(out.data[0, 0], 1.0 + np.arange(4.0))

    def test_mid_axis_broadcast_rejected(self):
        # only trailing-suffix broadcasting is supported
        with pytest.raises(T.ShapeError):
            T.add(T.Tensor(np.zeros((2, 1, 4))), T.Tensor(np.zeros((2, 3, 4))))

    def test_reshape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.reshape(T.Tensor(np.zeros((2, 3))), (4, 2))

    @pytest.mark.parametrize("in_shape,shape", [((2, 3), (-1, -6)), ((0,), (0, -1))],
                             ids=["product-matches", "empty"])
    def test_reshape_rejects_negative_dims(self, in_shape, shape):
        with pytest.raises(T.ShapeError, match="reshape: cannot view"):
            T.reshape(T.Tensor(np.zeros(in_shape)), shape)


class TestStorage:
    def test_constructor_copies_caller_array(self):
        a = np.arange(3.0)
        t = T.Tensor(a)
        a[0] = 9.0
        assert not np.shares_memory(a, t.data)
        assert t.data[0] == 0.0

    def test_reshape_output_is_a_view(self):
        x = T.Tensor(np.arange(6.0))
        assert np.shares_memory(T.reshape(x, (2, 3)).data, x.data)

    def test_strided_results_stored_row_major(self):
        x = T.Tensor(np.arange(24.0).reshape(2, 3, 4))
        assert T.permute(x, (2, 0, 1)).data.flags.c_contiguous

    @pytest.mark.parametrize("op", [
        T.matmul, T.mul,
        pytest.param(lambda const, w: T.matmul(w, w, const), id="matmul-addend"),
    ])
    def test_constant_operand_gets_no_gradient(self, op):
        rng = rng_for(12)
        const = T.Tensor(rng.standard_normal((3, 3)))
        w = T.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        y = op(const, w)
        node = T.current_tape().nodes[-1]
        fn, parents = node.fn, node.parents   # the sweep releases both
        T.backward(T.reduce(y, kind="sum"))
        grads = fn(np.ones(y.shape))
        assert len(grads) == len(parents) and parents.count(None) == 1
        for p, g in zip(parents, grads):   # a constant's parent is None, w's is w
            assert (g is None) == (p is None) and p in (None, w)
        assert const.grad is None


# --------------------------------------------------------------------------
# convolution over time, composed from gather_rows and matmul
# --------------------------------------------------------------------------


class TestConvTime:
    """The m != n query/key alignment: a valid correlation over time (im2col)."""

    def test_hand_case(self):
        x = T.Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3, 1))
        k = T.Tensor(np.array([1.0, 1.0]).reshape(2, 1))
        out = _align(x, k)
        assert np.array_equal(out.data.ravel(), [3.0, 5.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_sliding_window_oracle(self, seed):
        rng = rng_for(300 + seed)
        b, t, n_nodes, ci, co, w = 2, 7, 2, 3, 2, 3
        x = np.moveaxis(rng.standard_normal((b, t, n_nodes, ci)), 2, 0)   # [N, B, L, C]
        k = rng.standard_normal((w, ci, co))
        expected = np.zeros((n_nodes, b, t - w + 1, co))
        for bi in range(b):
            for v in range(n_nodes):
                for s in range(t - w + 1):
                    for d in range(co):
                        for j in range(w):
                            for c in range(ci):
                                expected[v, bi, s, d] += x[v, bi, s + j, c] * k[j, c, d]
        got = _align(T.Tensor(x), T.Tensor(k.reshape(w * ci, co))).data   # [w*C, C_out]
        assert np.max(np.abs(got - expected)) < 1e-12


# --------------------------------------------------------------------------
# backward semantics
# --------------------------------------------------------------------------


class TestBackward:
    def test_sum_gives_ones(self):
        x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        T.backward(T.reduce(x, kind="sum"))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares_gives_2x(self):
        rng = rng_for(5)
        data = rng.standard_normal((3, 3))
        x = T.Tensor(data, requires_grad=True)
        T.backward(T.reduce(T.mul(x, x), kind="sum"))
        assert np.allclose(x.grad, 2 * data, atol=1e-14)

    def test_add_passes_grad_through_exactly(self):
        rng = rng_for(6)
        a = T.Tensor(rng.standard_normal(4), requires_grad=True)
        b = T.Tensor(rng.standard_normal(4), requires_grad=True)
        y = T.add(a, b)
        weights = T.Tensor(rng.standard_normal(4))
        T.backward(T.reduce(T.mul(y, weights), kind="sum"))
        assert np.array_equal(a.grad, weights.data)
        assert np.array_equal(b.grad, weights.data)

    def test_fanout_accumulates(self):
        x = T.Tensor([3.0], requires_grad=True)
        y = T.add(x, x)  # dy/dx = 2
        T.backward(T.reduce(y, kind="sum"))
        assert np.array_equal(x.grad, [2.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        T.backward(T.reduce(x, kind="sum"))
        T.backward(T.reduce(x, kind="sum"))
        assert np.array_equal(x.grad, [2.0, 2.0])

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        y = T.mul(x, x)
        with pytest.raises(T.ShapeError, match="scalar"):
            T.backward(y)

    def test_non_participating_tensor_untouched(self):
        x = T.Tensor([1.0], requires_grad=True)
        bystander = T.Tensor([5.0], requires_grad=True)
        T.backward(T.reduce(T.mul(x, x), kind="sum"))
        assert bystander.grad is None

    def test_tape_discarded_after_backward(self):
        x = T.Tensor([1.0], requires_grad=True)
        T.backward(T.reduce(x, kind="sum"))
        assert T.current_tape() is None

    def test_gradient_function_that_raises_leaves_no_tape(self):
        x = T.Tensor([1.0, 2.0], requires_grad=True)
        h = T.mul(x, T.Tensor(2.0))
        y = T.mul(h, T.Tensor(2.0))

        def broken(g):
            raise FloatingPointError("broken gradient")

        T.current_tape().nodes[-1].fn = broken
        with pytest.raises(FloatingPointError, match="broken gradient"):
            T.backward(T.reduce(y, kind="sum"))
        assert T.current_tape() is None
        # the failing node and the one the sweep never reached are both
        # released, so h and y are constants to a later pass
        assert h._node.fn is None and y._node.fn is None

    def test_sweep_frees_each_node_behind_it(self):
        # the output of the op that feeds the loss is needed by no earlier
        # node, so it is gone before the first node's gradient runs
        x = T.Tensor(rng_for(40).standard_normal((4, 4)), requires_grad=True)
        h = T.mul(x, T.Tensor(2.0))
        first = T.current_tape().nodes[-1]
        y = T.mul(h, h)
        loss = T.reduce(y, kind="sum")
        out = weakref.ref(y.data)
        del y
        seen = []
        first_fn = first.fn

        def spy(g):
            seen.append(out() is None)
            return first_fn(g)

        first.fn = spy
        del first
        T.backward(loss)
        assert seen == [True]
        assert np.allclose(x.grad, 8.0 * x.data)   # d/dx sum((2x)^2)

    def test_no_grad_records_nothing(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert y._node is None
        with pytest.raises(ValueError):
            T.backward(T.reduce(y, kind="sum"))

    def test_an_addend_dies_when_its_consumer_records(self):
        # no gradient reads the inner product, only its shape: once the outer
        # matmul has added it, nothing holds it, though the tape is still live
        rng = rng_for(41)
        x, w, r = (T.Tensor(rng.standard_normal(s), requires_grad=True)
                   for s in ((4, 3), (3, 5), (3, 5)))
        start = len(T.current_tape() or ())   # earlier tests may leave a tape unreplayed
        y = T.matmul(x, w, T.matmul(x, r))
        inner, outer = T.current_tape().nodes[start:]
        assert inner.out.data.size == 0 and inner.shape == (4, 5)
        assert outer.out.data is y.data
        g = rng.standard_normal((4, 5))
        T.backward(T.reduce(T.mul(y, T.Tensor(g))))
        assert x.grad.tobytes() == (g @ np.ascontiguousarray(w.data.T)
                                    + g @ np.ascontiguousarray(r.data.T)).tobytes()
        assert w.grad.tobytes() == r.grad.tobytes() == (x.data.T @ g).tobytes()

    @pytest.mark.parametrize("finish", ["backward", "drop_tape"])
    def test_an_output_of_a_finished_pass_is_a_constant(self, finish):
        rng = rng_for(42)
        x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        h = T.matmul(x, w)
        if finish == "backward":
            T.backward(T.reduce(h))
        else:
            T.drop_tape()
        v = T.Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        grads = []
        for operand in (h, T.Tensor(h.data)):
            T.zero_grads([x, w, v])
            y = T.matmul(operand, v)
            assert T.current_tape().nodes[-1].parents == (None, v)
            T.backward(T.reduce(T.mul(y, y)))
            assert x.grad is None and w.grad is None
            grads.append(v.grad.tobytes())
        assert grads[0] == grads[1]


def out_of_place_backward(loss, accumulate=np.add):
    """Reference sweep: every fan-in is ``accumulate(prev, ig)``, by default a fresh sum."""
    grads = {loss._node: np.ones_like(loss.data)}
    try:
        for node in reversed(T.current_tape().nodes):
            g = grads.get(node)
            if g is None:
                continue
            for p, ig in zip(node.parents, node.fn(g)):
                if p is not None and ig is not None:
                    grads[p] = accumulate(grads[p], ig) if p in grads else ig
    finally:
        T.drop_tape()
    for p, g in grads.items():
        if isinstance(p, T.Tensor):   # a leaf; the other keys are nodes
            p.grad = g if p.grad is None else p.grad + g


def test_fan_in_check_catches_a_sweep_that_writes_shared_gradients(monkeypatch):
    def writes_in_place(loss):
        out_of_place_backward(loss, lambda prev, ig: np.add(prev, ig, out=prev))

    assert checks.check_fan_in() <= checks.GRAD_TOLERANCE
    monkeypatch.setattr(T, "backward", writes_in_place)
    assert checks.check_fan_in() > checks.GRAD_TOLERANCE


# how one shared tensor `base` [p, q] reaches a consumer: the gradient each hands
# back is g itself, a view of g, a read-only broadcast or a fresh array
FAN_IN_BASES = ["leaf", "mul-const", "mul", "add-reshape"]
FAN_IN_CONSUMERS = ["add-self", "add-leaf", "reshape", "addend", "addend-shared", "reduce",
                    "permute", "gather", "attention", "mul-const"]


def fan_in_graph(base_kind, consumers, arrays):
    """Loss over 2-4 consumers of one tensor; returns (loss, leaves, tensors, scores)."""
    x, y, a = (T.Tensor(arrays[n], requires_grad=True) for n in ("x", "y", "a"))
    p, q = x.shape
    base = {"leaf": lambda: x,
            "mul-const": lambda: T.mul(x, T.Tensor(1.5)),
            "mul": lambda: T.mul(x, y),
            "add-reshape": lambda: T.reshape(T.reshape(T.add(x, y), (q, p)), (p, q))}[base_kind]()
    tensors, scores, loss = [x, y, a, base], [], None
    for i, (kind, weighted) in enumerate(consumers):
        if kind == "add-self":
            out = T.add(base, base)
        elif kind == "add-leaf":
            out = T.add(base, y)
        elif kind == "reshape":
            out = T.reshape(base, (q, p))
        elif kind == "addend":
            out = T.matmul(a, T.Tensor(arrays["b"]), base)
        elif kind == "addend-shared":   # base gets, once, the g that add hands y too
            out = T.add(T.matmul(T.Tensor(arrays["a"]), T.Tensor(arrays["b"]), base), y)
        elif kind == "reduce":
            out = T.reduce(base, axis=0)
        elif kind == "permute":
            out = T.permute(base, (1, 0))
        elif kind == "gather":
            out = T.gather_rows(base, arrays["rows"])
        elif kind == "attention":
            out, s = T.attention(base, base, base, 0.5)
            scores.append((s, s.copy()))
        else:
            out = T.mul(base, T.Tensor(-2.0))
        tensors.append(out)
        if weighted:
            tensors.append(T.Tensor(rng_for(i).standard_normal(out.shape)))
            out = T.mul(out, tensors[-1])
        term = T.reduce(out, kind="sum")
        loss = term if loss is None else T.add(loss, term)
    return loss, (x, y, a), tensors, scores


class TestFanInAccumulation:
    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(data=st.data())
    def test_grads_equal_out_of_place_sweep(self, data):
        base_kind = data.draw(st.sampled_from(FAN_IN_BASES))
        consumers = data.draw(st.lists(st.tuples(st.sampled_from(FAN_IN_CONSUMERS), st.booleans()),
                                       min_size=2, max_size=4))
        p, q, r = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        rng = rng_for(data.draw(st.integers(0, 2**32 - 1)))
        arrays = {"x": rng.standard_normal((p, q)), "y": rng.standard_normal((p, q)),
                  "a": rng.standard_normal((p, r)), "b": rng.standard_normal((r, q)),
                  "rows": rng.integers(0, p, (3, 2))}
        prior = rng.standard_normal((p, q)) if data.draw(st.booleans()) else None
        T.drop_tape()

        loss, leaves, tensors, scores = fan_in_graph(base_kind, consumers, arrays)
        if prior is not None:
            leaves[0].grad = prior
        before = [t.data.tobytes() for t in tensors]
        prior_bytes = None if prior is None else prior.tobytes()
        T.backward(loss)
        assert [t.data.tobytes() for t in tensors] == before   # leaves, outputs, operands
        for s, kept in scores:
            assert s.tobytes() == kept.tobytes()
        if prior is not None:
            assert prior.tobytes() == prior_bytes                # leaf .grad is not written

        ref_loss, ref_leaves, _, _ = fan_in_graph(base_kind, consumers, arrays)
        if prior is not None:
            ref_leaves[0].grad = prior.copy()
        out_of_place_backward(ref_loss)
        for got, ref in zip(leaves, ref_leaves):
            assert (got.grad is None) == (ref.grad is None)
            if got.grad is not None:
                assert got.grad.tobytes() == ref.grad.tobytes()

    def test_array_returned_twice_is_not_owned(self):
        # a gradient function may hand one fresh array to two inputs; x's
        # second arrival must then leave y's gradient as it is
        x = T.Tensor(np.ones(3), requires_grad=True)
        y = T.Tensor(np.ones(3), requires_grad=True)
        x2 = T.mul(x, T.Tensor(2.0))
        s = T.add(x, y)

        def twice(g):
            buf = g + 0.0
            return buf, buf

        T.current_tape().nodes[-1].fn = twice
        T.backward(T.add(T.reduce(s, kind="sum"), T.reduce(x2, kind="sum")))
        assert np.array_equal(x.grad, [3.0, 3.0, 3.0])
        assert np.array_equal(y.grad, [1.0, 1.0, 1.0])


# an op saves only the operands the gradients it must compute read; each case
# is (op, operand shapes), with the broadcasts each op allows
CONSTANT_PATTERN_CASES = {
    "matmul": (T.matmul, [(2, 3, 4), (4, 5)]),
    "matmul-batched-b": (T.matmul, [(3, 4), (2, 4, 5)]),
    "matmul-addend": (T.matmul, [(2, 3, 4), (4, 5), (5,)]),
    "matmul-full-addend": (T.matmul, [(2, 3, 4), (2, 4, 5), (2, 3, 5)]),
    "mul": (T.mul, [(2, 3, 4), (4,)]),
    "add": (T.add, [(3, 4), (2, 3, 4)]),
    "attention": (lambda q, k, v: T.attention(q, k, v, 0.5)[0], [(2, 3, 4), (2, 5, 4), (2, 5, 6)]),
}


@pytest.mark.parametrize("case", CONSTANT_PATTERN_CASES)
def test_constant_operands_leave_the_other_gradients_unchanged(case):
    op, shapes = CONSTANT_PATTERN_CASES[case]
    rng = rng_for(43)
    arrays = [rng.standard_normal(s) for s in shapes]

    def grads(constant):
        operands = [T.Tensor(a, requires_grad=i not in constant) for i, a in enumerate(arrays)]
        y = op(*operands)
        T.backward(T.reduce(T.mul(y, T.Tensor(np.linspace(-1.0, 2.0, y.size).reshape(y.shape)))))
        return [None if t.grad is None else t.grad.tobytes() for t in operands]

    every = range(len(arrays))
    variable = grads(())
    for n_const in range(1, len(arrays)):
        for constant in itertools.combinations(every, n_const):
            assert grads(constant) == [None if i in constant else variable[i] for i in every]


# --------------------------------------------------------------------------
# gradient_check harness
# --------------------------------------------------------------------------


class TestGradientCheck:
    def test_sum_is_exact(self):
        x = T.Tensor(rng_for(7).standard_normal(5))
        err = T.gradient_check(lambda t: T.reduce(t, kind="sum"), x)
        assert err < 1e-10

    def test_constant_function_softmax(self):
        # sum(softmax(x)) == 1 identically; analytic grad is zero to rounding.
        # Input pinned to a point where the perturbed evaluations round
        # identically, so the central difference is exactly zero as well.
        x = T.Tensor(rng_for(2).standard_normal(5))

        def f(t):
            return T.reduce(softmax(t), kind="sum")

        err = T.gradient_check(f, x)
        assert err < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_constant_function_analytic_grad_is_zero(self, seed):
        x = T.Tensor(rng_for(seed).standard_normal(5), requires_grad=True)
        y = T.reduce(softmax(x), kind="sum")
        T.backward(y)
        assert np.max(np.abs(x.grad)) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_composite_chain(self, seed):
        rng = rng_for(400 + seed)
        w = rng.standard_normal((4, 3))
        c = rng.standard_normal((2, 3))
        x = T.Tensor(rng.standard_normal((2, 4)))

        def f(t):
            h = T.relu(T.matmul(t, T.Tensor(w)))
            return T.reduce(T.mul(softmax(h), T.Tensor(c)), kind="sum")

        assert T.gradient_check(f, x) <= 1e-4

    def test_nondeterministic_f_detected(self):
        state = {"count": 0}

        def f(t):
            state["count"] += 1
            return T.reduce(T.mul(t, T.Tensor(float(state["count"]))), kind="sum")

        with pytest.raises(ValueError, match="non-deterministic"):
            T.gradient_check(f, T.Tensor([1.0]))

    def test_pass_that_raises_leaves_no_tape(self):
        x = T.Tensor([1.0, 2.0])
        calls = []

        def f(t):
            y = T.reduce(T.mul(t, T.Tensor(2.0)), kind="sum")
            calls.append(1)
            if len(calls) == 3:   # the differentiated pass, after it recorded its ops
                raise RuntimeError("pass failed")
            return y

        with pytest.raises(RuntimeError, match="pass failed"):
            T.gradient_check(f, x)
        assert T.current_tape() is None
        assert not x.requires_grad and x.grad is None

    def test_elements_subset(self):
        x = T.Tensor(rng_for(8).standard_normal(10))
        err = T.gradient_check(lambda t: T.reduce(T.mul(t, t), kind="sum"), x,
                               elements=[0, 3, 7])
        assert err <= 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_every_op_passes_gradient_check(seed):
    # core differentiable ops against central differences, fresh inputs per seed
    rng = rng_for(500 + seed)
    a = T.Tensor(rng.standard_normal((3, 4)))
    b = T.Tensor(rng.standard_normal((4, 3)))
    c = T.Tensor(rng.standard_normal((3, 4)) + 3.0)
    rows = rng.integers(0, 3, (2, 3))
    w_mm = rng.standard_normal((3, 3))
    w_el = rng.standard_normal((3, 4))
    w_g = rng.standard_normal((2, 3, 4))

    cases = [
        (lambda t: T.reduce(T.mul(T.matmul(t, b), T.Tensor(w_mm)), kind="sum"), a),
        (lambda t: T.reduce(T.mul(softmax(t), T.Tensor(w_el)), kind="sum"), a),
        (lambda t: T.reduce(T.mul(T.add(t, c), T.Tensor(w_el)), kind="sum"), a),
        (lambda t: T.reduce(T.mul(T.gather_rows(t, rows), T.Tensor(w_g)), kind="sum"), a),
        (lambda t: T.reduce(T.mul(T.permute(T.reshape(t, (4, 3)), (1, 0)),
                                  T.Tensor(w_el)), kind="sum"), a),
    ]
    for f, x in cases:
        assert T.gradient_check(f, x) <= 1e-4


def test_gather_rows_accumulates_repeats():
    table = T.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    out = T.gather_rows(table, np.array([1, 1, 2]))
    assert np.array_equal(out.data, [[2.0, 3.0], [2.0, 3.0], [4.0, 5.0]])
    T.backward(T.reduce(out, kind="sum"))
    assert np.array_equal(table.grad, [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]])


@pytest.mark.parametrize("table_shape,indices", [
    ((6, 4), [[0, 5, 5], [2, 5, 0], [5, 5, 5]]),            # repeated rows
    ((3, 2, 5), np.array(1)),                               # 0-d: one row, no index axis
    ((7, 3, 2), [[[6, 0], [6, 6]], [[1, 6], [0, 0]]]),       # a 3-D table under 3-D indices
    ((1449, 8), [[[30, 1443, 1447]] * 4] * 3),               # the calendar rows of a repeated clock
], ids=["repeats", "0d-index", "3d-table", "calendar"])
def test_gather_rows_gradient_bytes_match_add_at(table_shape, indices):
    # the scatter sums each element's contributions in index order, as np.add.at does
    rng = rng_for(60)
    idx = np.asarray(indices)
    table = T.Tensor(rng.standard_normal(table_shape), requires_grad=True)
    magnitude = 10.0 ** rng.integers(-8, 8, idx.shape + table_shape[1:])   # order-sensitive sums
    g = rng.standard_normal(magnitude.shape) * magnitude
    out = T.gather_rows(table, idx)
    T.backward(T.reduce(T.mul(out, T.Tensor(g)), kind="sum"))
    ref = np.zeros(table_shape)
    np.add.at(ref, idx, g)
    assert table.grad.tobytes() == ref.tobytes()


def test_gather_rows_bounds_checked():
    with pytest.raises(ValueError, match="out of range"):
        T.gather_rows(T.Tensor(np.zeros((3, 2))), np.array([3]))


@pytest.mark.parametrize("table_shape,indices", [
    ((6, 4), [[0, 5, 5], [2, 5, 0]]),
    ((3, 2, 5), np.array(1)),
], ids=["repeats", "0d-index"])
def test_gather_rows_gradient_is_a_fresh_buffer(table_shape, indices):
    # no base: `backward` owns it and sums a later gradient into it in place
    table = T.Tensor(np.ones(table_shape), requires_grad=True)
    out = T.gather_rows(table, np.asarray(indices))
    (grad,) = T.current_tape().nodes[-1].fn(np.ones(out.shape))
    T.drop_tape()
    assert grad.base is None and grad.shape == table_shape


def test_gather_rows_rejects_a_0d_table():
    with pytest.raises(T.ShapeError, match="gather_rows: a 0-d table"):
        T.gather_rows(T.Tensor(2.0), np.array([0]))


# --------------------------------------------------------------------------
# shape contracts
# --------------------------------------------------------------------------

SHAPES = st.lists(st.integers(0, 3), max_size=4).map(tuple)


def draw_op_call(draw, op):
    """Operands for ``op`` drawn near its shape contract: (call, numpy oracle of the result).

    Every operand is a ``requires_grad`` leaf, so a call that returns
    records a node whose parents are its operands.
    """
    rng = rng_for(70)

    def arr(shape):
        return T.Tensor(rng.standard_normal(shape), requires_grad=True)

    if op == "matmul":   # the factor contract: >= 2-D, inner dims, equal or one 2-D batch
        batch = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
        p, q, r = (draw(st.integers(0, 3)) for _ in range(3))
        shared = draw(st.sampled_from(["none", "a", "b"]))   # the 2-D operand, if any
        shapes = [(p, q) if shared == "a" else batch + (p, q),
                  (q, r) if shared == "b" else batch + (q, r)]
        if draw(st.booleans()):   # break the contract, or keep it by chance
            shapes[draw(st.integers(0, 1))] = draw(SHAPES)
        a, b = map(arr, shapes)
        return lambda: T.matmul(a, b), lambda: np.matmul(a.data, b.data)
    a = arr(draw(SHAPES))
    x = a.data
    if op == "relu":
        return lambda: T.relu(a), lambda: np.maximum(x, 0.0)
    if op in ("add", "mul"):
        keep = draw(st.integers(0, x.ndim))
        b = arr(draw(st.one_of(st.just(x.shape[x.ndim - keep:]), SHAPES)))  # a suffix, or not
        oracle = {"add": np.add, "mul": np.multiply}[op]
        return lambda: getattr(T, op)(a, b), lambda: oracle(x, b.data)
    if op == "reduce":
        ax = st.integers(-5, 4)
        axis = draw(st.one_of(st.none(), ax, ax.map(np.int64),
                              st.lists(ax, max_size=3).map(tuple)))
        kind = draw(st.sampled_from(["sum", "mean"]))
        return lambda: T.reduce(a, axis, kind), lambda: getattr(np, kind)(x, axis=axis)
    if op == "permute":
        axes = draw(st.one_of(st.permutations(range(x.ndim)),
                              st.lists(st.integers(-1, 4), max_size=5)))
        return lambda: T.permute(a, axes), lambda: np.transpose(x, axes)
    if op == "reshape":
        shape = draw(st.one_of(st.just((x.size,)), st.just(x.shape[::-1]),
                               st.lists(st.integers(-1, 6), max_size=4).map(tuple)))
        return lambda: T.reshape(a, shape), lambda: x.reshape(shape)
    if op == "gather_rows":
        index = st.integers(-2, 4)
        rows = draw(st.one_of(index, st.lists(index, max_size=4),
                              st.lists(st.lists(index, min_size=2, max_size=2),
                                       min_size=1, max_size=3)))
        dtype = draw(st.sampled_from([np.int64, np.uint8, np.float64]))
        idx = np.asarray(rows, dtype=np.int64).astype(dtype)   # uint8 wraps -1 to 255
        return lambda: T.gather_rows(a, idx), lambda: x[idx]
    # attention: each operand bare or a source triple, missing w or c at random
    batch = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    lq, lk, d, dv = (draw(st.integers(0, 3)) for _ in range(4))
    axis = draw(st.integers(-len(batch) - 2, len(batch) + 1))   # or the last axis, -1
    shapes, parts = [], []
    for length, width in ((lq, d), (lk, d), (lk, dv)):
        form = draw(st.sampled_from(["x", "xw", "xc", "xwc"]))
        proj = batch + (length, width)   # in the attended layout
        src = list(proj)
        src.insert(axis % len(proj), src.pop(-2))
        if "w" in form:
            src[-1] = draw(st.integers(0, 3))
            shapes.append(tuple(src))
            shapes.append((src[-1], width))
        else:
            shapes.append(tuple(src))
        if "c" in form:
            shapes.append(proj[len(proj) - draw(st.integers(0, len(proj))):])
        parts.append(form)
    if draw(st.booleans()):   # break the contract, or keep it by chance
        shapes[draw(st.integers(0, len(shapes) - 1))] = draw(SHAPES)
    leaves = iter([arr(shape) for shape in shapes])
    ops = [{t: next(leaves) if t in form else None for t in "xwc"} for form in parts]
    return (lambda: T.attention(*((o["x"], o["w"], o["c"]) for o in ops), 1.0, axis)[0],
            lambda: attention_oracle(*ops, axis=axis))


def attention_oracle(*ops, axis=-2):
    """Attention of the projections of source triples given as dicts of x, w and c, in numpy."""
    def project(x, w, c):
        y = np.moveaxis(x.data, axis, -2)
        y = y if w is None else y @ w.data
        return y if c is None else y + c.data

    q, k, v = (project(o["x"], o["w"], o["c"]) for o in ops)
    s = np.matmul(q, np.swapaxes(k, -1, -2))
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return np.moveaxis(np.matmul(e / e.sum(axis=-1, keepdims=True), v), -2, axis)


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(op=st.sampled_from(["matmul", "add", "mul", "relu", "reduce", "permute",
                                      "reshape", "gather_rows", "attention"]),
                  data=st.data())
def test_op_shape_contracts_fuzz(op, data):
    # an op returns numpy's result or raises a typed error that starts with
    # its name: never an IndexError, a numpy AxisError (an IndexError too)
    # or a numpy broadcast error; and backward through what it returns
    # gives every operand a finite gradient of the operand's shape
    call, oracle = draw_op_call(data.draw, op)
    try:
        out = call()
    except (TypeError, ValueError) as exc:
        assert not isinstance(exc, IndexError)
        assert str(exc).startswith((f"{op}: ", f"{op} ")), exc
        return
    expected = oracle()
    assert out.shape == expected.shape
    np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)
    operands = [t for t in out._node.parents if t is not None]   # the sweep releases them
    T.backward(T.reduce(T.mul(out, T.Tensor(rng_for(71).standard_normal(out.shape)))))
    for t in operands:
        assert t.grad.shape == t.shape and np.isfinite(t.grad).all()


# --------------------------------------------------------------------------
# gradient properties
# --------------------------------------------------------------------------

DIMS = st.integers(1, 3)
GRAD_OPS = sorted(set(T.__all__) - T.NOT_OPS)


def draw_grad_case(draw, op):
    """A small call of ``op`` within its contract: (call of the operands, operand shapes).

    Each shape is at most 3 wide on every axis, so a finite-difference
    check of every operand element stays cheap.
    """
    batch = tuple(draw(st.lists(DIMS, max_size=2)))
    if op == "matmul":   # batched or one shared 2-D factor, with an addend or none
        p, q, r = (draw(DIMS) for _ in range(3))
        shared = draw(st.sampled_from(["none", "a", "b"]))
        shapes = [(p, q) if shared == "a" else batch + (p, q),
                  (q, r) if shared == "b" else batch + (q, r)]
        out = batch + (p, r)
        if draw(st.booleans()):
            shapes.append(out[len(out) - draw(st.integers(1, len(out))):])
        return T.matmul, shapes
    if op == "attention":   # distinct or shared sources, a weight or an addend missing
        length, d_k, d_v = (draw(DIMS) for _ in range(3))
        nd = len(batch) + 2
        axis = draw(st.integers(0, nd - 2)) - draw(st.sampled_from([0, nd]))
        shapes, forms = [], []
        shared = draw(st.booleans())
        for i, (rows, width) in enumerate(((draw(DIMS), d_k), (length, d_k), (length, d_v))):
            rows = length if shared else rows
            form = "xwc" if shared else draw(st.sampled_from(["x", "xw", "xc", "xwc"]))
            proj = batch + (rows, width)
            src = list(proj)
            src.insert(axis % nd, src.pop(-2))
            if "w" in form:
                src[-1] = 2
            if not (shared and i):
                shapes.append(tuple(src))
            if "w" in form:
                shapes.append((2, width))
            if "c" in form:   # a [d_k] key addend has a gradient of rounding size
                shapes.append(proj[nd - draw(st.integers(1, nd)):])
            forms.append(form)

        def call(*operands):
            it = iter(operands)
            x = next(it) if shared else None
            srcs = [tuple((x if shared and t == "x" else next(it)) if t in form else None
                          for t in "xwc") for form in forms]
            return T.attention(*srcs, 0.7, axis)[0]

        return call, shapes
    if op in ("add", "mul"):
        a = batch + (draw(DIMS),)
        b = a[len(a) - draw(st.integers(0, len(a))):]
        return getattr(T, op), draw(st.permutations([a, b]))
    if op == "relu":
        return T.relu, [batch + (draw(DIMS),)]
    shape = batch + (draw(DIMS),)
    if op == "reduce":
        axes = draw(st.lists(st.integers(0, len(shape) - 1), unique=True, max_size=len(shape)))
        kind = draw(st.sampled_from(["sum", "mean"]))
        return (lambda x: T.reduce(x, tuple(axes) or None, kind)), [shape]
    if op == "permute":
        axes = draw(st.permutations(range(len(shape))))
        return (lambda x: T.permute(x, axes)), [shape]
    if op == "reshape":
        return (lambda x: T.reshape(x, shape[::-1])), [shape]
    # gather_rows: at least one index repeated
    rows = draw(st.lists(st.integers(0, shape[0] - 1), min_size=1, max_size=4))
    idx = np.array(rows + rows[:1])
    return (lambda x: T.gather_rows(x, idx)), [shape]


@pytest.mark.parametrize("op", GRAD_OPS)
@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(data=st.data())
def test_every_op_matches_central_differences(op, data):
    # every operand of every op, at small random shapes and inputs, against
    # central differences; ReLU inputs are kept away from its kink
    call, shapes = draw_grad_case(data.draw, op)
    rng = rng_for(80)
    operands = [T.Tensor(rng.standard_normal(s)) for s in shapes]
    if op == "relu":
        operands[0].data += np.copysign(0.1, operands[0].data)
    weights = T.Tensor(rng.standard_normal(call(*operands).shape))
    T.drop_tape()

    def loss_at(i):
        def f(t):
            return T.reduce(T.mul(call(*operands[:i], t, *operands[i + 1:]), weights))
        return f

    for i, t in enumerate(operands):
        assert T.gradient_check(loss_at(i), t) <= checks.GRAD_TOLERANCE, (i, shapes)


def test_every_op_has_a_registered_check():
    missing = set(T.__all__) - T.NOT_OPS - {name for name, _ in checks.registered_checks()}
    assert not missing


def test_every_op_is_called_by_the_model():
    # an op only the checks or the tests call is dead code
    called = set()
    for module in (model, graph):
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name):
                    called.add(f.id)
                elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "T":
                    called.add(f.attr)
    assert set(T.__all__) - T.NOT_OPS - called == set()


def test_no_function_takes_an_argument_it_never_reads():
    # every def and lambda of the package; a leading underscore declares a
    # parameter unused
    unread = []
    for path in sorted(Path(embsformer.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}:{fn.lineno} {getattr(fn, 'name', 'lambda')}({p.arg})"
                       for p in params if p.arg not in read and not p.arg.startswith("_")]
    assert unread == []

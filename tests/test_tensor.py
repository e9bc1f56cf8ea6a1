"""Tensor op semantics, backward correctness, and gradient-check harness."""

import numpy as np
import pytest

from embsformer import tensor as T


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


# --------------------------------------------------------------------------
# softmax
# --------------------------------------------------------------------------


class TestSoftmax:
    def test_uniform(self):
        out = T.softmax(T.Tensor([0.0, 0.0, 0.0]), axis=-1)
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_inputs_no_overflow(self):
        out = T.softmax(T.Tensor([1000.0, 1000.0]), axis=-1)
        assert np.allclose(out.data, [0.5, 0.5])
        assert np.all(np.isfinite(out.data))

    def test_exp_sum_oracle(self):
        rng = rng_for(2)
        x = rng.standard_normal(7)
        expected = np.exp(x) / np.exp(x).sum()
        got = T.softmax(T.Tensor(x), axis=-1).data
        assert np.max(np.abs(got - expected)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one_and_shift_invariant(self, seed):
        rng = rng_for(200 + seed)
        x = rng.standard_normal((4, 6)) * 5
        y = T.softmax(T.Tensor(x), axis=-1).data
        assert np.max(np.abs(y.sum(axis=-1) - 1.0)) < 1e-9
        shifted = T.softmax(T.Tensor(x + 123.456), axis=-1).data
        assert np.max(np.abs(y - shifted)) < 1e-9

    def test_bad_axis(self):
        with pytest.raises(T.ShapeError):
            T.softmax(T.Tensor([1.0, 2.0]), axis=3)


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

    def test_reduce_sum_axis(self):
        out = T.reduce(T.Tensor(np.ones((3, 4))), axis=1, kind="sum")
        assert np.array_equal(out.data, [4.0, 4.0, 4.0])

    def test_reduce_mean_all(self):
        out = T.reduce(T.Tensor([[2.0, 4.0], [6.0, 8.0]]), kind="mean")
        assert out.item() == 5.0

    def test_division_is_scalar_only(self):
        x = T.Tensor([1.0, 2.0])
        assert np.array_equal((x / 4).data, [0.25, 0.5])
        with pytest.raises(TypeError):
            x / T.Tensor([1.0, 2.0])

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

    def test_slice_axis(self):
        x = T.Tensor(np.arange(10.0).reshape(5, 2))
        out = T.slice_axis(x, 0, 1, 3)
        assert np.array_equal(out.data, [[2.0, 3.0], [4.0, 5.0]])

    def test_float32_storage_mode(self):
        x = T.Tensor([1.0, 2.0], dtype=np.float32)
        assert x.dtype == np.float32
        assert T.add(x, x).dtype == np.float32


# --------------------------------------------------------------------------
# conv_time
# --------------------------------------------------------------------------


class TestConvTime:
    def test_width1_identity_kernel(self):
        rng = rng_for(4)
        x = rng.standard_normal((2, 5, 3))
        kernel = np.eye(3)[None, :, :]
        out = T.conv_time(T.Tensor(x), T.Tensor(kernel))
        assert np.allclose(out.data, x, atol=1e-15)

    def test_hand_case(self):
        x = T.Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1))
        k = T.Tensor(np.array([1.0, 1.0]).reshape(2, 1, 1))
        out = T.conv_time(x, k)
        assert np.array_equal(out.data.ravel(), [3.0, 5.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_sliding_window_oracle(self, seed):
        rng = rng_for(300 + seed)
        b, t, ci, co, w = 2, 7, 3, 2, 3
        x = rng.standard_normal((b, t, ci))
        k = rng.standard_normal((w, ci, co))
        expected = np.zeros((b, t - w + 1, co))
        for bi in range(b):
            for s in range(t - w + 1):
                for d in range(co):
                    for j in range(w):
                        for c in range(ci):
                            expected[bi, s, d] += x[bi, s + j, c] * k[j, c, d]
        got = T.conv_time(T.Tensor(x), T.Tensor(k)).data
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_kernel_wider_than_sequence(self):
        with pytest.raises(T.ShapeError, match="width"):
            T.conv_time(T.Tensor(np.zeros((1, 2, 1))), T.Tensor(np.zeros((3, 1, 1))))


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

    def test_no_grad_records_nothing(self):
        x = T.Tensor([1.0], requires_grad=True)
        with T.no_grad():
            y = T.mul(x, x)
        assert not y._tracked
        with pytest.raises(ValueError):
            T.backward(T.reduce(y, kind="sum"))


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
            return T.reduce(T.softmax(t, axis=-1), kind="sum")

        err = T.gradient_check(f, x)
        assert err < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_constant_function_analytic_grad_is_zero(self, seed):
        x = T.Tensor(rng_for(seed).standard_normal(5), requires_grad=True)
        y = T.reduce(T.softmax(x, axis=-1), kind="sum")
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
            return T.reduce(T.mul(T.softmax(h, axis=-1), T.Tensor(c)), kind="sum")

        assert T.gradient_check(f, x) <= 1e-4

    def test_nondeterministic_f_detected(self):
        state = {"count": 0}

        def f(t):
            state["count"] += 1
            return T.reduce(T.scale(t, float(state["count"])), kind="sum")

        with pytest.raises(ValueError, match="non-deterministic"):
            T.gradient_check(f, T.Tensor([1.0]))

    def test_float32_rejected(self):
        with pytest.raises(TypeError):
            T.gradient_check(lambda t: T.reduce(t, kind="sum"),
                             T.Tensor([1.0], dtype=np.float32))

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
    conv_x = T.Tensor(rng.standard_normal((2, 6, 3)))
    conv_k = T.Tensor(rng.standard_normal((2, 3, 2)))
    w_mm = rng.standard_normal((3, 3))
    w_el = rng.standard_normal((3, 4))
    w_cv = rng.standard_normal((2, 5, 2))

    cases = [
        (lambda t: T.reduce(T.mul(T.matmul(t, b), T.Tensor(w_mm)), kind="sum"), a),
        (lambda t: T.reduce(T.mul(T.softmax(t, axis=-1), T.Tensor(w_el)), kind="sum"), a),
        (lambda t: T.reduce(T.mul(T.add(t, c), T.Tensor(w_el)), kind="sum"), a),
        (lambda t: T.reduce(T.mul(T.conv_time(t, conv_k), T.Tensor(w_cv)), kind="sum"), conv_x),
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


def test_gather_rows_bounds_checked():
    with pytest.raises(ValueError, match="out of range"):
        T.gather_rows(T.Tensor(np.zeros((3, 2))), np.array([3]))

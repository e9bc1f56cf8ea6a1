"""Spectral machinery: Laplacian, lambda_max, Chebyshev basis, graph conv."""

import numpy as np
import pytest

from embsformer import tensor as T
from embsformer.graph import (
    TrafficGraph,
    cheb_graph_conv,
    chebyshev_basis,
    estimate_lambda_max,
    normalized_laplacian,
)

PATH2 = TrafficGraph(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))


def random_graph(seed, n):
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < 0.4).astype(float)
    return TrafficGraph(adjacency=a)


def node_first(x):
    """[T, N, C] -> the node-first [N, T, C] that `cheb_graph_conv` takes."""
    return np.ascontiguousarray(np.moveaxis(x, 1, 0))


def chebyshev_scalar(k, x):
    """T_k at scalar points: cos form on [-1,1], cosh continuation outside.

    An estimated lambda_max can leave eigenvalues of the scaled Laplacian
    marginally outside [-1,1]; the polynomial is still well defined there.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    inside = np.abs(x) <= 1.0
    out[inside] = np.cos(k * np.arccos(x[inside]))
    xo = x[~inside]
    out[~inside] = np.sign(xo) ** k * np.cosh(k * np.arccosh(np.abs(xo)))
    return out


class TestTrafficGraph:
    def test_symmetrized_and_zero_diagonal(self):
        g = TrafficGraph(adjacency=np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.array_equal(g.adjacency, [[0.0, 2.0], [2.0, 0.0]])

    def test_degree(self):
        assert np.array_equal(PATH2.degree, [1.0, 1.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            TrafficGraph(adjacency=np.array([[0.0, -1.0], [-1.0, 0.0]]))


class TestNormalizedLaplacian:
    def test_two_node_path(self):
        lap = normalized_laplacian(PATH2)
        assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_edgeless_graph_is_identity(self):
        g = TrafficGraph(adjacency=np.zeros((4, 4)))
        assert np.array_equal(normalized_laplacian(g), np.eye(4))

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_spectrum_in_0_2(self, seed):
        lap = normalized_laplacian(random_graph(seed, 5))
        assert np.allclose(lap, lap.T, atol=1e-14)
        eig = np.linalg.eigvalsh(lap)
        assert eig.min() > -1e-9 and eig.max() < 2.0 + 1e-9


class TestLambdaMax:
    def test_two_node_path(self):
        lap = normalized_laplacian(PATH2)
        assert abs(estimate_lambda_max(lap) - 2.0) < 1e-6

    def test_identity(self):
        assert abs(estimate_lambda_max(np.eye(5)) - 1.0) < 1e-12

    def test_zero_matrix_fallback(self):
        assert estimate_lambda_max(np.zeros((3, 3))) == 2.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_eigensolve(self, seed):
        rng = np.random.default_rng(1000 + seed)
        x = rng.standard_normal((6, 6))
        sym = (x + x.T) / 2
        expected = np.max(np.abs(np.linalg.eigvalsh(sym)))
        assert abs(estimate_lambda_max(sym) - expected) < 1e-6

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            estimate_lambda_max(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestChebyshevBasis:
    def test_two_node_path_exact(self):
        lap = normalized_laplacian(PATH2)
        basis = chebyshev_basis(lap, 2.0, 3)
        assert np.array_equal(basis.matrices[1], [[0.0, -1.0], [-1.0, 0.0]])
        assert np.array_equal(basis.matrices[2], np.eye(2))

    def test_order_one_is_identity_only(self):
        basis = chebyshev_basis(normalized_laplacian(PATH2), 2.0, 1)
        assert len(basis.matrices) == 1
        assert np.array_equal(basis.matrices[0], np.eye(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_recurrence_residual(self, seed):
        g = random_graph(2000 + seed, 6)
        lap = normalized_laplacian(g)
        basis = chebyshev_basis(lap, estimate_lambda_max(lap), 5)
        scaled = basis.matrices[1]
        for k in range(2, 5):
            resid = basis.matrices[k] - (2 * scaled @ basis.matrices[k - 1] - basis.matrices[k - 2])
            assert np.max(np.abs(resid)) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_oracle(self, seed):
        # T_k(L~) must equal U diag(T_k(lambda~)) U^T with the scalar
        # Chebyshev values from the trigonometric closed form
        g = random_graph(3000 + seed, 6)
        lap = normalized_laplacian(g)
        lam = estimate_lambda_max(lap)
        basis = chebyshev_basis(lap, lam, 4)
        scaled = (2.0 / lam) * lap - np.eye(6)
        w, u = np.linalg.eigh(scaled)
        for k in range(4):
            expected = u @ np.diag(chebyshev_scalar(k, w)) @ u.T
            assert np.max(np.abs(basis.matrices[k] - expected)) < 1e-8

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_basis(np.eye(2), 0.0, 2)


class TestChebGraphConv:
    def test_identity_filter_passes_nonnegative_input(self):
        basis = chebyshev_basis(normalized_laplacian(PATH2), 2.0, 1)
        x = T.Tensor(node_first(np.abs(np.random.default_rng(3).standard_normal((3, 2, 4)))))
        theta = T.Tensor(np.eye(4)[None, :, :])
        out = cheb_graph_conv(x, basis, theta)
        assert np.allclose(out.data, x.data, atol=1e-14)

    def test_zero_laplacian_reduction(self):
        # a zero Laplacian with the 2.0 fallback gives L~ = -I, so K=2
        # reduces to ReLU(x theta_0 - x theta_1)
        basis = chebyshev_basis(np.zeros((3, 3)), estimate_lambda_max(np.zeros((3, 3))), 2)
        assert np.array_equal(basis.matrices[1], -np.eye(3))
        rng = np.random.default_rng(4)
        x = node_first(rng.standard_normal((2, 3, 2)))
        theta = rng.standard_normal((2, 2, 2))
        out = cheb_graph_conv(T.Tensor(x), basis, T.Tensor(theta))
        expected = np.maximum(
            np.einsum("ntc,cd->ntd", x, theta[0]) - np.einsum("ntc,cd->ntd", x, theta[1]),
            0.0,
        )
        assert np.max(np.abs(out.data - expected)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_double_loop_oracle(self, seed):
        rng = np.random.default_rng(4000 + seed)
        g = random_graph(4000 + seed, 4)
        lap = normalized_laplacian(g)
        lam = estimate_lambda_max(lap)
        basis = chebyshev_basis(lap, lam, 3)
        x = node_first(rng.standard_normal((2, 4, 3)))
        theta = rng.standard_normal((3, 3, 2))
        got = cheb_graph_conv(T.Tensor(x), basis, T.Tensor(theta)).data
        expected = np.zeros((4, 2, 2))
        for t in range(2):
            for k in range(3):
                tk = basis.matrices[k]
                for i in range(4):
                    for j in range(4):
                        expected[i, t] += tk[i, j] * (x[j, t] @ theta[k])
        expected = np.maximum(expected, 0.0)
        assert np.max(np.abs(got - expected)) < 1e-10

    def test_order_mismatch_rejected(self):
        basis = chebyshev_basis(normalized_laplacian(PATH2), 2.0, 2)
        with pytest.raises(ValueError, match="order"):
            cheb_graph_conv(T.Tensor(np.zeros((2, 1, 1))), basis,
                            T.Tensor(np.zeros((3, 1, 1))))

    def test_disconnected_components_never_mix(self):
        # two disjoint 2-cliques; perturbing component A must not move B
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 1.0
        g = TrafficGraph(adjacency=a)
        lap = normalized_laplacian(g)
        basis = chebyshev_basis(lap, estimate_lambda_max(lap), 3)
        rng = np.random.default_rng(9)
        x = node_first(rng.standard_normal((2, 4, 3)))
        theta = T.Tensor(rng.standard_normal((3, 3, 2)))
        base = cheb_graph_conv(T.Tensor(x), basis, theta).data
        x2 = x.copy()
        x2[:2] += node_first(rng.standard_normal((2, 2, 3)))
        moved = cheb_graph_conv(T.Tensor(x2), basis, theta).data
        assert np.array_equal(base[2:], moved[2:])

    def test_gradients_pass_finite_differences(self):
        g = random_graph(77, 4)
        lap = normalized_laplacian(g)
        basis = chebyshev_basis(lap, estimate_lambda_max(lap), 3)
        rng = np.random.default_rng(77)
        x = T.Tensor(node_first(rng.standard_normal((2, 4, 3)) + 0.3))
        theta = T.Tensor(rng.standard_normal((3, 3, 2)))
        w = node_first(rng.standard_normal((2, 4, 2)))

        def f_x(t):
            return T.reduce(T.mul(cheb_graph_conv(t, basis, theta), T.Tensor(w)), kind="sum")

        def f_theta(t):
            return T.reduce(T.mul(cheb_graph_conv(x, basis, t), T.Tensor(w)), kind="sum")

        assert T.gradient_check(f_x, x) <= 1e-4
        assert T.gradient_check(f_theta, theta) <= 1e-4

    def test_basis_is_constant_on_the_tape(self):
        g = random_graph(78, 5)
        lap = normalized_laplacian(g)
        basis = chebyshev_basis(lap, estimate_lambda_max(lap), 3)
        rng = np.random.default_rng(78)
        x = T.Tensor(node_first(rng.standard_normal((2, 5, 3))), requires_grad=True)
        theta = T.Tensor(rng.standard_normal((3, 3, 2)), requires_grad=True)
        y = cheb_graph_conv(x, basis, theta)
        # x and theta are leaves, so the only constant operands are the basis
        # matrices: their parent slot is None and their gradient is never built
        slots = [ig for node in T.current_tape().nodes
                 for p, ig in zip(node.parents, node.fn(np.ones(node.shape)))
                 if p is None]
        T.backward(T.reduce(y, kind="sum"))
        assert len(slots) == basis.order - 1  # T_0 = I is applied as x itself
        assert all(ig is None for ig in slots)
        assert all(t.grad is None for t in basis.tensors())
        assert x.grad is not None and theta.grad is not None

    def test_each_hop_is_one_gemm(self):
        # at K=3: per tap one theta gather, one x theta_k matmul and its
        # [N, rest] view; per hop one [N, N] @ [N, rest] matmul whose addend
        # is the running sum; one reshape back to [N, ..., C_out]
        g = random_graph(79, 5)
        lap = normalized_laplacian(g)
        basis = chebyshev_basis(lap, estimate_lambda_max(lap), 3)
        rng = np.random.default_rng(79)
        x = T.Tensor(rng.standard_normal((5, 2, 4, 3)), requires_grad=True)
        theta = T.Tensor(rng.standard_normal((3, 3, 2)), requires_grad=True)
        start = len(T.current_tape() or ())   # earlier tests may leave a tape unreplayed
        y = cheb_graph_conv(x, basis, theta)
        nodes = T.current_tape().nodes[start:]
        # a hop's constant [N, N] basis matrix has no parent; its other
        # parents are the [N, rest] view of x theta_k and the running sum
        hops = [(node.shape, node.parents[1].op, node.parents[1].shape, node.parents[2].op)
                for node in nodes if node.op == "matmul" and node.parents[0] is None]
        T.backward(T.reduce(y, kind="sum"))
        ops = [node.op for node in nodes]
        assert {op: ops.count(op) for op in set(ops)} == {
            "reshape": 4, "matmul": 5, "gather_rows": 3, "relu": 1}
        assert hops == [((5, 16), "reshape", (5, 16), "reshape"),
                        ((5, 16), "reshape", (5, 16), "matmul")]

    def test_backward_keeps_no_hop_output(self):
        # the hops act on x theta_k, so the gradients read x and the theta
        # taps: at the end of forward the only outputs still alive are the
        # gathered taps and the result
        g = random_graph(80, 5)
        lap = normalized_laplacian(g)
        basis = chebyshev_basis(lap, estimate_lambda_max(lap), 3)
        rng = np.random.default_rng(80)
        x = T.Tensor(rng.standard_normal((5, 2, 4, 3)), requires_grad=True)
        theta = T.Tensor(rng.standard_normal((3, 3, 2)), requires_grad=True)
        start = len(T.current_tape() or ())   # earlier tests may leave a tape unreplayed
        y = cheb_graph_conv(x, basis, theta)
        nodes = T.current_tape().nodes[start:]
        alive = [node.op for node in nodes if node.out.data.size and node is not y._node]
        T.backward(T.reduce(y, kind="sum"))
        assert alive == ["gather_rows"] * 3

"""Sensor-graph spectra: normalized Laplacian, lambda_max, Chebyshev basis.

The basis matrices T_k are built once per graph with the recurrence
T_k = 2*L_tilde*T_{k-1} - T_{k-2} and shared read-only by every
transition block; the spectral graph convolution localizes information
flow to k-hop neighborhoods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from embsformer.tensor import Tensor, matmul, relu, reshape

__all__ = [
    "TrafficGraph",
    "ChebyshevBasis",
    "normalized_laplacian",
    "estimate_lambda_max",
    "chebyshev_basis",
    "cheb_graph_conv",
]

# deterministic start vector for power iteration; an all-ones start is
# exactly orthogonal to the top eigenvector of e.g. the 2-node path
_POWER_SEED = 0x5EED_CB35
# power-iteration sweeps at most, and the relative eigen-residual that ends them early
_POWER_SWEEPS, _POWER_TOL = 200, 1e-9


@dataclass
class TrafficGraph:
    """Sensor graph: symmetric nonnegative adjacency with zero diagonal."""

    adjacency: np.ndarray

    def __post_init__(self):
        a = np.array(self.adjacency, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if np.any(a < 0):
            raise ValueError("adjacency must be nonnegative")
        a = np.maximum(a, a.T)
        np.fill_diagonal(a, 0.0)
        self.adjacency = a

    @property
    def num_nodes(self):
        return self.adjacency.shape[0]

    @property
    def degree(self):
        """Row sums D_ii."""
        return self.adjacency.sum(axis=1)


@dataclass
class ChebyshevBasis:
    """T_0..T_{K-1} of the scaled Laplacian as constant tensors, shared read-only."""

    tensors: list
    lambda_max: float

    @property
    def order(self):
        return len(self.tensors)

    @property
    def num_nodes(self):
        return self.tensors[0].shape[0]


def normalized_laplacian(g: TrafficGraph) -> np.ndarray:
    """L = I - D^{-1/2} A D^{-1/2}, with isolated nodes mapped to identity rows.

    Zero-degree nodes get D^{-1/2} = 0, so their Laplacian row reduces to
    the identity row and the spectrum stays inside [0, 2].
    """
    a = g.adjacency
    d = a.sum(axis=1)
    inv_sqrt = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    lap = np.eye(g.num_nodes) - (inv_sqrt[:, None] * a) * inv_sqrt[None, :]
    return lap


def estimate_lambda_max(lap: np.ndarray) -> float:
    """Largest-magnitude eigenvalue of a symmetric matrix by power iteration.

    Each sweep applies the matrix twice (power iteration on L^2, two O(N^2)
    matvecs), which squares the convergence ratio and is immune to sign
    oscillation between +/-lambda_max. Starts from a fixed-seed random
    vector (an all-ones start can be exactly orthogonal to the top
    eigenvector) and stops when the eigen-residual of L^2 drops below
    `_POWER_TOL`. After `_POWER_SWEEPS` sweeps it returns the last estimate
    even if the residual never got there, which can leave it short of the
    true value: 1.99938724 instead of 2.0 on a 170-node ring. A zero matrix
    returns the normalized-Laplacian upper bound 2.0.
    """
    lap = np.asarray(lap, dtype=np.float64)
    if not np.allclose(lap, lap.T, atol=1e-12):
        raise ValueError("estimate_lambda_max expects a symmetric matrix")
    if not np.any(lap):
        return 2.0
    rng = np.random.Generator(np.random.Philox(key=_POWER_SEED))
    v = rng.standard_normal(lap.shape[0])
    v /= np.linalg.norm(v)
    mu = 0.0
    for _ in range(_POWER_SWEEPS):
        w = lap @ (lap @ v)  # one sweep of L^2
        mu = float(v @ w)    # Rayleigh quotient of L^2 (v is unit)
        if np.linalg.norm(w - mu * v) <= _POWER_TOL * max(1.0, abs(mu)):
            break
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0  # v landed in the kernel and L^2 v vanished
        v = w / norm
    return float(np.sqrt(max(mu, 0.0)))


def chebyshev_basis(lap: np.ndarray, lambda_max: float, k_cheb: int) -> ChebyshevBasis:
    """Build [T_0(L~) .. T_{K-1}(L~)] for L~ = (2/lambda_max) L - I."""
    if lambda_max <= 0:
        raise ValueError(f"lambda_max must be positive, got {lambda_max}")
    if k_cheb < 1:
        raise ValueError(f"Chebyshev order must be >= 1, got {k_cheb}")
    lap = np.asarray(lap, dtype=np.float64)
    n = lap.shape[0]
    scaled = (2.0 / lambda_max) * lap - np.eye(n)
    tensors = [Tensor(np.eye(n))]
    if k_cheb >= 2:
        tensors.append(Tensor(scaled))
    for _ in range(2, k_cheb):
        tensors.append(Tensor(2.0 * scaled @ tensors[-1].data - tensors[-2].data))
    return ChebyshevBasis(tensors=tensors, lambda_max=float(lambda_max))


def cheb_graph_conv(x: Tensor, basis: ChebyshevBasis, thetas) -> Tensor:
    """ReLU( sum_k T_k(L~) . x . theta_k ), independently per trailing index.

    x: [N, ..., C_in], node-first, thetas: the K taps theta_k, a sequence of
    [C_in, C_out] tensors -> [N, ..., C_out]. Each tap enters its matmul as
    it is, so no op slices a weight. The sum is taken as sum_k T_k (x theta_k):
    theta_k maps the channels first, and each hop is then one [N, N] @
    [N, rest] GEMM on a reshape view of x theta_k whose rows are the nodes,
    with the running sum as its addend. So backward reads x, for the tap
    gradients, and no hop output. Differentiable in x and in every tap.
    """
    if len(thetas) != basis.order:
        raise ValueError(f"thetas has {len(thetas)} filter taps but basis order is {basis.order}")
    if x.shape[0] != basis.num_nodes:
        raise ValueError(f"x has {x.shape[0]} nodes but basis was built for {basis.num_nodes}")
    out_shape = x.shape[:-1] + thetas[0].shape[-1:]
    rows = (x.shape[0], math.prod(out_shape[1:]))
    acc = reshape(matmul(x, thetas[0]), rows)   # T_0 = I
    for k in range(1, basis.order):
        acc = matmul(basis.tensors[k], reshape(matmul(x, thetas[k]), rows), acc)
    return relu(reshape(acc, out_shape))

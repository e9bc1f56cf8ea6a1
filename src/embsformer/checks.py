"""Registered finite-difference gradient checks for every differentiable op.

Each check builds seeded inputs, reduces the op output to a scalar with a
fixed random weighting (so gradients are non-degenerate), and compares the
tape's gradients against central differences. The model-level check runs
at a point with a small loss (target = initial prediction + perturbation):
attention key biases are mathematically inert under row softmax, so their
true gradient is zero and a small loss keeps one-ulp finite-difference
noise below the relative-error floor while real gradient bugs still scale
with the signal.
"""

from __future__ import annotations

import numpy as np

from embsformer import tensor as T
from embsformer.graph import (
    TrafficGraph,
    cheb_graph_conv,
    chebyshev_basis,
    estimate_lambda_max,
    normalized_laplacian,
)
from embsformer.model import (
    Batch,
    ModelConfig,
    forward,
    init_params,
    mse_loss,
    similarity_attention,
    spatial_self_attention,
    temporal_self_attention,
    transition_block,
    transition_readout,
)

__all__ = ["registered_checks", "run_all", "toy_setup", "GRAD_TOLERANCE"]

GRAD_TOLERANCE = 1e-4


def _rng(salt):
    return np.random.default_rng(1_000_003 + salt)


def _weighted(out, rng):
    # reduce to a scalar with fixed random weights so grads don't collapse
    return T.reduce(T.mul(out, T.Tensor(rng.standard_normal(out.shape))), kind="sum")


def _check(f, x, eps=1e-5, elements=None):
    return T.gradient_check(f, x, eps=eps, elements=elements)


# --------------------------------------------------------------------------
# op-level checks
# --------------------------------------------------------------------------


def check_matmul():
    rng = _rng(1)
    a = T.Tensor(rng.standard_normal((3, 4)))
    b = T.Tensor(rng.standard_normal((4, 2)))
    w = rng.standard_normal((3, 2))

    def f_a(t):
        return T.reduce(T.mul(T.matmul(t, b), T.Tensor(w)), kind="sum")

    def f_b(t):
        return T.reduce(T.mul(T.matmul(a, t), T.Tensor(w)), kind="sum")

    return max(_check(f_a, a), _check(f_b, b))


def check_matmul_batched():
    rng = _rng(2)
    a = T.Tensor(rng.standard_normal((2, 3, 4)))
    b = T.Tensor(rng.standard_normal((4, 5)))
    w = rng.standard_normal((2, 3, 5))

    def f_a(t):
        return T.reduce(T.mul(T.matmul(t, b), T.Tensor(w)), kind="sum")

    def f_b(t):
        return T.reduce(T.mul(T.matmul(a, t), T.Tensor(w)), kind="sum")

    return max(_check(f_a, a), _check(f_b, b))


def check_softmax():
    rng = _rng(3)
    x = T.Tensor(rng.standard_normal((4, 5)))
    w = rng.standard_normal((4, 5))

    def f(t):
        return T.reduce(T.mul(T.softmax(t, axis=-1), T.Tensor(w)), kind="sum")

    return _check(f, x)


def _elementwise_check(op, salt):
    rng = _rng(salt)
    a = T.Tensor(rng.standard_normal((3, 4)))
    b = T.Tensor(rng.standard_normal((3, 4)) + 3.0)
    w = rng.standard_normal((3, 4))

    def f_a(t):
        return T.reduce(T.mul(op(t, b), T.Tensor(w)), kind="sum")

    def f_b(t):
        return T.reduce(T.mul(op(a, t), T.Tensor(w)), kind="sum")

    return max(_check(f_a, a), _check(f_b, b))


def check_add():
    return _elementwise_check(T.add, 4)


def check_sub():
    return _elementwise_check(T.sub, 5)


def check_mul():
    return _elementwise_check(T.mul, 6)


def check_relu():
    rng = _rng(8)
    # keep inputs away from the kink at 0
    data = rng.standard_normal((4, 4))
    data = np.where(np.abs(data) < 0.05, 0.1, data)
    x = T.Tensor(data)
    w = rng.standard_normal((4, 4))

    def f(t):
        return T.reduce(T.mul(T.relu(t), T.Tensor(w)), kind="sum")

    return _check(f, x)


def check_scale():
    rng = _rng(9)
    x = T.Tensor(rng.standard_normal((3, 3)))
    w = rng.standard_normal((3, 3))

    def f(t):
        return T.reduce(T.mul(T.scale(t, -2.5), T.Tensor(w)), kind="sum")

    return _check(f, x)


def check_reduce():
    rng = _rng(10)
    x = T.Tensor(rng.standard_normal((3, 4, 2)))
    w_sum = rng.standard_normal((3, 2))
    w_mean = rng.standard_normal((4, 2))

    def f_sum(t):
        return T.reduce(T.mul(T.reduce(t, axis=1, kind="sum"), T.Tensor(w_sum)), kind="sum")

    def f_mean(t):
        return T.reduce(T.mul(T.reduce(t, axis=0, kind="mean"), T.Tensor(w_mean)), kind="sum")

    return max(_check(f_sum, x), _check(f_mean, x))


def check_permute():
    rng = _rng(11)
    x = T.Tensor(rng.standard_normal((2, 3, 4)))
    w = rng.standard_normal((4, 2, 3))

    def f(t):
        return T.reduce(T.mul(T.permute(t, (2, 0, 1)), T.Tensor(w)), kind="sum")

    return _check(f, x)


def check_reshape():
    rng = _rng(12)
    x = T.Tensor(rng.standard_normal((2, 6)))
    w = rng.standard_normal((3, 4))

    def f(t):
        return T.reduce(T.mul(T.reshape(t, (3, 4)), T.Tensor(w)), kind="sum")

    return _check(f, x)


def check_slice():
    rng = _rng(14)
    x = T.Tensor(rng.standard_normal((5, 3)))
    w = rng.standard_normal((2, 3))

    def f(t):
        return T.reduce(T.mul(T.slice_axis(t, 0, 1, 3), T.Tensor(w)), kind="sum")

    return _check(f, x)


def check_conv_time():
    rng = _rng(15)
    x = T.Tensor(rng.standard_normal((2, 6, 3)))
    k = T.Tensor(rng.standard_normal((2, 3, 4)))
    w = rng.standard_normal((2, 5, 4))

    def f_x(t):
        return T.reduce(T.mul(T.conv_time(t, k), T.Tensor(w)), kind="sum")

    def f_k(t):
        return T.reduce(T.mul(T.conv_time(x, t), T.Tensor(w)), kind="sum")

    return max(_check(f_x, x), _check(f_k, k))


def check_gather():
    rng = _rng(16)
    table = T.Tensor(rng.standard_normal((6, 3)))
    idx = np.array([[0, 2, 2], [5, 1, 0]])
    w = rng.standard_normal((2, 3, 3))

    def f(t):
        return T.reduce(T.mul(T.gather_rows(t, idx), T.Tensor(w)), kind="sum")

    return _check(f, table)


def check_cheb_conv():
    rng = _rng(17)
    adj = (rng.random((4, 4)) < 0.5).astype(float)
    graph = TrafficGraph(adjacency=adj)
    lap = normalized_laplacian(graph)
    basis = chebyshev_basis(lap, estimate_lambda_max(lap), 3)
    x = T.Tensor(rng.standard_normal((2, 4, 3)) + 0.5)
    theta = T.Tensor(rng.standard_normal((3, 3, 2)))
    w = rng.standard_normal((2, 4, 2))

    def f_x(t):
        return T.reduce(T.mul(cheb_graph_conv(t, basis, theta), T.Tensor(w)), kind="sum")

    def f_theta(t):
        return T.reduce(T.mul(cheb_graph_conv(x, basis, t), T.Tensor(w)), kind="sum")

    return max(_check(f_x, x), _check(f_theta, theta))


# --------------------------------------------------------------------------
# block-level and full-model checks
# --------------------------------------------------------------------------


def toy_setup(seed=42, n_nodes=4, m=3, n=3, width=4, k_cheb=2, periods=1):
    """Small full-model instance used by block and end-to-end checks."""
    rng = np.random.default_rng(seed)
    adj = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        adj[i, (i + 1) % n_nodes] = 1.0
    graph = TrafficGraph(adjacency=adj)
    lap = normalized_laplacian(graph)
    basis = chebyshev_basis(lap, estimate_lambda_max(lap), k_cheb)
    config = ModelConfig(
        m=m, n=n, n_nodes=n_nodes, n_features=1, d_e=width, d_s=width,
        d_t=width, h_prime=width, k_cheb=k_cheb, n_blocks=1,
        periods=tuple(m + n + 2 * i for i in range(periods)),
        enable_recent=True, enable_period=periods > 0,
    )
    params = init_params(config, seed=seed)
    k = len(config.periods)
    batch = Batch(
        recent=rng.standard_normal((1, m, n_nodes, 1)),
        periods=rng.standard_normal((1, k, m + n, n_nodes, 1)),
        target=np.zeros((1, n, n_nodes)),
        recent_minute=rng.integers(0, 1440, (1, m)),
        recent_dow=rng.integers(0, 7, (1, m)),
        recent_holiday=rng.integers(0, 2, (1, m)),
        period_minute=rng.integers(0, 1440, (1, k, m + n)),
        period_dow=rng.integers(0, 7, (1, k, m + n)),
        period_holiday=rng.integers(0, 2, (1, k, m + n)),
    )
    with T.no_grad():
        pred0 = forward(batch, params, config, basis).data
    batch.target[:] = pred0 + 0.05 * rng.standard_normal(pred0.shape)
    return config, params, basis, batch


def check_spatial_attention():
    rng = _rng(18)
    config, params, basis, batch = toy_setup()
    e = T.Tensor(rng.standard_normal((1, config.m, config.n_nodes, config.d_e)))
    w = rng.standard_normal((1, config.m, config.n_nodes, config.d_s))

    def f(t):
        return T.reduce(T.mul(
            spatial_self_attention(params, "transition.0", t, config.d_s), T.Tensor(w)
        ), kind="sum")

    return _check(f, e)


def check_temporal_attention():
    rng = _rng(19)
    config, params, basis, batch = toy_setup()
    x = T.Tensor(rng.standard_normal((1, config.m, config.n_nodes, config.d_s)))
    w = rng.standard_normal((1, config.m, config.n_nodes, config.d_t))

    def f(t):
        return T.reduce(T.mul(
            temporal_self_attention(params, "transition.0", t, config.d_t), T.Tensor(w)
        ), kind="sum")

    return _check(f, x)


def check_similarity_attention():
    rng = _rng(20)
    config, params, basis, batch = toy_setup()
    e_r = T.Tensor(rng.standard_normal((1, config.m, config.n_nodes, config.d_e)))
    e_p = T.Tensor(rng.standard_normal((1, config.m + config.n, config.n_nodes, config.d_e)))
    w = rng.standard_normal((1, config.n, config.n_nodes, config.h_prime))

    def f_r(t):
        return T.reduce(T.mul(
            similarity_attention(params, 0, t, e_p, config), T.Tensor(w)), kind="sum")

    def f_p(t):
        return T.reduce(T.mul(
            similarity_attention(params, 0, e_r, t, config), T.Tensor(w)), kind="sum")

    return max(_check(f_r, e_r), _check(f_p, e_p))


def check_transition_block():
    rng = _rng(21)
    config, params, basis, batch = toy_setup()
    e = T.Tensor(rng.standard_normal((1, config.m, config.n_nodes, config.d_e)))
    w = rng.standard_normal((1, config.m, config.n_nodes, config.d_e))

    def f(t):
        return T.reduce(T.mul(
            transition_block(params, "transition.0", t, basis, config), T.Tensor(w)
        ), kind="sum")

    return _check(f, e)


def check_transition_readout():
    rng = _rng(22)
    config, params, basis, batch = toy_setup()
    h = T.Tensor(rng.standard_normal((1, config.m, config.n_nodes, config.d_e)))
    w = rng.standard_normal((1, config.n, config.n_nodes))

    def f(t):
        return T.reduce(T.mul(transition_readout(params, t, config), T.Tensor(w)), kind="sum")

    return _check(f, h)


def _used_table_elements(batch, name, d_e):
    used = {
        "embed.minute": np.concatenate(
            [batch.recent_minute.ravel(), batch.period_minute.ravel()]
        ),
        "embed.dow": np.concatenate([batch.recent_dow.ravel(), batch.period_dow.ravel()]),
        "embed.holiday": np.arange(2),
    }[name]
    return sorted({int(r) * d_e + j for r in used for j in range(d_e)})


def check_full_model():
    """End-to-end loss gradient w.r.t. the input block and every parameter.

    Embedding tables are checked on the rows the toy calendar touches (the
    rest provably receive zero gradient from gather's scatter-add).
    """
    import dataclasses

    config, params, basis, batch = toy_setup()

    def loss_fn():
        return mse_loss(forward(batch, params, config, basis), batch.target)

    worst = 0.0
    x = T.Tensor(batch.recent)

    def f_input(t):
        moved = dataclasses.replace(batch, recent=t)
        return mse_loss(forward(moved, params, config, basis), batch.target)

    worst = max(worst, _check(f_input, x))
    for name, tens in params.items():
        def f(t):
            return loss_fn()

        if name in ("embed.minute", "embed.dow", "embed.holiday"):
            elems = _used_table_elements(batch, name, tens.shape[1])
            worst = max(worst, _check(f, tens, elements=elems))
        else:
            worst = max(worst, _check(f, tens))
    return worst


def registered_checks():
    """(name, callable) pairs; each callable returns its worst relative error."""
    return [
        ("matmul", check_matmul),
        ("matmul-batched", check_matmul_batched),
        ("softmax", check_softmax),
        ("add", check_add),
        ("sub", check_sub),
        ("mul", check_mul),
        ("relu", check_relu),
        ("scale", check_scale),
        ("reduce", check_reduce),
        ("permute", check_permute),
        ("reshape", check_reshape),
        ("slice_axis", check_slice),
        ("conv_time", check_conv_time),
        ("gather_rows", check_gather),
        ("cheb_graph_conv", check_cheb_conv),
        ("spatial-attention", check_spatial_attention),
        ("temporal-attention", check_temporal_attention),
        ("similarity-attention", check_similarity_attention),
        ("transition-block", check_transition_block),
        ("transition-readout", check_transition_readout),
        ("full-model", check_full_model),
    ]


def run_all(tolerance=GRAD_TOLERANCE):
    """Run every registered check; returns (name, worst_error, passed) rows."""
    rows = []
    for name, fn in registered_checks():
        err = fn()
        rows.append((name, err, err <= tolerance))
    return rows

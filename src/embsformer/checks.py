"""Registered finite-difference gradient checks for every differentiable op.

Each check builds seeded inputs, reduces the op output to a scalar with a
fixed random weighting (so gradients are non-degenerate), and compares the
tape's gradients against central differences. The model-level check runs
at a point with a small loss (target = initial prediction + perturbation):
its worst relative error measured 4.3e-6 there and 3.3e-5, a third of the
1e-4 tolerance, at a zero target; real gradient bugs still scale with the
signal.
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
    CALENDAR_OFFSETS,
    CALENDAR_VOCAB,
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


# --------------------------------------------------------------------------
# op-level checks
# --------------------------------------------------------------------------


def check_matmul():
    rng = _rng(1)
    a = T.Tensor(rng.standard_normal((3, 4)))
    b = T.Tensor(rng.standard_normal((4, 2)))
    w = rng.standard_normal((3, 2))
    bias = T.Tensor(rng.standard_normal(2))        # addends: a bias [r] and a full [p, r]
    full = T.Tensor(rng.standard_normal((3, 2)))

    def f_a(t):
        return T.reduce(T.mul(T.matmul(t, b), T.Tensor(w)), kind="sum")

    def f_b(t):
        return T.reduce(T.mul(T.matmul(a, t), T.Tensor(w)), kind="sum")

    def f_c(t):
        return T.reduce(T.mul(T.matmul(a, b, t), T.Tensor(w)), kind="sum")

    return max(T.gradient_check(f_a, a), T.gradient_check(f_b, b),
               T.gradient_check(f_c, bias), T.gradient_check(f_c, full))


def check_matmul_batched():
    rng = _rng(2)
    a = T.Tensor(rng.standard_normal((2, 3, 4)))
    b = T.Tensor(rng.standard_normal((4, 5)))
    w = rng.standard_normal((2, 3, 5))

    def f_a(t):
        return T.reduce(T.mul(T.matmul(t, b), T.Tensor(w)), kind="sum")

    def f_b(t):
        return T.reduce(T.mul(T.matmul(a, t), T.Tensor(w)), kind="sum")

    return max(T.gradient_check(f_a, a), T.gradient_check(f_b, b))


def check_attention():
    # a batch dim and L_q != L_k, so a transposed gradient cannot pass
    rng = _rng(3)
    q = T.Tensor(rng.standard_normal((2, 3, 4)))
    k = T.Tensor(rng.standard_normal((2, 5, 4)))
    v = T.Tensor(rng.standard_normal((2, 5, 6)))
    w = rng.standard_normal((2, 3, 6))

    def loss(qq, kk, vv):
        return T.reduce(T.mul(T.attention(qq, kk, vv, 0.7)[0], T.Tensor(w)), kind="sum")

    return max(T.gradient_check(lambda t: loss(t, k, v), q),
               T.gradient_check(lambda t: loss(q, t, v), k),
               T.gradient_check(lambda t: loss(q, k, t), v))


def check_self_attention():
    # a batch dim and d, d_k and d_v all different, so a transposed or
    # swapped projection gradient cannot pass
    rng = _rng(24)
    operands = [T.Tensor(rng.standard_normal(s))
                for s in ((2, 3, 4), (4, 5), (4, 5), (4, 6), (5,), (6,))]
    w = rng.standard_normal((2, 3, 6))

    def loss_at(i):
        def f(t):
            args = operands[:i] + [t] + operands[i + 1:]
            return T.reduce(T.mul(T.self_attention(*args, 0.7)[0], T.Tensor(w)), kind="sum")
        return f

    return max(T.gradient_check(loss_at(i), t) for i, t in enumerate(operands))


def _elementwise_check(op, salt):
    rng = _rng(salt)
    a = T.Tensor(rng.standard_normal((3, 4)))
    b = T.Tensor(rng.standard_normal((3, 4)) + 3.0)
    w = rng.standard_normal((3, 4))

    def f_a(t):
        return T.reduce(T.mul(op(t, b), T.Tensor(w)), kind="sum")

    def f_b(t):
        return T.reduce(T.mul(op(a, t), T.Tensor(w)), kind="sum")

    return max(T.gradient_check(f_a, a), T.gradient_check(f_b, b))


def check_add():
    return _elementwise_check(T.add, 4)


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

    return T.gradient_check(f, x)


def check_reduce():
    rng = _rng(10)
    x = T.Tensor(rng.standard_normal((3, 4, 2)))
    w_sum = rng.standard_normal((3, 2))
    w_mean = rng.standard_normal((4, 2))

    def f_sum(t):
        return T.reduce(T.mul(T.reduce(t, axis=1, kind="sum"), T.Tensor(w_sum)), kind="sum")

    def f_mean(t):
        return T.reduce(T.mul(T.reduce(t, axis=0, kind="mean"), T.Tensor(w_mean)), kind="sum")

    return max(T.gradient_check(f_sum, x), T.gradient_check(f_mean, x))


def check_permute():
    rng = _rng(11)
    x = T.Tensor(rng.standard_normal((2, 3, 4)))
    w = rng.standard_normal((4, 2, 3))

    def f(t):
        return T.reduce(T.mul(T.permute(t, (2, 0, 1)), T.Tensor(w)), kind="sum")

    return T.gradient_check(f, x)


def check_reshape():
    rng = _rng(12)
    x = T.Tensor(rng.standard_normal((2, 6)))
    w = rng.standard_normal((3, 4))

    def f(t):
        return T.reduce(T.mul(T.reshape(t, (3, 4)), T.Tensor(w)), kind="sum")

    return T.gradient_check(f, x)


def check_gather():
    rng = _rng(16)
    table = T.Tensor(rng.standard_normal((6, 3)))
    idx = np.array([[0, 2, 2], [5, 1, 0]])
    w = rng.standard_normal((2, 3, 3))

    def f(t):
        return T.reduce(T.mul(T.gather_rows(t, idx), T.Tensor(w)), kind="sum")

    return T.gradient_check(f, table)


def check_fan_in():
    """One tensor feeding six consumers, so its gradient accumulates in place.

    The consumers hand back ``g`` itself (add), a view of it (reshape), a
    read-only broadcast (reduce) and fresh buffers (permute, gather). The
    last one records ``matmul(a, b, h) + t``, so the first gradient to
    reach ``h`` is the array that add also hands the input ``t``: an
    accumulation that wrote into it would change ``t``'s gradient too.
    """
    rng = _rng(23)
    x = T.Tensor(rng.standard_normal((4, 3)))
    a = T.Tensor(rng.standard_normal((4, 2)))
    b = T.Tensor(rng.standard_normal((2, 3)))
    idx = np.array([[0, 3], [3, 1]])
    weights = [T.Tensor(rng.standard_normal(s))
               for s in ((4, 3), (3, 4), (3,), (3, 4), (2, 2, 3), (4, 3))]
    factor = T.Tensor(1.5)

    def f(t):
        h = T.mul(t, factor)
        outs = [T.add(h, h), T.reshape(h, (3, 4)), T.reduce(h, axis=0),
                T.permute(h, (1, 0)), T.gather_rows(h, idx), T.add(T.matmul(a, b, h), t)]
        loss = None
        for out, w in zip(outs, weights):
            term = T.reduce(T.mul(out, w), kind="sum")
            loss = term if loss is None else T.add(loss, term)
        return loss

    return T.gradient_check(f, x)


def check_cheb_conv():
    rng = _rng(17)
    adj = (rng.random((4, 4)) < 0.5).astype(float)
    graph = TrafficGraph(adjacency=adj)
    lap = normalized_laplacian(graph)
    basis = chebyshev_basis(lap, estimate_lambda_max(lap), 3)
    x = T.Tensor(rng.standard_normal((4, 2, 3)) + 0.5)   # node-first [N, T, C]
    theta = T.Tensor(rng.standard_normal((3, 3, 2)))
    w = rng.standard_normal((4, 2, 2))

    def f_x(t):
        return T.reduce(T.mul(cheb_graph_conv(t, basis, theta), T.Tensor(w)), kind="sum")

    def f_theta(t):
        return T.reduce(T.mul(cheb_graph_conv(x, basis, t), T.Tensor(w)), kind="sum")

    return max(T.gradient_check(f_x, x), T.gradient_check(f_theta, theta))


# --------------------------------------------------------------------------
# block-level and full-model checks
# --------------------------------------------------------------------------


def toy_setup(seed=42, n_nodes=4, m=3, n=3, width=4, k_cheb=2, periods=1, n_features=1):
    """Small full-model instance used by block and end-to-end checks."""
    rng = np.random.default_rng(seed)
    adj = np.zeros((n_nodes, n_nodes))
    for i in range(n_nodes):
        adj[i, (i + 1) % n_nodes] = 1.0
    graph = TrafficGraph(adjacency=adj)
    lap = normalized_laplacian(graph)
    basis = chebyshev_basis(lap, estimate_lambda_max(lap), k_cheb)
    config = ModelConfig(
        m=m, n=n, n_nodes=n_nodes, n_features=n_features, d_e=width, h_prime=width,
        k_cheb=k_cheb, n_blocks=1,
        periods=tuple(m + n + 2 * i for i in range(periods)),
    )
    params = init_params(config, seed=seed)
    k = len(config.periods)
    batch = Batch(
        recent=rng.standard_normal((1, m, n_nodes, n_features)),
        periods=rng.standard_normal((1, k, m + n, n_nodes, n_features)),
        target=np.zeros((1, n, n_nodes)),
        recent_calendar=np.stack([rng.integers(0, v, (1, m)) for v in CALENDAR_VOCAB], -1),
        period_calendar=np.stack([rng.integers(0, v, (1, k, m + n)) for v in CALENDAR_VOCAB], -1),
    )
    with T.no_grad():
        pred0 = forward(batch, params, config, basis).data
    batch.target[:] = pred0 + 0.05 * rng.standard_normal(pred0.shape)
    return config, params, basis, batch


def _check_layer(layer, inputs, params, names, rng):
    """Worst error of a weighted sum of ``layer()`` over its ``inputs`` and weights ``names``.

    ``layer`` takes no argument: it reads its activation inputs and weights
    where `T.gradient_check` perturbs them, in place.
    """
    with T.no_grad():
        w = T.Tensor(rng.standard_normal(layer().shape))

    def f(_):
        return T.reduce(T.mul(layer(), w), kind="sum")

    return max(T.gradient_check(f, t) for t in inputs + [params[n] for n in names])


def _names(params, prefix):
    return [name for name in params.names() if name.startswith(prefix)]


def check_spatial_attention():
    """The activation input and every spatial weight and bias."""
    rng = _rng(18)
    config, params, basis, batch = toy_setup()
    e = T.Tensor(rng.standard_normal((config.n_nodes, 1, config.m, config.d_e)))
    return _check_layer(
        lambda: spatial_self_attention(params, "transition.0", e),
        [e], params, _names(params, "transition.0.spatial."), rng)


def check_temporal_attention():
    """The activation input and every temporal weight and bias."""
    rng = _rng(19)
    config, params, basis, batch = toy_setup()
    x = T.Tensor(rng.standard_normal((config.n_nodes, 1, config.m, config.d_e)))
    return _check_layer(
        lambda: temporal_self_attention(params, "transition.0", x),
        [x], params, _names(params, "transition.0.temporal."), rng)


def check_similarity_attention():
    """Inputs, embed.proj and every branch weight: projections, readout and alignment.

    Each half of the branch window enters as its data block and clock, all
    four checked, at m == n and m > n with one feature and at m == n with
    three. The readout (conv_t, conv_c) is folded into the values, and the
    alignment kernels exist only for m != n.
    """
    rng = _rng(20)
    worst = 0.0
    for m, n, n_features in ((3, 3, 1), (5, 2, 1), (3, 3, 3)):
        config, params, basis, batch = toy_setup(m=m, n=n, n_features=n_features)
        e_r = T.Tensor(rng.standard_normal((config.n_nodes, 1, m, config.d_e)))
        halves = [(T.Tensor(rng.standard_normal((config.n_nodes, 1, steps, n_features))),
                   T.Tensor(rng.standard_normal((1, steps, config.d_e)))) for steps in (m, n)]
        worst = max(worst, _check_layer(
            lambda: similarity_attention(params, 0, e_r, *halves, config),
            [e_r, *halves[0], *halves[1]], params,
            ["embed.proj"] + _names(params, "branch.0."), rng))
    return worst


def check_transition_block():
    """The activation input and every weight of the block: attentions, theta, conv_t, residual."""
    rng = _rng(21)
    config, params, basis, batch = toy_setup()
    e = T.Tensor(rng.standard_normal((config.n_nodes, 1, config.m, config.d_e)))
    return _check_layer(
        lambda: transition_block(params, "transition.0", e, basis, config),
        [e], params, _names(params, "transition.0."), rng)


def check_transition_readout():
    rng = _rng(22)
    config, params, basis, batch = toy_setup()
    h = T.Tensor(rng.standard_normal((config.n_nodes, 1, config.m, config.d_e)))
    w = rng.standard_normal((1, config.n, config.n_nodes))

    def f(t):
        return T.reduce(T.mul(transition_readout(params, t, config), T.Tensor(w)), kind="sum")

    return T.gradient_check(f, h)


def _used_table_elements(batch, d_e):
    rows = np.concatenate([(batch.recent_calendar + CALENDAR_OFFSETS).ravel(),
                           (batch.period_calendar + CALENDAR_OFFSETS).ravel()])
    return sorted({int(r) * d_e + j for r in rows for j in range(d_e)})


def check_full_model():
    """End-to-end loss gradient w.r.t. the input block and every parameter.

    The calendar table is checked on the rows the toy calendar touches (the
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

    worst = max(worst, T.gradient_check(f_input, x))
    for name, tens in params.items():
        def f(t):
            return loss_fn()

        elems = _used_table_elements(batch, tens.shape[1]) if name == "embed.calendar" else None
        worst = max(worst, T.gradient_check(f, tens, elements=elems))
    return worst


def registered_checks():
    """(name, callable) pairs; each callable returns its worst relative error."""
    return [
        ("matmul", check_matmul),
        ("matmul-batched", check_matmul_batched),
        ("attention", check_attention),
        ("self_attention", check_self_attention),
        ("add", check_add),
        ("mul", check_mul),
        ("relu", check_relu),
        ("reduce", check_reduce),
        ("permute", check_permute),
        ("reshape", check_reshape),
        ("gather_rows", check_gather),
        ("fan-in", check_fan_in),
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

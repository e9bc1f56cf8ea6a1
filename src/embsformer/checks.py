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


def _check(call, tensors, rng):
    """Worst error of a fixed random weighting of ``call()`` over each of ``tensors``.

    ``call`` takes no argument: it reads the tensors where
    `T.gradient_check` perturbs them, in place.
    """
    with T.no_grad():
        w = T.Tensor(rng.standard_normal(call().shape))

    def f(_):
        return T.reduce(T.mul(call(), w), kind="sum")

    return max(T.gradient_check(f, t) for t in tensors)


def _tensors(rng, *shapes):
    return [T.Tensor(rng.standard_normal(s)) for s in shapes]


def check_matmul():
    # addends: a bias [r] and a full [p, r]
    rng = _rng(1)
    a, b, bias, full = _tensors(rng, (3, 4), (4, 2), (2,), (3, 2))
    return max(_check(lambda: T.matmul(a, b), [a, b], rng),
               _check(lambda: T.matmul(a, b, bias), [bias], rng),
               _check(lambda: T.matmul(a, b, full), [full], rng))


def check_matmul_batched():
    rng = _rng(2)
    a, b = _tensors(rng, (2, 3, 4), (4, 5))
    return _check(lambda: T.matmul(a, b), [a, b], rng)


def check_attention():
    # distinct sources: q with a bias, a bare k, v with a full addend; a batch
    # dim, L_q != L_k and every width different, so a transposed or swapped
    # gradient cannot pass
    rng = _rng(3)
    ts = xq, wq, bq, k, xv, wv, cv = _tensors(rng, (2, 3, 4), (4, 5), (5,), (2, 6, 5),
                                              (2, 6, 3), (3, 7), (6, 7))
    return _check(lambda: T.attention((xq, wq, bq), k, (xv, wv, cv), 0.7)[0], ts, rng)


def _self_attention_check(axis, x_shape, salt):
    # one source for q, k and v; d, d_k and d_v all different, so a
    # transposed or swapped projection gradient cannot pass
    rng = _rng(salt)
    ts = x, wq, wk, wv, bq, bv = _tensors(rng, x_shape, (4, 5), (4, 5), (4, 6), (5,), (6,))
    return _check(lambda: T.attention((x, wq, bq), (x, wk, None), (x, wv, bv), 0.7, axis)[0],
                  ts, rng)


def check_attention_shared():
    return _self_attention_check(-2, (2, 3, 4), 24)


def check_attention_shared_axis0():
    # attending over axis 0 of [3, 2, 2, 4], moved behind two batch axes
    return _self_attention_check(0, (3, 2, 2, 4), 25)


def _elementwise_check(op, salt):
    rng = _rng(salt)
    a, b = _tensors(rng, (3, 4), (3, 4))
    b.data += 3.0
    return _check(lambda: op(a, b), [a, b], rng)


def check_add():
    return _elementwise_check(T.add, 4)


def check_mul():
    return _elementwise_check(T.mul, 6)


def check_relu():
    rng = _rng(8)
    (x,) = _tensors(rng, (4, 4))
    x.data[np.abs(x.data) < 0.05] = 0.1   # keep inputs away from the kink at 0
    return _check(lambda: T.relu(x), [x], rng)


def check_reduce():
    rng = _rng(10)
    (x,) = _tensors(rng, (3, 4, 2))
    return max(_check(lambda: T.reduce(x, axis=1, kind="sum"), [x], rng),
               _check(lambda: T.reduce(x, axis=0, kind="mean"), [x], rng))


def check_permute():
    rng = _rng(11)
    (x,) = _tensors(rng, (2, 3, 4))
    return _check(lambda: T.permute(x, (2, 0, 1)), [x], rng)


def check_reshape():
    rng = _rng(12)
    (x,) = _tensors(rng, (2, 6))
    return _check(lambda: T.reshape(x, (3, 4)), [x], rng)


def check_gather():
    rng = _rng(16)
    (table,) = _tensors(rng, (6, 3))
    return _check(lambda: T.gather_rows(table, np.array([[0, 2, 2], [5, 1, 0]])), [table], rng)


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
    x, *thetas = _tensors(rng, (4, 2, 3), *[(3, 2)] * 3)   # node-first x [N, T, C]
    x.data += 0.5
    return _check(lambda: cheb_graph_conv(x, basis, thetas), [x, *thetas], rng)


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
    """Worst error of `_check` over a layer's activation ``inputs`` and weights ``names``."""
    return _check(layer, inputs + [params[n] for n in names], rng)


def _names(params, prefix):
    return [name for name in params.names() if name.startswith(prefix)]


def _block_input(salt):
    """(rng, params, basis, e): the toy model, and e [N, 1, m, d_e] drawn from `_rng(salt)`."""
    rng = _rng(salt)
    config, params, basis, _ = toy_setup()
    e = T.Tensor(rng.standard_normal((config.n_nodes, 1, config.m, config.d_e)))
    return rng, params, basis, e


def _check_dense_and_pair(layer, salt, prefix):
    """`_check_layer` of ``layer`` on a dense input, then on an embedding pair.

    The pair is (x [N, 1, m, 1], clock [1, m, d_e]), as `embed` gives it,
    checked with embed.proj, which the layer applies to x; both runs check
    every weight under ``prefix``.
    """
    rng, params, basis, e = _block_input(salt)
    names = _names(params, prefix)
    dense = _check_layer(lambda: layer(params, e, basis), [e], params, names, rng)
    pair = _tensors(rng, e.shape[:-1] + (1,), e.shape[1:])
    return max(dense, _check_layer(lambda: layer(params, tuple(pair), basis), pair, params,
                                   ["embed.proj"] + names, rng))


def check_spatial_attention():
    """The input and every spatial weight and bias, on an activation and on an embedding pair."""
    return _check_dense_and_pair(
        lambda params, e, _basis: spatial_self_attention(params, "transition.0", e),
        18, "transition.0.spatial.")


def check_temporal_attention():
    """The activation input and every temporal weight and bias."""
    rng, params, _, x = _block_input(19)
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
    """The input and every weight of the block: attentions, taps, conv_t, residual.

    On an activation and on an embedding pair, as the first block takes it.
    """
    return _check_dense_and_pair(
        lambda params, e, basis: transition_block(params, "transition.0", e, basis),
        21, "transition.0.")


def check_transition_readout():
    rng = _rng(22)
    config, params, basis, batch = toy_setup()
    (h,) = _tensors(rng, (config.n_nodes, 1, config.m, config.d_e))
    return _check(lambda: transition_readout(params, h, config), [h], rng)


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
        def f(_t):
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
        ("attention-shared", check_attention_shared),
        ("attention-shared-axis0", check_attention_shared_axis0),
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

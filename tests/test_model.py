"""Network blocks: embedding, attentions, transition path, branches, fusion."""

import dataclasses
import hashlib
import json
import re
import struct
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from embsformer import cli
from embsformer import tensor as T
from embsformer.checks import toy_setup
from embsformer.graph import TrafficGraph, cheb_graph_conv, chebyshev_basis, normalized_laplacian
from embsformer.model import (
    _align,
    _embed_parts,
    _project_embedding,
    Batch,
    CheckpointError,
    ModelConfig,
    embed,
    forward,
    fuse,
    generation_branch,
    init_params,
    load_checkpoint,
    mse_loss,
    positional_table,
    save_checkpoint,
    similarity_attention,
    spatial_self_attention,
    temporal_self_attention,
    transition_block,
    transition_readout,
)
from embsformer.training import hours_to_steps


CALENDAR_VOCAB = (1440, 7, 2)     # minute of day, day of week, holiday flag
CALENDAR_OFFSETS = np.array([0, 1440, 1447])  # their first rows in `embed.calendar`


def random_calendar(rng, shape):
    return np.stack([rng.integers(0, v, shape) for v in CALENDAR_VOCAB], axis=-1)


def random_batch(rng, config):
    m, n, N = config.m, config.n, config.n_nodes
    k = len(config.periods)
    return Batch(
        recent=rng.standard_normal((1, m, N, config.n_features)),
        periods=rng.standard_normal((1, k, m + n, N, config.n_features)),
        target=rng.standard_normal((1, n, N)),
        recent_calendar=random_calendar(rng, (1, m)),
        period_calendar=random_calendar(rng, (1, k, m + n)),
    )


def node_first(x):
    """[B, steps, N, ...] -> the layers' node-first [N, B, steps, ...]."""
    return np.ascontiguousarray(np.moveaxis(x, 2, 0))


def basis_for(config, seed=0):
    rng = np.random.default_rng(seed)
    a = (rng.random((config.n_nodes, config.n_nodes)) < 0.5).astype(float)
    g = TrafficGraph(adjacency=a)
    lap = normalized_laplacian(g)
    return chebyshev_basis(lap, 2.0, config.k_cheb)


class TestConfig:
    def test_rejects_short_periods(self):
        with pytest.raises(ValueError, match="period"):
            ModelConfig(m=6, n=6, periods=(10,))

    def test_rejects_fewer_inputs_than_outputs_with_branches(self):
        # the m != n alignment gathers m-n+1 steps per window
        with pytest.raises(ValueError, match="m >= n"):
            ModelConfig(m=2, n=3, periods=(5,))

    def test_rejects_no_active_path(self):
        with pytest.raises(ValueError, match="active"):
            ModelConfig(enable_recent=False, periods=())

    def test_hash_stable(self):
        a = ModelConfig(m=3, n=3, periods=(6,))
        b = ModelConfig(m=3, n=3, periods=(6,))
        assert a.config_hash() == b.config_hash()
        c = ModelConfig(m=3, n=3, periods=(7,))
        assert a.config_hash() != c.config_hash()


class TestInitParams:
    def test_calendar_table_keeps_the_three_table_values(self):
        # embed.calendar is drawn where the minute [1440], day-of-week [7] and
        # holiday [2] tables were drawn in turn, with the same bound, so its
        # rows are their concatenation and every later draw is unchanged
        config = ModelConfig(m=12, n=12, n_nodes=15, periods=(96, 672))
        params = init_params(config, seed=3)
        assert params.names()[:2] == ["embed.proj", "embed.calendar"]
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        rng.uniform(-1.0, 1.0, (1, config.d_e))  # embed.proj: fan_in = n_features = 1
        bound = 1.0 / np.sqrt(config.d_e)
        three = [rng.uniform(-bound, bound, (rows, config.d_e)) for rows in CALENDAR_VOCAB]
        assert params["embed.calendar"].data.tobytes() == np.concatenate(three).tobytes()
        # every other parameter, in path order, as the three-table layout drew
        # it; the zero key biases that layout also held drew nothing
        rest = b"".join(t.data.tobytes() for name, t in params.items() if name != "embed.calendar")
        assert hashlib.sha256(rest).hexdigest() == (
            "6f754a049c3bb615a0b90663e5ed361d31996317a223f8bb8171dd145d84b3f0")

    def test_a_branch_has_a_fifth_of_the_transition_parameters(self):
        # the paper's similarity module needs about 20 % of the parameters of
        # the attention-based transition path; the desk model at the CLI
        # defaults, on the dataset `synth` writes by default
        widths = {key: int(cli.OPTIONS[key][0])
                  for key in ("m", "n", "d_e", "h_prime", "k_cheb", "n_blocks")}
        step = int(cli.OPTIONS["step_minutes"][0])
        hours = sorted(int(h) for h in cli.OPTIONS["periods_hours"][0].split(","))
        config = ModelConfig(n_nodes=int(cli.OPTIONS["nodes"][0]),
                             periods=[hours_to_steps(h, step) for h in hours], **widths)
        params = init_params(config, seed=0)

        def size(prefix):
            return sum(t.size for name, t in params.items() if name.startswith(prefix))

        d, h, k = config.d_e, config.h_prime, config.k_cheb
        branch, blocks = size("branch.0."), size("transition.")
        assert branch == 3 * d * h + 2 * h + h * h + h == 4192
        assert blocks == config.n_blocks * (7 * d * d + 4 * d + k * d * h + h * d) == 22784
        assert round(100 * branch / blocks, 1) == 18.4 <= 20
        assert (len(params.names()), params.count()) == (47, 78284)
        # the per-group counts that `ablation` and `evaluate` report show it
        groups = params.group_counts()
        assert groups["branch"] == len(config.periods) * 4192
        assert groups["transition"] == 22784
        assert groups == {"embed": 46400, "transition": 22784, "branch": 8384, "head": 716}

    @pytest.mark.parametrize("kwargs", [
        {"periods": (24, 48)},
        {"m": 5, "n": 3, "periods": (8, 16), "d_e": 6, "h_prime": 3},   # alignment kernels
        {"periods": (24,), "enable_recent": False},                    # no transition, no readout
        {"n_blocks": 3, "k_cheb": 1},                                  # no branch
    ], ids=["both-paths", "aligned", "branches-only", "recent-only"])
    def test_group_counts_partition_the_parameters(self, kwargs):
        params = init_params(ModelConfig(n_nodes=3, **kwargs), seed=0)
        groups = params.group_counts()
        assert list(groups) == ["embed", "transition", "branch", "head"]
        assert sum(groups.values()) == params.count()
        # "head" is every map into the forecast layout: readout and fusion weights
        for group, prefixes in (("embed", ("embed.",)), ("transition", ("transition.",)),
                                ("branch", ("branch.",)), ("head", ("readout.", "head."))):
            assert groups[group] == sum(t.size for name, t in params.items()
                                        if name.startswith(prefixes))


def tiled_embed(params, config, block, calendar):
    """Reference for `embed`: every calendar index tiled over the N nodes.

    Node-first like `embed`, and sums in its order: projection +
    ((minute + dow + holiday) + position).
    """
    steps, n_nodes = block.shape[1], block.shape[2]
    x = block if isinstance(block, T.Tensor) else T.Tensor(block)
    e = T.matmul(T.permute(x, (2, 0, 1, 3)), params["embed.proj"])
    rows = np.repeat((calendar + CALENDAR_OFFSETS)[None], n_nodes, axis=0)
    clock = T.reduce(T.gather_rows(params["embed.calendar"], rows), axis=-2)
    pos = positional_table(steps, config.d_e)[None, None, :, :]
    return T.add(e, T.add(clock, T.Tensor(np.broadcast_to(pos, e.shape))))


class TestEmbed:
    def test_additive_decomposition(self):
        config = ModelConfig(m=4, n=2, n_nodes=3, d_e=4, periods=(6,))
        params = init_params(config, seed=0)
        params["embed.calendar"].data[:] = 0.0
        rng = np.random.default_rng(1)
        block = rng.standard_normal((2, 4, 3, 1))
        out = embed(params, config, block, random_calendar(rng, (2, 4)))
        proj = np.einsum("bsnf,fd->nbsd", block, params["embed.proj"].data)
        expected = proj + positional_table(4, 4)[None, None, :, :]
        assert np.allclose(out.data, expected, atol=1e-14)

    def test_identical_calendar_gives_identical_non_data_terms(self):
        config = ModelConfig(m=2, n=2, n_nodes=2, d_e=4, periods=(4,))
        params = init_params(config, seed=3)
        calendar = np.array([[[30, 2, 1], [30, 2, 1]]])  # (minute, dow, holiday) per step
        zero = np.zeros((1, 2, 2, 1))
        out = embed(params, config, zero, calendar).data
        # same (minute, dow, holiday); only position differs, remove it
        depos = out - positional_table(2, 4)[None, None, :, :]
        assert np.allclose(depos[:, 0, 0], depos[:, 0, 1], atol=1e-14)

    def test_output_shapes(self):
        config = ModelConfig(m=5, n=3, n_nodes=4, d_e=8, periods=(8,))
        params = init_params(config, seed=0)
        rng = np.random.default_rng(2)
        rec = embed(params, config, rng.standard_normal((1, 5, 4, 1)), np.zeros((1, 5, 3), int))
        assert rec.shape == (4, 1, 5, 8)
        per = embed(params, config, rng.standard_normal((1, 8, 4, 1)), np.zeros((1, 8, 3), int))
        assert per.shape == (4, 1, 8, 8)

    @pytest.mark.parametrize("column,name", [(0, "minute-of-day"), (1, "day-of-week"),
                                             (2, "holiday")], ids=["minute", "dow", "holiday"])
    @pytest.mark.parametrize("bound", ["below", "above"])
    def test_calendar_out_of_range(self, column, name, bound):
        config = ModelConfig(m=2, n=2, n_nodes=2, d_e=4, periods=(4,))
        params = init_params(config, seed=0)
        calendar = np.zeros((1, 2, 3), int)
        vocab = CALENDAR_VOCAB[column]
        calendar[0, 1, column] = -1 if bound == "below" else vocab
        with pytest.raises(ValueError, match=re.escape(f"{name} index out of range [0, {vocab - 1}]")):
            embed(params, config, np.zeros((1, 2, 2, 1)), calendar)

    def test_one_gather_per_call(self):
        config = ModelConfig(m=4, n=2, n_nodes=3, d_e=4, periods=(6,))
        params = init_params(config, seed=0)
        rng = np.random.default_rng(3)
        block, calendar = rng.standard_normal((2, 4, 3, 1)), random_calendar(rng, (2, 4))
        start = len(T.current_tape() or ())   # earlier tests may leave a tape unreplayed
        out = embed(params, config, block, calendar)
        ops = [node.op for node in T.current_tape().nodes[start:]]
        T.backward(T.reduce(out, kind="sum"))
        assert ops.count("gather_rows") == 1
        assert ops.count("add") == 1   # the positional table; the clock rides on the projection

    def test_positional_table_is_built_once_and_read_only(self):
        table = positional_table(7, 6)
        assert positional_table(7, 6) is table
        assert not table.flags.writeable
        angle = np.arange(7)[:, None] / 10000.0 ** (2 * (np.arange(6) // 2) / 6)
        assert np.allclose(table, np.where(np.arange(6) % 2, np.cos(angle), np.sin(angle)),
                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("m,n", [(3, 3), (5, 2)])
    def test_halves_are_rows_of_the_whole_window(self, m, n):
        # the pseudo-future, embedded from step m on, keeps its positional
        # rows m..m+n-1: its clock and data are the whole window's, bit for bit
        config = ModelConfig(m=m, n=n, n_nodes=3, n_features=2, d_e=6, periods=(m + n,))
        params = init_params(config, seed=6)
        rng = np.random.default_rng(60 + m)
        block = rng.standard_normal((2, m + n, 3, 2))
        calendar = random_calendar(rng, (2, m + n))
        rows = params["embed.calendar"].data[calendar + CALENDAR_OFFSETS]
        whole = rows.sum(axis=-2) + positional_table(m + n, config.d_e)   # positions 0..m+n-1
        with T.no_grad():
            x, clock = _embed_parts(params, config, block, calendar)
            assert clock.data.tobytes() == whole.tobytes()
            for first, last in ((0, m), (m, m + n)):
                x_h, clock_h = _embed_parts(params, config, block[:, first:last],
                                            calendar[:, first:last], first_step=first)
                assert x_h.data.tobytes() == x.data[:, :, first:last].tobytes()
                assert clock_h.data.tobytes() == clock.data[:, first:last].tobytes()

    @pytest.mark.parametrize("n_nodes,n_features,steps", [(1, 1, 4), (1, 2, 4), (15, 1, 12), (6, 3, 1)])
    @pytest.mark.parametrize("tensor_block", [False, True])
    def test_matches_tiled_reference(self, n_nodes, n_features, steps, tensor_block):
        config = ModelConfig(m=4, n=2, n_nodes=n_nodes, n_features=n_features, d_e=8, periods=(6,))
        params = init_params(config, seed=5)
        rng = np.random.default_rng(n_nodes * 10 + n_features)
        data = rng.standard_normal((3, steps, n_nodes, n_features))
        calendar = random_calendar(rng, (3, steps))
        w = T.Tensor(node_first(rng.standard_normal((3, steps, n_nodes, config.d_e))))
        names = ("embed.calendar", "embed.proj")

        def run(fn):
            params.zero_grads()
            block = T.Tensor(data, requires_grad=True)
            out = fn(params, config, block if tensor_block else data, calendar)
            T.backward(T.reduce(T.mul(out, w), kind="sum"))
            grads = [params[k].grad for k in names]
            return out.data, grads + ([block.grad] if tensor_block else [])

        got, got_grads = run(embed)
        ref, ref_grads = run(tiled_embed)
        assert got.tobytes() == ref.tobytes()
        for g, r in zip(got_grads, ref_grads):
            assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))

    @pytest.mark.parametrize("n_features", [1, 2, 3])
    def test_clock_addend_matches_matmul_then_add(self, n_features):
        # the projection adds the clock into its product in place: the same
        # bytes, forward and backward, as a separate add after the matmul
        config = ModelConfig(m=4, n=2, n_nodes=5, n_features=n_features, d_e=8, periods=(6,))
        params = init_params(config, seed=7)
        rng = np.random.default_rng(40 + n_features)
        data = rng.standard_normal((3, 4, 5, n_features))
        calendar = random_calendar(rng, (3, 4))
        w = T.Tensor(rng.standard_normal((5, 3, 4, config.d_e)))
        names = ("embed.calendar", "embed.proj")

        def matmul_then_add(params, config, block, calendar):
            rows = T.gather_rows(params["embed.calendar"], calendar + CALENDAR_OFFSETS)
            pos = T.Tensor(positional_table(block.shape[1], config.d_e))
            clock = T.add(T.reduce(rows, axis=-2), pos)
            e = T.matmul(T.permute(T.Tensor(block), (2, 0, 1, 3)), params["embed.proj"])
            return T.add(e, clock)

        def run(fn):
            params.zero_grads()
            out = fn(params, config, data, calendar)
            T.backward(T.reduce(T.mul(out, w), kind="sum"))
            return [out.data] + [params[k].grad for k in names]

        for got, ref in zip(run(embed), run(matmul_then_add)):
            assert got.tobytes() == ref.tobytes()


class TestSpatialAttention:
    def test_single_node_returns_value_exactly(self):
        config = ModelConfig(m=3, n=3, n_nodes=1, d_e=4, periods=(6,))
        params = init_params(config, seed=1)
        rng = np.random.default_rng(4)
        e = rng.standard_normal((1, 3, 1, 4))   # [B, m, N, d_e], the layout attended on
        out = spatial_self_attention(params, "transition.0", T.Tensor(node_first(e)))
        v = e @ params["transition.0.spatial.wv"].data + params["transition.0.spatial.bv"].data
        assert np.array_equal(out.data, node_first(v))

    def test_score_rows_sum_to_one(self):
        config = ModelConfig(m=3, n=3, n_nodes=5, d_e=4, periods=(6,))
        params = init_params(config, seed=2)
        sink = []
        e = T.Tensor(node_first(np.random.default_rng(5).standard_normal((2, 3, 5, 4))))
        spatial_self_attention(params, "transition.0", e, sink=sink)
        label, scores = sink[0]
        assert label == "spatial"
        assert scores.shape == (2, 3, 5, 5)
        assert np.max(np.abs(scores.sum(axis=-1) - 1.0)) < 1e-9

    def test_node_permutation_equivariance(self):
        config = ModelConfig(m=2, n=2, n_nodes=3, d_e=4, periods=(4,))
        params = init_params(config, seed=3)
        rng = np.random.default_rng(6)
        e = node_first(rng.standard_normal((1, 2, 3, 4)))
        perm = np.array([2, 0, 1])
        base = spatial_self_attention(params, "transition.0", T.Tensor(e)).data
        moved = spatial_self_attention(params, "transition.0", T.Tensor(e[perm])).data
        assert np.allclose(moved, base[perm], atol=1e-12)


class TestTemporalAttention:
    def test_single_step_returns_value(self):
        config = ModelConfig(m=1, n=1, n_nodes=3, d_e=4, periods=(2,))
        params = init_params(config, seed=1)
        x = T.Tensor(node_first(np.random.default_rng(7).standard_normal((1, 1, 3, 4))))
        out = temporal_self_attention(params, "transition.0", x)
        v = x.data @ params["transition.0.temporal.wv"].data + params["transition.0.temporal.bv"].data
        assert np.allclose(out.data, v, atol=1e-15)

    def test_weights_shared_across_nodes(self):
        config = ModelConfig(m=4, n=4, n_nodes=2, d_e=4, periods=(8,))
        params = init_params(config, seed=2)
        rng = np.random.default_rng(8)
        one_series = rng.standard_normal((1, 4, 1, 4))
        x = T.Tensor(node_first(np.tile(one_series, (1, 1, 2, 1))))
        out = temporal_self_attention(params, "transition.0", x).data
        assert np.array_equal(out[0], out[1])

    def test_score_rows_sum_to_one(self):
        config = ModelConfig(m=4, n=4, n_nodes=2, d_e=4, periods=(8,))
        params = init_params(config, seed=2)
        sink = []
        x = T.Tensor(node_first(np.random.default_rng(9).standard_normal((1, 4, 2, 4))))
        temporal_self_attention(params, "transition.0", x, sink=sink)
        _, scores = sink[0]
        assert scores.shape == (2, 1, 4, 4)
        assert np.max(np.abs(scores.sum(axis=-1) - 1.0)) < 1e-9


class TestTransitionBlock:
    def test_zeroed_branch_leaves_residual_only(self):
        config, params, basis, _ = toy_setup()
        params["transition.0.conv_t"].data[:] = 0.0
        params["transition.0.residual"].data[:] = np.eye(config.d_e)
        e = T.Tensor(node_first(np.random.default_rng(10).standard_normal((1, 3, 4, 4))))
        out = transition_block(params, "transition.0", e, basis, config)
        assert np.allclose(out.data, e.data, atol=1e-14)

    def test_shape_preserved_for_stacking(self):
        config, params, basis, _ = toy_setup()
        e = T.Tensor(node_first(np.random.default_rng(11).standard_normal((2, 3, 4, 4))))
        out = transition_block(params, "transition.0", e, basis, config)
        assert out.shape == e.shape

    def test_gradient_reaches_every_live_weight(self):
        # keys carry no bias, which no softmax could see, so every parameter
        # must receive signal
        config, params, basis, batch = toy_setup()
        params.zero_grads()
        pred = forward(batch, params, config, basis)
        rng = np.random.default_rng(12)
        loss = T.reduce(T.mul(pred, T.Tensor(rng.standard_normal(pred.shape))), kind="sum")
        T.backward(loss)
        for name, tens in params.items():
            assert tens.grad is not None, name
            assert np.linalg.norm(tens.grad) > 1e-12, name

    @pytest.mark.parametrize("layer", ["transition_block", "cheb_graph_conv"])
    def test_adds_ride_the_matmuls(self, layer):
        # the biases, the residual and the Chebyshev sum are matmul addends
        config, params, basis, _ = toy_setup(k_cheb=3)
        e = T.Tensor(node_first(np.random.default_rng(13).standard_normal((2, 3, 4, 4))),
                     requires_grad=True)
        start = len(T.current_tape() or ())   # earlier tests may leave a tape unreplayed
        if layer == "transition_block":
            out = transition_block(params, "transition.0", e, basis, config)
        else:
            out = cheb_graph_conv(e, basis, params["transition.0.theta"])
        ops = [node.op for node in T.current_tape().nodes[start:]]
        T.backward(T.reduce(out, kind="sum"))
        assert "add" not in ops
        # a self-attention layer is one node, which projects q, k and v itself
        assert ops.count("matmul") == (7 if layer == "transition_block" else 5)


class TestTransitionReadout:
    def test_constructed_kernels_select_channel(self):
        config, params, basis, _ = toy_setup(m=3, n=3)
        # time mix = identity over steps; feature kernel selects channel 0
        params["readout.time_mix"].data[:] = np.eye(3)
        fk = np.zeros((config.d_e, 1))
        fk[0, 0] = 1.0
        params["readout.feature"].data[:] = fk
        h = np.random.default_rng(13).standard_normal((1, 3, 4, config.d_e))
        out = transition_readout(params, T.Tensor(node_first(h)), config)
        assert np.allclose(out.data, h[:, :, :, 0], atol=1e-14)

    @pytest.mark.parametrize("m,n", [(12, 12), (36, 36), (12, 36)])
    def test_shapes(self, m, n):
        # m < n is legal for the recent-only path; branches need m >= n
        config = ModelConfig(m=m, n=n, n_nodes=5, d_e=4, h_prime=4,
                             k_cheb=2, n_blocks=1, periods=(), enable_recent=True)
        params = init_params(config, seed=0)
        h = T.Tensor(node_first(np.random.default_rng(14).standard_normal((2, m, 5, 4))))
        assert transition_readout(params, h, config).shape == (2, n, 5)


def split_window(x, clock, m):
    """A window's data [N, B, m+n, F] and clock [B, m+n, d_e] as its two (data, clock) halves."""
    return ((T.Tensor(x[:, :, :m]), T.Tensor(clock[:, :m])),
            (T.Tensor(x[:, :, m:]), T.Tensor(clock[:, m:])))


def period_halves(rng, n_nodes, batch, m, n, n_features, d_e):
    """An arbitrary branch window as `similarity_attention` takes it: two (data, clock) pairs."""
    return split_window(rng.standard_normal((n_nodes, batch, m + n, n_features)),
                        rng.standard_normal((batch, m + n, d_e)), m)


def factored_projection(params, x, clock, w, b):
    """x @ (P @ w) + (clock @ w + b) in numpy, the grouping the branch keys use."""
    return x @ (params["embed.proj"].data @ w) + (clock @ w + b)


def unfolded_readout(params, y):
    """(y @ conv_t) @ conv_c in numpy: branch 0's readout, applied after the lookup."""
    return (y @ params["branch.0.conv_t"].data) @ params["branch.0.conv_c"].data


class TestSimilarityAttention:
    def _config(self, **kw):
        defaults = dict(m=3, n=3, n_nodes=2, d_e=4, h_prime=4,
                        k_cheb=2, n_blocks=1, periods=(6,))
        defaults.update(kw)
        return ModelConfig(**defaults)

    def test_sharp_lookup_retrieves_pseudo_future(self):
        config = self._config()
        params = init_params(config, seed=1)
        pre = "branch.0"
        params[f"{pre}.wq"].data[:] = np.eye(4)
        params[f"{pre}.wk"].data[:] = np.eye(4)
        params[f"{pre}.bq"].data[:] = 0.0
        scale = 40.0
        # orthogonal one-hot time codes; recent equals the pseudo-input, whose
        # data is zero, so its embedding is the clock alone
        codes = np.concatenate([scale * np.eye(3), np.zeros((3, 1))], axis=-1)  # [m, 4]
        e_r = T.Tensor(np.broadcast_to(codes, (2, 1, 3, 4)))
        rng = np.random.default_rng(15)
        x_p = np.concatenate([np.zeros((2, 1, 3, 1)), rng.standard_normal((2, 1, 3, 1))], axis=2)
        clock_p = np.concatenate([codes, rng.standard_normal((3, 4))])[None]
        out = similarity_attention(params, 0, e_r, *split_window(x_p, clock_p, 3), config)
        v = factored_projection(params, x_p[:, :, 3:], clock_p[:, 3:],
                                params[f"{pre}.wv"].data, params[f"{pre}.bv"].data)
        assert np.allclose(out.data, unfolded_readout(params, v), atol=1e-9)

    def test_single_step_degenerate(self):
        config = self._config(m=1, n=1, periods=(2,))
        params = init_params(config, seed=2)
        rng = np.random.default_rng(16)
        e_r = T.Tensor(node_first(rng.standard_normal((1, 1, 2, 4))))
        past, (x_f, clock_f) = period_halves(rng, 2, 1, 1, 1, 1, 4)
        out = similarity_attention(params, 0, e_r, past, (x_f, clock_f), config)
        v = factored_projection(params, x_f.data, clock_f.data,
                                params["branch.0.wv"].data, params["branch.0.bv"].data)
        assert np.allclose(out.data, unfolded_readout(params, v), atol=1e-15)

    def test_rows_sum_and_shape(self):
        config = self._config()
        params = init_params(config, seed=3)
        rng = np.random.default_rng(17)
        sink = []
        out = similarity_attention(
            params, 0, T.Tensor(node_first(rng.standard_normal((2, 3, 2, 4)))),
            *period_halves(rng, 2, 2, 3, 3, 1, 4), config, sink=sink,
        )
        assert out.shape == (2, 2, 3, 1)
        label, scores = sink[0]
        assert label == "similarity.0"
        assert np.max(np.abs(scores.sum(axis=-1) - 1.0)) < 1e-9

    def test_window_length_mismatch(self):
        # a half with the wrong step count is named
        config = self._config()
        params = init_params(config, seed=4)
        e_r = T.Tensor(np.zeros((2, 1, 3, 4)))

        def half(steps):
            return T.Tensor(np.zeros((2, 1, steps, 1))), T.Tensor(np.zeros((1, steps, 4)))

        for past, future, message in ((half(2), half(3), "pseudo-input has 2 steps, expected 3"),
                                      (half(3), half(4), "pseudo-future has 4 steps, expected 3")):
            with pytest.raises(ValueError, match=message):
                similarity_attention(params, 0, e_r, past, future, config)

    def test_alignment_when_m_exceeds_n(self):
        config = self._config(m=5, n=2, periods=(7,))
        params = init_params(config, seed=5)
        rng = np.random.default_rng(18)
        out = similarity_attention(
            params, 0, T.Tensor(node_first(rng.standard_normal((1, 5, 2, 4)))),
            *period_halves(rng, 2, 1, 5, 2, 1, 4), config,
        )
        assert out.shape == (2, 1, 2, 1)

    @pytest.mark.parametrize("m,n", [(3, 3), (5, 2)])
    @pytest.mark.parametrize("n_features", [1, 3])
    def test_projects_the_pair_as_the_dense_embedding(self, m, n, n_features):
        # k from the pseudo-input's data and clock, and v from the
        # pseudo-future's, equal the embedding of the whole window, sliced,
        # then projected; and the branch, with conv_t and conv_c folded into
        # its values, equals attention over those, then conv_t, then conv_c
        config = self._config(m=m, n=n, n_nodes=4, n_features=n_features, d_e=6, h_prime=5,
                              periods=(m + n,))
        params = init_params(config, seed=8)
        rng = np.random.default_rng(50 + n_features)
        block = rng.standard_normal((3, m + n, 4, n_features))
        calendar = random_calendar(rng, (3, m + n))
        e_r = T.Tensor(node_first(rng.standard_normal((3, m, 4, config.d_e))))
        with T.no_grad():
            halves = (_embed_parts(params, config, block[:, :m], calendar[:, :m]),
                      _embed_parts(params, config, block[:, m:], calendar[:, m:], first_step=m))
            e_p = embed(params, config, block, calendar).data
            dense = {}
            for name, (x, clock), steps in (("k", halves[0], slice(0, m)),
                                            ("v", halves[1], slice(m, m + n))):
                w, b = params[f"branch.0.w{name}"], params.tensors.get(f"branch.0.b{name}")
                dense[name] = e_p[:, :, steps] @ w.data + (0.0 if b is None else b.data)
                factored = T.matmul(*_project_embedding(params, x, clock, w, b)).data
                assert np.max(np.abs(factored - dense[name])) <= 1e-12 * np.max(np.abs(dense[name]))
            q = T.matmul(e_r, params["branch.0.wq"], params["branch.0.bq"])
            k = T.Tensor(dense["k"])
            if m != n:
                q = _align(q, params["branch.0.align_q"])
                k = _align(k, params["branch.0.align_k"])
            ref = T.attention(q, k, T.Tensor(dense["v"]), 1.0 / np.sqrt(config.h_prime))[0].data
            ref = np.moveaxis(unfolded_readout(params, ref)[..., 0], 0, -1)    # [B, n, N]
            out = generation_branch(similarity_attention(params, 0, e_r, *halves, config)).data
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_width_h_prime_only_for_queries_and_keys(self):
        # the readout rides on the values: no value, attention output or
        # conv_t product of width h' is recorded; and at m == n queries and
        # keys are projected inside the attention node, so none is recorded
        config = self._config(n_nodes=4, d_e=6, h_prime=5)
        params = init_params(config, seed=9)
        rng = np.random.default_rng(19)
        e_r = T.Tensor(node_first(rng.standard_normal((2, 3, 4, 6))))
        halves = period_halves(rng, 4, 2, 3, 3, 1, 6)
        start = len(T.current_tape() or ())
        y = generation_branch(similarity_attention(params, 0, e_r, *halves, config))
        shapes = [node.shape for node in T.current_tape().nodes[start:]]
        T.backward(T.reduce(y))
        assert [s for s in shapes if s[:2] == (4, 2) and s[-1] == 5] == []


class TestGenerationBranch:
    def test_one_column_becomes_the_forecast_layout(self):
        y = np.random.default_rng(19).standard_normal((3, 2, 4, 1))   # [N, B, n, 1]
        out = generation_branch(T.Tensor(y))
        assert out.shape == (2, 4, 3)
        assert np.array_equal(out.data, np.moveaxis(y[..., 0], 0, -1))

    def test_records_only_the_relayout(self):
        rng = np.random.default_rng(20)
        y = T.Tensor(rng.standard_normal((3, 2, 4, 1)), requires_grad=True)
        w = rng.standard_normal((2, 4, 3))
        start = len(T.current_tape() or ())
        loss = T.reduce(T.mul(generation_branch(y), T.Tensor(w)))
        ops = [node.op for node in T.current_tape().nodes[start:]]
        T.backward(loss)
        assert ops == ["reshape", "permute", "mul", "reduce"]
        assert np.array_equal(y.grad, np.moveaxis(w, -1, 0)[..., None])


class TestFuse:
    def test_identity_fusion(self):
        config, params, basis, _ = toy_setup(periods=0)
        y_r = T.Tensor(np.random.default_rng(21).standard_normal((1, 3, 4)))
        out = fuse(params, config, y_r, [])
        assert np.array_equal(out.data, y_r.data)

    def test_single_branch_only(self):
        config, params, basis, _ = toy_setup()
        params["head.w_r"].data[:] = 0.0
        params["head.w_p.0"].data[:] = 1.0
        rng = np.random.default_rng(22)
        y_r = T.Tensor(rng.standard_normal((1, 3, 4)))
        y_p = T.Tensor(rng.standard_normal((1, 3, 4)))
        out = fuse(params, config, y_r, [y_p])
        assert np.allclose(out.data, y_p.data, atol=1e-15)

    def test_analytic_head_gradient(self):
        # d MSE / d W_r == 2/(n*N) * (pred - target) * Y_r elementwise
        config, params, basis, batch = toy_setup()
        params.zero_grads()
        rng = np.random.default_rng(23)
        e = embed(params, config, batch.recent, batch.recent_calendar)
        h = transition_block(params, "transition.0", e, basis, config)
        y_r = transition_readout(params, h, config)
        pred = fuse(params, config, y_r, [])
        target = rng.standard_normal(pred.shape)
        loss = mse_loss(pred, target)
        T.backward(loss)
        n, N = config.n, config.n_nodes
        expected = 2.0 / (n * N) * (pred.data - target) * y_r.data
        assert np.max(np.abs(params["head.w_r"].grad - expected[0])) < 1e-8

    def test_all_absent_rejected(self):
        config, params, basis, _ = toy_setup()
        with pytest.raises(ValueError):
            fuse(params, config, None, [])


class TestMseLoss:
    def test_zero_for_perfect(self):
        y = np.random.default_rng(24).standard_normal((1, 3, 4))
        assert mse_loss(T.Tensor(y), y).item() == 0.0

    def test_all_ones_error(self):
        y = np.zeros((1, 2, 3))
        assert mse_loss(T.Tensor(y + 1.0), y).item() == 1.0

    def test_loop_oracle(self):
        rng = np.random.default_rng(25)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((2, 3, 4))
        expected = 0.0
        for idx in np.ndindex(a.shape):
            expected += (a[idx] - b[idx]) ** 2
        expected /= a.size
        assert abs(mse_loss(T.Tensor(a), b).item() - expected) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            mse_loss(T.Tensor(np.zeros((1, 2, 3))), np.zeros((1, 3, 2)))

    def test_value_and_gradient_bytes_match_numpy(self):
        rng = np.random.default_rng(26)
        a = rng.standard_normal((2, 3, 4)) * 10.0 ** rng.integers(-6, 6, (2, 3, 4))
        b = rng.standard_normal((2, 3, 4))
        pred = T.Tensor(a, requires_grad=True)
        loss = mse_loss(pred, b)
        T.backward(loss)
        diff = a - b
        assert loss.data.tobytes() == ((diff * diff).sum(axis=(0, 1, 2)) / diff.size).tobytes()
        half = diff * (1.0 / diff.size)   # d mean(diff^2) / d pred = 2 diff / size
        assert pred.grad.tobytes() == (half + half).tobytes()


class TestForward:
    def test_ablation_flags(self):
        for enable_recent, periods in ((True, ()), (False, (6,)), (True, (6,))):
            config = ModelConfig(m=3, n=3, n_nodes=4, d_e=4, h_prime=4,
                                 k_cheb=2, n_blocks=1, periods=periods,
                                 enable_recent=enable_recent)
            params = init_params(config, seed=1)
            basis = basis_for(config)
            batch = random_batch(np.random.default_rng(26), config)
            out = forward(batch, params, config, basis)
            assert out.shape == (1, 3, 4)

    def test_disabled_period_has_no_branch_parameters(self):
        config = ModelConfig(m=3, n=3, n_nodes=4, d_e=4, periods=(), enable_recent=True)
        params = init_params(config, seed=1)
        assert not any(name.startswith(("branch.", "head.w_p")) for name in params.names())

    def test_disabled_recent_has_no_transition_parameters(self):
        config = ModelConfig(m=3, n=3, n_nodes=4, d_e=4, periods=(6,), enable_recent=False)
        params = init_params(config, seed=1)
        assert not any(
            name.startswith(("transition.", "readout.", "head.w_r"))
            for name in params.names()
        )

    @pytest.mark.parametrize("m,n", [(12, 12), (36, 36)])
    @pytest.mark.parametrize("k_cheb", [2, 3])
    @pytest.mark.parametrize("branches", [0, 1, 2, 4])
    def test_shape_sweep(self, m, n, k_cheb, branches):
        periods = tuple(m + n + 4 * i for i in range(branches))
        config = ModelConfig(m=m, n=n, n_nodes=5, n_features=2, d_e=4,
                             h_prime=4, k_cheb=k_cheb, n_blocks=1,
                             periods=periods, enable_recent=True)
        params = init_params(config, seed=0)
        basis = basis_for(config)
        batch = random_batch(np.random.default_rng(27), config)
        out = forward(batch, params, config, basis)
        assert out.shape == (1, n, 5)

    def test_determinism(self):
        config, params, basis, batch = toy_setup()
        a = forward(batch, params, config, basis).data
        b = forward(batch, params, config, basis).data
        assert np.array_equal(a, b)

    def test_node_permutation_equivariance_edgeless(self):
        config = ModelConfig(m=3, n=3, n_nodes=4, d_e=4, h_prime=4,
                             k_cheb=2, n_blocks=1, periods=(6,))
        params = init_params(config, seed=5)
        g = TrafficGraph(adjacency=np.zeros((4, 4)))
        lap = normalized_laplacian(g)
        basis = chebyshev_basis(lap, 2.0, 2)
        batch = random_batch(np.random.default_rng(28), config)
        perm = np.array([3, 1, 0, 2])
        base = forward(batch, params, config, basis).data
        permuted = dataclasses.replace(
            batch,
            recent=batch.recent[:, :, perm, :],
            periods=batch.periods[:, :, :, perm, :],
            target=batch.target[:, :, perm],
        )
        moved = forward(permuted, params, config, basis).data
        assert np.allclose(moved, base[:, :, perm], atol=1e-10)

    @staticmethod
    def _desk_step_inputs():
        """Config, parameters, batch and basis at the benchmark's desk shape.

        m = n = 12, N = 15, B = 16, two blocks, periods of 24 h and 168 h at
        15-minute steps.
        """
        config = ModelConfig(m=12, n=12, n_nodes=15, periods=(96, 672))
        params = init_params(config, seed=0)
        rng = np.random.default_rng(30)
        k = len(config.periods)
        batch = Batch(
            recent=rng.standard_normal((16, 12, 15, 1)),
            periods=rng.standard_normal((16, k, 24, 15, 1)),
            target=rng.standard_normal((16, 12, 15)),
            recent_calendar=random_calendar(rng, (16, 12)),
            period_calendar=random_calendar(rng, (16, k, 24)),
        )
        return config, params, batch, basis_for(config)

    @classmethod
    def _desk_step_tape(cls, sink=None, inputs=None):
        """Loss and tape nodes of one training forward on `_desk_step_inputs`.

        ``sink`` is passed to `forward`; ``inputs``, when given, are the
        helper's, built by the caller.
        """
        config, params, batch, basis = inputs or cls._desk_step_inputs()
        start = len(T.current_tape() or ())   # earlier tests may leave a tape unreplayed
        loss = mse_loss(forward(batch, params, config, basis, sink), batch.target)
        return loss, T.current_tape().nodes[start:]

    def test_tape_of_a_training_step(self):
        # 8 adds remain: 1 per clock (the recent window's and each branch
        # half's), 2 in the fusion and the loss's difference; 3 permutes, one
        # per readout, and none around spatial attention, which attends over
        # axis 0 in place; 6 attention nodes, one per layer and branch, and no
        # q, k or v projection node: the branches project their queries, keys
        # and values inside the node too. The outputs still alive at the end
        # of forward are those some gradient function reads, and the loss;
        # they are counted once per base buffer (a reshape is a view of its
        # input), and a dead one reads as empty. The scores each attention
        # saves are no node output: the sink holds them
        sink = []
        loss, nodes = self._desk_step_tape(sink)
        ops = [node.op for node in nodes]
        around = [(p.op, node.op) for node in nodes for p in node.parents
                  if isinstance(p, T._Node) and "attention" in (p.op, node.op)]
        bases = {}
        for node in nodes:
            data = node.out.data
            base = data if data.base is None else data.base
            bases[id(base)] = base.nbytes
        outputs = sum(bases.values())
        for _, scores in sink:
            bases[id(scores if scores.base is None else scores.base)] = scores.nbytes
        T.backward(loss)
        assert len(ops) == 85
        assert ops.count("add") == 8
        assert ops.count("permute") == 3 and ("permute", "attention") not in around
        assert ("attention", "permute") not in around
        assert ops.count("attention") == 6 and ops.count("matmul") == 31
        assert outputs <= 7_197_720
        assert sum(bases.values()) <= 8_994_840   # + 1,797,120 of scores

    def test_peak_of_a_training_step(self):
        # every attention gradient finishes one operand before it makes the
        # next, so no backward holds v, q, k and their gradients at once:
        # one desk step (forward and backward) peaks at 11.8 MB traced,
        # against 13.1 MB when each held them all
        inputs = self._desk_step_inputs()
        T.drop_tape()
        tracemalloc.start()
        try:
            loss, _ = self._desk_step_tape(inputs=inputs)
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 11_800_000

    def test_a_kept_prediction_holds_no_graph_after_drop_tape(self):
        # a pass that fails after forward (say, a non-finite loss) ends in
        # `drop_tape`; the prediction the caller still holds then keeps no
        # node's gradient function, and so no saved activation, alive
        config, params, basis, batch = toy_setup()
        start = len(T.current_tape() or ())   # earlier tests may leave a tape unreplayed
        pred = forward(batch, params, config, basis)
        nodes = T.current_tape().nodes[start:]
        assert sum(node.out.data.size > 0 for node in nodes) > 1   # operands saved for backward
        T.drop_tape()
        assert [node for node in nodes if node.out.data.size > 0] == [pred._node]
        assert pred._node.fn is None and pred._node.parents is None

    def test_no_period_embedding_on_the_tape(self):
        # a branch projects its window's data and clock: no node of a training
        # forward outputs a [N, B, m+n, d_e] embedding
        loss, nodes = self._desk_step_tape()
        shapes = [node.shape for node in nodes]
        T.backward(loss)
        assert (15, 16, 12, 32) in shapes   # the recent embedding is still dense
        assert (15, 16, 24, 32) not in shapes

    def test_attention_sink_covers_all_mechanisms(self):
        config, params, basis, batch = toy_setup()
        sink = []
        forward(batch, params, config, basis, sink=sink)
        labels = {label for label, _ in sink}
        assert labels == {"spatial", "temporal", "similarity.0"}


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path):
        config, params, basis, _ = toy_setup()
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, params, config)
        loaded, config2 = load_checkpoint(p1)
        save_checkpoint(p2, loaded, config2)
        assert p1.read_bytes() == p2.read_bytes()
        for name, tens in params.items():
            assert np.array_equal(loaded[name].data, tens.data)
        assert config2.to_dict() == config.to_dict()

    def test_corrupt_magic(self, tmp_path):
        config, params, basis, _ = toy_setup()
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, params, config)
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [7, 30, -3])
    def test_truncated_file_names_path(self, tmp_path, cut):
        config, params, basis, _ = toy_setup()
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, params, config)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_impossible_shape_names_path(self, tmp_path):
        # a zero dim makes the payload empty, but numpy cannot index the other dims
        config, params, basis, _ = toy_setup()
        blob = json.dumps(config.to_dict()).encode("utf-8")
        path = tmp_path / "shape.ckpt"
        table = struct.pack("<IH", 1, 1) + b"w" + struct.pack("<BIII", 3, 0, 2**32 - 1, 2**32 - 1)
        path.write_bytes(b"EMBS1" + struct.pack("<I", len(blob)) + blob + table)
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*impossible shape"):
            load_checkpoint(path)

    @staticmethod
    def _replace_config(path, doc):
        """Rewrite the config blob of the checkpoint at ``path`` as the JSON of ``doc``."""
        raw = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", raw[5:9])
        blob = json.dumps(doc).encode("utf-8")
        path.write_bytes(raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + cfg_len:])

    def test_unknown_config_key_names_path(self, tmp_path):
        config, params, basis, _ = toy_setup()
        path = tmp_path / "extra.ckpt"
        save_checkpoint(path, params, config)
        self._replace_config(path, {**config.to_dict(), "bogus": 1})
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*bogus"):
            load_checkpoint(path)

    def test_parameter_table_must_match_config(self, tmp_path):
        config, params, basis, _ = toy_setup()
        # a config written while ModelConfig still had an enable_period flag
        path = tmp_path / "enable-period.ckpt"
        save_checkpoint(path, params, config)
        self._replace_config(path, {**config.to_dict(), "enable_period": True})
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*enable_period"):
            load_checkpoint(path)
        # a config written while ModelConfig still had separate attention widths
        path = tmp_path / "attention-widths.ckpt"
        save_checkpoint(path, params, config)
        self._replace_config(path, {**config.to_dict(), "d_s": config.d_e, "d_t": config.d_e})
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*d_s"):
            load_checkpoint(path)

        old_kernel = params.copy()
        kernel = old_kernel["branch.0.conv_c"]
        kernel.data = kernel.data[None]  # a width-1 conv kernel [1, h', 1]
        three_tables = params.copy()     # separate minute, day-of-week and holiday tables
        table = three_tables.tensors.pop("embed.calendar").data
        for name, lo, hi in (("minute", 0, 1440), ("dow", 1440, 1447), ("holiday", 1447, 1449)):
            three_tables.new(f"embed.{name}", table[lo:hi])
        key_biases = params.copy()      # the key biases no row softmax can see
        for name in params.names():
            if name.endswith(".wk"):
                key_biases.new(name[:-3] + ".bk", np.zeros(params[name].shape[1]))
        del params.tensors["head.w_r"]
        for name, table in (("missing", params), ("old-kernel", old_kernel),
                            ("three-tables", three_tables), ("key-biases", key_biases)):
            path = tmp_path / f"{name}.ckpt"
            save_checkpoint(path, table, config)
            with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*do not match"):
                load_checkpoint(path)

    def test_failed_write_leaves_no_file(self, tmp_path):
        config, params, basis, _ = toy_setup()
        params.new("\ud800", np.zeros(1))  # sorts last; cannot be encoded as UTF-8
        path = tmp_path / "model.ckpt"
        with pytest.raises(UnicodeEncodeError):
            save_checkpoint(path, params, config)
        assert not path.exists()
        assert not (tmp_path / "model.ckpt.tmp").exists()

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(case=st.data())
    def test_damaged_file_loads_or_names_path(self, tmp_path_factory, case):
        # any truncation or byte flips either load or raise CheckpointError
        # naming the path, never another exception
        config, params, _, _ = toy_setup()
        path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
        save_checkpoint(path, params, config)
        raw = bytearray(path.read_bytes())
        if case.draw(st.booleans(), "truncate"):
            raw = raw[:case.draw(st.integers(0, len(raw) - 1), "length")]
        else:
            # the magic, config and first table entries sit in the head
            at = st.one_of(st.integers(0, 299), st.integers(0, len(raw) - 1))
            for at in case.draw(st.lists(at, min_size=1, max_size=4), "at"):
                raw[at] ^= case.draw(st.integers(1, 255), "mask")
        path.write_bytes(bytes(raw))
        try:
            load_checkpoint(path)
        except CheckpointError as exc:
            assert str(exc).startswith(f"{path}: ")

    def test_param_count_formula(self):
        # documented closed form: embeddings + per-block + readout + branches + head
        # d_e != h_prime, so the formula tells the two widths apart
        c = ModelConfig(m=5, n=3, n_nodes=7, n_features=2, d_e=6,
                        h_prime=3, k_cheb=2, n_blocks=2, periods=(8, 16))
        params = init_params(c, seed=0)
        embedding = (1440 + 7 + 2) * c.d_e + c.n_features * c.d_e  # embed.calendar, embed.proj
        per_block = (7 * c.d_e * c.d_e + 4 * c.d_e            # spatial, temporal, residual
                     + c.k_cheb * c.d_e * c.h_prime + c.h_prime * c.d_e)   # theta, conv_t
        readout = c.m * c.n + c.d_e
        align = 2 * (c.m - c.n + 1) * c.h_prime * c.h_prime if c.m != c.n else 0
        per_branch = (3 * c.d_e * c.h_prime + 2 * c.h_prime + align
                      + c.h_prime * c.h_prime + c.h_prime)
        head = c.n * c.n_nodes * (1 + len(c.periods))
        expected = embedding + c.n_blocks * per_block + readout + 2 * per_branch + head
        assert params.count() == expected

"""Network blocks: embedding, attentions, transition path, branches, fusion."""

import dataclasses
import json
import re
import struct

import numpy as np
import pytest

from embsformer import tensor as T
from embsformer.checks import toy_setup
from embsformer.graph import TrafficGraph, chebyshev_basis, normalized_laplacian
from embsformer.model import (
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


def random_batch(rng, config):
    m, n, N = config.m, config.n, config.n_nodes
    k = len(config.periods)
    return Batch(
        recent=rng.standard_normal((1, m, N, config.n_features)),
        periods=rng.standard_normal((1, k, m + n, N, config.n_features)),
        target=rng.standard_normal((1, n, N)),
        recent_minute=rng.integers(0, 1440, (1, m)),
        recent_dow=rng.integers(0, 7, (1, m)),
        recent_holiday=rng.integers(0, 2, (1, m)),
        period_minute=rng.integers(0, 1440, (1, k, m + n)),
        period_dow=rng.integers(0, 7, (1, k, m + n)),
        period_holiday=rng.integers(0, 2, (1, k, m + n)),
    )


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

    def test_rejects_no_active_path(self):
        with pytest.raises(ValueError, match="active"):
            ModelConfig(enable_recent=False, enable_period=False)

    def test_hash_stable(self):
        a = ModelConfig(m=3, n=3, periods=(6,))
        b = ModelConfig(m=3, n=3, periods=(6,))
        assert a.config_hash() == b.config_hash()
        c = ModelConfig(m=3, n=3, periods=(7,))
        assert a.config_hash() != c.config_hash()


class TestEmbed:
    def test_additive_decomposition(self):
        config = ModelConfig(m=4, n=2, n_nodes=3, d_e=4, periods=(6,))
        params = init_params(config, seed=0)
        for name in ("embed.minute", "embed.dow", "embed.holiday"):
            params[name].data[:] = 0.0
        rng = np.random.default_rng(1)
        block = rng.standard_normal((2, 4, 3, 1))
        minute = rng.integers(0, 1440, (2, 4))
        dow = rng.integers(0, 7, (2, 4))
        hol = np.zeros((2, 4), dtype=int)
        out = embed(params, config, block, minute, dow, hol)
        proj = np.einsum("bsnf,fd->bsnd", block, params["embed.proj"].data)
        expected = proj + positional_table(4, 4)[None, :, None, :]
        assert np.allclose(out.data, expected, atol=1e-14)

    def test_identical_calendar_gives_identical_non_data_terms(self):
        config = ModelConfig(m=2, n=2, n_nodes=2, d_e=4, periods=(4,))
        params = init_params(config, seed=3)
        minute = np.array([[30, 30]])
        dow = np.array([[2, 2]])
        hol = np.array([[1, 1]])
        zero = np.zeros((1, 2, 2, 1))
        out = embed(params, config, zero, minute, dow, hol).data
        # same (minute, dow, holiday); only position differs, remove it
        depos = out - positional_table(2, 4)[None, :, None, :]
        assert np.allclose(depos[0, 0], depos[0, 1], atol=1e-14)

    def test_output_shapes(self):
        config = ModelConfig(m=5, n=3, n_nodes=4, d_e=8, periods=(8,))
        params = init_params(config, seed=0)
        rng = np.random.default_rng(2)
        rec = embed(params, config, rng.standard_normal((1, 5, 4, 1)),
                    np.zeros((1, 5), int), np.zeros((1, 5), int), np.zeros((1, 5), int))
        assert rec.shape == (1, 5, 4, 8)
        per = embed(params, config, rng.standard_normal((1, 8, 4, 1)),
                    np.zeros((1, 8), int), np.zeros((1, 8), int), np.zeros((1, 8), int))
        assert per.shape == (1, 8, 4, 8)

    def test_calendar_out_of_range(self):
        config = ModelConfig(m=2, n=2, n_nodes=2, d_e=4, periods=(4,))
        params = init_params(config, seed=0)
        with pytest.raises(ValueError, match="minute"):
            embed(params, config, np.zeros((1, 2, 2, 1)),
                  np.array([[0, 1440]]), np.zeros((1, 2), int), np.zeros((1, 2), int))


class TestSpatialAttention:
    def test_single_node_returns_value_exactly(self):
        config = ModelConfig(m=3, n=3, n_nodes=1, d_e=4, d_s=4, periods=(6,))
        params = init_params(config, seed=1)
        rng = np.random.default_rng(4)
        e = T.Tensor(rng.standard_normal((1, 3, 1, 4)))
        out = spatial_self_attention(params, "transition.0", e, 4)
        v = e.data @ params["transition.0.spatial.wv"].data + params["transition.0.spatial.bv"].data
        assert np.array_equal(out.data, v)

    def test_score_rows_sum_to_one(self):
        config = ModelConfig(m=3, n=3, n_nodes=5, d_e=4, d_s=4, periods=(6,))
        params = init_params(config, seed=2)
        sink = []
        e = T.Tensor(np.random.default_rng(5).standard_normal((2, 3, 5, 4)))
        spatial_self_attention(params, "transition.0", e, 4, sink=sink)
        label, scores = sink[0]
        assert label == "spatial"
        assert scores.shape == (2, 3, 5, 5)
        assert np.max(np.abs(scores.sum(axis=-1) - 1.0)) < 1e-9

    def test_node_permutation_equivariance(self):
        config = ModelConfig(m=2, n=2, n_nodes=3, d_e=4, d_s=4, periods=(4,))
        params = init_params(config, seed=3)
        rng = np.random.default_rng(6)
        e = rng.standard_normal((1, 2, 3, 4))
        perm = np.array([2, 0, 1])
        base = spatial_self_attention(params, "transition.0", T.Tensor(e), 4).data
        moved = spatial_self_attention(
            params, "transition.0", T.Tensor(e[:, :, perm, :]), 4
        ).data
        assert np.allclose(moved, base[:, :, perm, :], atol=1e-12)


class TestTemporalAttention:
    def test_single_step_returns_value(self):
        config = ModelConfig(m=1, n=1, n_nodes=3, d_e=4, d_s=4, d_t=4, periods=(2,))
        params = init_params(config, seed=1)
        x = T.Tensor(np.random.default_rng(7).standard_normal((1, 1, 3, 4)))
        out = temporal_self_attention(params, "transition.0", x, 4)
        v = x.data @ params["transition.0.temporal.wv"].data + params["transition.0.temporal.bv"].data
        assert np.allclose(out.data, v, atol=1e-15)

    def test_weights_shared_across_nodes(self):
        config = ModelConfig(m=4, n=4, n_nodes=2, d_e=4, d_s=4, d_t=4, periods=(8,))
        params = init_params(config, seed=2)
        rng = np.random.default_rng(8)
        one_series = rng.standard_normal((1, 4, 1, 4))
        x = T.Tensor(np.tile(one_series, (1, 1, 2, 1)))
        out = temporal_self_attention(params, "transition.0", x, 4).data
        assert np.array_equal(out[:, :, 0, :], out[:, :, 1, :])

    def test_score_rows_sum_to_one(self):
        config = ModelConfig(m=4, n=4, n_nodes=2, d_e=4, d_s=4, d_t=4, periods=(8,))
        params = init_params(config, seed=2)
        sink = []
        x = T.Tensor(np.random.default_rng(9).standard_normal((1, 4, 2, 4)))
        temporal_self_attention(params, "transition.0", x, 4, sink=sink)
        _, scores = sink[0]
        assert scores.shape == (1, 2, 4, 4)
        assert np.max(np.abs(scores.sum(axis=-1) - 1.0)) < 1e-9


class TestTransitionBlock:
    def test_zeroed_branch_leaves_residual_only(self):
        config, params, basis, _ = toy_setup()
        params["transition.0.conv_t"].data[:] = 0.0
        params["transition.0.residual"].data[:] = np.eye(config.d_e)
        e = T.Tensor(np.random.default_rng(10).standard_normal((1, 3, 4, 4)))
        out = transition_block(params, "transition.0", e, basis, config)
        assert np.allclose(out.data, e.data, atol=1e-14)

    def test_shape_preserved_for_stacking(self):
        config, params, basis, _ = toy_setup()
        e = T.Tensor(np.random.default_rng(11).standard_normal((2, 3, 4, 4)))
        out = transition_block(params, "transition.0", e, basis, config)
        assert out.shape == e.shape

    def test_gradient_reaches_every_live_weight(self):
        # attention key biases are mathematically inert under row softmax;
        # every other transition parameter must receive signal
        config, params, basis, batch = toy_setup()
        params.zero_grads()
        pred = forward(batch, params, config, basis)
        rng = np.random.default_rng(12)
        loss = T.reduce(T.mul(pred, T.Tensor(rng.standard_normal(pred.shape))), kind="sum")
        T.backward(loss)
        for name, tens in params.items():
            assert tens.grad is not None, name
            if not name.endswith(".bk"):
                assert np.linalg.norm(tens.grad) > 1e-12, name


class TestTransitionReadout:
    def test_constructed_kernels_select_channel(self):
        config, params, basis, _ = toy_setup(m=3, n=3)
        # time mix = identity over steps; feature kernel selects channel 0
        tm = np.zeros((3, 1, 3))
        for s in range(3):
            tm[s, 0, s] = 1.0
        params["readout.time_mix"].data[:] = tm
        fk = np.zeros((1, config.d_e, 1))
        fk[0, 0, 0] = 1.0
        params["readout.feature"].data[:] = fk
        h = np.random.default_rng(13).standard_normal((1, 3, 4, config.d_e))
        out = transition_readout(params, T.Tensor(h), config)
        assert np.allclose(out.data, h[:, :, :, 0], atol=1e-14)

    @pytest.mark.parametrize("m,n", [(12, 12), (36, 36), (12, 36)])
    def test_shapes(self, m, n):
        # m < n is legal for the recent-only path; branches need m >= n
        config = ModelConfig(m=m, n=n, n_nodes=5, d_e=4, d_s=4, d_t=4, h_prime=4,
                             k_cheb=2, n_blocks=1, periods=(),
                             enable_recent=True, enable_period=False)
        params = init_params(config, seed=0)
        h = T.Tensor(np.random.default_rng(14).standard_normal((2, m, 5, 4)))
        assert transition_readout(params, h, config).shape == (2, n, 5)


class TestSimilarityAttention:
    def _config(self, **kw):
        defaults = dict(m=3, n=3, n_nodes=2, d_e=4, d_s=4, d_t=4, h_prime=4,
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
        params[f"{pre}.bk"].data[:] = 0.0
        scale = 40.0
        # orthogonal one-hot time codes; recent equals the pseudo-input
        codes = scale * np.eye(3)[:, None, :].repeat(2, axis=1)
        codes = np.concatenate([codes, np.zeros((3, 2, 1))], axis=-1)  # [m,N,4]
        e_r = T.Tensor(codes[None])
        e_p = T.Tensor(np.concatenate(
            [codes, np.random.default_rng(15).standard_normal((3, 2, 4))], axis=0
        )[None])
        out = similarity_attention(params, 0, e_r, e_p, config)
        v = e_p.data[:, 3:] @ params[f"{pre}.wv"].data + params[f"{pre}.bv"].data
        assert np.allclose(out.data, v, atol=1e-9)

    def test_single_step_degenerate(self):
        config = self._config(m=1, n=1, periods=(2,))
        params = init_params(config, seed=2)
        rng = np.random.default_rng(16)
        e_r = T.Tensor(rng.standard_normal((1, 1, 2, 4)))
        e_p = T.Tensor(rng.standard_normal((1, 2, 2, 4)))
        out = similarity_attention(params, 0, e_r, e_p, config)
        v = e_p.data[:, 1:] @ params["branch.0.wv"].data + params["branch.0.bv"].data
        assert np.allclose(out.data, v, atol=1e-15)

    def test_rows_sum_and_shape(self):
        config = self._config()
        params = init_params(config, seed=3)
        rng = np.random.default_rng(17)
        sink = []
        out = similarity_attention(
            params, 0, T.Tensor(rng.standard_normal((2, 3, 2, 4))),
            T.Tensor(rng.standard_normal((2, 6, 2, 4))), config, sink=sink,
        )
        assert out.shape == (2, 3, 2, 4)
        label, scores = sink[0]
        assert label == "similarity.0"
        assert np.max(np.abs(scores.sum(axis=-1) - 1.0)) < 1e-9

    def test_window_length_mismatch(self):
        config = self._config()
        params = init_params(config, seed=4)
        with pytest.raises(ValueError, match="m\\+n"):
            similarity_attention(params, 0, T.Tensor(np.zeros((1, 3, 2, 4))),
                                 T.Tensor(np.zeros((1, 5, 2, 4))), config)

    def test_alignment_when_m_exceeds_n(self):
        config = self._config(m=5, n=2, periods=(7,))
        params = init_params(config, seed=5)
        rng = np.random.default_rng(18)
        out = similarity_attention(
            params, 0, T.Tensor(rng.standard_normal((1, 5, 2, 4))),
            T.Tensor(rng.standard_normal((1, 7, 2, 4))), config,
        )
        assert out.shape == (1, 2, 2, 4)


class TestGenerationBranch:
    def test_unit_kernels_pass_through(self):
        config = ModelConfig(m=2, n=2, n_nodes=3, d_e=4, h_prime=1, periods=(4,))
        params = init_params(config, seed=1)
        params["branch.0.conv_t"].data[:] = 1.0
        params["branch.0.conv_c"].data[:] = 1.0
        asr = np.random.default_rng(19).standard_normal((1, 2, 3, 1))
        out = generation_branch(params, 0, T.Tensor(asr), config)
        assert np.allclose(out.data, asr[..., 0], atol=1e-15)

    def test_linearity(self):
        config = ModelConfig(m=2, n=2, n_nodes=3, d_e=4, h_prime=4, periods=(4,))
        params = init_params(config, seed=2)
        asr = np.random.default_rng(20).standard_normal((1, 2, 3, 4))
        one = generation_branch(params, 0, T.Tensor(asr), config).data
        two = generation_branch(params, 0, T.Tensor(2 * asr), config).data
        assert np.allclose(two, 2 * one, atol=1e-12)


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
        e = embed(params, config, batch.recent, batch.recent_minute,
                  batch.recent_dow, batch.recent_holiday)
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


class TestForward:
    def test_ablation_flags(self):
        for flags in ((True, False), (False, True), (True, True)):
            enable_recent, enable_period = flags
            config = ModelConfig(m=3, n=3, n_nodes=4, d_e=4, d_s=4, d_t=4, h_prime=4,
                                 k_cheb=2, n_blocks=1,
                                 periods=(6,) if enable_period else (),
                                 enable_recent=enable_recent, enable_period=enable_period)
            params = init_params(config, seed=1)
            basis = basis_for(config)
            batch = random_batch(np.random.default_rng(26), config)
            out = forward(batch, params, config, basis)
            assert out.shape == (1, 3, 4)

    def test_disabled_period_has_no_branch_parameters(self):
        config = ModelConfig(m=3, n=3, n_nodes=4, d_e=4, periods=(),
                             enable_recent=True, enable_period=False)
        params = init_params(config, seed=1)
        assert not any(name.startswith(("branch.", "head.w_p")) for name in params.names())

    def test_disabled_recent_has_no_transition_parameters(self):
        config = ModelConfig(m=3, n=3, n_nodes=4, d_e=4, periods=(6,),
                             enable_recent=False, enable_period=True)
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
        config = ModelConfig(m=m, n=n, n_nodes=5, n_features=2, d_e=4, d_s=4,
                             d_t=4, h_prime=4, k_cheb=k_cheb, n_blocks=1,
                             periods=periods, enable_recent=True,
                             enable_period=branches > 0)
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
        config = ModelConfig(m=3, n=3, n_nodes=4, d_e=4, d_s=4, d_t=4, h_prime=4,
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

    def test_unknown_config_key_names_path(self, tmp_path):
        config, params, basis, _ = toy_setup()
        path = tmp_path / "extra.ckpt"
        save_checkpoint(path, params, config)
        raw = path.read_bytes()
        (cfg_len,) = struct.unpack("<I", raw[5:9])
        blob = json.dumps({**config.to_dict(), "bogus": 1}).encode("utf-8")
        path.write_bytes(raw[:5] + struct.pack("<I", len(blob)) + blob + raw[9 + cfg_len:])
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*bogus"):
            load_checkpoint(path)

    def test_parameter_table_must_match_config(self, tmp_path):
        config, params, basis, _ = toy_setup()
        del params.tensors["head.w_r"]
        path = tmp_path / "missing.ckpt"
        save_checkpoint(path, params, config)
        with pytest.raises(CheckpointError, match=re.escape(str(path)) + ".*do not match"):
            load_checkpoint(path)

    def test_param_count_formula(self):
        # documented closed form: embeddings + per-block + readout + branches + head
        c = ModelConfig(m=5, n=3, n_nodes=7, n_features=2, d_e=6, d_s=5, d_t=4,
                        h_prime=3, k_cheb=2, n_blocks=2, periods=(8, 16))
        params = init_params(c, seed=0)
        embedding = (1440 + 7 + 2) * c.d_e + c.n_features * c.d_e
        per_block = (3 * c.d_e * c.d_s + 3 * c.d_s + 3 * c.d_s * c.d_t + 3 * c.d_t
                     + c.k_cheb * c.d_t * c.h_prime + c.h_prime * c.d_e + c.d_e * c.d_e)
        readout = c.m * c.n + c.d_e
        align = 2 * (c.m - c.n + 1) * c.h_prime * c.h_prime if c.m != c.n else 0
        per_branch = (3 * c.d_e * c.h_prime + 3 * c.h_prime + align
                      + c.h_prime * c.h_prime + c.h_prime)
        head = c.n * c.n_nodes * (1 + len(c.periods))
        expected = embedding + c.n_blocks * per_block + readout + 2 * per_branch + head
        assert params.count() == expected

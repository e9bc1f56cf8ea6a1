"""Adam updates, the training loop, metrics, and baselines."""

import re
import tracemalloc
from datetime import datetime

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from embsformer import data, model, training
from embsformer.checks import toy_setup
from embsformer.graph import (
    TrafficGraph,
    chebyshev_basis,
    estimate_lambda_max,
    normalized_laplacian,
)
from embsformer.model import Batch, ModelConfig, forward, init_params, make_batch, mse_loss
from embsformer import tensor as T
from embsformer.training import (
    AdamState,
    DivergenceError,
    TrainConfig,
    adam_step,
    compute_metrics,
    evaluate,
    persistence_baseline,
    train,
)


def tiny_dataset(seed=13, days=6, step=60, noise=1.0, weekly=0.0, n_nodes=5):
    series, graph = data.synth_generate(
        n_nodes=n_nodes, days=days, step_minutes=step, daily_amp=25.0,
        weekly_amp=weekly, noise_std=noise, graph_model="ring", seed=seed,
    )
    splits = data.chronological_split(series)
    normalizer = data.fit_normalizer(series, splits[0])
    normalized = series.with_values(normalizer.apply(series.values))
    calendar = data.calendar_features(series)
    lap = normalized_laplacian(graph)
    basis = chebyshev_basis(lap, estimate_lambda_max(lap), 2)
    return series, normalized, splits, normalizer, calendar, basis


def tiny_model(n_nodes=5, periods=(24,), **kw):
    defaults = dict(m=4, n=4, n_nodes=n_nodes, n_features=1, d_e=8,
                    h_prime=8, k_cheb=2, n_blocks=1, periods=periods)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        config, params, basis, _ = toy_setup()
        before = {k: t.data.copy() for k, t in params.items()}
        for _, t in params.items():
            t.grad = np.zeros_like(t.data)
        adam_step(params, AdamState(params), TrainConfig(epochs=1))
        for name, t in params.items():
            assert np.array_equal(t.data, before[name])

    def test_first_step_magnitude(self):
        # constant unit gradient, step 1: delta = lr * 1/(1 + eps)
        from embsformer.model import ModelParameters

        params = ModelParameters()
        p = params.new("w", np.array([0.0]))
        p.grad = np.array([1.0])
        cfg = TrainConfig(learning_rate=0.001, epochs=1)
        adam_step(params, AdamState(params), cfg)
        expected = -cfg.learning_rate / (1.0 + training.EPS)
        assert abs(p.data[0] - expected) < 1e-12

    def test_lr_zero_is_identity(self):
        from embsformer.model import ModelParameters

        params = ModelParameters()
        p = params.new("w", np.array([2.0, -3.0]))
        p.grad = np.array([0.5, -0.1])
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        # emulate lr -> 0 via a tiny but legal rate
        cfg = TrainConfig(learning_rate=1e-300, epochs=1)
        adam_step(params, AdamState(params), cfg)
        assert np.allclose(p.data, [2.0, -3.0], atol=1e-290)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1.0, 0.0])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match=r"^learning_rate="):
            TrainConfig(learning_rate=lr)

    def test_identical_runs_identical_trajectories(self):
        def run():
            config, params, basis, batch = toy_setup(seed=11)
            state = AdamState(params)
            cfg = TrainConfig(learning_rate=0.01, epochs=1)
            history = []
            for _ in range(4):
                params.zero_grads()
                loss = mse_loss(forward(batch, params, config, basis), batch.target)
                T.backward(loss)
                adam_step(params, state, cfg)
                history.append({k: t.data.copy() for k, t in params.items()})
            return history

        a, b = run(), run()
        for step_a, step_b in zip(a, b):
            for name in step_a:
                assert np.array_equal(step_a[name], step_b[name])

    def test_nan_gradient_names_parameter(self):
        config, params, basis, _ = toy_setup()
        for _, t in params.items():
            t.grad = np.zeros_like(t.data)
        params["head.w_r"].grad[0, 0] = np.nan
        with pytest.raises(DivergenceError, match="head.w_r"):
            adam_step(params, AdamState(params), TrainConfig(epochs=1))

    def test_nan_gradient_updates_nothing(self):
        # a step that raises leaves the parameters, both moments and the
        # step count as they were, even when every gradient before the bad
        # one is finite
        config, params, basis, batch = toy_setup()
        state, cfg = AdamState(params), TrainConfig(epochs=1)
        T.backward(mse_loss(forward(batch, params, config, basis), batch.target))
        adam_step(params, state, cfg)   # moments that a second step would move
        rng = np.random.default_rng(5)
        for _, t in params.items():
            t.grad = rng.standard_normal(t.shape)
        last = params.names()[-1]
        params[last].grad.flat[-1] = np.nan

        def snapshot():
            return ([t.data.tobytes() for _, t in params.items()],
                    [state.m[k].tobytes() for k in params.names()],
                    [state.v[k].tobytes() for k in params.names()], state.step)

        before = snapshot()
        with pytest.raises(DivergenceError, match=re.escape(repr(last))):
            adam_step(params, state, cfg)
        assert snapshot() == before


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        series, normalized, splits, normalizer, calendar, basis = tiny_dataset()
        config = tiny_model()
        samples = data.make_windows(normalized, splits[0], 4, 4, [24], calendar=calendar)
        val = data.make_windows(normalized, splits[1], 4, 4, [24], calendar=calendar)
        tcfg = TrainConfig(epochs=0, seed=9)
        result = train(config, basis, samples, val, tcfg, normalizer)
        reference = init_params(config, seed=9)
        for name, t in reference.items():
            assert np.array_equal(result.params[name].data, t.data)
        assert result.trace == []

    def test_loss_decreases_and_beats_initialization(self):
        # noise-free periodic data: easy fit, loss strictly decreases early
        series, normalized, splits, normalizer, calendar, basis = tiny_dataset(
            seed=4, days=8, noise=0.0
        )
        config = tiny_model()
        tr = data.make_windows(normalized, splits[0], 4, 4, [24], calendar=calendar)
        val = data.make_windows(normalized, splits[1], 4, 4, [24], calendar=calendar)
        tcfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=5, seed=1)
        result = train(config, basis, tr, val, tcfg, normalizer)
        losses = [row[1] for row in result.trace]
        assert all(b < a for a, b in zip(losses, losses[1:]))
        init = init_params(config, seed=1)
        initial_mae = evaluate(init, val, normalizer, config, basis).mae_avg
        assert result.best_val_mae < initial_mae

    def test_selection_returns_best_epoch_not_final(self):
        series, normalized, splits, normalizer, calendar, basis = tiny_dataset(seed=6)
        config = tiny_model(d_e=4, h_prime=4)
        tr = data.make_windows(normalized, splits[0], 4, 4, [24], calendar=calendar)
        val = data.make_windows(normalized, splits[1], 4, 4, [24], calendar=calendar)
        # aggressive rate so validation MAE oscillates
        tcfg = TrainConfig(learning_rate=0.3, batch_size=16, epochs=5, seed=3)
        result = train(config, basis, tr, val, tcfg, normalizer)
        maes = [row[2] for row in result.trace]
        assert result.best_epoch == int(np.argmin(maes))
        assert result.best_val_mae == min(maes)
        assert result.best_epoch < len(maes) - 1  # seed chosen so the last epoch is worse
        re_eval = evaluate(result.params, val, normalizer, config, basis).mae_avg
        assert abs(re_eval - result.best_val_mae) < 1e-9

    def test_determinism_across_runs(self):
        def run():
            series, normalized, splits, normalizer, calendar, basis = tiny_dataset(seed=5)
            config = tiny_model(d_e=4, h_prime=4)
            tr = data.make_windows(normalized, splits[0], 4, 4, [24], calendar=calendar)
            val = data.make_windows(normalized, splits[1], 4, 4, [24], calendar=calendar)
            tcfg = TrainConfig(learning_rate=1e-3, batch_size=8, epochs=2, seed=3)
            return train(config, basis, tr, val, tcfg, normalizer)

        a, b = run(), run()
        assert a.trace == b.trace
        for name, t in a.params.items():
            assert np.array_equal(t.data, b.params[name].data)

    def test_divergence_aborts_with_epoch(self):
        series, normalized, splits, normalizer, calendar, basis = tiny_dataset(seed=7)
        config = tiny_model(d_e=4, h_prime=4)
        tr = data.make_windows(normalized, splits[0], 4, 4, [24], calendar=calendar)
        val = data.make_windows(normalized, splits[1], 4, 4, [24], calendar=calendar)
        bad_init = init_params(config, seed=0)
        bad_init["head.w_r"].data[:] = 1e300  # overflow on the first squared error
        tcfg = TrainConfig(learning_rate=1e-3, epochs=2, seed=0)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch 0"):
            train(config, basis, tr, val, tcfg, normalizer, init=bad_init)
        assert T.current_tape() is None

    def test_step_that_raises_mid_forward_leaves_no_tape(self, monkeypatch):
        series, normalized, splits, normalizer, calendar, basis = tiny_dataset(seed=7)
        config = tiny_model(d_e=4, h_prime=4)
        tr = data.make_windows(normalized, splits[0], 4, 4, [24], calendar=calendar)
        val = data.make_windows(normalized, splits[1], 4, 4, [24], calendar=calendar)
        readout = model.transition_readout

        def failing_readout(*args):
            readout(*args)   # records the readout's nodes, then fails
            raise RuntimeError("readout failed")

        monkeypatch.setattr(model, "transition_readout", failing_readout)
        with pytest.raises(RuntimeError, match="readout failed"):
            train(config, basis, tr, val, TrainConfig(epochs=1, seed=0), normalizer)
        monkeypatch.undo()
        assert T.current_tape() is None

        # the next pass, at the benchmark's model, records its own nodes only
        big = ModelConfig(m=12, n=12, n_nodes=15, periods=(96, 672))
        rng = np.random.default_rng(29)
        lap = normalized_laplacian(TrafficGraph(adjacency=np.roll(np.eye(15), 1, axis=1)))
        vocab = (1440, 7, 2)
        batch = Batch(
            recent=rng.standard_normal((2, 12, 15, 1)),
            periods=rng.standard_normal((2, 2, 24, 15, 1)),
            target=rng.standard_normal((2, 12, 15)),
            recent_calendar=np.stack([rng.integers(0, v, (2, 12)) for v in vocab], -1),
            period_calendar=np.stack([rng.integers(0, v, (2, 2, 24)) for v in vocab], -1),
        )
        loss = mse_loss(forward(batch, init_params(big), big,
                                chebyshev_basis(lap, estimate_lambda_max(lap), 3)),
                        batch.target)
        assert len(T.current_tape()) == 91
        T.backward(loss)


class TestMetrics:
    def test_perfect_predictions(self):
        y = np.random.default_rng(0).random((3, 4, 2)) + 1.0
        rep = compute_metrics(y, y)
        assert rep.mae_avg == rep.rmse_avg == rep.mape_avg == 0.0

    def test_hand_case(self):
        rep = compute_metrics(np.full((1, 1, 1), 110.0), np.full((1, 1, 1), 100.0))
        assert rep.mae_avg == 10.0
        assert rep.rmse_avg == 10.0
        assert abs(rep.mape_avg - 10.0) < 1e-12

    def test_loop_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.random((5, 3, 2)) * 10
        actual = rng.random((5, 3, 2)) * 10 + 1.0
        rep = compute_metrics(pred, actual)
        abs_err = pct = sq = 0.0
        for idx in np.ndindex(pred.shape):
            abs_err += abs(pred[idx] - actual[idx])
            sq += (pred[idx] - actual[idx]) ** 2
            pct += abs((pred[idx] - actual[idx]) / actual[idx])
        count = pred.size
        assert abs(rep.mae_avg - abs_err / count) < 1e-10
        assert abs(rep.rmse_avg - np.sqrt(sq / count)) < 1e-10
        assert abs(rep.mape_avg - 100.0 * pct / count) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_invariants(self, seed):
        rng = np.random.default_rng(100 + seed)
        pred = rng.standard_normal((4, 6, 3)) * 5
        actual = rng.standard_normal((4, 6, 3)) * 5 + 10
        rep = compute_metrics(pred, actual)
        assert abs(rep.rmse_avg ** 2 - ((pred - actual) ** 2).mean()) < 1e-10
        assert rep.mae_avg <= rep.rmse_avg
        for s in range(6):
            assert 0.0 <= rep.mae_per_step[s] <= rep.rmse_per_step[s]
            assert rep.mape_per_step[s] >= 0.0

    def test_mape_masks_zero_targets(self):
        pred = np.ones((1, 2, 2))
        actual = np.array([[[0.0, 2.0], [4.0, 0.0]]])
        rep = compute_metrics(pred, actual)
        assert rep.mape_skipped == 2
        expected = 100.0 * (abs(1 - 2) / 2 + abs(1 - 4) / 4) / 2
        assert abs(rep.mape_avg - expected) < 1e-12

    def test_evaluate_empty_rejected(self):
        config, params, basis, _ = toy_setup()
        stats = data.NormalizationStats(mean=np.zeros(1), std=np.ones(1))
        with pytest.raises(ValueError, match="empty"):
            evaluate(params, [], stats, config, basis)

    @pytest.mark.parametrize("name", ["forecast", "predict"])
    def test_forecast_of_no_windows_names_the_function(self, name):
        config, params, basis, _ = toy_setup()
        with pytest.raises(ValueError, match=f"^{name}: empty sample list$"):
            getattr(training, name)(params, [], config, basis)

    def test_denormalized_equals_raw_scale_direct(self):
        series, normalized, splits, normalizer, calendar, basis = tiny_dataset(seed=8)
        config = tiny_model()
        samples = data.make_windows(normalized, splits[2], 4, 4, [24], calendar=calendar)
        raw_samples = data.make_windows(series, splits[2], 4, 4, [24], calendar=calendar)
        params = init_params(config, seed=1)
        rep = evaluate(params, samples, normalizer, config, basis)
        preds = training.predict(params, samples, config, basis)
        direct = compute_metrics(
            normalizer.invert_feature(preds),
            make_batch(raw_samples).target,
        )
        assert abs(rep.mae_avg - direct.mae_avg) < 1e-8
        assert abs(rep.rmse_avg - direct.rmse_avg) < 1e-8

    @pytest.mark.parametrize("batch", [32, 64])
    def test_forecast_batch_moves_no_prediction(self, monkeypatch, batch):
        # `forecast` runs in batches of the training batch size, 16, to bound
        # its memory; larger batches, 64 among them, give the same bytes
        series, normalized, splits, normalizer, calendar, basis = tiny_dataset(seed=8, days=9)
        config = tiny_model(n_blocks=2)
        samples = data.make_windows(normalized, splits[0], 4, 4, [24], calendar=calendar)
        params = init_params(config, seed=1)
        assert len(samples) > 64 and training.FORECAST_BATCH == TrainConfig().batch_size
        preds, targets = training.forecast(params, samples, config, basis)
        monkeypatch.setattr(training, "FORECAST_BATCH", batch)
        again, targets_again = training.forecast(params, samples, config, basis)
        assert preds.tobytes() == again.tobytes() and targets.tobytes() == targets_again.tobytes()

    @hypothesis.settings(max_examples=20, deadline=None)
    @hypothesis.given(size=st.integers(1, 16), picks=st.data())
    def test_a_window_forecast_does_not_depend_on_its_batch(self, size, picks):
        # "same inputs, same bytes": a window's forecast alone, at any
        # position of a batch of any size, and in a batch of 16 are one array
        series, normalized, splits, normalizer, calendar, basis = tiny_dataset(seed=8)
        config = tiny_model()
        samples = data.make_windows(normalized, splits[0], 4, 4, [24], calendar=calendar)[:16]
        params = init_params(config, seed=1)
        assert len(samples) == 16
        full = training.predict(params, samples, config, basis)
        rows = picks.draw(st.lists(st.integers(0, 15), min_size=size, max_size=size))
        batch = training.predict(params, [samples[r] for r in rows], config, basis)
        for pred, r in zip(batch, rows):
            alone = training.predict(params, [samples[r]], config, basis)[0]
            assert pred.tobytes() == alone.tobytes() == full[r].tobytes()


class TestBaselines:
    def test_constant_series_is_exact(self):
        vals = np.full((30, 2, 1), 7.0)
        series = data.RawSeries(values=vals, start=datetime(2023, 1, 2), step_minutes=60)
        batch = make_batch(data.make_windows(series, (0, 30), 3, 2, [6]))
        assert np.array_equal(persistence_baseline(batch), batch.target)
        # the period windows' pseudo-futures, averaged over branches
        assert np.array_equal(batch.periods[:, :, -2:, :, 0].mean(axis=1), batch.target)

    def test_persistence_underestimates_by_slope(self):
        t = np.arange(40, dtype=float)
        vals = np.tile(t[:, None, None], (1, 2, 1))  # slope 1 per step
        series = data.RawSeries(values=vals, start=datetime(2023, 1, 2), step_minutes=60)
        batch = make_batch(data.make_windows(series, (0, 40), 3, 3, []))
        err = batch.target - persistence_baseline(batch)
        for k in range(3):
            assert np.allclose(err[:, k], k + 1)  # k'th horizon step lags by (k+1)*slope

    def test_persistence_metrics_gather_forecast_sized_batches(self):
        # persistence reads only each window's last recent step, so its
        # metrics gather `FORECAST_BATCH` windows at a time, as `forecast`
        # does: no split-sized batch with every period block is built, and
        # the peak is what `compute_metrics` takes by itself, plus the
        # predictions and targets it is given
        _, normalized, splits, normalizer, calendar, _ = tiny_dataset(days=15, step=15,
                                                                      n_nodes=20)
        windows = data.make_windows(normalized, splits[2], 12, 12, [96, 288, 672],
                                    calendar=calendar)
        batch = make_batch(windows)
        pred, actual = persistence_baseline(batch), batch.target.copy()
        del batch

        def peak(call):
            tracemalloc.start()
            try:
                return call(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        expected, metrics_peak = peak(lambda: compute_metrics(
            normalizer.invert_feature(pred), normalizer.invert_feature(actual)))
        report, baseline_peak = peak(lambda: training._baseline_metrics(windows, normalizer))
        assert report.to_dict() == expected.to_dict()
        # 3.8 MB against 2.6 MB and 0.5 MB of targets; 7.2 MB with one batch
        assert baseline_peak <= metrics_peak + 2.5 * actual.nbytes

    def test_historical_average_exact_on_periodic_data(self):
        series, _ = data.synth_generate(n_nodes=3, days=4, step_minutes=60,
                                        daily_amp=30.0, weekly_amp=0.0, noise_std=0.0,
                                        seed=2)
        batch = make_batch(data.make_windows(series, (0, series.n_steps), 4, 4, [24]))
        # each period window's last n steps line up with the target a day earlier
        assert np.allclose(batch.periods[:, :, -4:, :, 0].mean(axis=1), batch.target,
                           atol=1e-12)


class TestAblationGrid:
    def test_single_variant_degenerates_to_one_run(self):
        series, normalized, splits, normalizer, calendar, basis = tiny_dataset(seed=10)
        variants = [training.AblationVariant("only", (24,))]
        tcfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=1, seed=1)
        rows = training.ablation_grid(
            normalized, basis, variants,
            dict(m=4, n=4, d_e=4, h_prime=4, k_cheb=2, n_blocks=1),
            tcfg, splits, normalizer, calendar=calendar,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row["variant"] == "only"
        assert row["mae"] > 0 and row["rmse"] >= row["mae"]
        assert row["persistence_mae"] > 0

    def test_standard_variant_names(self):
        names = [v.name for v in training.standard_variants()]
        assert names == ["full", "period(24)", "period(24,168)", "w/o-period", "w/o-recent"]

    def test_hours_to_steps_exactness(self):
        assert training.hours_to_steps(24, 15) == 96
        with pytest.raises(ValueError, match="whole"):
            training.hours_to_steps(1, 45)

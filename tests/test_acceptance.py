"""Acceptance suite: one test per primary criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The two seed-pinned experiments (ablation ordering, lookup
sanity) train real models and dominate the runtime (a few minutes total).
"""

import dataclasses
import time

import numpy as np
import pytest

from embsformer import checks, data, training
from embsformer import tensor as T
from embsformer.graph import (
    TrafficGraph,
    chebyshev_basis,
    estimate_lambda_max,
    normalized_laplacian,
)
from embsformer.model import (
    Batch,
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
    make_batch,
    save_checkpoint,
)
from embsformer.training import TrainConfig, evaluate, train


def report(criterion, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# --------------------------------------------------------------------------
# 1. gradient integrity
# --------------------------------------------------------------------------


def test_gradient_integrity():
    start = time.perf_counter()
    rows = checks.run_all()
    elapsed = time.perf_counter() - start
    worst = max(err for _, err, _ in rows)
    ok = all(passed for _, _, passed in rows) and len(rows) >= 12 and elapsed < 60
    report(
        "gradient integrity",
        ok,
        f"{len(rows)} checks, worst rel error {worst:.2e} (tol 1e-4), {elapsed:.1f}s",
    )


# --------------------------------------------------------------------------
# 2. spectral correctness
# --------------------------------------------------------------------------


def chebyshev_scalar(k, x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    inside = np.abs(x) <= 1.0
    out[inside] = np.cos(k * np.arccos(x[inside]))
    xo = x[~inside]
    out[~inside] = np.sign(xo) ** k * np.cosh(k * np.arccosh(np.abs(xo)))
    return out


def test_spectral_correctness():
    worst_lam = worst_basis = 0.0
    for seed in range(10):
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(2, 9))
        graph = TrafficGraph(adjacency=(rng.random((n, n)) < 0.45).astype(float))
        lap = normalized_laplacian(graph)
        exact = float(np.max(np.abs(np.linalg.eigvalsh(lap))))
        est = estimate_lambda_max(lap)
        worst_lam = max(worst_lam, abs(est - exact))
        basis = chebyshev_basis(lap, est, 4)
        w, u = np.linalg.eigh((2.0 / est) * lap - np.eye(n))
        for k in range(4):
            ref = u @ np.diag(chebyshev_scalar(k, w)) @ u.T
            worst_basis = max(worst_basis, float(np.max(np.abs(basis.matrices[k] - ref))))

    path = TrafficGraph(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))
    lap2 = normalized_laplacian(path)
    basis2 = chebyshev_basis(lap2, 2.0, 3)
    exact_path = (
        np.array_equal(basis2.matrices[1], [[0.0, -1.0], [-1.0, 0.0]])
        and np.array_equal(basis2.matrices[2], np.eye(2))
    )
    ok = worst_basis <= 1e-8 and worst_lam <= 1e-6 and exact_path
    report(
        "spectral correctness",
        ok,
        f"basis vs eigh {worst_basis:.2e} (tol 1e-8), lambda_max {worst_lam:.2e} "
        f"(tol 1e-6), 2-node path exact: {exact_path}",
    )


# --------------------------------------------------------------------------
# 3. attention invariants
# --------------------------------------------------------------------------


def node_first(x):
    """[B, steps, N, d] -> the layers' node-first [N, B, steps, d]."""
    return np.ascontiguousarray(np.moveaxis(x, 2, 0))


def test_attention_invariants():
    config, params, basis, batch = checks.toy_setup()
    worst = 0.0
    n_matrices = 0
    rng = np.random.default_rng(31)
    for _ in range(100):
        sink = []
        moved = dataclasses.replace(
            batch,
            recent=rng.standard_normal(batch.recent.shape),
            periods=rng.standard_normal(batch.periods.shape),
        )
        with T.no_grad():
            forward(moved, params, config, basis, sink=sink)
        for _, scores in sink:
            worst = max(worst, float(np.max(np.abs(scores.sum(axis=-1) - 1.0))))
            n_matrices += 1

    # degenerate cases collapse to the value projection exactly
    from embsformer.model import (
        similarity_attention,
        spatial_self_attention,
        temporal_self_attention,
    )

    c1 = ModelConfig(m=3, n=3, n_nodes=1, d_e=4, h_prime=4, periods=(6,))
    p1 = init_params(c1, seed=1)
    e1 = rng.standard_normal((1, 3, 1, 4))   # [B, m, N, d_e], the layout attended on
    v1 = e1 @ p1["transition.0.spatial.wv"].data + p1["transition.0.spatial.bv"].data
    spatial_exact = np.array_equal(
        spatial_self_attention(p1, "transition.0", T.Tensor(node_first(e1))).data,
        node_first(v1),
    )

    c2 = ModelConfig(m=1, n=1, n_nodes=3, d_e=4, h_prime=4, periods=(2,))
    p2 = init_params(c2, seed=2)
    x2 = T.Tensor(node_first(rng.standard_normal((1, 1, 3, 4))))
    v2 = x2.data @ p2["transition.0.temporal.wv"].data + p2["transition.0.temporal.bv"].data
    temporal_exact = np.allclose(
        temporal_self_attention(p2, "transition.0", x2).data, v2, atol=1e-15
    )

    # a branch window is its data [N, B, m+n, F] and clock [B, m+n, d_e], cut
    # into its pseudo-input and pseudo-future; the oracle projects the latter
    # and applies the readout c = conv_t conv_c in the layer's grouping,
    # x ((P W_v) c) + (clock W_v + b_v) c
    e_r = T.Tensor(node_first(rng.standard_normal((1, 1, 3, 4))))
    x_p = rng.standard_normal((3, 1, 2, 1))
    clock_p = rng.standard_normal((1, 2, 4))
    wv = p2["branch.0.wv"].data
    bv = p2["branch.0.bv"].data
    c = p2["branch.0.conv_t"].data @ p2["branch.0.conv_c"].data
    v3 = x_p[:, :, 1:] @ ((p2["embed.proj"].data @ wv) @ c) + (clock_p[:, 1:] @ wv + bv) @ c
    halves = [(T.Tensor(x_p[:, :, s]), T.Tensor(clock_p[:, s])) for s in (slice(0, 1), slice(1, 2))]
    similarity_exact = np.allclose(
        similarity_attention(p2, 0, e_r, *halves, c2).data, v3, atol=1e-15
    )

    ok = (worst < 1e-9 and n_matrices >= 300
          and spatial_exact and temporal_exact and similarity_exact)
    report(
        "attention invariants",
        ok,
        f"{n_matrices} score matrices, worst row-sum dev {worst:.2e} (tol 1e-9), "
        f"degenerate N=1/m=1/m=n=1 exact: "
        f"{spatial_exact}/{temporal_exact}/{similarity_exact}",
    )


# --------------------------------------------------------------------------
# 4. metric oracle equivalence
# --------------------------------------------------------------------------


def test_metric_oracle_equivalence():
    rng = np.random.default_rng(41)
    worst = 0.0
    mae_le_rmse = True
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        pred = rng.standard_normal(n) * 10
        actual = rng.standard_normal(n) * 10 + 20
        rep = training.compute_metrics(pred[None, :, None], actual[None, :, None])
        mae = sum(abs(p - a) for p, a in zip(pred, actual)) / n
        rmse = (sum((p - a) ** 2 for p, a in zip(pred, actual)) / n) ** 0.5
        mape = 100.0 * sum(abs((p - a) / a) for p, a in zip(pred, actual)) / n
        worst = max(worst, abs(rep.mae_avg - mae), abs(rep.rmse_avg - rmse),
                    abs(rep.mape_avg - mape))
        mae_le_rmse &= rep.mae_avg <= rep.rmse_avg + 1e-15

    hand = training.compute_metrics(np.full((1, 1, 1), 110.0), np.full((1, 1, 1), 100.0))
    hand_ok = (hand.mae_avg, hand.rmse_avg) == (10.0, 10.0) and abs(hand.mape_avg - 10.0) < 1e-12
    ok = worst <= 1e-10 and mae_le_rmse and hand_ok
    report(
        "metric oracle equivalence",
        ok,
        f"1000 vectors, worst |diff| {worst:.2e} (tol 1e-10), MAE<=RMSE: {mae_le_rmse}, "
        f"hand case (10, 10, 10%): {hand_ok}",
    )


# --------------------------------------------------------------------------
# 5. windowing correctness
# --------------------------------------------------------------------------


def test_windowing_correctness():
    from datetime import date, datetime

    t_total, m, n, periods = 90, 4, 2, [8, 12]
    vals = np.tile(np.arange(t_total, dtype=float)[:, None, None], (1, 2, 1))
    series = data.RawSeries(values=vals, start=datetime(2023, 4, 3), step_minutes=60)
    samples = data.make_windows(series, (0, t_total), m, n, periods)
    batch = make_batch(samples)
    exhaustive = True
    for j, s in enumerate(samples):
        t = s.anchor
        exhaustive &= np.array_equal(batch.recent[j, :, 0, 0], np.arange(t - m + 1, t + 1))
        exhaustive &= np.array_equal(batch.target[j, :, 0], np.arange(t + 1, t + n + 1))
        for i, p in enumerate(periods):
            lo = t - m - p + 1
            exhaustive &= np.array_equal(batch.periods[j, i, :, 0, 0], np.arange(lo, lo + m + n))
            exhaustive &= lo >= 0

    cal_series = data.RawSeries(
        values=np.tile(np.arange(26 * 24, dtype=float)[:, None, None], (1, 2, 1)),
        start=datetime(2023, 4, 3, 0, 0), step_minutes=60,
    )
    cal_samples = data.make_windows(cal_series, (0, 26 * 24), 1, 1, [24, 168])
    anchor = (date(2023, 4, 27) - date(2023, 4, 3)).days * 24 + 7  # 7:00 Apr 27
    smp = make_batch([x for x in cal_samples if x.anchor == anchor])
    calendar_ok = (
        smp.recent[0, 0, 0, 0] == anchor                   # recent 7:00-8:00 Apr 27
        and smp.target[0, 0, 0] == anchor + 1              # target 8:00-9:00 Apr 27
        and np.array_equal(smp.periods[0, 0, :, 0, 0], [anchor - 24, anchor - 23])
        and np.array_equal(smp.periods[0, 1, :, 0, 0], [anchor - 168, anchor - 167])
    )
    ok = exhaustive and calendar_ok
    report(
        "windowing correctness",
        ok,
        f"{len(samples)} anchors exhaustively index-checked: {exhaustive}, "
        f"Apr-27 calendar example to the step: {calendar_ok}",
    )


# --------------------------------------------------------------------------
# 6. ablation ordering (seed-pinned experiment)
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def periodic_dataset():
    series, graph = data.synth_generate(
        n_nodes=15, days=30, step_minutes=15, daily_amp=50.0, weekly_amp=15.0,
        noise_std=5.0, graph_model="ring", seed=11,  # noise = 0.1 * daily amplitude
    )
    splits = data.chronological_split(series)
    normalizer = data.fit_normalizer(series, splits[0])
    normalized = series.with_values(normalizer.apply(series.values))
    calendar = data.calendar_features(series)
    lap = normalized_laplacian(graph)
    basis = chebyshev_basis(lap, estimate_lambda_max(lap), 2)
    return series, normalized, splits, normalizer, calendar, basis


def test_ablation_ordering(periodic_dataset):
    series, normalized, splits, normalizer, calendar, basis = periodic_dataset
    start = time.perf_counter()
    tcfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=10, seed=5)
    rows = training.ablation_grid(
        normalized, basis, training.standard_variants(),
        dict(m=12, n=12, d_e=16, h_prime=16, k_cheb=2, n_blocks=1),
        tcfg, splits, normalizer, calendar=calendar,
    )
    elapsed = time.perf_counter() - start
    mae = {row["variant"]: row["mae"] for row in rows}
    ordering = mae["full"] < mae["period(24)"] < mae["w/o-period"]
    beats_persistence = all(row["mae"] < row["persistence_mae"] for row in rows)
    ok = ordering and beats_persistence and elapsed < 15 * 60
    report(
        "ablation ordering",
        ok,
        f"full {mae['full']:.3f} < period(24) {mae['period(24)']:.3f} < "
        f"w/o-period {mae['w/o-period']:.3f}: {ordering}; all beat persistence "
        f"{rows[0]['persistence_mae']:.3f}: {beats_persistence}; {elapsed:.0f}s (<900s)",
    )


# --------------------------------------------------------------------------
# 7. lookup sanity (flow-generation mechanism)
# --------------------------------------------------------------------------


def test_lookup_sanity():
    series, graph = data.synth_generate(
        n_nodes=8, days=12, step_minutes=15, daily_amp=50.0, weekly_amp=0.0,
        noise_std=0.0, graph_model="ring", seed=21,  # noise-free, purely daily
    )
    splits = data.chronological_split(series)
    normalizer = data.fit_normalizer(series, splits[0])
    normalized = series.with_values(normalizer.apply(series.values))
    calendar = data.calendar_features(series)
    lap = normalized_laplacian(graph)
    basis = chebyshev_basis(lap, estimate_lambda_max(lap), 2)

    m = n = 12
    periods = (32, 96)  # 8h and 24h lags at 15-minute steps
    config = ModelConfig(m=m, n=n, n_nodes=8, n_features=1, d_e=16,
                         h_prime=16, k_cheb=2, n_blocks=1, periods=periods,
                         enable_recent=False)
    windows = {
        label: data.make_windows(normalized, rng, m, n, periods, calendar=calendar)
        for label, rng in zip(("train", "val", "test"), splits)
    }
    tcfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=12, seed=5)
    result = train(config, basis, windows["train"], windows["val"], tcfg, normalizer)
    rep = evaluate(result.params, windows["test"], normalizer, config, basis)

    test_batch = make_batch(windows["test"])
    # historical average: the mean of the period windows' pseudo-futures
    oracle_pred = test_batch.periods[:, :, -n:, :, 0].mean(axis=1)
    actual = test_batch.target
    oracle = training.compute_metrics(
        normalizer.invert_feature(oracle_pred), normalizer.invert_feature(actual)
    )
    ok = rep.mae_avg <= 1.05 * oracle.mae_avg
    report(
        "lookup sanity",
        ok,
        f"generation-only MAE {rep.mae_avg:.3f} vs historical-average oracle "
        f"{oracle.mae_avg:.3f} (within 5%: ratio {rep.mae_avg / oracle.mae_avg:.3f})",
    )


# --------------------------------------------------------------------------
# 8. determinism & persistence
# --------------------------------------------------------------------------


def test_determinism_and_persistence(tmp_path):
    def one_run(tag):
        series, graph = data.synth_generate(
            n_nodes=5, days=6, step_minutes=60, daily_amp=25.0, weekly_amp=0.0,
            noise_std=2.0, graph_model="ring", seed=13,
        )
        splits = data.chronological_split(series)
        normalizer = data.fit_normalizer(series, splits[0])
        normalized = series.with_values(normalizer.apply(series.values))
        calendar = data.calendar_features(series)
        lap = normalized_laplacian(graph)
        basis = chebyshev_basis(lap, estimate_lambda_max(lap), 2)
        config = ModelConfig(m=4, n=4, n_nodes=5, n_features=1, d_e=8,
                             h_prime=8, k_cheb=2, n_blocks=1, periods=(24,))
        tr = data.make_windows(normalized, splits[0], 4, 4, [24], calendar=calendar)
        val = data.make_windows(normalized, splits[1], 4, 4, [24], calendar=calendar)
        test = data.make_windows(normalized, splits[2], 4, 4, [24], calendar=calendar)
        tcfg = TrainConfig(learning_rate=1e-3, batch_size=16, epochs=3, seed=17)
        result = train(config, basis, tr, val, tcfg, normalizer)
        path = tmp_path / f"{tag}.ckpt"
        save_checkpoint(path, result.params, config)
        return result, path, (test, normalizer, config, basis)

    res_a, path_a, eval_ctx = one_run("a")
    res_b, path_b, _ = one_run("b")
    traces_equal = res_a.trace == res_b.trace
    bytes_equal = path_a.read_bytes() == path_b.read_bytes()

    test_samples, normalizer, config, basis = eval_ctx
    before = evaluate(res_a.params, test_samples, normalizer, config, basis)
    loaded_params, loaded_config = load_checkpoint(path_a)
    after = evaluate(loaded_params, test_samples, normalizer, loaded_config, basis)
    metric_dev = max(
        abs(before.mae_avg - after.mae_avg),
        abs(before.rmse_avg - after.rmse_avg),
        abs(before.mape_avg - after.mape_avg),
    )
    ok = traces_equal and bytes_equal and metric_dev <= 1e-12
    report(
        "determinism & persistence",
        ok,
        f"equal traces: {traces_equal}, byte-identical checkpoints: {bytes_equal}, "
        f"save->load->evaluate dev {metric_dev:.2e} (tol 1e-12)",
    )


# --------------------------------------------------------------------------
# 9. shape/config sweep
# --------------------------------------------------------------------------


def test_shape_config_sweep():
    rng = np.random.default_rng(91)
    n_nodes = 5
    failures = []
    combos = 0
    for m, n in ((12, 12), (36, 36)):
        for k_cheb in (2, 3):
            for branches in (0, 1, 2, 4):
                combos += 1
                periods = tuple(m + n + 4 * i for i in range(branches))
                config = ModelConfig(
                    m=m, n=n, n_nodes=n_nodes, n_features=1, d_e=4,
                    h_prime=4, k_cheb=k_cheb, n_blocks=1, periods=periods,
                    enable_recent=True,
                )
                params = init_params(config, seed=0)
                graph = TrafficGraph(
                    adjacency=(rng.random((n_nodes, n_nodes)) < 0.5).astype(float)
                )
                lap = normalized_laplacian(graph)
                basis = chebyshev_basis(lap, estimate_lambda_max(lap), k_cheb)
                k = len(periods)
                batch = Batch(
                    recent=rng.standard_normal((1, m, n_nodes, 1)),
                    periods=rng.standard_normal((1, k, m + n, n_nodes, 1)),
                    target=rng.standard_normal((1, n, n_nodes)),
                    recent_calendar=np.stack(
                        [rng.integers(0, v, (1, m)) for v in (1440, 7, 2)], axis=-1),
                    period_calendar=np.stack(
                        [rng.integers(0, v, (1, k, m + n)) for v in (1440, 7, 2)], axis=-1),
                )
                out = forward(batch, params, config, basis)
                if out.shape != (1, n, n_nodes):
                    failures.append((m, n, k_cheb, branches, out.shape))
    ok = not failures
    report(
        "shape/config sweep",
        ok,
        f"{combos} configs (m,n) x K x branches all return (n, N): {ok}"
        + (f"; failures: {failures}" if failures else ""),
    )

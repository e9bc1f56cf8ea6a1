"""Adam optimization, train/eval loops, metrics, baselines, ablation grid.

Loss is computed on the normalized scale; MAE/RMSE/MAPE are reported
after denormalization. Checkpoint selection keeps the epoch with the
best validation MAE. Per-epoch shuffling uses a counter-based Philox
stream keyed by (seed, epoch) so runs are reproducible across platforms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from embsformer import tensor as T
from embsformer.data import NormalizationStats, make_windows
from embsformer.model import (
    ModelConfig,
    ModelParameters,
    forward,
    init_params,
    make_batch,
    mse_loss,
)

__all__ = [
    "TrainConfig",
    "AdamState",
    "MetricsReport",
    "DivergenceError",
    "adam_step",
    "train",
    "TrainResult",
    "forecast",
    "predict",
    "evaluate",
    "compute_metrics",
    "persistence_baseline",
    "AblationVariant",
    "standard_variants",
    "ablation_grid",
]


# Adam's moment decay rates and denominator floor, the values of Kingma & Ba (2015)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# windows per forward pass when forecasting or evaluating: the CLI's training
# batch, so a validation pass never needs more memory than the training step
FORECAST_BATCH = 16


class DivergenceError(RuntimeError):
    """Training produced NaN losses or gradients."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 16
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.epochs < 0:
            raise ValueError("learning_rate and batch_size must be positive, epochs >= 0")


class AdamState:
    """First/second moment buffers per parameter path plus the step counter."""

    def __init__(self, params: ModelParameters):
        self.m = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in params.items()}
        self.step = 0


def adam_step(params: ModelParameters, state: AdamState, cfg: TrainConfig):
    """Standard bias-corrected Adam update; params without grads are skipped."""
    state.step += 1
    t = state.step
    for name, tens in params.items():
        g = tens.grad
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / (1.0 - BETA1 ** t)
        v_hat = v / (1.0 - BETA2 ** t)
        tens.data -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
        if not np.all(np.isfinite(tens.data)):
            raise DivergenceError(f"parameter {name!r} became non-finite after update")


def _shuffled_indices(n, seed, epoch):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=np.uint64(epoch)))
    return rng.permutation(n)


@dataclass
class TrainResult:
    params: ModelParameters
    trace: list              # (epoch, train_loss, val_mae)
    best_epoch: int
    best_val_mae: float


def train(config: ModelConfig, basis, train_windows, val_windows,
          tcfg: TrainConfig, normalizer: NormalizationStats,
          init: ModelParameters = None, log=None) -> TrainResult:
    """Epoch loop with seeded shuffling and best-on-validation selection."""
    if not train_windows or not val_windows:
        raise ValueError("need at least one sample per split")
    params = init if init is not None else init_params(config, seed=tcfg.seed)
    state = AdamState(params)
    best = params.copy()
    best_mae = np.inf
    best_epoch = -1
    trace = []

    for epoch in range(tcfg.epochs):
        order = _shuffled_indices(len(train_windows), tcfg.seed, epoch)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), tcfg.batch_size):
            batch = make_batch([train_windows[i] for i in order[lo:lo + tcfg.batch_size]])
            params.zero_grads()
            try:
                loss = mse_loss(forward(batch, params, config, basis), batch.target)
                value = loss.item()
                if not np.isfinite(value):
                    raise DivergenceError(f"training loss diverged at epoch {epoch}")
                T.backward(loss)
            finally:
                T.drop_tape()   # a pass that raised before `backward` leaves no tape
            adam_step(params, state, tcfg)
            epoch_loss += value
            n_batches += 1
        train_loss = epoch_loss / n_batches
        val_mae = evaluate(params, val_windows, normalizer, config, basis).mae_avg
        trace.append((epoch, train_loss, val_mae))
        if log:
            log(f"epoch {epoch:3d}  train_loss {train_loss:.6f}  val_mae {val_mae:.4f}")
        if val_mae < best_mae:
            best_mae = val_mae
            best_epoch = epoch
            best = params.copy()
    return TrainResult(params=best, trace=trace, best_epoch=best_epoch, best_val_mae=best_mae)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


@dataclass
class MetricsReport:
    """MAE/RMSE/MAPE per horizon step and pooled, plus run metadata."""

    mae_per_step: list
    rmse_per_step: list
    mape_per_step: list
    mae_avg: float
    rmse_avg: float
    mape_avg: float
    mape_skipped: int
    n_samples: int
    horizon: int
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "mae": {"per_step": self.mae_per_step, "avg": self.mae_avg},
            "rmse": {"per_step": self.rmse_per_step, "avg": self.rmse_avg},
            "mape_pct": {"per_step": self.mape_per_step, "avg": self.mape_avg},
            "mape_skipped": self.mape_skipped,
            "n_samples": self.n_samples,
            "horizon": self.horizon,
            "meta": self.meta,
        }


def compute_metrics(pred, actual, meta=None) -> MetricsReport:
    """Straightforward per-step metrics over [S, n, N] prediction/target stacks.

    MAPE skips elements whose target is exactly zero and reports the count.
    """
    pred = np.asarray(pred, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if pred.shape != actual.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {actual.shape}")
    err = pred - actual
    n_steps = pred.shape[1]
    mae_steps, rmse_steps, mape_steps = [], [], []
    skipped = 0
    for s in range(n_steps):
        e = err[:, s, :]
        a = actual[:, s, :]
        mae_steps.append(float(np.abs(e).mean()))
        rmse_steps.append(float(np.sqrt((e * e).mean())))
        nz = a != 0
        skipped += int(a.size - nz.sum())
        if np.any(nz):
            mape_steps.append(float(100.0 * np.abs(e[nz] / a[nz]).mean()))
        else:
            mape_steps.append(0.0)
    nz = actual != 0
    mape_avg = float(100.0 * np.abs(err[nz] / actual[nz]).mean()) if np.any(nz) else 0.0
    return MetricsReport(
        mae_per_step=mae_steps,
        rmse_per_step=rmse_steps,
        mape_per_step=mape_steps,
        mae_avg=float(np.abs(err).mean()),
        rmse_avg=float(np.sqrt((err * err).mean())),
        mape_avg=mape_avg,
        mape_skipped=skipped,
        n_samples=pred.shape[0],
        horizon=n_steps,
        meta=meta or {},
    )


def forecast(params, windows, config, basis):
    """Predictions and targets for a window list, each stacked to [S, n, N] (normalized scale).

    Both come from one `make_batch` per `FORECAST_BATCH` windows, so no
    split-sized input array is ever built.
    """
    if not windows:
        raise ValueError("forecast: empty sample list")
    preds, targets = [], []
    with T.no_grad():
        for lo in range(0, len(windows), FORECAST_BATCH):
            batch = make_batch(windows[lo:lo + FORECAST_BATCH])
            preds.append(forward(batch, params, config, basis).data)
            targets.append(batch.target)
    return np.concatenate(preds, axis=0), np.concatenate(targets, axis=0)


def predict(params, windows, config, basis):
    """Model predictions for a window list, stacked to [S, n, N] (normalized scale)."""
    if not windows:
        raise ValueError("predict: empty sample list")
    return forecast(params, windows, config, basis)[0]


def evaluate(params, windows, normalizer: NormalizationStats, config, basis,
             meta=None) -> MetricsReport:
    """Denormalize predictions and targets, then report MAE/RMSE/MAPE."""
    if not windows:
        raise ValueError("evaluate: empty sample list")
    start = time.perf_counter()
    pred, actual = forecast(params, windows, config, basis)
    report = compute_metrics(
        normalizer.invert_feature(pred), normalizer.invert_feature(actual), meta=meta
    )
    report.meta.setdefault("wall_time_s", round(time.perf_counter() - start, 4))
    report.meta.setdefault("config_hash", config.config_hash())
    return report


# --------------------------------------------------------------------------
# baselines
# --------------------------------------------------------------------------


def persistence_baseline(batch):
    """Repeat the last observed flow across the horizon: [B, n, N]."""
    n = batch.target.shape[1]
    return np.repeat(batch.recent[:, -1:, :, 0], n, axis=1)


def _baseline_metrics(windows, fn, normalizer):
    batch = make_batch(windows)
    return compute_metrics(normalizer.invert_feature(fn(batch)),
                           normalizer.invert_feature(batch.target))


# --------------------------------------------------------------------------
# ablation grid
# --------------------------------------------------------------------------


@dataclass
class AblationVariant:
    name: str
    periods_hours: tuple        # empty: no period branches
    enable_recent: bool = True


def standard_variants():
    """The five-way grid: full, single/dual period, and the two path ablations."""
    full = (8, 12, 24, 168)
    return [
        AblationVariant("full", full),
        AblationVariant("period(24)", (24,)),
        AblationVariant("period(24,168)", (24, 168)),
        AblationVariant("w/o-period", ()),
        AblationVariant("w/o-recent", full, enable_recent=False),
    ]


def hours_to_steps(hours, step_minutes):
    steps = hours * 60
    if steps % step_minutes != 0:
        raise ValueError(f"{hours}h is not a whole number of {step_minutes}-minute steps")
    return steps // step_minutes


def ablation_grid(series, basis, variants, model_kwargs, tcfg: TrainConfig,
                  split_ranges, normalizer, calendar=None, log=None):
    """Train every variant with an identical seed/budget and one anchor set.

    All variants share the anchor floor implied by the largest period in
    the grid so test MAE is comparable across rows. Returns one dict per
    variant with metrics and the persistence-baseline MAE on the same
    anchors.
    """
    train_range, val_range, test_range = split_ranges
    step_minutes = series.step_minutes
    all_periods = sorted({p for v in variants for p in v.periods_hours})
    max_period_steps = max(
        (hours_to_steps(h, step_minutes) for h in all_periods), default=0
    )
    m, n = model_kwargs["m"], model_kwargs["n"]
    floor = m + max_period_steps - 1

    rows = []
    for variant in variants:
        period_steps = tuple(
            hours_to_steps(h, step_minutes) for h in variant.periods_hours
        )
        config = ModelConfig(
            n_nodes=series.n_nodes,
            n_features=series.n_features,
            periods=period_steps,
            enable_recent=variant.enable_recent,
            **model_kwargs,
        )
        splits = {}
        for label, rng_ in (("train", train_range), ("val", val_range), ("test", test_range)):
            splits[label] = make_windows(
                series, rng_, m, n, period_steps, calendar=calendar, anchor_floor=floor
            )
        if log:
            log(f"[{variant.name}] training on {len(splits['train'])} samples")
        result = train(config, basis, splits["train"], splits["val"], tcfg, normalizer)
        report = evaluate(result.params, splits["test"], normalizer, config, basis)
        persistence = _baseline_metrics(splits["test"], persistence_baseline, normalizer)
        row = {
            "variant": variant.name,
            "mae": report.mae_avg,
            "rmse": report.rmse_avg,
            "mape_pct": report.mape_avg,
            "persistence_mae": persistence.mae_avg,
            "best_epoch": result.best_epoch,
            "param_count": result.params.count(),
            "param_groups": result.params.group_counts(),
        }
        rows.append(row)
        if log:
            log(f"[{variant.name}] test MAE {row['mae']:.4f}  RMSE {row['rmse']:.4f}  "
                f"MAPE {row['mape_pct']:.2f}%  (persistence {row['persistence_mae']:.4f})")
    return rows

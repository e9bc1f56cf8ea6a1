"""Workload definitions: seeded inputs, CLI-equivalent setup, closed-loop steps.

Every workload is one caller in a closed loop: each training step or
forecast request starts only after the previous one has finished. The
library is driven only through public functions of its modules, always
looked up on the module at call time so that a `tracing.Tracer` sees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from embsformer import data, graph, model, tensor, training

M = N_HORIZON = 12          # input and forecast steps (the CLI's "short" preset)
PERIODS_HOURS = (24, 168)   # the CLI's default period branches
BATCH_SIZE = 16             # the CLI's default batch size
INPUT_VARIANTS = 8          # a seed selects one of this many committed input sets


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str           # "train" or "forecast"
    nodes: int
    step_minutes: int
    days: int
    why: str
    eval_split: str = None   # split evaluated once after the loop, if any


WORKLOADS = {
    w.name: w for w in (
        Workload("desk-train", "train", 15, 15, 30,
                 "small arrays: op dispatch, copies, tape bookkeeping, embed "
                 "gathers and Adam dominate a training step", eval_split="val"),
        Workload("pems-forecast", "forecast", 170, 5, 21,
                 "batch-1 predict calls on the PEMS-sized graph: forward only, "
                 "no tape, no backward"),
    )
}


def variant_of(seed):
    """The input set a workload seed selects; references exist for each."""
    return int(seed) % INPUT_VARIANTS


def write_inputs(workload: Workload, seed, directory):
    """Generate the seeded dataset and write the two files the program reads."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    series, traffic = data.synth_generate(
        n_nodes=workload.nodes, days=workload.days,
        step_minutes=workload.step_minutes, seed=variant_of(seed),
    )
    readings, adjacency = directory / "readings.csv", directory / "adjacency.csv"
    data.save_readings(series, readings)
    data.save_adjacency(traffic, adjacency)
    return readings, adjacency


@dataclass
class Prepared:
    config: model.ModelConfig
    normalizer: data.NormalizationStats
    windows: dict        # split label -> list of WindowSample
    basis: graph.ChebyshevBasis
    params: model.ModelParameters

    def windows_mb(self):
        """Bytes held by the materialized window samples of all three splits."""
        total = 0
        for samples in self.windows.values():
            for s in samples:
                total += sum(v.nbytes for v in vars(s).values() if isinstance(v, np.ndarray))
        return total / 1e6


def setup(readings, adjacency, seed):
    """Load the files and build everything a run needs, as the CLI does today."""
    series = data.load_readings(readings)
    traffic = data.load_adjacency(adjacency, series.n_nodes)
    periods = tuple(training.hours_to_steps(h, series.step_minutes) for h in PERIODS_HOURS)
    splits = data.chronological_split(series)
    normalizer = data.fit_normalizer(series, splits[0])
    normalized = series.with_values(normalizer.apply(series.values))
    calendar = data.calendar_features(series)
    windows = {
        label: data.make_windows(normalized, rng, M, N_HORIZON, periods, calendar=calendar)
        for label, rng in zip(("train", "val", "test"), splits)
    }
    config = model.ModelConfig(m=M, n=N_HORIZON, n_nodes=series.n_nodes,
                               n_features=series.n_features, periods=periods)
    lap = graph.normalized_laplacian(traffic)
    basis = graph.chebyshev_basis(lap, graph.estimate_lambda_max(lap), config.k_cheb)
    params = model.init_params(config, seed=variant_of(seed))
    return Prepared(config, normalizer, windows, basis, params)


def epoch_order(n, seed, epoch):
    """The per-epoch shuffle of `training.train`: Philox keyed by (seed, epoch)."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=np.uint64(epoch)))
    return rng.permutation(n)


class TrainLoop:
    """The inner loop of `training.train`, one Adam step per call.

    Seeded shuffle, `make_batch`, `forward`, `mse_loss`, `backward` and
    `adam_step` in the same order as the library's epoch loop, without the
    per-epoch validation pass, which does not touch parameters or Adam state.
    """

    def __init__(self, prep: Prepared, seed):
        self.prep = prep
        self.tcfg = training.TrainConfig(batch_size=BATCH_SIZE, seed=variant_of(seed))
        self.state = training.AdamState(prep.params)
        self.samples = prep.windows["train"]
        self.epoch = 0
        self.order = epoch_order(len(self.samples), self.tcfg.seed, 0)
        self.pos = 0

    def step(self, on_tape=None):
        """Run one step; returns (loss, batch size). ``on_tape`` sees the tape before backward."""
        if self.pos >= len(self.order):
            self.epoch += 1
            self.order = epoch_order(len(self.samples), self.tcfg.seed, self.epoch)
            self.pos = 0
        chunk = [self.samples[i] for i in self.order[self.pos:self.pos + self.tcfg.batch_size]]
        self.pos += self.tcfg.batch_size
        p = self.prep
        batch = model.make_batch(chunk)
        p.params.zero_grads()
        pred = model.forward(batch, p.params, p.config, p.basis)
        loss = model.mse_loss(pred, batch.target)
        value = loss.item()
        if not np.isfinite(value):
            raise training.DivergenceError(f"loss {value} at epoch {self.epoch}")
        if on_tape is not None:
            on_tape(tensor.current_tape())
        tensor.backward(loss)
        training.adam_step(p.params, self.state, self.tcfg)
        return value, len(chunk)


class ForecastLoop:
    """Batch-1 `training.predict` calls, cycling through the test anchors in order."""

    def __init__(self, prep: Prepared):
        self.prep = prep
        self.samples = prep.windows["test"]
        self.request = 0

    def step(self, on_tape=None):
        """Run one request; returns (prediction, 1)."""
        p = self.prep
        sample = self.samples[self.request % len(self.samples)]
        self.request += 1
        pred = training.predict(p.params, [sample], p.config, p.basis)
        if not np.all(np.isfinite(pred)):
            raise ValueError(f"non-finite forecast for anchor {sample.anchor}")
        return pred, 1


def _weights(size):
    return np.linspace(1.0, 2.0, size)


def forecast_checksum(pred):
    """Order-sensitive checksum of one prediction: its weighted sum."""
    flat = np.asarray(pred, dtype=np.float64).reshape(-1)
    return float(flat @ _weights(flat.size))


def forecast_scale(pred):
    """Magnitude the checksum tolerance is relative to: the weighted sum of |x|."""
    flat = np.asarray(pred, dtype=np.float64).reshape(-1)
    return float(np.abs(flat) @ _weights(flat.size))

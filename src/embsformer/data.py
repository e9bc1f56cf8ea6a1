"""Readings ingestion, chronological splits, windowing, and synthetic data.

File formats:
  readings CSV  -- header ``#meta,n_nodes=<N>,n_features=<F>,step_minutes=<s>,start=<ISO-8601>``
                   then one row per time step with N*F comma-separated values, node-major.
                   Cells are what `np.loadtxt` reads as float64 (ASCII decimals,
                   ``nan``, ``inf``); ``1_000`` and non-ASCII digits are not. Blank
                   lines are skipped; a ``#`` row is rejected, not a comment. The
                   body is one `np.loadtxt` pass; a row-by-row scan runs only to
                   name a bad row.
  adjacency CSV -- header row ``from,to,cost`` then 0-based edge lines.
  holidays file -- one YYYY-MM-DD per line.

PEMS-style array dumps flatten to the readings CSV by writing each time
step as a node-major row under the meta header (see README).
"""

from __future__ import annotations

import os
import re
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np

from embsformer.graph import TrafficGraph

__all__ = [
    "RawSeries",
    "NormalizationStats",
    "Window",
    "atomic_write",
    "load_readings",
    "save_readings",
    "load_adjacency",
    "save_adjacency",
    "load_holidays",
    "chronological_split",
    "fit_normalizer",
    "calendar_features",
    "window_offsets",
    "make_windows",
    "synth_generate",
]

MINUTES_PER_DAY = 1440


@dataclass
class RawSeries:
    """Readings for all nodes: values[t, node, feature], feature 0 = flow."""

    values: np.ndarray
    start: datetime
    step_minutes: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(f"values must be T x N x F, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            t, n, f = [int(i[0]) for i in np.nonzero(~np.isfinite(v))]
            raise ValueError(f"non-finite reading at t={t}, node={n}, feature={f}")
        if self.step_minutes <= 0:
            raise ValueError("step_minutes must be positive")
        self.values = v

    @property
    def n_steps(self):
        return self.values.shape[0]

    @property
    def n_nodes(self):
        return self.values.shape[1]

    @property
    def n_features(self):
        return self.values.shape[2]

    def timestamp(self, index):
        return self.start + timedelta(minutes=self.step_minutes * int(index))

    def with_values(self, values):
        return RawSeries(values=values, start=self.start, step_minutes=self.step_minutes)


@dataclass
class NormalizationStats:
    """Per-feature mean/std, fitted on the training partition only."""

    mean: np.ndarray
    std: np.ndarray

    def apply(self, values):
        """(x - mean) / std over the trailing feature axis, in one allocation."""
        out = np.asarray(values) - self.mean
        out /= self.std
        return out

    def invert_feature(self, values, feature=0):
        return np.asarray(values) * self.std[feature] + self.mean[feature]


@dataclass(eq=False, repr=False)
class Window:
    """One example: its anchor t plus the series and calendar its split shares.

    A window copies nothing: ``series`` and the [T, 3] ``calendar`` index
    array (see `calendar_features`) are shared by every window of a split,
    and `model.make_batch` gathers its blocks from them at the offsets of
    `window_offsets`.
    """

    anchor: int
    series: RawSeries
    calendar: np.ndarray
    m: int
    n: int
    periods: tuple


# --------------------------------------------------------------------------
# file I/O
# --------------------------------------------------------------------------


@contextmanager
def atomic_write(path, mode="w"):
    """Open a file that replaces ``path`` once the ``with`` body returns.

    The bytes go to ``<path>.tmp`` first, which `os.replace` then moves onto
    ``path``, so a write that fails part way leaves neither a partial
    ``path`` nor the temp file. Text modes write UTF-8.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_readings(path) -> RawSeries:
    """Parse the self-describing readings CSV; rejects NaN/Inf with location.

    The body after the header is one `np.loadtxt` pass over its non-blank
    lines (blank: nothing but whitespace). Cells are ASCII decimals, as
    `save_readings` writes them; `float()` spellings such as ``1_000`` or
    non-ASCII digits are non-numeric. When the pass raises, finds a width
    other than N*F or finds no rows, `_raise_bad_row` names the bad row.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("#meta,"):
            raise ValueError(f"{path}: missing '#meta' header line")
        meta = {}
        for part in header[len("#meta,"):].split(","):
            if "=" not in part:
                raise ValueError(f"{path}: malformed meta entry {part!r}")
            key, val = part.split("=", 1)
            meta[key.strip()] = val.strip()
        keys = ("n_nodes", "n_features", "step_minutes", "start")
        n_nodes, n_features, step_minutes, start = (_header_value(path, meta, k) for k in keys)

        width = n_nodes * n_features
        body = fh.tell()
        try:
            with warnings.catch_warnings():
                # an empty body warns "input contained no data"; _raise_bad_row names it
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt((line for line in fh if line.strip()), dtype=np.float64,
                                    delimiter=",", comments=None, ndmin=2)
        except ValueError:
            values = None
        if values is None or values.shape[1] != width or not len(values):
            fh.seek(body)
            _raise_bad_row(fh, path, width)
    bad = ~np.isfinite(values)
    if np.any(bad):
        t, col = [int(i[0]) for i in np.nonzero(bad)]
        raise ValueError(
            f"{path}: non-finite value at t={t}, node={col // n_features}, "
            f"feature={col % n_features}"
        )
    return RawSeries(
        values=values.reshape(len(values), n_nodes, n_features),
        start=start,
        step_minutes=step_minutes,
    )


def _header_value(path, meta, key):
    """The header's ``key``: ``start`` an ISO 8601 date-time, any other an integer of at least 1."""
    if key not in meta:
        raise ValueError(f"{path}: header missing {key}")
    try:
        value = datetime.fromisoformat(meta[key]) if key == "start" else int(meta[key])
        if key == "start" or value >= 1:
            return value
    except ValueError:
        pass
    what = "an ISO 8601 date-time" if key == "start" else "an integer of at least 1"
    raise ValueError(f"{path}: header {key}={meta[key]!r} is not {what}")


def _raise_bad_row(fh, path, width):
    """Name the first body row, from where ``fh`` is positioned, that `np.loadtxt` rejects.

    A row is counted from 0 at the first body line, blank lines included. A
    row fails on its value count or, read alone by `np.loadtxt`, on its
    values; a body with no row fails as empty. Returns nothing: it runs
    only once the single `load_readings` pass has failed.
    """
    for row, line in enumerate(fh):
        if not line.strip():
            continue
        cells = line.count(",") + 1
        if cells != width:
            raise ValueError(f"{path}: row {row} has {cells} values, expected {width}")
        try:
            np.loadtxt([line], dtype=np.float64, delimiter=",", comments=None)
        except ValueError:
            raise ValueError(f"{path}: non-numeric value in row {row}") from None
    raise ValueError(f"{path}: no data rows")


def save_readings(series: RawSeries, path):
    header = (
        f"#meta,n_nodes={series.n_nodes},n_features={series.n_features},"
        f"step_minutes={series.step_minutes},start={series.start.isoformat()}"
    )
    flat = series.values.reshape(series.n_steps, -1)
    with atomic_write(path) as fh:
        fh.write(header + "\n")
        for row in flat:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_adjacency(path, n_nodes) -> TrafficGraph:
    """Edge-list CSV ``from,to,cost`` -> symmetric 0/1 adjacency; self-loops dropped.

    A cost cell must parse as a number but is otherwise ignored: every edge
    gets weight 1.
    """
    a = np.zeros((n_nodes, n_nodes), dtype=np.float64)
    n_edges = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line or (lineno == 0 and line.lower().replace(" ", "").startswith("from,to")):
                continue
            cells = line.split(",")
            if len(cells) < 2:
                raise ValueError(f"{path}: line {lineno}: expected 'from,to,cost'")
            try:
                u, v = int(cells[0]), int(cells[1])
                if len(cells) > 2:
                    float(cells[2])   # validated, not used
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric edge entry") from None
            if u >= n_nodes or v >= n_nodes or u < 0 or v < 0:
                raise ValueError(
                    f"{path}: line {lineno}: node id out of range for n_nodes={n_nodes}"
                )
            if u == v:
                continue
            a[u, v] = a[v, u] = 1.0
            n_edges += 1
    if n_edges == 0:
        warnings.warn(f"{path}: no edges loaded; adjacency is all zeros")
    return TrafficGraph(adjacency=a)


def save_adjacency(graph: TrafficGraph, path):
    with atomic_write(path) as fh:
        fh.write("from,to,cost\n")
        a = graph.adjacency
        for u in range(graph.num_nodes):
            for v in range(u + 1, graph.num_nodes):
                if a[u, v] > 0:
                    fh.write(f"{u},{v},{repr(float(a[u, v]))}\n")


# `date.fromisoformat` also takes the basic (20230404) and week-date
# (2023-W14-2) forms, so the line's shape is checked first
HOLIDAY_LINE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def load_holidays(path):
    """One YYYY-MM-DD per line -> set of dates; a bad line raises ValueError naming it."""
    days = set()
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                if not HOLIDAY_LINE.fullmatch(line):
                    raise ValueError(line)
                days.add(date.fromisoformat(line))
            except ValueError:
                raise ValueError(f"{path}: line {i}: expected YYYY-MM-DD, got {line!r}") from None
    return days


# --------------------------------------------------------------------------
# splits / normalization / calendar
# --------------------------------------------------------------------------


def chronological_split(series: RawSeries):
    """Contiguous (train, val, test) index ranges in 6:2:2 proportions.

    Train and val get the floor of their share; the remainder goes to test.
    """
    t_total = series.n_steps
    if t_total < 10:
        raise ValueError(f"series too short to split: {t_total} steps")
    n_train = int(t_total * 6 / 10)
    n_val = int(t_total * 2 / 10)
    return (0, n_train), (n_train, n_train + n_val), (n_train + n_val, t_total)


def fit_normalizer(series: RawSeries, train_range) -> NormalizationStats:
    """Per-feature mean and population std over the training slice only."""
    lo, hi = train_range
    chunk = series.values[lo:hi]
    mean = chunk.mean(axis=(0, 1))
    std = chunk.std(axis=(0, 1))
    if np.any(std <= 1e-12):
        feat = int(np.nonzero(std <= 1e-12)[0][0])
        raise ValueError(f"feature {feat} is constant on the training range")
    return NormalizationStats(mean=mean, std=std)


def calendar_features(series: RawSeries, holidays=()) -> np.ndarray:
    """Per-step calendar indices, int64 [T, 3].

    Columns: minute of day [0, 1439], day of week [0, 6] (Monday = 0) and
    holiday flag {0, 1}, set for every step of a date in ``holidays``.
    """
    start_minute = series.start.hour * 60 + series.start.minute
    idx = np.arange(series.n_steps, dtype=np.int64)
    minute = (start_minute + idx * series.step_minutes) % MINUTES_PER_DAY
    # day boundaries: whole days elapsed since the start timestamp's midnight
    days_elapsed = (start_minute + idx * series.step_minutes) // MINUTES_PER_DAY
    start_dow = series.start.weekday()
    dow = (start_dow + days_elapsed) % 7
    start_date = series.start.date()
    hol = np.isin(days_elapsed, [(d - start_date).days for d in holidays]).astype(np.int64)
    return np.stack([minute, dow, hol], axis=1)


# --------------------------------------------------------------------------
# windowing
# --------------------------------------------------------------------------


def window_offsets(m, n, periods):
    """Offsets from the anchor t of the recent block, the target and each period window.

    recent covers [t-m+1, t]; target covers [t+1, t+n]; period branch i is
    the (m+n)-step window [t-m-P_i+1, t+n-P_i], whose end sits exactly P_i
    steps before the target's end, so its last n steps (the pseudo-future)
    align with the target's clock time one period earlier. Returns int64
    arrays of shape [m], [n] and [K, m+n].
    """
    recent = np.arange(1 - m, 1)
    target = np.arange(1, n + 1)
    period = np.arange(1 - m, n + 1)[None, :] - np.asarray(periods, dtype=np.int64)[:, None]
    return recent, target, period


def make_windows(series: RawSeries, split_range, m, n, periods, calendar=None):
    """Every valid Window for one chronological split, in anchor order.

    An anchor is valid when, at its `window_offsets`, the recent block
    starts inside the split, every period window starts inside the series
    (period branches are inputs and may reach into earlier history) and the
    target ends inside the split. ``calendar`` is the series' [T, 3]
    `calendar_features` array, built without holidays when omitted.
    """
    if min(m, n) < 1:
        raise ValueError(f"m={m} and n={n} must both be positive")
    periods = tuple(periods)
    if sorted(periods) != list(periods):
        raise ValueError(f"periods must be sorted ascending, got {list(periods)}")
    for p in periods:
        if p < m + n:
            raise ValueError(f"period {p} is shorter than m+n={m + n}")
    if calendar is None:
        calendar = calendar_features(series)

    lo, hi = split_range
    recent, target, period = window_offsets(m, n, periods)
    first = max(lo - recent[0], -period.min(initial=0))
    last = hi - 1 - target[-1]
    if first > last:
        raise ValueError(
            f"no valid anchors in split {split_range} for m={m}, n={n}, periods={list(periods)}"
        )
    return [Window(t, series, calendar, m, n, periods) for t in range(first, last + 1)]


# --------------------------------------------------------------------------
# synthetic data
# --------------------------------------------------------------------------


def synth_generate(n_nodes, days, step_minutes, daily_amp=50.0, weekly_amp=15.0,
                   noise_std=5.0, graph_model="ring", seed=0):
    """Deterministic periodic flows plus a sensor graph; desk-scale PEMS stand-in.

    Per-node flow = base + daily sinusoid + weekly sinusoid + smoothed
    same-step neighbor coupling + Gaussian noise. Sinusoid phases use the
    step index modulo the period, so a noise-free daily-only series is
    bit-exactly 1-day periodic.

    The flow is built in place in at most two [T, N] buffers, so its traced
    peak stays near twice the output. Its bytes stay fixed while every step
    stays the same elementwise operation on the same operands, in the order
    written here (writing through ``out=`` changes no bit), and the
    neighbor sum stays the one ``signal @ a.T`` product. Regrouping a sum,
    such as adding the weekly wave to the base before the daily one, can
    change the last bit.
    """
    if step_minutes < 1 or MINUTES_PER_DAY % step_minutes != 0:
        raise ValueError(
            f"step_minutes={step_minutes} must be a positive divisor of {MINUTES_PER_DAY}")
    if n_nodes < 1:
        raise ValueError(f"n_nodes={n_nodes} must be at least 1")
    if days < 1:
        raise ValueError(f"days={days} must be at least 1")
    for name, value in (("daily_amp", daily_amp), ("weekly_amp", weekly_amp),
                        ("noise_std", noise_std)):
        if not np.isfinite(value):
            raise ValueError(f"{name}={value} must be finite")
    if noise_std < 0:
        raise ValueError(f"noise_std={noise_std} must not be negative")
    if weekly_amp > 0 and days < 15:
        raise ValueError("need days >= 15 when the weekly component is active")
    spd = MINUTES_PER_DAY // step_minutes
    t_total = days * spd
    rng = np.random.Generator(np.random.Philox(key=seed))

    a = np.zeros((n_nodes, n_nodes))
    if graph_model == "ring":
        for i in range(n_nodes):
            a[i, (i + 1) % n_nodes] = 1.0
            a[(i + 1) % n_nodes, i] = 1.0
    elif graph_model == "random":
        upper = rng.random((n_nodes, n_nodes)) < 0.15
        a = np.triu(upper, k=1).astype(np.float64)
        a = np.maximum(a, a.T)
    else:
        raise ValueError(f"unknown graph_model {graph_model!r}")
    graph = TrafficGraph(adjacency=a)

    idx = np.arange(t_total)
    base = rng.uniform(80.0, 120.0, n_nodes)
    daily_phase = rng.uniform(0.0, 2.0 * np.pi, n_nodes)
    weekly_phase = rng.uniform(0.0, 2.0 * np.pi, n_nodes)
    signal = np.empty((t_total, n_nodes))
    wave = np.empty((t_total, n_nodes))
    # signal = base + daily_amp * sin(...) + weekly_amp * sin(...)
    np.add(2.0 * np.pi * (idx % spd)[:, None] / spd, daily_phase[None, :], out=wave)
    np.sin(wave, out=wave)
    np.multiply(daily_amp, wave, out=wave)
    np.add(base[None, :], wave, out=signal)
    wpd = 7 * spd
    np.add(2.0 * np.pi * (idx % wpd)[:, None] / wpd, weekly_phase[None, :], out=wave)
    np.sin(wave, out=wave)
    np.multiply(weekly_amp, wave, out=wave)
    signal += wave
    del wave

    # flow = signal + 0.25 * [deg > 0] * (neighbor_mean - signal), then + noise
    deg = graph.degree
    if np.any(deg > 0):
        coupling = signal @ a.T
        coupling /= np.where(deg > 0, deg, 1.0)[None, :]
        coupling -= signal
        np.multiply(0.25 * np.where(deg > 0, 1.0, 0.0)[None, :], coupling, out=coupling)
        signal += coupling
        del coupling
    # the noise-free + 0.0 turns a -0.0 into 0.0
    signal += rng.normal(0.0, noise_std, (t_total, n_nodes)) if noise_std > 0 else 0.0

    series = RawSeries(
        values=signal[:, :, None],
        start=datetime(2023, 4, 3, 0, 0),  # a Monday
        step_minutes=step_minutes,
    )
    return series, graph

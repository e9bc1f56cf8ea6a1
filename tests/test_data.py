"""Ingestion, splitting, normalization, windowing, and synthetic generation."""

from datetime import date, datetime

import numpy as np
import pytest

from embsformer import data
from embsformer.data import (
    RawSeries,
    calendar_features,
    chronological_split,
    fit_normalizer,
    load_adjacency,
    load_holidays,
    load_readings,
    make_windows,
    save_adjacency,
    save_readings,
    synth_generate,
)
from embsformer.model import make_batch


def series_of(values, start=datetime(2018, 1, 1), step=5):
    return RawSeries(values=np.asarray(values, dtype=float), start=start, step_minutes=step)


def index_series(t_total, n_nodes=2, start=datetime(2023, 4, 3), step=60):
    vals = np.tile(np.arange(t_total, dtype=float)[:, None, None], (1, n_nodes, 1))
    return RawSeries(values=vals, start=start, step_minutes=step)


class TestReadingsIO:
    def test_small_round_trip(self, tmp_path):
        series = series_of(np.arange(6.0).reshape(3, 2, 1))
        path = tmp_path / "readings.csv"
        save_readings(series, path)
        loaded = load_readings(path)
        assert loaded.values.shape == (3, 2, 1)
        assert np.array_equal(loaded.values, series.values)
        assert loaded.start == series.start and loaded.step_minutes == 5

    def test_pems08_shaped_header(self, tmp_path):
        # PEMS08 geometry: 170 nodes, 5-minute steps
        rng = np.random.default_rng(0)
        series = series_of(rng.random((4, 170, 3)), start=datetime(2016, 7, 1))
        path = tmp_path / "pems08.csv"
        save_readings(series, path)
        loaded = load_readings(path)
        assert loaded.n_nodes == 170
        assert loaded.n_features == 3
        assert loaded.step_minutes == 5

    def test_nan_rejected_with_location(self, tmp_path):
        vals = np.ones((9, 5, 1))
        vals[7, 3, 0] = np.nan
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("#meta,n_nodes=5,n_features=1,step_minutes=5,start=2018-01-01T00:00:00\n")
            for row in vals.reshape(9, -1):
                fh.write(",".join("nan" if np.isnan(v) else str(v) for v in row) + "\n")
        with pytest.raises(ValueError, match=r"t=7.*node=3"):
            load_readings(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(
            "#meta,n_nodes=2,n_features=1,step_minutes=5,start=2018-01-01T00:00:00\n"
            "1.0,2.0\n1.0\n"
        )
        with pytest.raises(ValueError, match="row 1"):
            load_readings(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "nohdr.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ValueError, match="#meta"):
            load_readings(path)


class TestAdjacencyIO:
    def test_single_edge(self, tmp_path):
        path = tmp_path / "adj.csv"
        path.write_text("from,to,cost\n0,1,3.5\n")
        g = load_adjacency(path, 2)
        assert np.array_equal(g.adjacency, [[0.0, 1.0], [1.0, 0.0]])

    def test_duplicate_edges_idempotent(self, tmp_path):
        single = tmp_path / "one.csv"
        single.write_text("from,to,cost\n0,1,1\n")
        doubled = tmp_path / "two.csv"
        doubled.write_text("from,to,cost\n0,1,1\n1,0,2\n0,1,9\n")
        assert np.array_equal(
            load_adjacency(single, 3).adjacency, load_adjacency(doubled, 3).adjacency
        )

    def test_empty_edge_file_warns(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("from,to,cost\n")
        with pytest.warns(UserWarning, match="no edges"):
            g = load_adjacency(path, 3)
        assert not np.any(g.adjacency)

    def test_node_id_out_of_range(self, tmp_path):
        path = tmp_path / "oob.csv"
        path.write_text("from,to,cost\n0,7,1\n")
        with pytest.raises(ValueError, match="out of range"):
            load_adjacency(path, 3)

    def test_weights_preserved_when_requested(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("from,to,cost\n0,1,2.5\n")
        g = load_adjacency(path, 2, binarize=False)
        assert g.adjacency[0, 1] == 2.5

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rt.csv"
        path.write_text("from,to,cost\n0,2,1\n1,2,1\n")
        g = load_adjacency(path, 3)
        out = tmp_path / "rt2.csv"
        save_adjacency(g, out)
        assert np.array_equal(load_adjacency(out, 3).adjacency, g.adjacency)


class TestSplit:
    def test_exact_ratios(self):
        s = index_series(100)
        assert chronological_split(s) == ((0, 60), (60, 80), (80, 100))

    def test_minimum_length(self):
        s = index_series(10)
        assert chronological_split(s) == ((0, 6), (6, 8), (8, 10))

    def test_remainder_goes_to_test(self):
        s = index_series(101)
        (a, b), (c, d), (e, f) = chronological_split(s)
        assert (b - a, d - c, f - e) == (60, 20, 21)

    def test_too_short(self):
        with pytest.raises(ValueError):
            chronological_split(index_series(9))


class TestNormalizer:
    def test_population_std(self):
        s = series_of(np.array([0.0, 2.0]).reshape(2, 1, 1))
        stats = fit_normalizer(s, (0, 2))
        assert stats.mean[0] == 1.0 and stats.std[0] == 1.0
        assert stats.apply(np.array([2.0]))[0] == 1.0

    def test_apply_mean_is_zero(self):
        rng = np.random.default_rng(1)
        s = series_of(rng.random((20, 3, 2)))
        stats = fit_normalizer(s, (0, 12))
        assert np.allclose(stats.apply(stats.mean), 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        s = series_of(rng.random((30, 2, 2)) * 50)
        stats = fit_normalizer(s, (0, 18))
        x = rng.random((5, 2, 2)) * 50
        assert np.max(np.abs(stats.invert(stats.apply(x)) - x)) < 1e-9

    def test_constant_feature_rejected(self):
        s = series_of(np.ones((20, 2, 1)))
        with pytest.raises(ValueError, match="constant"):
            fit_normalizer(s, (0, 12))

    def test_stats_differ_across_ranges(self):
        series, _ = synth_generate(n_nodes=3, days=4, step_minutes=60,
                                   weekly_amp=0.0, seed=3)
        train, val, _ = chronological_split(series)
        a = fit_normalizer(series, train)
        b = fit_normalizer(series, val)
        assert abs(a.mean[0] - b.mean[0]) > 1e-9


class TestCalendar:
    def test_minute_and_dow(self):
        s = index_series(300, start=datetime(2018, 1, 1), step=5)  # a Monday
        cal = calendar_features(s)
        assert cal.minute_of_day[12] == 60
        assert cal.day_of_week[12] == 0
        assert cal.minute_of_day[288] == 0
        assert cal.day_of_week[288] == 1

    def test_holiday_flags_whole_day(self):
        s = index_series(3 * 24, start=datetime(2023, 4, 3), step=60)
        cal = calendar_features(s, holidays={date(2023, 4, 4)})
        day2 = slice(24, 48)
        assert np.all(cal.is_holiday[day2] == 1)
        assert not np.any(cal.is_holiday[:24])
        assert not np.any(cal.is_holiday[48:])

    def test_holiday_file(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("2023-04-04\n2023-12-25\n")
        assert load_holidays(path) == {date(2023, 4, 4), date(2023, 12, 25)}


class TestWindows:
    def test_calendar_alignment_example(self):
        # hourly steps starting Monday 2023-04-03 00:00; predict 8:00-9:00 on
        # Thursday 2023-04-27 with m=n=1 and daily/weekly branches
        s = index_series(26 * 24, start=datetime(2023, 4, 3, 0, 0), step=60)
        samples = make_windows(s, (0, 26 * 24), m=1, n=1, periods=[24, 168])
        anchor_7am_apr27 = (date(2023, 4, 27) - date(2023, 4, 3)).days * 24 + 7
        batch = make_batch([x for x in samples if x.anchor == anchor_7am_apr27])
        assert batch.recent[0, 0, 0, 0] == anchor_7am_apr27          # 7:00 Apr 27
        assert batch.target[0, 0, 0] == anchor_7am_apr27 + 1         # 8:00 Apr 27
        daily = batch.periods[0, 0, :, 0, 0]
        weekly = batch.periods[0, 1, :, 0, 0]
        apr26_7am = anchor_7am_apr27 - 24
        apr20_7am = anchor_7am_apr27 - 168
        assert np.array_equal(daily, [apr26_7am, apr26_7am + 1])     # 7:00-9:00 Apr 26
        assert np.array_equal(weekly, [apr20_7am, apr20_7am + 1])    # 7:00-9:00 Apr 20

    def test_no_periods(self):
        s = index_series(50)
        samples = make_windows(s, (0, 50), m=4, n=2, periods=[])
        assert make_batch(samples[:1]).periods.shape == (1, 0, 6, 2, 1)
        assert len(samples) == 50 - 4 - 2 + 1

    def test_index_identity_exhaustive(self):
        s = index_series(80)
        m, n, periods = 4, 2, [8, 12]
        samples = make_windows(s, (0, 80), m, n, periods)
        batch = make_batch(samples)
        for i, smp in enumerate(samples):
            t = smp.anchor
            assert np.array_equal(batch.recent[i, :, 0, 0], np.arange(t - m + 1, t + 1))
            assert np.array_equal(batch.target[i, :, 0], np.arange(t + 1, t + n + 1))
            for j, p in enumerate(periods):
                lo = t - m - p + 1
                assert np.array_equal(batch.periods[i, j, :, 0, 0], np.arange(lo, lo + m + n))
        # anchors whose largest-period window would underflow are dropped
        assert min(s.anchor for s in samples) == m + max(periods) - 1

    def test_all_indices_inside_series(self):
        s = index_series(60)
        for split in ((0, 36), (36, 48), (48, 60)):
            try:
                samples = make_windows(s, split, 3, 2, [6])
            except ValueError:
                continue
            batch = make_batch(samples)
            assert batch.periods.min() >= 0
            assert batch.target.max() <= 59

    def test_no_target_leakage_across_splits(self):
        s = index_series(60)
        splits = ((0, 36), (36, 48), (48, 60))
        targets = []
        for split in splits:
            batch = make_batch(make_windows(s, split, 3, 2, [6]))
            targets.append({int(v) for v in batch.target[:, :, 0].ravel()})
        assert not (targets[0] & targets[1])
        assert not (targets[1] & targets[2])
        # period branches of later splits may reach into earlier partitions
        val_period_min = int(make_batch(make_windows(s, splits[1], 3, 2, [6])).periods.min())
        assert val_period_min < 36

    def test_pure_function(self):
        s = index_series(70)
        a = make_windows(s, (0, 70), 3, 3, [7])
        b = make_windows(s, (0, 70), 3, 3, [7])
        assert [x.anchor for x in a] == [y.anchor for y in b]
        batch_a, batch_b = make_batch(a), make_batch(b)
        assert np.array_equal(batch_a.recent, batch_b.recent)
        assert np.array_equal(batch_a.periods, batch_b.periods)

    def test_period_shorter_than_window_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            make_windows(index_series(50), (0, 50), 4, 4, [6])

    def test_unsorted_periods_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            make_windows(index_series(80), (0, 80), 2, 2, [12, 8])

    def test_no_valid_anchor_raises(self):
        with pytest.raises(ValueError, match="anchors"):
            make_windows(index_series(20), (0, 20), 4, 4, [16])

    def test_windows_from_different_series_rejected(self):
        a = make_windows(index_series(50), (0, 50), 4, 2, [])
        b = make_windows(index_series(50), (0, 50), 4, 2, [])
        with pytest.raises(ValueError, match="share"):
            make_batch([a[0], b[1]])


def reference_batch(windows):
    """Slice every field of every window straight from the series, then stack."""
    rows = []
    for w in windows:
        v, cal, t, m, n = w.series.values, w.calendar, w.anchor, w.m, w.n
        recent = slice(t - m + 1, t + 1)
        spans = [slice(t - m - p + 1, t + n - p + 1) for p in w.periods]

        def branches(a):
            return np.array([a[s] for s in spans], dtype=a.dtype).reshape(
                (len(spans), m + n) + a.shape[1:])

        rows.append({
            "recent": v[recent],
            "periods": branches(v),
            "target": v[t + 1:t + n + 1, :, 0],
            "recent_minute": cal.minute_of_day[recent],
            "recent_dow": cal.day_of_week[recent],
            "recent_holiday": cal.is_holiday[recent],
            "period_minute": branches(cal.minute_of_day),
            "period_dow": branches(cal.day_of_week),
            "period_holiday": branches(cal.is_holiday),
        })
    return {name: np.stack([row[name] for row in rows]) for name in rows[0]}


@pytest.mark.parametrize("shape", ["index", "desk"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_gather_matches_slicing_reference_bytewise(shape, k):
    if shape == "index":
        series, m, n, periods = index_series(80), 4, 2, (8, 12)[:k]
    else:
        series, _ = synth_generate(n_nodes=15, days=30, step_minutes=15, seed=4)
        m, n, periods = 12, 12, (96, 672)[:k]  # 24 h and 168 h at 15-minute steps
    calendar = calendar_features(series, holidays={date(2023, 4, 4), date(2023, 4, 17)})
    for split in chronological_split(series):
        windows = make_windows(series, split, m, n, periods, calendar=calendar)
        assert not any(isinstance(v, np.ndarray) for w in windows for v in vars(w).values())
        batch = make_batch(windows)
        for name, expected in reference_batch(windows).items():
            got = getattr(batch, name)
            assert got.shape == expected.shape, name
            assert got.dtype == expected.dtype, name
            assert got.tobytes() == expected.tobytes(), name


class TestSynth:
    def test_noise_free_daily_is_exactly_periodic(self):
        series, _ = synth_generate(n_nodes=4, days=3, step_minutes=30,
                                   daily_amp=20.0, weekly_amp=0.0, noise_std=0.0, seed=5)
        spd = 1440 // 30
        assert np.array_equal(series.values[:spd], series.values[spd:2 * spd])

    def test_seed_determinism(self):
        a, ga = synth_generate(n_nodes=5, days=2, step_minutes=60, weekly_amp=0.0, seed=7)
        b, gb = synth_generate(n_nodes=5, days=2, step_minutes=60, weekly_amp=0.0, seed=7)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(ga.adjacency, gb.adjacency)
        c, _ = synth_generate(n_nodes=5, days=2, step_minutes=60, weekly_amp=0.0, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_fft_peak_at_daily_frequency(self):
        days = 16
        series, _ = synth_generate(n_nodes=3, days=days, step_minutes=60,
                                   daily_amp=40.0, weekly_amp=5.0, noise_std=1.0, seed=9)
        x = series.values[:, 0, 0]
        spectrum = np.abs(np.fft.rfft(x - x.mean()))
        assert int(np.argmax(spectrum)) == days  # frequency = 1/day

    def test_weekly_needs_enough_days(self):
        with pytest.raises(ValueError, match="days"):
            synth_generate(n_nodes=3, days=7, step_minutes=60, weekly_amp=5.0)

    def test_graph_models(self):
        _, ring = synth_generate(n_nodes=6, days=2, step_minutes=60, weekly_amp=0.0,
                                 graph_model="ring", seed=1)
        assert np.array_equal(ring.degree, np.full(6, 2.0))
        _, rnd = synth_generate(n_nodes=6, days=2, step_minutes=60, weekly_amp=0.0,
                                graph_model="random", seed=1)
        assert np.array_equal(rnd.adjacency, rnd.adjacency.T)

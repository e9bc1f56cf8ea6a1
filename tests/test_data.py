"""Ingestion, splitting, normalization, windowing, and synthetic generation."""

import dataclasses
import hashlib
import re
import tracemalloc
import warnings
from datetime import date, datetime

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from embsformer import data
from embsformer.data import (
    NormalizationStats,
    RawSeries,
    atomic_write,
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
from embsformer.model import Batch, make_batch


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


def write_readings(path, body, n_nodes, n_features=1):
    path.write_text(
        f"#meta,n_nodes={n_nodes},n_features={n_features},step_minutes=5,"
        f"start=2018-01-01T00:00:00\n" + body,
        encoding="utf-8",
    )


def row_scan(path):
    """The readings body at ``path`` read one row at a time: its values or its message.

    A reference for `load_readings`' single pass: each non-blank line is
    split on commas for its width and parsed alone by `np.loadtxt`.
    """
    with open(path, encoding="utf-8") as fh:
        meta = dict(part.split("=", 1) for part in fh.readline().strip().split(",")[1:])
        width = int(meta["n_nodes"]) * int(meta["n_features"])
        rows = []
        for i, line in enumerate(fh):
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != width:
                return f"{path}: row {i} has {len(cells)} values, expected {width}"
            try:
                rows.append(np.loadtxt([line], dtype=np.float64, delimiter=",",
                                       comments=None, ndmin=1))
            except ValueError:
                return f"{path}: non-numeric value in row {i}"
    return np.stack(rows) if rows else f"{path}: no data rows"


def load_or_message(path):
    try:
        return load_readings(path).values
    except ValueError as exc:
        return str(exc)


class TestReadingsParsePaths:
    """`load_readings` parses in one pass and answers exactly as a row-by-row read does."""

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(7, 3, 2)) * 10.0 ** rng.integers(-300, 300, size=(7, 3, 2))
        path = tmp_path / "rt.csv"
        save_readings(series_of(values), path)
        loaded = load_readings(path).values
        assert loaded.tobytes() == values.tobytes()
        assert loaded.tobytes() == row_scan(path).tobytes()

    @pytest.mark.parametrize("n_nodes,body,expected", [
        (2, "1,2\n \t \n3,4\n", [[1, 2], [3, 4]]),
        (1, "5\n6\n", [[5], [6]]),
    ], ids=["whitespace-line", "one-cell-rows"])
    def test_loads_ascii_decimals(self, tmp_path, n_nodes, body, expected):
        path = tmp_path / "r.csv"
        write_readings(path, body, n_nodes)
        loaded = load_readings(path).values
        assert loaded.shape == (len(expected), n_nodes, 1)
        assert loaded.tobytes() == np.asarray(expected, dtype=np.float64).tobytes()
        assert loaded.tobytes() == row_scan(path).tobytes()

    def test_whitespace_only_lines_skip_the_row_scan(self, tmp_path, monkeypatch):
        values = np.random.default_rng(6).normal(size=(40, 3, 2))
        path = tmp_path / "ws.csv"
        save_readings(series_of(values), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[20:20] = ["  \t \n", "\u3000\xa0\n"]
        path.write_text("".join(lines[:6] + ["   \n"] + lines[6:] + ["  "]), encoding="utf-8")
        expected = row_scan(path)

        def no_row_scan(fh, path, width):
            raise AssertionError("the single loadtxt pass should have read this body")

        monkeypatch.setattr(data, "_raise_bad_row", no_row_scan)
        loaded = load_readings(path).values
        assert loaded.tobytes() == expected.tobytes() == values.tobytes()

    @pytest.mark.parametrize("body,message", [
        ("1,2\n3,4,\n", "row 1 has 3 values, expected 2"),
        ("1,2\n3,\n", "non-numeric value in row 1"),
        ("1,2\n3\n", "row 1 has 1 values, expected 2"),
        ("1,2\n#3,4\n", "non-numeric value in row 1"),
        ("1,2,3\n4,5,6\n", "row 0 has 3 values, expected 2"),
        ("1,2\n\n1_000,2\n", "non-numeric value in row 2"),
        ("\u0661\u0662,3\n", "non-numeric value in row 0"),
    ], ids=["trailing-comma", "empty-cell", "ragged", "hash-row", "every-row-wide",
            "underscore", "non-ascii-digits"])
    def test_bad_row_named(self, tmp_path, body, message):
        path = tmp_path / "r.csv"
        write_readings(path, body, 2)
        with pytest.raises(ValueError) as info:
            load_readings(path)
        assert str(info.value) == f"{path}: {message}" == row_scan(path)

    @pytest.mark.parametrize("n_nodes", [1, 2])
    @pytest.mark.parametrize("body", ["", "\n\n"], ids=["no-lines", "blank-lines"])
    def test_empty_body_names_file_without_warning(self, tmp_path, body, n_nodes):
        path = tmp_path / "r.csv"
        write_readings(path, body, n_nodes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                load_readings(path)
        assert str(info.value) == f"{path}: no data rows" == row_scan(path)


class TestAtomicWrite:
    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("partial")
                raise RuntimeError("fails part way")
        assert not path.exists()
        assert not (tmp_path / "out.csv.tmp").exists()

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.bin"
        with atomic_write(path, "wb") as fh:
            fh.write(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(path, "wb") as fh:
                fh.write(b"new")
                raise RuntimeError("fails part way")
        assert path.read_bytes() == b"old"
        assert not (tmp_path / "out.bin.tmp").exists()


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

    def test_non_numeric_cost_names_line(self, tmp_path):
        path = tmp_path / "cost.csv"
        path.write_text("from,to,cost\n0,1,1\n1,2,far\n")
        with pytest.raises(ValueError, match="line 2: non-numeric"):
            load_adjacency(path, 3)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rt.csv"
        path.write_text("from,to,cost\n0,2,1\n1,2,1\n")
        g = load_adjacency(path, 3)
        out = tmp_path / "rt2.csv"
        save_adjacency(g, out)
        assert np.array_equal(load_adjacency(out, 3).adjacency, g.adjacency)


WHITESPACE = " \t\x0b\x0c\x1c\x85\xa0\u2028\u3000"
# the text of a corrupted cell or line: tokens that `float()` and `np.loadtxt`
# could read differently, mixed with any characters but surrogates
FUZZ_TEXT = st.lists(
    st.one_of(
        st.sampled_from(["#", "1_000", "\u0661\u0662", "nan", "-inf", "1e999", "0x1", ",",
                         "\r", "\n", *WHITESPACE]),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
    ),
    max_size=3,
).map("".join)


class TestReaderFuzz:
    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(case=st.data())
    def test_readings_loader_matches_row_scan(self, tmp_path_factory, case):
        # drawn first and "none" last: Hypothesis leans to the first choice
        kind = case.draw(st.sampled_from(
            ["text", "empty", "extra", "wide", "blank-line", "space-line", "text-line", "none"]),
            "corruption")
        t = case.draw(st.integers(1, 4), "t")
        n, f = case.draw(st.integers(1, 3), "n"), case.draw(st.integers(1, 2), "f")
        cells = [repr(v) for v in case.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=t * n * f,
            max_size=t * n * f), "values")]
        rows = [cells[i * n * f:(i + 1) * n * f] for i in range(t)]
        row = case.draw(st.integers(0, t - 1), "row")
        col = case.draw(st.integers(0, n * f - 1), "col")
        cell = st.one_of(FUZZ_TEXT, st.floats().map(repr))
        if kind == "text":
            rows[row][col] = case.draw(cell, "text")
        elif kind == "empty":
            rows[row][col] = ""
        elif kind == "extra":
            rows[row].append(case.draw(cell, "text"))
        elif kind == "wide":   # one cell too many on every row
            rows = [r + ["0.5"] for r in rows]
        lines = [",".join(r) for r in rows]
        if kind.endswith("-line"):
            line = {"blank-line": st.just(""), "text-line": FUZZ_TEXT,
                    "space-line": st.text(st.sampled_from(WHITESPACE), min_size=1)}[kind]
            lines.insert(case.draw(st.integers(0, t), "at"), case.draw(line, "line"))
        path = tmp_path_factory.getbasetemp() / "fuzz-readings.csv"
        write_readings(path, "\n".join(lines) + "\n", n, f)

        got, expected = load_or_message(path), row_scan(path)
        if isinstance(expected, str):
            assert got == expected
            assert expected.startswith(f"{path}: ")
        elif not np.all(np.isfinite(expected)):
            assert isinstance(got, str) and got.startswith(f"{path}: non-finite value at t=")
        else:
            assert not isinstance(got, str), got
            assert got.shape[1:] == (n, f)
            assert got.tobytes() == expected.tobytes()

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(case=st.data())
    def test_adjacency_errors_name_the_line(self, tmp_path_factory, case):
        n_nodes = case.draw(st.integers(1, 5), "n_nodes")
        edge = st.tuples(st.integers(-2, 6), st.integers(-2, 6)).map(lambda e: f"{e[0]},{e[1]},1")
        lines = case.draw(st.lists(st.one_of(edge, FUZZ_TEXT), max_size=6), "lines")
        path = tmp_path_factory.getbasetemp() / "fuzz-adjacency.csv"
        path.write_text("from,to,cost\n" + "\n".join(lines) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # an edgeless file warns
            try:
                load_adjacency(path, n_nodes)
            except ValueError as exc:
                assert re.match(re.escape(f"{path}: line ") + r"\d+: ", str(exc)), str(exc)


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
        y = stats.apply(x)
        for f in range(2):
            assert np.max(np.abs(stats.invert_feature(y[..., f], f) - x[..., f])) < 1e-9

    def test_constant_feature_rejected(self):
        s = series_of(np.ones((20, 2, 1)))
        with pytest.raises(ValueError, match="constant"):
            fit_normalizer(s, (0, 12))

    def test_apply_is_one_allocation(self):
        rng = np.random.default_rng(3)
        x = rng.random((2000, 20, 3)) * 50
        stats = NormalizationStats(mean=np.array([10.0, 20.0, 30.0]),
                                   std=np.array([3.0, 7.0, 11.0]))
        tracemalloc.start()
        try:
            y = stats.apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert y.tobytes() == ((x - stats.mean) / stats.std).tobytes()
        assert peak <= 1.1 * y.nbytes

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
        assert cal.shape == (300, 3) and cal.dtype == np.int64
        assert list(cal[12]) == [60, 0, 0]   # minute of day, day of week, holiday
        assert list(cal[288]) == [0, 1, 0]

    def test_holiday_flags_whole_day(self):
        s = index_series(3 * 24, start=datetime(2023, 4, 3), step=60)
        cal = calendar_features(s, holidays={date(2023, 4, 4)})
        day2 = slice(24, 48)
        assert np.all(cal[day2, 2] == 1)
        assert not np.any(cal[:24, 2])
        assert not np.any(cal[48:, 2])

    def test_holiday_file(self, tmp_path):
        path = tmp_path / "holidays.txt"
        path.write_text("2023-04-04\n2023-12-25\n")
        assert load_holidays(path) == {date(2023, 4, 4), date(2023, 12, 25)}

    # `date.fromisoformat` accepts the basic and the week-date form on Python 3.11+
    @pytest.mark.parametrize("bad", ["not-a-date", "20230404", "2023-W14-2"])
    def test_bad_holiday_line_names_file_and_line(self, tmp_path, bad):
        path = tmp_path / "holidays.txt"
        path.write_text(f"2023-04-04\n\n {bad} \n")
        with pytest.raises(ValueError) as exc:
            load_holidays(path)
        assert str(exc.value) == f"{path}: line 3: expected YYYY-MM-DD, got {bad!r}"


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
            "recent_calendar": cal[recent],
            "period_calendar": branches(cal),
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
        # the only array a window holds is the calendar its split shares
        assert all(v is calendar for w in windows for v in vars(w).values()
                   if isinstance(v, np.ndarray))
        batch = make_batch(windows)
        reference = reference_batch(windows)
        assert list(reference) == [f.name for f in dataclasses.fields(Batch)]
        for name, expected in reference.items():
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

    @pytest.mark.parametrize("kwargs, name", [
        (dict(step_minutes=0), "step_minutes"),
        (dict(step_minutes=-5), "step_minutes"),
        (dict(step_minutes=7), "step_minutes"),
        (dict(n_nodes=0), "n_nodes"),
        (dict(n_nodes=-1), "n_nodes"),
        (dict(days=0), "days"),
        (dict(noise_std=-1.0), "noise_std"),
    ])
    def test_bad_parameter_named(self, kwargs, name):
        params = {**dict(n_nodes=3, days=2, step_minutes=60, weekly_amp=0.0), **kwargs}
        with pytest.raises(ValueError, match=rf"^{name}="):
            synth_generate(**params)

    # SHA-256 of values and adjacency as generated by the out-of-place
    # formulation the in-place one replaced; a numpy whose `sin` rounds
    # differently changes them
    @pytest.mark.parametrize("kwargs, values_sha, adjacency_sha", [
        (dict(n_nodes=4, days=3, step_minutes=30, weekly_amp=0.0, noise_std=0.0, seed=5),
         "4447189f367e12c3dc223444c82b3745f1edaab6f654101501fd404bd750a4e1",
         "f22114af2870f38bce1ea2c8bc21ca36a52b2c48707502bb42d9dffd8d88f053"),
        (dict(n_nodes=5, days=2, step_minutes=60, weekly_amp=0.0, seed=7),
         "889ff79b33ec84053cf5f69b739f908cb4f97bd8223a5d348583ddba70212b1a",
         "6a15c971fb6021fd4f9a9d2b857a2b15c7df74c966b03b6d4a1a78bf29fcd664"),
        (dict(n_nodes=3, days=15, step_minutes=1, seed=2),
         "c5f9324178c75078c253f1f974f985653d0c6028fb10ceb3981757204257330e",
         "177bf32f649b55debe586b18182fc9839802f0ba8be9847f3b473c66cea64656"),
        # node 4 has no edge
        (dict(n_nodes=6, days=16, step_minutes=60, graph_model="random", seed=4),
         "60debad92ca20907bfb4e11fd94212f33723c72b11aa5e3f8c50e1ebab335b6b",
         "3954b98331c512f751dc82977fd47841045d386f6946e0c0e084a58b563021b9"),
        # no edge at all: the coupling is skipped
        (dict(n_nodes=1, days=15, step_minutes=60, graph_model="random", seed=0),
         "23be0fc9bf9bc184e3a49862d4924e27216b1c4724d429bcb7e4b93cc3f128d8",
         "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"),
    ])
    def test_bytes_pinned(self, kwargs, values_sha, adjacency_sha):
        series, graph = synth_generate(**kwargs)
        assert hashlib.sha256(series.values.tobytes()).hexdigest() == values_sha
        assert hashlib.sha256(graph.adjacency.tobytes()).hexdigest() == adjacency_sha

    def test_traced_peak_near_output(self):
        tracemalloc.start()
        try:
            series, _ = synth_generate(n_nodes=170, days=15, step_minutes=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * series.values.nbytes

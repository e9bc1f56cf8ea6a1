"""End-to-end command-line pipeline tests (in-process main() calls)."""

import json

import numpy as np
import pytest

from embsformer import cli
from embsformer import tensor as T
from embsformer.model import load_checkpoint


def run_cli(args):
    return cli.main([str(a) for a in args])


@pytest.fixture()
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run_cli(["synth", "--nodes", 6, "--days", 16, "--step-minutes", 60,
                    "--seed", 7, "--out", out]) == 0
    return out


def train_args(dataset, out, extra=()):
    base = ["train", "--readings", dataset / "readings.csv",
            "--adjacency", dataset / "adjacency.csv", "--out", out,
            "--epochs", 1, "--d-e", 4, "--d-s", 4, "--d-t", 4, "--h-prime", 4,
            "--k-cheb", 2, "--n-blocks", 1, "--seed", 3]
    return base + list(extra)


class TestSynth:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli(["synth", "--nodes", 5, "--days", 3, "--step-minutes", 60,
                            "--weekly-amp", 0, "--seed", 7, "--out", out]) == 0
        assert (a / "readings.csv").read_bytes() == (b / "readings.csv").read_bytes()
        assert (a / "adjacency.csv").read_bytes() == (b / "adjacency.csv").read_bytes()

    def test_row_count(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli(["synth", "--nodes", 3, "--days", 30, "--step-minutes", 5,
                        "--seed", 1, "--out", out]) == 0
        rows = (out / "readings.csv").read_text().strip().splitlines()
        assert len(rows) - 1 == 30 * 288  # header + one row per step

    def test_adjacency_ids_in_range(self, tmp_path):
        out = tmp_path / "d"
        assert run_cli(["synth", "--nodes", 20, "--days", 2, "--step-minutes", 60,
                        "--weekly-amp", 0, "--graph-model", "random",
                        "--seed", 2, "--out", out]) == 0
        lines = (out / "adjacency.csv").read_text().strip().splitlines()[1:]
        for line in lines:
            u, v, _ = line.split(",")
            assert int(u) < 20 and int(v) < 20


class TestTrain:
    def test_horizon_short_preset(self, dataset, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(train_args(dataset, out, ["--horizon", "short",
                                                 "--periods", "24"])) == 0
        ckpt = next(out.glob("run-train-*/model.ckpt"))
        _, config = load_checkpoint(ckpt)
        assert config.m == 12 and config.n == 12

    def test_horizon_long_preset(self, dataset, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(train_args(dataset, out, ["--horizon", "long",
                                                 "--periods", ""])) == 0
        _, config = load_checkpoint(next(out.glob("run-train-*/model.ckpt")))
        assert config.m == 36 and config.n == 36

    def test_periods_flag_builds_branches(self, dataset, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(train_args(dataset, out, ["--m", 4, "--n", 4,
                                                 "--periods", "24,168"])) == 0
        params, config = load_checkpoint(next(out.glob("run-train-*/model.ckpt")))
        assert len(config.periods) == 2
        assert "branch.1.wq" in params

    def test_run_dir_contains_reproduction_info(self, dataset, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(train_args(dataset, out, ["--m", 4, "--n", 4,
                                                 "--periods", "24"])) == 0
        run = next(out.glob("run-train-*"))
        config_txt = (run / "config.txt").read_text()
        assert "seed = 3" in config_txt
        assert "readings_sha256 = " in config_txt
        assert "adjacency_sha256 = " in config_txt
        trace = (run / "trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,train_loss,val_mae"
        assert len(trace) == 2  # one epoch

    def test_config_file_with_override(self, dataset, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs = 1\nseed = 1\nm = 4\nn = 4\nperiods_hours = 24\n"
                            "d_e = 4\nd_s = 4\nd_t = 4\nh_prime = 4\nk_cheb = 2\nn_blocks = 1\n"
                            "threads = 1\n")  # a key older versions wrote still parses
        out = tmp_path / "runs"
        assert run_cli(["train", "--config", cfg_file,
                        "--readings", dataset / "readings.csv",
                        "--adjacency", dataset / "adjacency.csv",
                        "--out", out, "--seed", 9]) == 0
        config_txt = (next(out.glob("run-train-*")) / "config.txt").read_text()
        assert "seed = 9" in config_txt  # command line beats the file

    def test_run_dirs_never_reused(self, dataset, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(train_args(dataset, out, ["--m", 4, "--n", 4, "--periods", "24"])) == 0
        assert run_cli(train_args(dataset, out, ["--m", 4, "--n", 4, "--periods", "24"])) == 0
        assert len(list(out.glob("run-train-*"))) == 2

    def test_divergence_fails_cleanly_without_run_dir(self, dataset, tmp_path, capsys):
        out = tmp_path / "runs"
        rc = run_cli(train_args(dataset, out, ["--m", 4, "--n", 4, "--periods", "24",
                                               "--lr", 1e300]))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not list(out.glob("run-train-*"))

    def test_missing_dataset_fails_cleanly(self, tmp_path):
        rc = run_cli(["train", "--readings", tmp_path / "nope.csv",
                      "--adjacency", tmp_path / "nope2.csv", "--out", tmp_path])
        assert rc != 0


class TestEvaluate:
    @pytest.fixture()
    def trained(self, dataset, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(train_args(dataset, out, ["--m", 4, "--n", 4,
                                                 "--periods", "24", "--epochs", 2])) == 0
        run = next(out.glob("run-train-*"))
        return dataset, run

    def test_reproduces_best_val_mae(self, trained, capsys):
        dataset, run = trained
        trace_rows = (run / "trace.csv").read_text().strip().splitlines()[1:]
        best_val = min(float(r.split(",")[2]) for r in trace_rows)
        assert run_cli(["evaluate", "--checkpoint", run / "model.ckpt",
                        "--readings", dataset / "readings.csv",
                        "--adjacency", dataset / "adjacency.csv",
                        "--split", "val"]) == 0
        stdout = capsys.readouterr().out
        avg_line = next(line for line in stdout.splitlines() if line.startswith(" avg"))
        assert abs(float(avg_line.split()[1]) - best_val) < 1e-4  # printed at 4 decimals

    def test_metrics_json_schema(self, trained, tmp_path):
        dataset, run = trained
        out = tmp_path / "metrics.json"
        assert run_cli(["evaluate", "--checkpoint", run / "model.ckpt",
                        "--readings", dataset / "readings.csv",
                        "--adjacency", dataset / "adjacency.csv",
                        "--split", "test", "--out", out]) == 0
        doc = json.loads(out.read_text())
        for metric in ("mae", "rmse", "mape_pct"):
            assert isinstance(doc[metric]["per_step"], list)
            assert len(doc[metric]["per_step"]) == 4
            assert isinstance(doc[metric]["avg"], float)
        assert doc["mape_skipped"] >= 0
        assert doc["horizon"] == 4
        assert "config_hash" in doc["meta"]

    def test_corrupt_checkpoint_magic(self, trained, tmp_path):
        dataset, run = trained
        bad = tmp_path / "bad.ckpt"
        raw = bytearray((run / "model.ckpt").read_bytes())
        raw[:5] = b"WRONG"
        bad.write_bytes(bytes(raw))
        rc = run_cli(["evaluate", "--checkpoint", bad,
                      "--readings", dataset / "readings.csv",
                      "--adjacency", dataset / "adjacency.csv"])
        assert rc != 0

    def test_shape_mismatch_detected(self, trained, tmp_path):
        dataset, run = trained
        other = tmp_path / "other"
        assert run_cli(["synth", "--nodes", 4, "--days", 16, "--step-minutes", 60,
                        "--seed", 1, "--out", other]) == 0
        rc = run_cli(["evaluate", "--checkpoint", run / "model.ckpt",
                      "--readings", other / "readings.csv",
                      "--adjacency", other / "adjacency.csv"])
        assert rc != 0


class TestPredict:
    def test_rows_and_timestamps(self, dataset, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(train_args(dataset, out, ["--m", 4, "--n", 3,
                                                 "--periods", "24"])) == 0
        run = next(out.glob("run-train-*"))
        csv_path = tmp_path / "preds.csv"
        assert run_cli(["predict", "--checkpoint", run / "model.ckpt",
                        "--readings", dataset / "readings.csv",
                        "--adjacency", dataset / "adjacency.csv",
                        "--split", "test", "--anchors", "0:2", "--out", csv_path]) == 0
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "anchor_timestamp,node,step,predicted,actual"
        assert len(rows) - 1 == 2 * 6 * 3  # anchors * nodes * steps
        stamps = sorted({r.split(",")[0] for r in rows[1:]})
        t0, t1 = (np.datetime64(s) for s in stamps)
        assert (t1 - t0) == np.timedelta64(60, "m")  # consecutive anchors 1 step apart

    def test_round_trips_through_metrics(self, dataset, tmp_path):
        out = tmp_path / "runs"
        assert run_cli(train_args(dataset, out, ["--m", 4, "--n", 3,
                                                 "--periods", "24"])) == 0
        run = next(out.glob("run-train-*"))
        csv_path = tmp_path / "preds.csv"
        metrics_path = tmp_path / "metrics.json"
        assert run_cli(["predict", "--checkpoint", run / "model.ckpt",
                        "--readings", dataset / "readings.csv",
                        "--adjacency", dataset / "adjacency.csv",
                        "--split", "test", "--anchors", "0:999999",
                        "--out", csv_path]) != 0  # out-of-range anchors rejected
        assert run_cli(["evaluate", "--checkpoint", run / "model.ckpt",
                        "--readings", dataset / "readings.csv",
                        "--adjacency", dataset / "adjacency.csv",
                        "--split", "test", "--out", metrics_path]) == 0
        n_samples = json.loads(metrics_path.read_text())["meta"]["n_samples"]
        assert run_cli(["predict", "--checkpoint", run / "model.ckpt",
                        "--readings", dataset / "readings.csv",
                        "--adjacency", dataset / "adjacency.csv",
                        "--split", "test", "--anchors", f"0:{n_samples}",
                        "--out", csv_path]) == 0
        rows = [r.split(",") for r in csv_path.read_text().strip().splitlines()[1:]]
        err = np.array([abs(float(p) - float(a)) for _, _, _, p, a in rows])
        mae_from_csv = err.mean()
        mae_reported = json.loads(metrics_path.read_text())["mae"]["avg"]
        assert abs(mae_from_csv - mae_reported) < 1e-9


class TestGradcheckCommand:
    def test_clean_run_passes(self, capsys):
        assert run_cli(["gradcheck"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) >= 12

    def test_corrupted_softmax_backward_is_caught(self, capsys, monkeypatch):
        def broken(y, g, axis):
            return g * y  # missing the row-sum correction term

        monkeypatch.setattr(T, "_softmax_grad", broken)
        assert run_cli(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert any(line.startswith("FAIL") and "softmax" in line
                   for line in out.splitlines())


class TestAblationCommand:
    def test_table_and_json_agree(self, tmp_path, capsys):
        dataset = tmp_path / "data"
        assert run_cli(["synth", "--nodes", 5, "--days", 15, "--step-minutes", 60,
                        "--daily-amp", 40, "--weekly-amp", 10, "--noise-std", 4,
                        "--seed", 4, "--out", dataset]) == 0
        out = tmp_path / "runs"
        assert run_cli(["ablation", "--readings", dataset / "readings.csv",
                        "--adjacency", dataset / "adjacency.csv",
                        "--out", out, "--m", 4, "--n", 4, "--epochs", 1,
                        "--d-e", 4, "--d-s", 4, "--d-t", 4, "--h-prime", 4,
                        "--k-cheb", 2, "--n-blocks", 1, "--seed", 2]) == 0
        run = next(out.glob("run-ablation-*"))
        doc = json.loads((run / "ablation.json").read_text())
        assert len(doc) == 5
        names = {row["variant"] for row in doc}
        assert names == {"full", "period(24)", "period(24,168)", "w/o-period", "w/o-recent"}
        text = (run / "ablation.txt").read_text()
        for row in doc:
            assert f"{row['mae']:10.4f}" in text
            assert f"{row['rmse']:10.4f}" in text

    def test_too_short_dataset_rejected(self, tmp_path):
        dataset = tmp_path / "data"
        assert run_cli(["synth", "--nodes", 4, "--days", 10, "--step-minutes", 60,
                        "--weekly-amp", 0, "--seed", 4, "--out", dataset]) == 0
        rc = run_cli(["ablation", "--readings", dataset / "readings.csv",
                      "--adjacency", dataset / "adjacency.csv",
                      "--out", tmp_path / "runs", "--m", 4, "--n", 4, "--epochs", 1])
        assert rc != 0

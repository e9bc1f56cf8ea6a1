"""End-to-end command-line pipeline tests (in-process main() calls)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

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
            "--epochs", 1, "--d-e", 4, "--h-prime", 4,
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

    def test_bad_step_fails_with_one_error_line(self, tmp_path, capsys):
        assert run_cli(["synth", "--step-minutes", 0, "--out", tmp_path / "d"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: step_minutes=0")
        assert not (tmp_path / "d").exists()

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
        # --enable-period false empties the period list: no branches, no flag
        off = tmp_path / "off"
        assert run_cli(train_args(dataset, off, ["--m", 4, "--n", 4, "--periods", "24,168",
                                                 "--enable-period", "false"])) == 0
        params, config = load_checkpoint(next(off.glob("run-train-*/model.ckpt")))
        assert config.periods == () and "enable_period" not in config.to_dict()
        assert not any(name.startswith(("branch.", "head.w_p")) for name in params.names())

    def test_run_dir_contains_reproduction_info(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "runs"
        assert run_cli(train_args(dataset, out, ["--m", 4, "--n", 4,
                                                 "--periods", "24"])) == 0
        run = next(out.glob("run-train-*"))
        config_txt = (run / "config.txt").read_text()
        assert "seed = 3" in config_txt
        assert "readings_sha256 = " in config_txt
        assert "adjacency_sha256 = " in config_txt
        assert f"numpy_version = {np.__version__}\n" in config_txt
        assert re.search(r"^blas_name = \S", config_txt, re.M)
        assert re.search(r"^blas_version = \S", config_txt, re.M)
        assert "OPENBLAS_NUM_THREADS = 1\n" in config_txt
        assert "OMP_NUM_THREADS = 2\n" in config_txt
        assert "MKL_NUM_THREADS = unset\n" in config_txt
        # the count the BLAS runs with, which the variables only request
        assert f"blas_num_threads = {cli.blas_num_threads()}\n" in config_txt
        assert not list(run.glob("*.tmp"))
        trace = (run / "trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,train_loss,val_mae"
        assert len(trace) == 2  # one epoch

    def test_blas_threads_are_read_from_the_library(self):
        # the count follows OPENBLAS_NUM_THREADS at start-up, where numpy
        # bundles an OpenBLAS that can be asked; elsewhere it is unknown
        counts = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(sys.path)}
            done = subprocess.run(
                [sys.executable, "-c", "from embsformer import cli; print(cli.blas_num_threads())"],
                env=env, capture_output=True, text=True, check=True)
            counts.append(done.stdout.strip())
        assert tuple(counts) in (("1", "2"), ("unknown", "unknown"))

    @pytest.mark.parametrize("library", ["missing", "no-symbol"])
    def test_blas_threads_unknown_without_the_symbol(self, monkeypatch, library):
        def load(path):
            if library == "missing":
                raise OSError(f"{path}: cannot open shared object file")
            return object()

        monkeypatch.setattr(cli.ctypes, "CDLL", load)
        assert cli.blas_num_threads() == "unknown"

    def test_config_file_with_override(self, dataset, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs = 1\nseed = 1\nm = 4\nn = 4\nperiods_hours = 24\n"
                            "d_e = 4\nh_prime = 4\nk_cheb = 2\nn_blocks = 1\n"
                            "threads = 1\n")  # a key older versions wrote still parses
        out = tmp_path / "runs"
        assert run_cli(["train", "--config", cfg_file,
                        "--readings", dataset / "readings.csv",
                        "--adjacency", dataset / "adjacency.csv",
                        "--out", out, "--seed", 9]) == 0
        config_txt = (next(out.glob("run-train-*")) / "config.txt").read_text()
        assert "seed = 9" in config_txt  # command line beats the file

    def test_unread_config_key_is_warned(self, dataset, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        # d_s and d_t: the attention widths of configs written before they became d_e
        cfg_file.write_text("epoch = 5\nm = 4\nn = 4\nperiods_hours = 24\nd_s = 32\nd_t = 32\n")
        assert run_cli(train_args(dataset, tmp_path / "runs", ["--config", cfg_file])) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: {cfg_file}: key {key!r} is not read by train; ignored\n"
            for key in ("epoch", "d_s", "d_t"))

    def test_bad_holidays_file_fails_cleanly(self, dataset, tmp_path, capsys):
        holidays = tmp_path / "holidays.txt"
        holidays.write_text("2023-04-04\nnot-a-date\n")
        out = tmp_path / "runs"
        assert run_cli(train_args(dataset, out, ["--holidays", holidays])) == 2
        assert capsys.readouterr().err == (
            f"error: {holidays}: line 2: expected YYYY-MM-DD, got 'not-a-date'\n")
        assert not out.exists() or not list(out.glob("run-train-*"))

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
        assert T.current_tape() is None

    @pytest.mark.parametrize("extra,file_line,message", [
        (["--periods", "24,abc"], "",
         "periods_hours: expected comma-separated integers, got '24,abc'"),
        (["--enable-recent", "maybe"], "", "enable_recent: expected a boolean, got 'maybe'"),
        ([], "epochs = abc\n", "epochs: expected an integer, got 'abc'"),
        (["--epochs", "abc"], "", "epochs: expected an integer, got 'abc'"),
        (["--horizon", "short"], "",
         "--horizon sets m and n; it cannot be combined with --m or --n"),
    ], ids=["periods", "enable-recent", "config-file-epochs", "flag-epochs", "horizon-with-m-n"])
    def test_bad_config_value_names_its_key(self, dataset, tmp_path, capsys, extra, file_line,
                                            message):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(file_line)
        out = tmp_path / "runs"
        base = train_args(dataset, out, ["--m", 4, "--n", 4])
        if file_line:   # the file's value must not be overridden by --epochs
            i = base.index("--epochs")
            del base[i:i + 2]
        assert run_cli(base + ["--config", cfg_file] + extra) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not out.exists() or not list(out.glob("run-train-*"))

    def test_horizon_overrides_config_file_m_n(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("m = 4\nn = 4\n")
        args = cli.build_parser().parse_args(["train", "--config", str(cfg_file),
                                              "--horizon", "long"])
        text, cfg = cli.merged_config(args)
        assert (cfg["m"], cfg["n"]) == (36, 36) and (text["m"], text["n"]) == ("36", "36")

    def test_config_txt_reproduces_the_run(self, dataset, tmp_path, capsys):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli(train_args(dataset, first, ["--m", 4, "--n", 4, "--periods", "24"])) == 0
        run = next(first.glob("run-train-*"))
        capsys.readouterr()
        assert run_cli(["train", "--config", run / "config.txt", "--out", second]) == 0
        assert capsys.readouterr().err == ""   # the manifest keys it records are no typos
        rerun = next(second.glob("run-train-*"))
        assert (rerun / "model.ckpt").read_bytes() == (run / "model.ckpt").read_bytes()
        lines = (rerun / "config.txt").read_text().splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert len(keys) == len(set(keys))
        assert lines == (run / "config.txt").read_text().splitlines()
        assert set(cli.COMMAND_KEYS["train"]) <= set(keys) and "nodes" not in keys

    def test_missing_dataset_fails_cleanly(self, tmp_path):
        rc = run_cli(["train", "--readings", tmp_path / "nope.csv",
                      "--adjacency", tmp_path / "nope2.csv", "--out", tmp_path])
        assert rc != 0


class TestOptions:
    def test_every_key_is_read_and_its_default_shown(self, capsys):
        assert {key for keys in cli.COMMAND_KEYS.values() for key in keys} == set(cli.OPTIONS)
        for command, keys in cli.COMMAND_KEYS.items():
            with pytest.raises(SystemExit):
                run_cli([command, "--help"])
            help_text = " ".join(capsys.readouterr().out.split())
            for key in keys:
                default, kind = cli.OPTIONS[key]
                shown = f"default: {default}" if default else "no default"
                assert f"{cli._flag(key)} {kind.upper()} {shown}" in help_text

    def test_readme_key_table_matches_command_keys(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| subcommand | config keys |")[1].split("\n\n")[0]
        rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, re.M))
        for command in ("synth", "train", "evaluate", "predict"):
            assert tuple(re.findall(r"`(\w+)`", rows[command])) == cli.COMMAND_KEYS[command]

    @pytest.mark.parametrize("command,flag", [
        ("synth", "--readings"), ("synth", "--adjacency"), ("synth", "--holidays"),
        ("predict", "--seed"), ("evaluate", "--seed"),   # neither reads randomness
        ("ablation", "--periods"), ("ablation", "--enable-recent"),
        ("ablation", "--enable-period"),
        ("train", "--d-s"), ("ablation", "--d-t"),   # attention widths are d_e
    ])
    def test_unread_flag_is_rejected(self, command, flag, tmp_path, capsys):
        out = tmp_path / "out"
        args = [command, flag, "1", "--out", out]
        if command in ("evaluate", "predict"):
            args += ["--checkpoint", tmp_path / "none"]
        with pytest.raises(SystemExit) as exc:
            run_cli(args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert not out.exists()


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
        params, _ = load_checkpoint(run / "model.ckpt")
        assert doc["meta"]["param_groups"] == params.group_counts()
        assert sum(doc["meta"]["param_groups"].values()) == params.count()

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

    def test_bad_anchor_range_names_its_option(self, dataset, tmp_path, capsys):
        # parsed before the checkpoint is read, so none is needed to see the error
        out = tmp_path / "p.csv"
        rc = run_cli(["predict", "--readings", dataset / "readings.csv",
                      "--adjacency", dataset / "adjacency.csv", "--checkpoint", tmp_path / "none",
                      "--anchors", "0:x", "--out", out])
        assert rc == 2
        assert capsys.readouterr().err == "error: anchors: expected lo:hi, got '0:x'\n"
        assert not out.exists()


def test_module_entry_point(tmp_path):
    # `python -m embsformer` runs the same CLI as the console script
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "embsformer", "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: embsformer ")


class TestGradcheckCommand:
    def test_clean_run_passes(self, capsys):
        assert run_cli(["gradcheck"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) == len(out.splitlines()) - 1 == 20   # and the summary line

    def test_corrupted_softmax_backward_is_caught(self, capsys, monkeypatch):
        def broken(p, g):
            return g * p  # missing the row-sum correction term

        monkeypatch.setattr(T, "_softmax_grad", broken)
        assert run_cli(["gradcheck"]) == 1
        out = capsys.readouterr().out
        assert any(line.split()[:2] == ["FAIL", "attention"] for line in out.splitlines())

    def test_corrupted_addend_gradient_fails_the_layer_checks(self, capsys, monkeypatch):
        def first_slice(g, shape):
            # keeps one slice of a broadcast gradient instead of summing them all;
            # in these layers the broadcast addends are the projection biases and
            # the branch clock projections
            return g if g.shape == shape else g.reshape((-1,) + shape)[0]

        monkeypatch.setattr(T, "_sum_to", first_slice)
        assert run_cli(["gradcheck"]) == 1
        failed = {line.split()[1] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")}
        assert {"spatial-attention", "temporal-attention", "similarity-attention",
                "transition-block"} <= failed


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
                        "--d-e", 4, "--h-prime", 4,
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
            groups = row["param_groups"]
            assert sum(groups.values()) == row["param_count"]
            assert "".join(f" {groups[g]:10d}" for g in ("embed", "transition", "branch",
                                                         "head")) in text
        by_name = {row["variant"]: row for row in doc}
        assert by_name["w/o-recent"]["param_groups"]["transition"] == 0
        assert by_name["w/o-period"]["param_groups"]["branch"] == 0

    def test_too_short_dataset_rejected(self, tmp_path):
        dataset = tmp_path / "data"
        assert run_cli(["synth", "--nodes", 4, "--days", 10, "--step-minutes", 60,
                        "--weekly-amp", 0, "--seed", 4, "--out", dataset]) == 0
        rc = run_cli(["ablation", "--readings", dataset / "readings.csv",
                      "--adjacency", dataset / "adjacency.csv",
                      "--out", tmp_path / "runs", "--m", 4, "--n", 4, "--epochs", 1])
        assert rc != 0

"""Command-line pipeline: synth, train, evaluate, predict, gradcheck, ablation.

Every config key is declared once, in `OPTIONS`, and each subcommand takes a
flag for each key it reads (`COMMAND_KEYS`). A flat ``key = value`` text file
is merged with those flags (flags win); the effective configuration is echoed
into the run directory together with the seed, the dataset hashes, the numpy and
BLAS builds and the BLAS thread-count variables, which is enough to
reproduce a run bit-for-bit in single-threaded mode. Run directories are
never reused, and every output file is written through `data.atomic_write`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from embsformer import checks, data, model, training
from embsformer.graph import chebyshev_basis, estimate_lambda_max, normalized_laplacian

__all__ = ["main"]


class ConfigError(ValueError):
    pass


# key: (default, kind). A value from any source, `--config` file or flag, is
# text until `merged_config` parses it by its kind, a key of `_KINDS`.
OPTIONS = {
    "readings": ("", "str"),
    "adjacency": ("", "str"),
    "holidays": ("", "str"),
    "m": ("12", "int"),
    "n": ("12", "int"),
    "d_e": ("32", "int"),
    "h_prime": ("32", "int"),
    "k_cheb": ("3", "int"),
    "n_blocks": ("2", "int"),
    "periods_hours": ("24,168", "ints"),
    "enable_recent": ("true", "bool"),
    "enable_period": ("true", "bool"),
    "lr": ("0.001", "float"),
    "batch_size": ("16", "int"),
    "epochs": ("100", "int"),
    "seed": ("0", "int"),
    # synth
    "nodes": ("15", "int"),
    "days": ("30", "int"),
    "step_minutes": ("15", "int"),
    "daily_amp": ("50", "float"),
    "weekly_amp": ("15", "float"),
    "noise_std": ("5", "float"),
    "graph_model": ("ring", "str"),
}

_DATASET = ("readings", "adjacency", "holidays")
_WIDTHS = ("m", "n", "d_e", "h_prime", "k_cheb", "n_blocks")
_TRAINING = ("lr", "batch_size", "epochs", "seed")

# The keys each subcommand reads. It takes a flag for each of them and for
# no other key, so a flag that would be ignored is an argparse error.
COMMAND_KEYS = {
    "synth": ("nodes", "days", "step_minutes", "daily_amp", "weekly_amp", "noise_std",
              "graph_model", "seed"),
    "train": _DATASET + _WIDTHS + ("periods_hours", "enable_recent", "enable_period")
             + _TRAINING,
    "evaluate": _DATASET,
    "predict": _DATASET,
    "ablation": _DATASET + _WIDTHS + _TRAINING,
}


def _flag(key):
    return "--periods" if key == "periods_hours" else "--" + key.replace("_", "-")


def parse_config_file(path):
    cfg = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

# kind: (parser, what a bad value was expected to be)
_KINDS = {
    "str": (str, "a string"),
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "bool": (lambda text: _BOOLEANS[text.lower()], "a boolean"),
    "ints": (lambda text: tuple(int(h) for h in text.split(",")) if text else (),
             "comma-separated integers"),
}


def merged_config(args):
    """The subcommand's configuration: defaults, then the `--config` file, then
    flags, then the `--horizon` preset.

    Returns ``(text, cfg)``. ``text`` maps the subcommand's keys, and any other
    key the file sets, to their text, as `config.txt` records them. ``cfg`` maps
    the subcommand's keys to their values parsed by kind. A value that does not
    parse raises ConfigError naming its key, whichever source it came from. A
    file key the subcommand does not read, other than `MANIFEST_KEYS`, gets a
    warning on stderr.
    """
    keys = COMMAND_KEYS[args.command]
    text = {key: OPTIONS[key][0] for key in keys}
    if args.config:
        from_file = parse_config_file(args.config)
        for key in from_file:
            if key not in keys + MANIFEST_KEYS:
                print(f"warning: {args.config}: key {key!r} is not read by {args.command}; "
                      f"ignored", file=sys.stderr)
        text.update(from_file)
    flags = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    text.update(flags)
    if getattr(args, "horizon", None):
        clash = [_flag(key) for key in ("m", "n") if key in flags]
        if clash:
            raise ConfigError(f"--horizon sets m and n; it cannot be combined with "
                              f"{' or '.join(clash)}")
        text["m"] = text["n"] = str({"short": 12, "long": 36}[args.horizon])
    cfg = {}
    for key in keys:
        parse, expected = _KINDS[OPTIONS[key][1]]
        value = text[key].strip()
        try:
            cfg[key] = parse(value)
        except (KeyError, ValueError):
            raise ConfigError(f"{key}: expected {expected}, got {value!r}") from None
    return text, cfg


def _file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def make_run_dir(base, label):
    """Fresh, never-reused run directory under ``base``."""
    base = Path(base)
    base.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    for counter in range(10000):
        suffix = f"-{counter}" if counter else ""
        run = base / f"run-{label}-{stamp}{suffix}"
        try:
            run.mkdir()
            return run
        except FileExistsError:
            continue
    raise RuntimeError("could not allocate a run directory")


def write_effective_config(cfg, path, extra):
    """``cfg`` then ``extra``, each sorted; a key in both is written once, from ``extra``."""
    lines = [f"{k} = {v}" for k, v in sorted(cfg.items()) if k not in extra]
    lines += [f"{k} = {v}" for k, v in sorted(extra.items())]
    with data.atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# what `config.txt` records beyond the config, so a `--config` file may set them unread
MANIFEST_KEYS = ("readings_sha256", "adjacency_sha256", "numpy_version", "blas_name",
                 "blas_version", "blas_num_threads", *THREAD_VARIABLES, "config_hash")


def blas_num_threads():
    """The thread count numpy's bundled OpenBLAS runs with, as text, or "unknown".

    Asked of the library itself, through its `scipy_openblas_get_num_threads64_`
    symbol; loading the file numpy already loaded returns numpy's copy.
    """
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*openblas*"),
                       *root.glob(".dylibs/*openblas*")]):
        try:
            get = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        return str(get())
    return "unknown"


def _run_manifest(cfg):
    """What results depend on beyond the config: dataset hashes, numpy and BLAS, BLAS threads.

    Threads are recorded twice: the count the BLAS actually runs with, and
    the environment variables that set it.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.26 takes no mode and returns nothing
        blas = {}
    manifest = {
        "readings_sha256": _file_sha256(cfg["readings"]),
        "adjacency_sha256": _file_sha256(cfg["adjacency"]),
        "numpy_version": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_num_threads": blas_num_threads(),
    }
    for var in THREAD_VARIABLES:
        manifest[var] = os.environ.get(var, "unset")
    return manifest


def _prepare(cfg, k_cheb):
    """Load the dataset and derive what every model subcommand needs from it.

    Returns the chronological splits, the normalizer fitted on the train
    split, the normalized series, the calendar and the Chebyshev basis. The
    raw readings are not returned: once normalized they are dropped, and the
    normalized series has their shape, start and step.
    """
    if not cfg["readings"] or not cfg["adjacency"]:
        raise ConfigError("readings and adjacency paths are required")
    series = data.load_readings(cfg["readings"])
    graph = data.load_adjacency(cfg["adjacency"], series.n_nodes)
    holidays = data.load_holidays(cfg["holidays"]) if cfg["holidays"] else set()
    splits = data.chronological_split(series)
    normalizer = data.fit_normalizer(series, splits[0])
    normalized = series.with_values(normalizer.apply(series.values))
    calendar = data.calendar_features(series, holidays)
    lap = normalized_laplacian(graph)
    basis = chebyshev_basis(lap, estimate_lambda_max(lap), k_cheb)
    return splits, normalizer, normalized, calendar, basis


def _windows(config, splits, normalized, calendar):
    """The windows of each split, by label, for the model ``config`` describes."""
    return {
        label: data.make_windows(normalized, rng, config.m, config.n, config.periods,
                                 calendar=calendar)
        for label, rng in zip(("train", "val", "test"), splits)
    }


def _train_config(cfg):
    return training.TrainConfig(learning_rate=cfg["lr"], batch_size=cfg["batch_size"],
                                epochs=cfg["epochs"], seed=cfg["seed"])


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_synth(args):
    _, cfg = merged_config(args)
    # the synth keys are the generator's parameters, `nodes` aside
    series, graph = data.synth_generate(n_nodes=cfg.pop("nodes"), **cfg)
    out = Path(args.out or "data")
    out.mkdir(parents=True, exist_ok=True)
    data.save_readings(series, out / "readings.csv")
    data.save_adjacency(graph, out / "adjacency.csv")
    print(f"wrote {out / 'readings.csv'} and {out / 'adjacency.csv'}")
    print(f"T={series.n_steps} N={series.n_nodes} F={series.n_features} "
          f"step={series.step_minutes}min start={series.start.isoformat()}")
    return 0


def cmd_train(args):
    text, cfg = merged_config(args)
    hours = cfg["periods_hours"] if cfg["enable_period"] else ()
    tcfg = _train_config(cfg)
    splits, normalizer, normalized, calendar, basis = _prepare(cfg, cfg["k_cheb"])
    config = model.ModelConfig(
        n_nodes=normalized.n_nodes, n_features=normalized.n_features,
        periods=tuple(training.hours_to_steps(h, normalized.step_minutes)
                      for h in sorted(hours)),
        enable_recent=cfg["enable_recent"], **{key: cfg[key] for key in _WIDTHS},
    )
    windows = _windows(config, splits, normalized, calendar)
    init = model.init_params(config, tcfg.seed)
    print(f"samples: train={len(windows['train'])} val={len(windows['val'])} "
          f"test={len(windows['test'])}  params={init.count()}")

    # divergence is raised as DivergenceError, so numpy's overflow warnings
    # would only put noise ahead of the one error line
    with np.errstate(all="ignore"):
        result = training.train(config, basis, windows["train"], windows["val"], tcfg,
                                normalizer, init=init, log=print)
    # allocated only now, so a failed run leaves no directory behind
    run = make_run_dir(args.out or "runs", "train")
    write_effective_config(text, run / "config.txt", extra={
        **_run_manifest(cfg), "config_hash": config.config_hash(),
    })
    print(f"run directory: {run}")
    model.save_checkpoint(run / "model.ckpt", result.params, config)
    with data.atomic_write(run / "trace.csv") as fh:
        fh.write("epoch,train_loss,val_mae\n")
        for epoch, loss, mae in result.trace:
            fh.write(f"{epoch},{loss!r},{mae!r}\n")
    print(f"best epoch {result.best_epoch} val MAE {result.best_val_mae:.4f}")
    print(f"checkpoint: {run / 'model.ckpt'}")
    return 0


def _load_for_checkpoint(args, cfg):
    params, config = model.load_checkpoint(args.checkpoint)
    splits, normalizer, normalized, calendar, basis = _prepare(cfg, config.k_cheb)
    if normalized.n_nodes != config.n_nodes or normalized.n_features != config.n_features:
        raise ConfigError(
            f"checkpoint built for N={config.n_nodes}, F={config.n_features} but "
            f"dataset has N={normalized.n_nodes}, F={normalized.n_features}"
        )
    windows = _windows(config, splits, normalized, calendar)
    return params, config, normalizer, windows, basis


def cmd_evaluate(args):
    _, cfg = merged_config(args)
    params, config, normalizer, windows, basis = _load_for_checkpoint(args, cfg)
    samples = windows[args.split]
    with np.errstate(all="ignore"):
        report = training.evaluate(
            params, samples, normalizer, config, basis,
            meta={"split": args.split, "n_samples": len(samples),
                  "param_groups": params.group_counts()},
        )
    doc = report.to_dict()
    print(f"split={args.split}  samples={len(samples)}  horizon={config.n}")
    print(f"{'step':>4s} {'MAE':>10s} {'RMSE':>10s} {'MAPE%':>10s}")
    for s in range(config.n):
        print(f"{s + 1:4d} {report.mae_per_step[s]:10.4f} "
              f"{report.rmse_per_step[s]:10.4f} {report.mape_per_step[s]:10.4f}")
    print(f"{'avg':>4s} {report.mae_avg:10.4f} {report.rmse_avg:10.4f} "
          f"{report.mape_avg:10.4f}   (zero-target elements skipped: {report.mape_skipped})")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with data.atomic_write(out) as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        print(f"metrics JSON: {out}")
    return 0


def cmd_predict(args):
    _, cfg = merged_config(args)
    try:
        lo, hi = (int(x) for x in args.anchors.split(":"))
    except ValueError:
        raise ConfigError(f"anchors: expected lo:hi, got {args.anchors!r}") from None
    params, config, normalizer, windows, basis = _load_for_checkpoint(args, cfg)
    samples = windows[args.split]
    if lo < 0 or hi > len(samples) or lo >= hi:
        raise ConfigError(
            f"anchor range {args.anchors} outside [0, {len(samples)}) for split {args.split}"
        )
    picked = samples[lo:hi]
    preds, actual = training.forecast(params, picked, config, basis)
    out = Path(args.out or "predictions.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    with data.atomic_write(out) as fh:
        fh.write("anchor_timestamp,node,step,predicted,actual\n")
        for i, window in enumerate(picked):
            # the window's series is the normalized one: same start and step
            stamp = window.series.timestamp(window.anchor).isoformat()
            pred_raw = normalizer.invert_feature(preds[i])
            actual_raw = normalizer.invert_feature(actual[i])
            for node in range(config.n_nodes):
                for step in range(config.n):
                    fh.write(f"{stamp},{node},{step + 1},"
                             f"{float(pred_raw[step, node])!r},{float(actual_raw[step, node])!r}\n")
    print(f"wrote {(hi - lo) * config.n_nodes * config.n} rows to {out}")
    return 0


def cmd_gradcheck(_args):
    rows = checks.run_all()
    failed = [name for name, _, ok in rows if not ok]
    for name, err, ok in rows:
        print(f"{'PASS' if ok else 'FAIL'}  {name:24s} worst rel error {err:.3e}")
    print(f"{len(rows)} checks, {len(rows) - len(failed)} passed, tolerance {checks.GRAD_TOLERANCE:g}")
    if failed:
        print("failed: " + ", ".join(failed))
        return 1
    return 0


def cmd_ablation(args):
    text, cfg = merged_config(args)
    model_kwargs = {key: cfg[key] for key in _WIDTHS}
    splits, normalizer, normalized, calendar, basis = _prepare(cfg, model_kwargs["k_cheb"])
    with np.errstate(all="ignore"):
        rows = training.ablation_grid(
            normalized, basis, training.standard_variants(), model_kwargs, _train_config(cfg),
            splits, normalizer, calendar=calendar, log=print,
        )
    ranked = sorted(rows, key=lambda r: r["mae"])
    groups = list(ranked[0]["param_groups"])
    header = (f"{'variant':18s} {'MAE':>10s} {'RMSE':>10s} {'MAPE%':>8s} {'persist':>10s} "
              f"{'params':>8s}" + "".join(f" {g:>10s}" for g in groups))
    table_lines = [header]
    for row in ranked:
        table_lines.append(
            f"{row['variant']:18s} {row['mae']:10.4f} {row['rmse']:10.4f} "
            f"{row['mape_pct']:8.2f} {row['persistence_mae']:10.4f} {row['param_count']:8d}"
            + "".join(f" {row['param_groups'][g]:10d}" for g in groups)
        )
    table = "\n".join(table_lines)
    print(table)
    run = make_run_dir(args.out or "runs", "ablation")
    write_effective_config(text, run / "config.txt", extra=_run_manifest(cfg))
    with data.atomic_write(run / "ablation.txt") as fh:
        fh.write(table + "\n")
    with data.atomic_write(run / "ablation.json") as fh:
        fh.write(json.dumps(ranked, indent=2) + "\n")
    print(f"run directory: {run}")
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="embsformer",
        description="Traffic-flow forecasting with multi-period similarity attention",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, fn, about in (
        ("synth", cmd_synth, "generate a synthetic dataset"),
        ("train", cmd_train, "train a model"),
        ("evaluate", cmd_evaluate, "evaluate a checkpoint"),
        ("predict", cmd_predict, "export predictions as CSV"),
        ("gradcheck", cmd_gradcheck, "run the gradient-check suite"),
        ("ablation", cmd_ablation, "run the five-variant ablation grid"),
    ):
        p = commands[name] = sub.add_parser(name, help=about)
        p.set_defaults(fn=fn)
        if name in COMMAND_KEYS:
            p.add_argument("--config", help="flat key = value config file")
            p.add_argument("--out", help="output directory/file")
        for key in COMMAND_KEYS.get(name, ()):
            default, kind = OPTIONS[key]
            p.add_argument(_flag(key), dest=key, metavar=kind.upper(),
                           help=f"default: {default}" if default else "no default")

    for name in ("train", "ablation"):
        commands[name].add_argument("--horizon", choices=["short", "long"],
                                    help="preset: short sets m=n=12, long sets m=n=36")
    for name in ("evaluate", "predict"):
        commands[name].add_argument("--checkpoint", required=True)
        commands[name].add_argument("--split", choices=["train", "val", "test"],
                                    default="test")
    commands["predict"].add_argument("--anchors", default="0:1",
                                     help="sample index range lo:hi")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError, model.CheckpointError,
            training.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line pipeline: synth, train, evaluate, predict, gradcheck, ablation.

Configuration is a flat ``key = value`` text file merged with command-line
overrides (overrides win); the effective configuration is echoed into the
run directory together with the seed and dataset hashes, which is enough
to reproduce a run bit-for-bit in single-threaded mode. Run directories
are never reused.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from embsformer import checks, data, model, training
from embsformer.graph import chebyshev_basis, estimate_lambda_max, normalized_laplacian

__all__ = ["main"]


class ConfigError(ValueError):
    pass


DEFAULTS = {
    "readings": "",
    "adjacency": "",
    "holidays": "",
    "m": "12",
    "n": "12",
    "d_e": "32",
    "d_s": "32",
    "d_t": "32",
    "h_prime": "32",
    "k_cheb": "3",
    "n_blocks": "2",
    "periods_hours": "24,168",
    "enable_recent": "true",
    "enable_period": "true",
    "lr": "0.001",
    "batch_size": "16",
    "epochs": "100",
    "seed": "0",
    # synth
    "nodes": "15",
    "days": "30",
    "step_minutes": "15",
    "daily_amp": "50",
    "weekly_amp": "15",
    "noise_std": "5",
    "graph_model": "ring",
}


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


def merged_config(args, extra_keys=()):
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in list(DEFAULTS) + list(extra_keys):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = str(val)
    if getattr(args, "horizon", None):
        steps = {"short": 12, "long": 36}[args.horizon]
        cfg["m"] = cfg["n"] = str(steps)
    return cfg


def _bool(val):
    if str(val).lower() in ("1", "true", "yes", "on"):
        return True
    if str(val).lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {val!r}")


def _periods_steps(cfg, step_minutes):
    raw = cfg["periods_hours"].strip()
    if not raw:
        return ()
    hours = [int(h) for h in raw.split(",")]
    return tuple(training.hours_to_steps(h, step_minutes) for h in sorted(hours))


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


def write_effective_config(cfg, path, extra=None):
    lines = [f"{k} = {v}" for k, v in sorted(cfg.items())]
    if extra:
        lines += [f"{k} = {v}" for k, v in sorted(extra.items())]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_dataset(cfg):
    if not cfg["readings"] or not cfg["adjacency"]:
        raise ConfigError("readings and adjacency paths are required")
    series = data.load_readings(cfg["readings"])
    graph = data.load_adjacency(cfg["adjacency"], series.n_nodes)
    holidays = data.load_holidays(cfg["holidays"]) if cfg["holidays"] else set()
    return series, graph, holidays


def _prepare(series, graph, holidays, m, n, periods):
    splits = data.chronological_split(series)
    normalizer = data.fit_normalizer(series, splits[0])
    normalized = series.with_values(normalizer.apply(series.values))
    calendar = data.calendar_features(series, holidays)
    windows = {
        label: data.make_windows(normalized, rng, m, n, periods, calendar=calendar)
        for label, rng in zip(("train", "val", "test"), splits)
    }
    lap = normalized_laplacian(graph)
    return splits, normalizer, windows, lap, calendar


def _build_basis(lap, k_cheb):
    return chebyshev_basis(lap, estimate_lambda_max(lap), k_cheb)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_synth(args):
    cfg = merged_config(args)
    out = Path(args.out or "data")
    out.mkdir(parents=True, exist_ok=True)
    series, graph = data.synth_generate(
        n_nodes=int(cfg["nodes"]),
        days=int(cfg["days"]),
        step_minutes=int(cfg["step_minutes"]),
        daily_amp=float(cfg["daily_amp"]),
        weekly_amp=float(cfg["weekly_amp"]),
        noise_std=float(cfg["noise_std"]),
        graph_model=cfg["graph_model"],
        seed=int(cfg["seed"]),
    )
    data.save_readings(series, out / "readings.csv")
    data.save_adjacency(graph, out / "adjacency.csv")
    print(f"wrote {out / 'readings.csv'} and {out / 'adjacency.csv'}")
    print(f"T={series.n_steps} N={series.n_nodes} F={series.n_features} "
          f"step={series.step_minutes}min start={series.start.isoformat()}")
    return 0


def cmd_train(args):
    cfg = merged_config(args)
    series, graph, holidays = _load_dataset(cfg)
    periods = _periods_steps(cfg, series.step_minutes)
    m, n = int(cfg["m"]), int(cfg["n"])
    enable_period = _bool(cfg["enable_period"]) and bool(periods)
    config = model.ModelConfig(
        m=m, n=n, n_nodes=series.n_nodes, n_features=series.n_features,
        d_e=int(cfg["d_e"]), d_s=int(cfg["d_s"]), d_t=int(cfg["d_t"]),
        h_prime=int(cfg["h_prime"]), k_cheb=int(cfg["k_cheb"]),
        n_blocks=int(cfg["n_blocks"]),
        periods=periods if enable_period else (),
        enable_recent=_bool(cfg["enable_recent"]),
        enable_period=enable_period,
    )
    tcfg = training.TrainConfig(
        learning_rate=float(cfg["lr"]), batch_size=int(cfg["batch_size"]),
        epochs=int(cfg["epochs"]), seed=int(cfg["seed"]),
    )
    _, normalizer, windows, lap, _ = _prepare(
        series, graph, holidays, m, n, config.periods
    )
    basis = _build_basis(lap, config.k_cheb)
    print(f"samples: train={len(windows['train'])} val={len(windows['val'])} "
          f"test={len(windows['test'])}  params={model.init_params(config, tcfg.seed).count()}")

    result = training.train(
        config, basis, windows["train"], windows["val"], tcfg, normalizer, log=print
    )
    # allocated only now, so a failed run leaves no directory behind
    run = make_run_dir(args.out or "runs", "train")
    write_effective_config(cfg, run / "config.txt", extra={
        "readings_sha256": _file_sha256(cfg["readings"]),
        "adjacency_sha256": _file_sha256(cfg["adjacency"]),
        "config_hash": config.config_hash(),
    })
    print(f"run directory: {run}")
    model.save_checkpoint(run / "model.ckpt", result.params, config)
    with open(run / "trace.csv", "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_mae\n")
        for epoch, loss, mae in result.trace:
            fh.write(f"{epoch},{loss!r},{mae!r}\n")
    print(f"best epoch {result.best_epoch} val MAE {result.best_val_mae:.4f}")
    print(f"checkpoint: {run / 'model.ckpt'}")
    return 0


def _load_for_checkpoint(args, cfg):
    params, config = model.load_checkpoint(args.checkpoint)
    series, graph, holidays = _load_dataset(cfg)
    if series.n_nodes != config.n_nodes or series.n_features != config.n_features:
        raise ConfigError(
            f"checkpoint built for N={config.n_nodes}, F={config.n_features} but "
            f"dataset has N={series.n_nodes}, F={series.n_features}"
        )
    _, normalizer, windows, lap, _ = _prepare(
        series, graph, holidays, config.m, config.n, config.periods
    )
    basis = _build_basis(lap, config.k_cheb)
    return params, config, series, normalizer, windows, basis


def cmd_evaluate(args):
    cfg = merged_config(args)
    params, config, _, normalizer, windows, basis = _load_for_checkpoint(args, cfg)
    samples = windows[args.split]
    report = training.evaluate(
        params, samples, normalizer, config, basis,
        meta={"split": args.split, "seed": int(cfg["seed"]),
              "n_samples": len(samples)},
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
        out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"metrics JSON: {out}")
    return 0


def cmd_predict(args):
    cfg = merged_config(args)
    params, config, series, normalizer, windows, basis = _load_for_checkpoint(args, cfg)
    samples = windows[args.split]
    lo, hi = (int(x) for x in args.anchors.split(":"))
    if lo < 0 or hi > len(samples) or lo >= hi:
        raise ConfigError(
            f"anchor range {args.anchors} outside [0, {len(samples)}) for split {args.split}"
        )
    picked = samples[lo:hi]
    preds, actual = training.forecast(params, picked, config, basis)
    out = Path(args.out or "predictions.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("anchor_timestamp,node,step,predicted,actual\n")
        for i, window in enumerate(picked):
            stamp = series.timestamp(window.anchor).isoformat()
            pred_raw = normalizer.invert_feature(preds[i])
            actual_raw = normalizer.invert_feature(actual[i])
            for node in range(config.n_nodes):
                for step in range(config.n):
                    fh.write(f"{stamp},{node},{step + 1},"
                             f"{float(pred_raw[step, node])!r},{float(actual_raw[step, node])!r}\n")
    print(f"wrote {(hi - lo) * config.n_nodes * config.n} rows to {out}")
    return 0


def cmd_gradcheck(args):
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
    cfg = merged_config(args)
    series, graph, holidays = _load_dataset(cfg)
    step_minutes = series.step_minutes
    variants = training.standard_variants()
    max_hours = max(h for v in variants for h in v.periods_hours)
    span_hours = series.n_steps * step_minutes / 60
    if span_hours < 2 * max_hours:
        raise ConfigError(
            f"dataset spans {span_hours:.0f}h, need >= {2 * max_hours}h for the ablation grid"
        )
    m, n = int(cfg["m"]), int(cfg["n"])
    splits = data.chronological_split(series)
    normalizer = data.fit_normalizer(series, splits[0])
    normalized = series.with_values(normalizer.apply(series.values))
    calendar = data.calendar_features(series, holidays)
    lap = normalized_laplacian(graph)
    basis = _build_basis(lap, int(cfg["k_cheb"]))
    tcfg = training.TrainConfig(
        learning_rate=float(cfg["lr"]), batch_size=int(cfg["batch_size"]),
        epochs=int(cfg["epochs"]), seed=int(cfg["seed"]),
    )
    model_kwargs = dict(
        m=m, n=n, d_e=int(cfg["d_e"]), d_s=int(cfg["d_s"]), d_t=int(cfg["d_t"]),
        h_prime=int(cfg["h_prime"]), k_cheb=int(cfg["k_cheb"]),
        n_blocks=int(cfg["n_blocks"]),
    )
    rows = training.ablation_grid(
        normalized, basis, variants, model_kwargs, tcfg, splits, normalizer,
        calendar=calendar, log=print,
    )
    ranked = sorted(rows, key=lambda r: r["mae"])
    header = f"{'variant':18s} {'MAE':>10s} {'RMSE':>10s} {'MAPE%':>8s} {'persist':>10s} {'params':>8s}"
    table_lines = [header]
    for row in ranked:
        table_lines.append(
            f"{row['variant']:18s} {row['mae']:10.4f} {row['rmse']:10.4f} "
            f"{row['mape_pct']:8.2f} {row['persistence_mae']:10.4f} {row['param_count']:8d}"
        )
    text = "\n".join(table_lines)
    print(text)
    run = make_run_dir(args.out or "runs", "ablation")
    write_effective_config(cfg, run / "config.txt", extra={
        "readings_sha256": _file_sha256(cfg["readings"]),
        "adjacency_sha256": _file_sha256(cfg["adjacency"]),
    })
    (run / "ablation.txt").write_text(text + "\n", encoding="utf-8")
    (run / "ablation.json").write_text(json.dumps(ranked, indent=2) + "\n", encoding="utf-8")
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

    def common(p, horizon=False):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="RNG seed")
        p.add_argument("--out", help="output directory/file")
        p.add_argument("--readings", help="readings CSV")
        p.add_argument("--adjacency", help="adjacency CSV")
        p.add_argument("--holidays", help="holiday list file")
        if horizon:
            p.add_argument("--horizon", choices=["short", "long"],
                           help="preset: short sets m=n=12, long sets m=n=36")
            p.add_argument("--m", type=int)
            p.add_argument("--n", type=int)
            p.add_argument("--periods", dest="periods_hours",
                           help="comma-separated period lags in hours")
            p.add_argument("--epochs", type=int)
            p.add_argument("--batch-size", dest="batch_size", type=int)
            p.add_argument("--lr", type=float)
            for dim in ("d_e", "d_s", "d_t", "h_prime", "k_cheb", "n_blocks"):
                p.add_argument(f"--{dim.replace('_', '-')}", dest=dim, type=int)
            p.add_argument("--enable-recent", dest="enable_recent")
            p.add_argument("--enable-period", dest="enable_period")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p_synth)
    p_synth.add_argument("--nodes", type=int)
    p_synth.add_argument("--days", type=int)
    p_synth.add_argument("--step-minutes", dest="step_minutes", type=int)
    p_synth.add_argument("--daily-amp", dest="daily_amp", type=float)
    p_synth.add_argument("--weekly-amp", dest="weekly_amp", type=float)
    p_synth.add_argument("--noise-std", dest="noise_std", type=float)
    p_synth.add_argument("--graph-model", dest="graph_model", choices=["ring", "random"])
    p_synth.set_defaults(fn=cmd_synth)

    p_train = sub.add_parser("train", help="train a model")
    common(p_train, horizon=True)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=["train", "val", "test"], default="test")
    p_eval.set_defaults(fn=cmd_evaluate)

    p_pred = sub.add_parser("predict", help="export predictions as CSV")
    common(p_pred)
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--split", choices=["train", "val", "test"], default="test")
    p_pred.add_argument("--anchors", default="0:1", help="sample index range lo:hi")
    p_pred.set_defaults(fn=cmd_predict)

    p_grad = sub.add_parser("gradcheck", help="run the gradient-check suite")
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_abl = sub.add_parser("ablation", help="run the five-variant ablation grid")
    common(p_abl, horizon=True)
    p_abl.set_defaults(fn=cmd_ablation)

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

#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 benchmarks/run.py --workload desk-train --seed 0 --seconds 50 --trace 0

Run it from the repository root; the library is imported from ``src/`` next
to this directory, never from an installed copy. BLAS and OpenMP threads are
pinned to 1 before numpy is imported.

The seed selects the generated inputs, which are written as a readings CSV
and an adjacency CSV under ``benchmarks/_work/`` and removed afterwards; the
library sees only those files. Set-up is timed ``SETUP_REPS`` times before
the loop and its median reported. The loop starts with a warm-up step, then
runs closed-loop steps for ``--seconds``. Every step's output is checked
against ``reference.json``.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics. With ``--trace 1`` the first half of the loop runs
untraced and the second half traced, ``SETUP_REPS`` traced set-ups follow
the untraced ones, and the JSON carries the per-layer metrics. Either way a
full record (environment manifest, every metric, tracing overhead, check
results) goes to ``benchmarks/results/``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402  (imports follow the thread pin on purpose)
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
RESULTS = HERE / "results"

SETUP_REPS = 7              # set-ups timed per run; the first is the cold one
TRAIN_LOSS_RTOL = 1e-9      # per-step loss vs reference, relative
FORECAST_RTOL = 1e-9        # per-request checksum vs reference, relative to its scale

SETUP_SPANS = ("data.load_readings", "data.make_windows", "graph.chebyshev_basis")
STEP_SPANS = (
    "graph.cheb_graph_conv", "model.make_batch", "model.embed",
    "model.spatial_self_attention", "model.temporal_self_attention",
    "model.transition_readout", "model.similarity_attention",
    "model.generation_branch", "model.fuse", "model.mse_loss", "model.forward",
    "tensor.backward", "training.adam_step", "training.predict",
)
SELF_SPANS = ("model.transition_block",)
EVAL_SPANS = ("training.evaluate",)
TRACED_LAYERS = SETUP_SPANS + STEP_SPANS + SELF_SPANS + EVAL_SPANS


def import_library():
    """Import the package from ``src/``; None when the checkout has no source."""
    if not (SRC / "embsformer" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import embsformer

    if Path(embsformer.__file__).resolve().parent != (SRC / "embsformer").resolve():
        return None
    return embsformer


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in output order."""
    out = [(f"{s}.ms", "ms", "lower") for s in SETUP_SPANS]
    out.append(("data.make_windows.mb", "MB", "lower"))
    out += [(f"{s}.ms", "ms", "lower") for s in STEP_SPANS]
    out += [(f"{s}.self_ms", "ms", "lower") for s in SELF_SPANS]
    out += [(f"{s}.ms", "ms", "lower") for s in EVAL_SPANS]
    out += [("tensor.tape_nodes", "count", "lower"), ("tensor.tape_out_mb", "MB", "lower")]
    out += [(f"tensor.tape_nodes.{op}", "count", "lower") for op in tracing.TENSOR_OPS]
    for op in tracing.TENSOR_OPS:
        out += [(f"tensor.{op}.ms", "ms", "lower"), (f"tensor.{op}.calls", "count", "lower")]
    return out


END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("samples_per_s", "1/s"), ("step_ms_p50", "ms"),
)


# --------------------------------------------------------------------------
# environment manifest
# --------------------------------------------------------------------------


def git_commit(root):
    """HEAD commit read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, variant):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "input_variant": variant,
    }


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------


def percentile(values, q):
    """The q-th percentile when at least ten samples lie beyond it, else None."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_summary(step_s):
    ms = [s * 1e3 for s in step_s]
    return {
        "count": len(ms),
        "min": min(ms),
        "p50": statistics.median(ms),
        "p90": percentile(ms, 90),
        "max": max(ms),
    }


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


class Checker:
    """Compares each step's output with the committed reference for the input variant."""

    def __init__(self, workload, variant, reference):
        self.kind = workload.kind
        self.ref = reference.get(workload.name, {}).get(str(variant))
        self.compared = 0
        self.bit_exact = True
        self.mismatches = []

    def check(self, step, output):
        """True when the output agrees with the reference (or lies beyond it and is finite)."""
        import numpy as np
        import workloads as W

        if self.ref is None:
            self.mismatches.append((step, "no reference for this input variant"))
            return False
        if self.kind == "train":
            if step >= len(self.ref):
                return bool(np.isfinite(output))
            expected, got, scale = self.ref[step], output, abs(self.ref[step])
            rtol = TRAIN_LOSS_RTOL
        else:
            anchor = step % len(self.ref)
            expected, got = self.ref[anchor], W.forecast_checksum(output)
            scale, rtol = W.forecast_scale(output), FORECAST_RTOL
        self.compared += 1
        self.bit_exact &= got == expected
        if abs(got - expected) <= rtol * scale:
            return True
        self.mismatches.append((step, f"got {got!r}, reference {expected!r}"))
        return False

    def summary(self):
        return {
            "compared": self.compared,
            "bit_exact": self.bit_exact and self.compared > 0,
            "mismatches": [f"step {s}: {msg}" for s, msg in self.mismatches[:10]],
            "train_loss_rtol": TRAIN_LOSS_RTOL,
            "forecast_rtol": FORECAST_RTOL,
        }


# --------------------------------------------------------------------------
# the run
# --------------------------------------------------------------------------


class Run:
    """Set-ups, the step loop and the evaluation pass of one run, with their counts."""

    def __init__(self, seed, seconds, tracer):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.setups = 0
        self.tape_counts = []   # (nodes, {op: count}, out_mb) per traced train step

    def _phase(self, label, traced):
        """Set the tracer's step id; install or restore its wrappers."""
        if self.tracer is None:
            return
        self.tracer.step = label
        if traced and not self.tracer.installed:
            self.tracer.install()
        elif not traced and self.tracer.installed:
            self.tracer.restore()

    def setup(self, readings, adjacency, traced):
        """``SETUP_REPS`` timed set-ups; returns their times and the last result."""
        import workloads as W

        times = []
        prep = None
        for _ in range(SETUP_REPS):
            prep = None
            gc.collect()
            self._phase(f"setup-{self.setups}", traced)
            self.setups += 1
            start = time.perf_counter()
            prep = W.setup(readings, adjacency, self.seed)
            times.append(time.perf_counter() - start)
        self._phase(None, False)
        return times, prep

    def _on_tape(self, tape):
        counts = {}
        out_bytes = 0
        for node in tape.nodes:
            counts[node.op] = counts.get(node.op, 0) + 1
            out_bytes += node.out.data.nbytes
        self.tape_counts.append((len(tape.nodes), counts, out_bytes / 1e6))

    def _step(self, loop, checker, index, on_tape=None):
        self.attempted += 1
        try:
            output, n = loop.step(on_tape)
        except Exception as exc:  # a failed step is counted, and the run goes on
            self.failed += 1
            self.errors.append(f"step {index}: {type(exc).__name__}: {exc}")
            return 0
        if not checker.check(index, output):
            self.failed += 1
        return n

    def loop(self, loop, checker):
        """Warm-up step, then closed-loop steps until the time is up.

        Returns {phase: (steps, wall seconds)} with one (seconds, samples,
        step index) per step; samples is 0 for a failed step. In a traced run
        the first half of the time is the "untraced" phase, the second half
        the "traced" one.
        """
        self._step(loop, checker, 0)
        phases = [("untraced", False, self.seconds)]
        if self.tracer is not None:
            phases = [("untraced", False, self.seconds / 2), ("traced", True, self.seconds / 2)]
        index = 1
        out = {}
        for label, traced, seconds in phases:
            steps = []
            self._phase(None, traced)
            on_tape = self._on_tape if traced else None
            begin = time.perf_counter()
            while time.perf_counter() - begin < seconds:
                if self.tracer is not None:
                    self.tracer.step = index
                start = time.perf_counter()
                n = self._step(loop, checker, index, on_tape)
                steps.append((time.perf_counter() - start, n, index))
                index += 1
            out[label] = (steps, time.perf_counter() - begin)
        self._phase(None, False)
        return out

    def evaluate(self, prep, split):
        import numpy as np

        from embsformer import training

        self._phase("eval", True)
        self.attempted += 1
        start = time.perf_counter()
        try:
            report = training.evaluate(prep.params, prep.windows[split], prep.normalizer,
                                       prep.config, prep.basis)
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"evaluate: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            self._phase(None, False)
        if report.n_samples != len(prep.windows[split]) or not np.isfinite(
                [report.mae_avg, report.rmse_avg, report.mape_avg]).all():
            self.failed += 1
            self.errors.append(f"evaluate: bad report {report.to_dict()}")
        return report.n_samples / elapsed


def loop_metrics(steps, wall):
    done = [(s, n) for s, n, _ in steps if n]
    samples = sum(n for _, n in done)
    busy = sum(s for s, _ in done)
    return {
        "samples": samples,
        "samples_per_s": samples / busy if busy else 0.0,
        "wall_s": wall,
        "latency_ms": latency_summary([s for s, _ in done]) if done else None,
        "steps_ms": [s * 1e3 for s, _ in done],
    }


def run(workload, seed, seconds, trace):
    import numpy as np

    import workloads as W

    started = time.perf_counter()
    variant = W.variant_of(seed)
    checker = Checker(workload, variant, json.loads(REFERENCE.read_text()))
    tracer = tracing.Tracer(TRACED_LAYERS) if trace else None
    bench = Run(seed, seconds, tracer)

    work = HERE / "_work" / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        readings, adjacency = W.write_inputs(workload, seed, work)
        times, prep = bench.setup(readings, adjacency, traced=False)
        setup_times = {"untraced": times}
        if tracer is not None:
            prep = None
            setup_times["traced"], prep = bench.setup(readings, adjacency, traced=True)
        loop = W.TrainLoop(prep, seed) if workload.kind == "train" else W.ForecastLoop(prep)
        phases = bench.loop(loop, checker)
        eval_rate = bench.evaluate(prep, workload.eval_split) if workload.eval_split else None
        windows_mb = prep.windows_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    phase_metrics = {label: loop_metrics(*v) for label, v in phases.items()}
    main = phase_metrics["untraced"]
    e2e = {
        "setup_s": statistics.median(setup_times["untraced"]),
        "peak_rss_mb": peak_rss_mb,
        "samples_per_s": main["samples_per_s"],
        "step_ms_p50": main["latency_ms"]["p50"] if main["latency_ms"] else 0.0,
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(seed, variant),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failed_share": bench.failed / bench.attempted,
        "errors": bench.errors[:10],
        "checks": checker.summary(),
        "setup_s": setup_times,
        "end_to_end": e2e,
        "workload_metrics": named_metrics(workload, main, eval_rate),
        "loop": phase_metrics,
        "run_s": time.perf_counter() - started,
    }
    if tracer is not None:
        record["per_layer"] = layer_metrics(tracer, windows_mb, bench, phases["traced"][0])
        traced = phase_metrics["traced"]
        record["tracing_overhead"] = {
            "setup_s": statistics.median(setup_times["traced"]) - e2e["setup_s"],
            "samples_per_s": traced["samples_per_s"] - main["samples_per_s"],
            "step_ms_p50": ((traced["latency_ms"] or {}).get("p50", 0.0)
                            - e2e["step_ms_p50"]),
        }
    record["correct"] = (bench.failed == 0 and checker.compared > 0
                         and bool(np.isfinite(list(e2e.values())).all()))
    return record


def named_metrics(workload, main, eval_rate):
    """The workload's metrics under their user-facing names."""
    lat = main["latency_ms"] or {}
    prefix = "train_step" if workload.kind == "train" else "forecast"
    out = {
        ("train_samples_per_s" if workload.kind == "train" else "forecasts_per_s"):
            main["samples_per_s"],
        f"{prefix}_ms_p50": lat.get("p50"),
        f"{prefix}_ms_p90": lat.get("p90"),
        f"{prefix}_count": lat.get("count", 0),
    }
    if eval_rate is not None:
        out["eval_samples_per_s"] = eval_rate
    return out


def layer_metrics(tracer, windows_mb, bench, traced_steps):
    """Every per-layer metric: setup spans over traced set-ups, the rest per traced step."""

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    setup_units = sorted({s.step for s in tracer.spans
                          if isinstance(s.step, str) and s.step.startswith("setup-")})
    step_units = [i for _, n, i in traced_steps if n]
    at_setup = tracer.per_unit(setup_units)
    at_step = tracer.per_unit(step_units)
    at_eval = tracer.per_unit(["eval"])
    empty = {"ms": [], "self_ms": [], "calls": []}

    values = {}
    for name in SETUP_SPANS:
        values[f"{name}.ms"] = med(at_setup.get(name, empty)["ms"])
    values["data.make_windows.mb"] = windows_mb
    for name in STEP_SPANS:
        values[f"{name}.ms"] = med(at_step.get(name, empty)["ms"])
    for name in SELF_SPANS:
        values[f"{name}.self_ms"] = med(at_step.get(name, empty)["self_ms"])
    for name in EVAL_SPANS:
        values[f"{name}.ms"] = med(at_eval.get(name, empty)["ms"])
    counts = bench.tape_counts
    values["tensor.tape_nodes"] = med([c[0] for c in counts])
    values["tensor.tape_out_mb"] = med([c[2] for c in counts])
    for op in tracing.TENSOR_OPS:
        values[f"tensor.tape_nodes.{op}"] = med([c[1].get(op, 0) for c in counts])
        row = at_step.get(f"tensor.{op}", empty)
        values[f"tensor.{op}.ms"] = med(row["ms"])
        values[f"tensor.{op}.calls"] = med(row["calls"])
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if import_library() is None:
        print(f"error: no embsformer source under {SRC}", file=sys.stderr)
        return 2
    import workloads as W

    workload = W.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: missing {REFERENCE}", file=sys.stderr)
        return 2

    record = run(workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    if args.trace:
        metrics = record["per_layer"]
        overhead = record["tracing_overhead"]
        print("tracing overhead (traced - untraced): " + ", ".join(
            f"{k} {v:+.4g}" for k, v in overhead.items()))
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, value in record["workload_metrics"].items():
        print(f"{workload.name} {name} = {value}")
    for msg in record["errors"] + record["checks"]["mismatches"]:
        print(f"check: {msg}")
    print(f"record: {out}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

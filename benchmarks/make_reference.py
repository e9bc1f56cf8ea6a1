#!/usr/bin/env python3
"""Regenerate the committed output references in ``reference.json``.

    python3 benchmarks/make_reference.py --workload desk-train

For every input variant it runs the workload's own loop, with the same pinned
threads, and stores what `run.py` checks against: the per-step training
loss for the first ``TRAIN_STEPS`` steps, or the forecast checksum of every
test anchor. Only a change that is meant to alter results may regenerate
it, and it must say so (see README.md, "Output checks").
"""

import run  # first: pins BLAS threads before numpy loads

import argparse
import json
import os
import shutil
import sys

TRAIN_STEPS = {"desk-train": 600}


def reference_for(workload, variant, work):
    import workloads as W

    try:
        readings, adjacency = W.write_inputs(workload, variant, work)
        prep = W.setup(readings, adjacency, variant)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if workload.kind == "train":
        loop = W.TrainLoop(prep, variant)
        return [loop.step()[0] for _ in range(TRAIN_STEPS[workload.name])]
    loop = W.ForecastLoop(prep)
    return [W.forecast_checksum(loop.step()[0]) for _ in range(len(loop.samples))]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    if run.import_library() is None:
        print(f"error: no embsformer source under {run.SRC}", file=sys.stderr)
        return 2
    import workloads as W

    workload = W.WORKLOADS[args.workload]
    out = run.REFERENCE
    doc = json.loads(out.read_text()) if out.is_file() else {}
    for variant in range(W.INPUT_VARIANTS):
        work = run.HERE / "_work" / f"reference-{workload.name}-{variant}-{os.getpid()}"
        values = reference_for(workload, variant, work)
        doc.setdefault(workload.name, {})[str(variant)] = values
        out.write_text(json.dumps(doc, sort_keys=True) + "\n")
        print(f"{workload.name} variant {variant}: {len(values)} values")
    return 0


if __name__ == "__main__":
    sys.exit(main())

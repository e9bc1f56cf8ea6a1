"""Tracer wrappers, their removal, and the self-time arithmetic."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as W
from tracing import Span, Tracer, self_times

BENCH = Path(__file__).resolve().parent.parent


def _layer(name, start, end, parent=-1, kind="layer"):
    return Span(name, kind, start, end, parent, 0)


def test_self_time_subtracts_direct_child_layers():
    spans = [
        _layer("root", 0.0, 10.0),
        _layer("a", 1.0, 3.0, parent=0),
        _layer("b", 4.0, 6.0, parent=0),
        _layer("grandchild", 1.5, 2.5, parent=1),     # counted in a, not in root
        _layer("op", 7.0, 8.0, parent=0, kind="op"),  # ops are not subtracted
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 2.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(1.0)


def test_per_unit_totals_and_zero_fill():
    tracer = Tracer(run.TRACED_LAYERS)
    tracer.spans[:] = [
        Span("model.forward", "layer", 0.0, 0.004, -1, 1),
        Span("model.embed", "layer", 0.001, 0.002, 0, 1),
        Span("model.forward", "layer", 1.0, 1.003, -1, 2),
        Span("model.forward", "layer", 5.0, 9.0, -1, "eval"),
    ]
    rows = tracer.per_unit([1, 2])
    assert rows["model.forward"]["ms"] == pytest.approx([4.0, 3.0])
    assert rows["model.forward"]["self_ms"] == pytest.approx([3.0, 3.0])
    assert rows["model.embed"]["ms"] == pytest.approx([1.0, 0.0])
    assert rows["model.forward"]["calls"] == [1, 1]


def _module_state():
    return {(name, attr): id(value)
            for name, mod in sys.modules.items()
            if name == "embsformer" or name.startswith("embsformer.")
            for attr, value in vars(mod).items()}


def _tiny_prep(tmp_path):
    tiny = W.Workload("tiny", "forecast", nodes=4, step_minutes=60, days=15, why="test")
    readings, adjacency = W.write_inputs(tiny, 0, tmp_path)
    return W.setup(readings, adjacency, 0)


def test_tracer_wraps_and_restores_module_attributes(tmp_path):
    from embsformer import graph, model, tensor, training

    prep = _tiny_prep(tmp_path)
    before = _module_state()
    originals = (model.forward, training.forward, graph.matmul, tensor.matmul)
    tracer = Tracer(run.TRACED_LAYERS)
    with tracer:
        assert model.forward is not originals[0]
        assert training.forward is not originals[1]     # bound by from-import
        assert graph.matmul is not originals[2]         # bound by from-import
        assert tensor.matmul is not originals[3]
        tracer.step = 0
        W.ForecastLoop(prep).step()
    assert _module_state() == before
    assert (model.forward, training.forward, graph.matmul, tensor.matmul) == originals

    names = {s.name for s in tracer.spans}
    assert {"training.predict", "model.forward", "model.embed",
            "graph.cheb_graph_conv", "tensor.matmul"} <= names
    by_index = tracer.spans
    for s in by_index:
        if s.name == "model.embed":
            assert by_index[s.parent].name == "model.forward"
        assert s.end >= s.start and s.step == 0


def test_tracer_restores_after_an_exception(tmp_path):
    before = _module_state()
    with pytest.raises(RuntimeError):
        with Tracer(run.TRACED_LAYERS):
            raise RuntimeError("boom")
    assert _module_state() == before


def test_traced_forecast_equals_untraced(tmp_path):
    prep = _tiny_prep(tmp_path)
    plain = W.ForecastLoop(prep).step()[0]
    with Tracer(run.TRACED_LAYERS):
        traced = W.ForecastLoop(prep).step()[0]
    assert np.asarray(plain).tobytes() == np.asarray(traced).tobytes()


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(list(range(99)), 90) is None
    assert run.percentile(list(range(100)), 90) == pytest.approx(89.1)
    assert run.percentile(list(range(19)), 50) is None


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "results", "_work"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "desk-train",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

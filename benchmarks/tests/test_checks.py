"""Output checks: a mismatch or an exception counts as a failed step."""

import math

import run
import workloads as W

TRAIN = W.WORKLOADS["desk-train"]
FORECAST = W.WORKLOADS["pems-forecast"]


def test_train_loss_checked_against_reference_with_tolerance():
    checker = run.Checker(TRAIN, 0, {"desk-train": {"0": [1.0, 2.0]}})
    assert checker.check(0, 1.0)
    assert checker.check(1, 2.0 * (1 + 0.5 * run.TRAIN_LOSS_RTOL))
    assert not checker.bit_exact
    assert not checker.check(1, 2.0 * (1 + 2 * run.TRAIN_LOSS_RTOL))
    assert checker.check(2, 0.5)               # beyond the reference: finite only
    assert not checker.check(3, math.nan)
    assert checker.compared == 3
    assert len(checker.summary()["mismatches"]) == 1


def test_missing_reference_fails():
    checker = run.Checker(TRAIN, 5, {"desk-train": {"0": [1.0]}})
    assert not checker.check(0, 1.0)


def test_forecast_checksum_checked_per_anchor():
    pred = [[0.5, -1.0, 2.0]]
    ref = {"pems-forecast": {"0": [W.forecast_checksum(pred), 0.0]}}
    checker = run.Checker(FORECAST, 0, ref)
    assert checker.check(0, pred)
    assert checker.check(2, pred)              # request 2 is anchor 0 again
    assert not checker.check(1, pred)
    assert checker.bit_exact is False


class _Loop:
    def __init__(self, outputs):
        self.outputs = list(outputs)

    def step(self, on_tape=None):
        out = self.outputs.pop(0)
        if isinstance(out, Exception):
            raise out
        return out, 1


def test_failures_count_toward_failed():
    bench = run.Run(0, 1.0, None)
    checker = run.Checker(TRAIN, 0, {"desk-train": {"0": [1.0, 2.0, 3.0]}})
    loop = _Loop([1.0, RuntimeError("boom"), 99.0])
    done = [bench._step(loop, checker, i) for i in range(3)]
    assert done == [1, 0, 1]
    assert (bench.attempted, bench.failed) == (3, 2)
    assert "RuntimeError" in bench.errors[0]

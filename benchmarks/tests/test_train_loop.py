"""The benchmark's training step is the library's training loop."""

import numpy as np

import workloads as W
from embsformer import training

TINY = W.Workload("tiny-train", "train", nodes=4, step_minutes=60, days=15, why="test shape")


def test_train_loop_matches_training_train(tmp_path, monkeypatch):
    seed = 3
    readings, adjacency = W.write_inputs(TINY, seed, tmp_path)
    prep = W.setup(readings, adjacency, seed)
    n_train = len(prep.windows["train"])
    steps_per_epoch = -(-n_train // W.BATCH_SIZE)
    assert steps_per_epoch >= 2 and n_train % W.BATCH_SIZE, "shape must exercise a partial batch"

    loop = W.TrainLoop(prep, seed)
    bench_losses = [loop.step()[0] for _ in range(2 * steps_per_epoch)]

    library_losses = []
    original = training.mse_loss

    def recording(pred, target):
        loss = original(pred, target)
        library_losses.append(loss.item())
        return loss

    monkeypatch.setattr(training, "mse_loss", recording)
    fresh = W.setup(readings, adjacency, seed)
    tcfg = training.TrainConfig(batch_size=W.BATCH_SIZE, epochs=2, seed=W.variant_of(seed))
    result = training.train(fresh.config, fresh.basis, fresh.windows["train"],
                            fresh.windows["val"], tcfg, fresh.normalizer)

    assert np.asarray(bench_losses).tobytes() == np.asarray(library_losses).tobytes()
    assert result.trace[1][1] == sum(bench_losses[steps_per_epoch:]) / steps_per_epoch


def test_forecast_checksum_is_order_sensitive():
    pred = np.arange(6.0).reshape(1, 2, 3)
    swapped = pred[:, ::-1, :]
    assert W.forecast_checksum(pred) != W.forecast_checksum(swapped)
    assert W.forecast_scale(pred) == W.forecast_scale(np.abs(pred))


def test_seed_selects_a_committed_variant():
    assert [W.variant_of(s) for s in (0, 1, W.INPUT_VARIANTS, W.INPUT_VARIANTS + 3)] == [0, 1, 0, 3]

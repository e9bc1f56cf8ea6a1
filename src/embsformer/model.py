"""The forecasting network: embedding, flow-transition stack, generation branches, fusion.

Flow transition (recent path): spatial self-attention over nodes, then
temporal self-attention over steps, then Chebyshev graph convolution and
a width-1 temporal conv back to the embedding width, wrapped in a learned
residual; a full-width temporal conv plus a feature conv read the stack
out to an n-step forecast.

Flow generation (one branch per period P_i): similarity attention where
queries come from the recent embedding, keys from the branch window's
first m steps (pseudo-input) and values from its last n steps
(pseudo-future) -- a soft lookup that retrieves the future of historically
similar moments. Branch outputs are sum-normalized (divided by the branch
count) and fused with the transition forecast through elementwise
trainable weights.

Everything operates on batches; shapes are commented as [B, ...].
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np

from embsformer import tensor as T
from embsformer.data import window_offsets
from embsformer.graph import ChebyshevBasis, cheb_graph_conv
from embsformer.tensor import Tensor

__all__ = [
    "ModelConfig",
    "ModelParameters",
    "Batch",
    "CheckpointError",
    "init_params",
    "positional_table",
    "embed",
    "spatial_self_attention",
    "temporal_self_attention",
    "transition_block",
    "transition_readout",
    "similarity_attention",
    "generation_branch",
    "fuse",
    "mse_loss",
    "forward",
    "make_batch",
    "save_checkpoint",
    "load_checkpoint",
]

MINUTE_VOCAB = 1440
DOW_VOCAB = 7
HOLIDAY_VOCAB = 2

CHECKPOINT_MAGIC = b"EMBS1"


class CheckpointError(ValueError):
    """Checkpoint file is malformed or inconsistent."""


@dataclass
class ModelConfig:
    m: int = 12                 # input steps
    n: int = 12                 # forecast steps
    n_nodes: int = 1
    n_features: int = 1
    d_e: int = 32               # embedding width
    d_s: int = 32               # spatial attention width
    d_t: int = 32               # temporal attention width
    h_prime: int = 32           # hidden width h'
    k_cheb: int = 3
    n_blocks: int = 2
    periods: tuple = ()         # period lags P_i in steps, ascending
    enable_recent: bool = True
    enable_period: bool = True

    def __post_init__(self):
        self.periods = tuple(int(p) for p in self.periods)
        for name in ("m", "n", "n_nodes", "n_features", "d_e", "d_s", "d_t",
                     "h_prime", "k_cheb", "n_blocks"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.m < self.n and self.enable_period and self.periods:
            raise ValueError(
                "m >= n required when period branches are active "
                "(query/key alignment convolution has width m-n+1)"
            )
        for p in self.periods:
            if p < self.m + self.n:
                raise ValueError(f"period {p} must be >= m+n = {self.m + self.n}")
        if list(self.periods) != sorted(self.periods):
            raise ValueError("periods must be ascending")
        if not self.enable_recent and not (self.enable_period and self.periods):
            raise ValueError("model needs at least one active path")

    @property
    def n_branches(self):
        return len(self.periods) if self.enable_period else 0

    def to_dict(self):
        d = asdict(self)
        d["periods"] = list(self.periods)
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(**{**d, "periods": tuple(d.get("periods", ()))})

    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


class ModelParameters:
    """Trainable weights, addressable by dotted path; iteration order is fixed."""

    def __init__(self):
        self.tensors = {}

    def new(self, name, data):
        t = Tensor(data, requires_grad=True)
        self.tensors[name] = t
        return t

    def __getitem__(self, name):
        return self.tensors[name]

    def __contains__(self, name):
        return name in self.tensors

    def items(self):
        return self.tensors.items()

    def names(self):
        return list(self.tensors)

    def count(self):
        return sum(t.size for t in self.tensors.values())

    def zero_grads(self):
        T.zero_grads(self.tensors.values())

    def copy(self):
        dup = ModelParameters()
        for name, t in self.tensors.items():
            dup.new(name, t.data.copy())
        return dup


def _uniform(rng, fan_in, shape):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


def init_params(config: ModelConfig, seed=0) -> ModelParameters:
    """Deterministic initialization; draw order follows the path layout below.

    Affine/conv weights are uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), biases
    zero, fusion weights start at ones (period weights scaled by
    1/(1+branch count)). Embedding tables use fan_in = d_e.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    p = ModelParameters()
    c = config

    p.new("embed.proj", _uniform(rng, c.n_features, (c.n_features, c.d_e)))
    p.new("embed.minute", _uniform(rng, c.d_e, (MINUTE_VOCAB, c.d_e)))
    p.new("embed.dow", _uniform(rng, c.d_e, (DOW_VOCAB, c.d_e)))
    p.new("embed.holiday", _uniform(rng, c.d_e, (HOLIDAY_VOCAB, c.d_e)))

    if c.enable_recent:
        for b in range(c.n_blocks):
            pre = f"transition.{b}"
            for nm, fan, shape in (
                ("spatial.wq", c.d_e, (c.d_e, c.d_s)),
                ("spatial.wk", c.d_e, (c.d_e, c.d_s)),
                ("spatial.wv", c.d_e, (c.d_e, c.d_s)),
            ):
                p.new(f"{pre}.{nm}", _uniform(rng, fan, shape))
            for nm, width in (("spatial.bq", c.d_s), ("spatial.bk", c.d_s), ("spatial.bv", c.d_s)):
                p.new(f"{pre}.{nm}", np.zeros(width))
            for nm, fan, shape in (
                ("temporal.wq", c.d_s, (c.d_s, c.d_t)),
                ("temporal.wk", c.d_s, (c.d_s, c.d_t)),
                ("temporal.wv", c.d_s, (c.d_s, c.d_t)),
            ):
                p.new(f"{pre}.{nm}", _uniform(rng, fan, shape))
            for nm, width in (("temporal.bq", c.d_t), ("temporal.bk", c.d_t), ("temporal.bv", c.d_t)):
                p.new(f"{pre}.{nm}", np.zeros(width))
            p.new(f"{pre}.theta", _uniform(rng, c.d_t * c.k_cheb, (c.k_cheb, c.d_t, c.h_prime)))
            p.new(f"{pre}.conv_t", _uniform(rng, c.h_prime, (1, c.h_prime, c.d_e)))
            p.new(f"{pre}.residual", _uniform(rng, c.d_e, (c.d_e, c.d_e)))
        p.new("readout.time_mix", _uniform(rng, c.m, (c.m, 1, c.n)))
        p.new("readout.feature", _uniform(rng, c.d_e, (1, c.d_e, 1)))

    for i in range(c.n_branches):
        pre = f"branch.{i}"
        for nm in ("wq", "wk", "wv"):
            p.new(f"{pre}.{nm}", _uniform(rng, c.d_e, (c.d_e, c.h_prime)))
        for nm in ("bq", "bk", "bv"):
            p.new(f"{pre}.{nm}", np.zeros(c.h_prime))
        if c.m != c.n:
            width = c.m - c.n + 1
            p.new(f"{pre}.align_q", _uniform(rng, width * c.h_prime, (width, c.h_prime, c.h_prime)))
            p.new(f"{pre}.align_k", _uniform(rng, width * c.h_prime, (width, c.h_prime, c.h_prime)))
        p.new(f"{pre}.conv_t", _uniform(rng, c.h_prime, (1, c.h_prime, c.h_prime)))
        p.new(f"{pre}.conv_c", _uniform(rng, c.h_prime, (1, c.h_prime, 1)))

    if c.enable_recent:
        p.new("head.w_r", np.ones((c.n, c.n_nodes)))
    for i in range(c.n_branches):
        p.new(f"head.w_p.{i}", np.ones((c.n, c.n_nodes)) / (1.0 + c.n_branches))
    return p


def positional_table(length, d_e):
    """Standard sine/cosine positional encoding, non-trainable."""
    pos = np.arange(length)[:, None]
    dim = np.arange(d_e)[None, :]
    angle = pos / np.power(10000.0, (2 * (dim // 2)) / d_e)
    table = np.zeros((length, d_e))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    return table


# --------------------------------------------------------------------------
# batching
# --------------------------------------------------------------------------


@dataclass
class Batch:
    """Input blocks, calendar indices and targets of B windows, ready for `forward`."""

    recent: np.ndarray          # [B, m, N, F]
    periods: np.ndarray         # [B, K, m+n, N, F]
    target: np.ndarray          # [B, n, N]  (feature 0)
    recent_minute: np.ndarray   # [B, m]
    recent_dow: np.ndarray
    recent_holiday: np.ndarray
    period_minute: np.ndarray   # [B, K, m+n]
    period_dow: np.ndarray
    period_holiday: np.ndarray


def make_batch(windows) -> Batch:
    """Gather a Batch from the series the windows share, one fancy index per field."""
    first = windows[0]
    shape = (first.m, first.n, first.periods)
    for w in windows:
        if (w.series is not first.series or w.calendar is not first.calendar
                or (w.m, w.n, w.periods) != shape):
            raise ValueError("make_batch: windows must share one series, calendar and shape")
    anchors = np.array([w.anchor for w in windows], dtype=np.int64)
    recent, target, period = window_offsets(*shape)
    r = anchors[:, None] + recent               # [B, m]
    p = anchors[:, None, None] + period         # [B, K, m+n]
    values, cal = first.series.values, first.calendar
    return Batch(
        recent=values[r],
        periods=values[p],
        target=values[anchors[:, None] + target, :, 0],
        recent_minute=cal.minute_of_day[r],
        recent_dow=cal.day_of_week[r],
        recent_holiday=cal.is_holiday[r],
        period_minute=cal.minute_of_day[p],
        period_dow=cal.day_of_week[p],
        period_holiday=cal.is_holiday[p],
    )


# --------------------------------------------------------------------------
# layers
# --------------------------------------------------------------------------


def _lookup(table, idx, n_nodes):
    # idx: [B, steps] shared by all nodes -> [B, steps, N, d_e]
    tiled = np.repeat(idx[:, :, None], n_nodes, axis=2)
    return T.gather_rows(table, tiled)


def embed(params, config, block, minute, dow, holiday, position_offset=0):
    """Project a data block and add calendar + positional embeddings.

    block: [B, steps, N, F] -> [B, steps, N, d_e]. Calendar index arrays are
    [B, steps] (one clock per time step, shared across nodes).
    """
    steps, n_nodes = block.shape[1], block.shape[2]
    if minute.min() < 0 or minute.max() >= MINUTE_VOCAB:
        raise ValueError("minute-of-day index out of range [0, 1439]")
    if dow.min() < 0 or dow.max() >= DOW_VOCAB:
        raise ValueError("day-of-week index out of range [0, 6]")
    if holiday.min() < 0 or holiday.max() >= HOLIDAY_VOCAB:
        raise ValueError("holiday flag out of range {0, 1}")
    x = block if isinstance(block, Tensor) else Tensor(block)
    e = T.matmul(x, params["embed.proj"])
    e = T.add(e, _lookup(params["embed.minute"], minute, n_nodes))
    e = T.add(e, _lookup(params["embed.dow"], dow, n_nodes))
    e = T.add(e, _lookup(params["embed.holiday"], holiday, n_nodes))
    pos = positional_table(position_offset + steps, config.d_e)[position_offset:]
    pos_b = np.broadcast_to(pos[None, :, None, :], (block.shape[0], steps, n_nodes, config.d_e))
    return T.add(e, Tensor(np.ascontiguousarray(pos_b)))


def _affine(x, w, b):
    return T.add(T.matmul(x, w), b)


def _attend(q, k, v, width, sink, label):
    # q,k: [..., L_q, d] / [..., L_k, d]; v: [..., L_k, d_v]
    logits = T.scale(T.matmul(q, T.permute(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))),
                     1.0 / np.sqrt(width))
    scores = T.softmax(logits, axis=-1)
    if sink is not None:
        sink.append((label, scores.data.copy()))
    return T.matmul(scores, v)


def spatial_self_attention(params, prefix, e, d_s, sink=None):
    """Attention over the node axis, one score matrix per time step.

    e: [B, m, N, d_e] -> [B, m, N, d_s]; scores are [B, m, N, N] row-stochastic.
    """
    q = _affine(e, params[f"{prefix}.spatial.wq"], params[f"{prefix}.spatial.bq"])
    k = _affine(e, params[f"{prefix}.spatial.wk"], params[f"{prefix}.spatial.bk"])
    v = _affine(e, params[f"{prefix}.spatial.wv"], params[f"{prefix}.spatial.bv"])
    return _attend(q, k, v, d_s, sink, "spatial")


def temporal_self_attention(params, prefix, x, d_t, sink=None):
    """Attention over the time axis, weights shared across nodes.

    x: [B, m, N, d_s] -> [B, m, N, d_t]; scores are [B, N, m, m].
    """
    xt = T.permute(x, (0, 2, 1, 3))  # [B, N, m, d_s]
    q = _affine(xt, params[f"{prefix}.temporal.wq"], params[f"{prefix}.temporal.bq"])
    k = _affine(xt, params[f"{prefix}.temporal.wk"], params[f"{prefix}.temporal.bk"])
    v = _affine(xt, params[f"{prefix}.temporal.wv"], params[f"{prefix}.temporal.bv"])
    out = _attend(q, k, v, d_t, sink, "temporal")
    return T.permute(out, (0, 2, 1, 3))  # [B, m, N, d_t]


def _conv_over_time(x, kernel):
    # x: [B, L, N, C] -> conv along L with the node axis folded into the batch
    b, length, n_nodes, c = x.shape
    folded = T.reshape(T.permute(x, (0, 2, 1, 3)), (b * n_nodes, length, c))
    out = T.conv_time(folded, kernel)
    l_out, c_out = out.shape[1], out.shape[2]
    return T.permute(T.reshape(out, (b, n_nodes, l_out, c_out)), (0, 2, 1, 3))


def transition_block(params, prefix, e, basis: ChebyshevBasis, config, sink=None):
    """One stacked flow-transition unit; output shape equals input shape.

    residual(e) + conv_t(gcn(temporal_sa(spatial_sa(e)))), where conv_t is a
    width-1 map h' -> d_e so blocks stack.
    """
    s = spatial_self_attention(params, prefix, e, config.d_s, sink)
    t = temporal_self_attention(params, prefix, s, config.d_t, sink)
    g = cheb_graph_conv(t, basis, params[f"{prefix}.theta"])  # [B, m, N, h']
    back = _conv_over_time(g, params[f"{prefix}.conv_t"])     # [B, m, N, d_e]
    res = T.matmul(e, params[f"{prefix}.residual"])
    return T.add(res, back)


def transition_readout(params, h, config):
    """Map the stacked representation to the forecast: [B, m, N, d_e] -> [B, n, N].

    The temporal conv uses a full-width kernel with n output channels shared
    across features (m steps in, n steps out); the feature conv then
    collapses d_e to 1.
    """
    b, m, n_nodes, d_e = h.shape
    # time mix: fold nodes and features into the batch, convolve full width
    folded = T.reshape(T.permute(h, (0, 2, 3, 1)), (b * n_nodes * d_e, m, 1))
    mixed = T.conv_time(folded, params["readout.time_mix"])  # [B*N*d_e, 1, n]
    mixed = T.permute(T.reshape(mixed, (b, n_nodes, d_e, config.n)), (0, 3, 1, 2))
    # feature collapse: [B, n, N, d_e] -> [B, n, N]
    out = _conv_over_time(mixed, params["readout.feature"])  # [B, n, N, 1]
    return T.reshape(out, (b, config.n, n_nodes))


def similarity_attention(params, branch, e_recent, e_period, config, sink=None):
    """Soft lookup of a branch's pseudo-future keyed by its pseudo-input.

    e_recent: [B, m, N, d_e]; e_period: [B, m+n, N, d_e]. Queries come from
    the recent embedding, keys from the first m period steps, values from
    the last n (the pseudo-future). When m != n a width-(m-n+1) temporal
    conv aligns query/key length to n. Returns [B, n, N, h'].
    """
    m, n = config.m, config.n
    if e_period.shape[1] != m + n:
        raise ValueError(
            f"branch window has {e_period.shape[1]} steps, expected m+n={m + n}"
        )
    pre = f"branch.{branch}"
    e_in = T.slice_axis(e_period, 1, 0, m)
    e_out = T.slice_axis(e_period, 1, m, m + n)

    q = _affine(e_recent, params[f"{pre}.wq"], params[f"{pre}.bq"])  # [B, m, N, h']
    k = _affine(e_in, params[f"{pre}.wk"], params[f"{pre}.bk"])      # [B, m, N, h']
    v = _affine(e_out, params[f"{pre}.wv"], params[f"{pre}.bv"])     # [B, n, N, h']

    q = T.permute(q, (0, 2, 1, 3))  # [B, N, m, h']
    k = T.permute(k, (0, 2, 1, 3))
    v = T.permute(v, (0, 2, 1, 3))  # [B, N, n, h']
    if m != n:
        b, n_nodes = q.shape[0], q.shape[1]
        q = T.reshape(q, (b * n_nodes, m, config.h_prime))
        k = T.reshape(k, (b * n_nodes, m, config.h_prime))
        q = T.conv_time(q, params[f"{pre}.align_q"])
        k = T.conv_time(k, params[f"{pre}.align_k"])
        q = T.reshape(q, (b, n_nodes, n, config.h_prime))
        k = T.reshape(k, (b, n_nodes, n, config.h_prime))
    out = _attend(q, k, v, config.h_prime, sink, f"similarity.{branch}")
    return T.permute(out, (0, 2, 1, 3))  # [B, n, N, h']


def generation_branch(params, branch, asr, config):
    """Branch readout: width-1 temporal conv then feature conv, [B,n,N,h'] -> [B,n,N].

    Sum normalization (division by the active branch count) happens at
    fusion time, keeping per-branch outputs separate for the head weights.
    """
    pre = f"branch.{branch}"
    h = _conv_over_time(asr, params[f"{pre}.conv_t"])   # [B, n, N, h']
    y = _conv_over_time(h, params[f"{pre}.conv_c"])     # [B, n, N, 1]
    b, n_steps, n_nodes = y.shape[0], y.shape[1], y.shape[2]
    return T.reshape(y, (b, n_steps, n_nodes))


def fuse(params, config, y_recent, y_branches):
    """Elementwise trainable fusion: W_r . Y_r + sum_i W_p^i . (Y_p^i / count)."""
    if y_recent is None and not y_branches:
        raise ValueError("fuse: no active paths")
    out = None
    if y_recent is not None:
        out = T.mul(params["head.w_r"], y_recent)
    count = len(y_branches)
    for i, y_p in enumerate(y_branches):
        term = T.mul(params[f"head.w_p.{i}"], T.scale(y_p, 1.0 / count))
        out = term if out is None else T.add(out, term)
    return out


def mse_loss(pred, target):
    """Mean over every element of the squared error."""
    t = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != t.shape:
        raise T.ShapeError(f"mse_loss: prediction {pred.shape} vs target {t.shape}")
    diff = T.sub(pred, t)
    return T.reduce(T.mul(diff, diff), axis=None, kind="mean")


def forward(batch: Batch, params: ModelParameters, config: ModelConfig,
            basis: ChebyshevBasis, sink=None) -> Tensor:
    """Full network forward pass: Batch -> predictions [B, n, N].

    ``sink``, when given, collects (label, score-matrix) pairs from every
    attention in the pass.
    """
    e_recent = embed(params, config, batch.recent, batch.recent_minute,
                     batch.recent_dow, batch.recent_holiday)
    y_recent = None
    if config.enable_recent:
        h = e_recent
        for b in range(config.n_blocks):
            h = transition_block(params, f"transition.{b}", h, basis, config, sink)
        y_recent = transition_readout(params, h, config)

    y_branches = []
    if config.enable_period:
        for i in range(len(config.periods)):
            e_p = embed(params, config, batch.periods[:, i], batch.period_minute[:, i],
                        batch.period_dow[:, i], batch.period_holiday[:, i])
            asr = similarity_attention(params, i, e_recent, e_p, config, sink)
            y_branches.append(generation_branch(params, i, asr, config))
    return fuse(params, config, y_recent, y_branches)


# --------------------------------------------------------------------------
# checkpointing
# --------------------------------------------------------------------------


def save_checkpoint(path, params: ModelParameters, config: ModelConfig):
    """Versioned binary container; identical inputs produce identical bytes."""
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        names = sorted(params.names())
        fh.write(struct.pack("<I", len(names)))
        for name in names:
            raw = name.encode("utf-8")
            arr = np.ascontiguousarray(params[name].data, dtype="<f8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_checkpoint(path):
    """Parse a checkpoint; any malformed file raises CheckpointError naming ``path``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path}: bad magic {raw[:len(CHECKPOINT_MAGIC)]!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    pos = len(CHECKPOINT_MAGIC)

    def take(size):
        nonlocal pos
        if size > len(raw) - pos:
            raise CheckpointError(
                f"{path}: truncated: {size} bytes needed at offset {pos}, file has {len(raw)}"
            )
        pos += size
        return raw[pos - size:pos]

    def unpack(fmt):
        return struct.unpack(fmt, take(struct.calcsize(fmt)))[0]

    blob = take(unpack("<I"))
    try:
        config = ModelConfig.from_dict(json.loads(blob))
    except (ValueError, TypeError) as exc:  # bad UTF-8/JSON, unknown or invalid keys
        raise CheckpointError(f"{path}: bad model config: {exc}") from None
    params = ModelParameters()
    for _ in range(unpack("<I")):
        try:
            name = take(unpack("<H")).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: parameter name is not UTF-8") from None
        shape = tuple(unpack("<I") for _ in range(unpack("<B")))
        data = np.frombuffer(take(math.prod(shape) * 8), dtype="<f8").reshape(shape)
        params.new(name, data.copy())
    if pos != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after parameter table")
    layout = {name: t.shape for name, t in init_params(config).items()}
    if {name: t.shape for name, t in params.items()} != layout:
        raise CheckpointError(f"{path}: parameter names or shapes do not match the model config")
    return params, config

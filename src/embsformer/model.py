"""The forecasting network: embedding, flow-transition stack, generation branches, fusion.

Flow transition (recent path): spatial self-attention over nodes, then
temporal self-attention over steps, then Chebyshev graph convolution and
a per-step channel map back to the embedding width, wrapped in a learned
residual. The readout is two matmuls: a feature map collapses d_e to 1,
then a time mix maps the m input steps to the n forecast steps.

Flow generation (one branch per period P_i): similarity attention where
queries come from the recent embedding, keys from the branch window's
first m steps (pseudo-input) and values from its last n steps
(pseudo-future) -- a soft lookup that retrieves the future of historically
similar moments. When m != n, queries and keys are aligned to n steps by
a width-(m-n+1) correlation over time, one matmul on gathered windows.
Branch outputs are sum-normalized (divided by the branch count) and fused
with the transition forecast through elementwise trainable weights.

Everything operates on batches and runs node-first: `embed` turns a
[B, steps, N, F] data block into a [N, B, steps, d_e] activation, and the
readouts turn [N, B, ...] back into the [B, n, N] forecast. On that layout
the per-step clock [B, steps, d_e] broadcasts as a suffix, temporal and
similarity attention act on the last two axes as they stand, spatial
attention attends over axis 0 (`tensor.attention` moves it in a transient
copy), and the Chebyshev hops are one [N, N] @ [N, rest] GEMM each. Only
the m != n alignment permutes around its window gather; nothing else
moves an activation on the tape. Every learned linear map is a matmul,
but for the q, k and v projections of every attention: each attention is
one `tensor.attention` node, which takes its operands as source triples,
keeps only their sources, weights and addends, and recomputes the
projections in backward (queries and keys aligned when m != n are the
exception: they enter as tensors). Each weight has the shape of the map
it applies.

Only the recent window is embedded. The embedding is affine (data block
times ``embed.proj`` plus the clock), and a branch uses its window only
through the key and value projections, so each branch projects its
window's data block and clock directly: k = x (P W_k) + clock W_k, a
rank-F product carrying a [B, m, h'] clock addend. Keys carry no bias:
q (k_j + b) = q k_j + q b shifts a whole score row by one amount, which
the row softmax cancels. The pseudo-input and the pseudo-future each get
their own data block and clock, so no [N, B, m+n, d_e] period embedding
is built and nothing is sliced. The branch readout (channel map conv_t,
then feature map conv_c) is linear and follows the attention directly,
so its product c = conv_t conv_c [h', 1] is folded into the values:
v = x ((P W_v) c) + (clock W_v + b_v) c is one column, [N, B, n, 1], and
only queries and keys are h' wide.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np

from embsformer import tensor as T
from embsformer.data import atomic_write, window_offsets
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

# the columns of a [..., 3] calendar index array (see `data.calendar_features`),
# their vocabulary sizes, and the first row of each column in `embed.calendar`
CALENDAR_COLUMNS = ("minute-of-day", "day-of-week", "holiday")
CALENDAR_VOCAB = np.array([1440, 7, 2])
CALENDAR_OFFSETS = np.cumsum(CALENDAR_VOCAB) - CALENDAR_VOCAB   # 0, 1440, 1447

CHECKPOINT_MAGIC = b"EMBS1"

# the group of each parameter's first dotted part; "head" holds every map
# into the forecast layout: the recent path's readout and the fusion weights
PARAM_GROUPS = {"embed": "embed", "transition": "transition", "branch": "branch",
                "readout": "head", "head": "head"}


class CheckpointError(ValueError):
    """Checkpoint file is malformed or inconsistent."""


@dataclass
class ModelConfig:
    m: int = 12                 # input steps
    n: int = 12                 # forecast steps
    n_nodes: int = 1
    n_features: int = 1
    d_e: int = 32               # embedding width, also that of spatial and temporal attention
    h_prime: int = 32           # hidden width h'
    k_cheb: int = 3
    n_blocks: int = 2
    periods: tuple = ()         # period lags P_i in steps, ascending; one branch each
    enable_recent: bool = True

    def __post_init__(self):
        self.periods = tuple(int(p) for p in self.periods)
        for name in ("m", "n", "n_nodes", "n_features", "d_e", "h_prime", "k_cheb", "n_blocks"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.m < self.n and self.periods:
            raise ValueError(
                "m >= n required when period branches are active "
                "(query/key alignment convolution has width m-n+1)"
            )
        for p in self.periods:
            if p < self.m + self.n:
                raise ValueError(f"period {p} must be >= m+n = {self.m + self.n}")
        if list(self.periods) != sorted(self.periods):
            raise ValueError("periods must be ascending")
        if not self.enable_recent and not self.periods:
            raise ValueError("model needs at least one active path")

    @property
    def n_branches(self):
        return len(self.periods)

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

    def group_counts(self):
        """Parameter counts by `PARAM_GROUPS` group: embed, transition, branch, head."""
        counts = dict.fromkeys(PARAM_GROUPS.values(), 0)
        for name, t in self.tensors.items():
            counts[PARAM_GROUPS[name.split(".", 1)[0]]] += t.size
        return counts

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

    Affine/conv weights are uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)), query
    and value biases zero (keys have none), fusion weights start at ones
    (period weights scaled by 1/(1+branch count)). The calendar embedding
    table uses fan_in = d_e.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    p = ModelParameters()
    c = config

    p.new("embed.proj", _uniform(rng, c.n_features, (c.n_features, c.d_e)))
    p.new("embed.calendar", _uniform(rng, c.d_e, (int(CALENDAR_VOCAB.sum()), c.d_e)))

    if c.enable_recent:
        for b in range(c.n_blocks):
            pre = f"transition.{b}"
            for layer in ("spatial", "temporal"):
                for nm in ("wq", "wk", "wv"):
                    p.new(f"{pre}.{layer}.{nm}", _uniform(rng, c.d_e, (c.d_e, c.d_e)))
                for nm in ("bq", "bv"):
                    p.new(f"{pre}.{layer}.{nm}", np.zeros(c.d_e))
            p.new(f"{pre}.theta", _uniform(rng, c.d_e * c.k_cheb, (c.k_cheb, c.d_e, c.h_prime)))
            p.new(f"{pre}.conv_t", _uniform(rng, c.h_prime, (c.h_prime, c.d_e)))
            p.new(f"{pre}.residual", _uniform(rng, c.d_e, (c.d_e, c.d_e)))
        p.new("readout.time_mix", _uniform(rng, c.m, (c.m, c.n)))
        p.new("readout.feature", _uniform(rng, c.d_e, (c.d_e, 1)))

    for i in range(c.n_branches):
        pre = f"branch.{i}"
        for nm in ("wq", "wk", "wv"):
            p.new(f"{pre}.{nm}", _uniform(rng, c.d_e, (c.d_e, c.h_prime)))
        for nm in ("bq", "bv"):
            p.new(f"{pre}.{nm}", np.zeros(c.h_prime))
        if c.m != c.n:
            width = c.m - c.n + 1
            p.new(f"{pre}.align_q", _uniform(rng, width * c.h_prime, (width, c.h_prime, c.h_prime)))
            p.new(f"{pre}.align_k", _uniform(rng, width * c.h_prime, (width, c.h_prime, c.h_prime)))
        p.new(f"{pre}.conv_t", _uniform(rng, c.h_prime, (c.h_prime, c.h_prime)))
        p.new(f"{pre}.conv_c", _uniform(rng, c.h_prime, (c.h_prime, 1)))

    if c.enable_recent:
        p.new("head.w_r", np.ones((c.n, c.n_nodes)))
    for i in range(c.n_branches):
        p.new(f"head.w_p.{i}", np.ones((c.n, c.n_nodes)) / (1.0 + c.n_branches))
    return p


@functools.lru_cache(maxsize=16)
def positional_table(length, d_e):
    """Standard sine/cosine positional encoding, non-trainable.

    Built once per (length, d_e) and shared by every caller, so it is
    read-only; a forward asks for it once per embedded block.
    """
    pos = np.arange(length)[:, None]
    dim = np.arange(d_e)[None, :]
    angle = pos / np.power(10000.0, (2 * (dim // 2)) / d_e)
    table = np.zeros((length, d_e))
    table[:, 0::2] = np.sin(angle[:, 0::2])
    table[:, 1::2] = np.cos(angle[:, 1::2])
    table.flags.writeable = False
    return table


# --------------------------------------------------------------------------
# batching
# --------------------------------------------------------------------------


@dataclass
class Batch:
    """Input blocks, calendar indices and targets of B windows, ready for `forward`."""

    recent: np.ndarray            # [B, m, N, F]
    periods: np.ndarray           # [B, K, m+n, N, F]
    target: np.ndarray            # [B, n, N]  (feature 0)
    recent_calendar: np.ndarray   # [B, m, 3]  (columns of `CALENDAR_COLUMNS`)
    period_calendar: np.ndarray   # [B, K, m+n, 3]


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
    values, calendar = first.series.values, first.calendar
    return Batch(
        recent=values[r],
        periods=values[p],
        target=values[anchors[:, None] + target, :, 0],
        recent_calendar=calendar[r],
        period_calendar=calendar[p],
    )


# --------------------------------------------------------------------------
# layers
# --------------------------------------------------------------------------


def _embed_parts(params, config, block, calendar, first_step=0):
    """The two terms of an embedding: (node-first data block, per-step clock).

    block: [B, steps, N, F] -> [N, B, steps, F], permuted, so a constant
    data block costs no tape node. ``calendar`` is the [B, steps, 3] index
    array of `CALENDAR_COLUMNS`, one clock per time step shared across
    nodes: its three rows of ``embed.calendar`` are gathered at once and
    summed, and the positional table is added, giving [B, steps, d_e].
    ``first_step`` is the window position of the block's first step, so a
    block cut from a longer window takes that window's positional rows.
    """
    bad = (calendar < 0) | (calendar >= CALENDAR_VOCAB)
    if bad.any():
        col = int(np.nonzero(bad)[-1][0])
        raise ValueError(
            f"{CALENDAR_COLUMNS[col]} index out of range [0, {CALENDAR_VOCAB[col] - 1}]"
        )
    table = params["embed.calendar"]
    rows = T.gather_rows(table, calendar + CALENDAR_OFFSETS)       # [B, steps, 3, d_e]
    pos = Tensor(positional_table(first_step + block.shape[1], config.d_e)[first_step:])
    clock = T.add(T.reduce(rows, axis=-2), pos)                    # [B, steps, d_e]
    x = block if isinstance(block, Tensor) else Tensor(block)
    return T.permute(x, (2, 0, 1, 3)), clock


def embed(params, config, block, calendar):
    """Project a data block and add calendar + positional embeddings.

    block: [B, steps, N, F] -> [N, B, steps, d_e], node-first: the
    projection of the permuted block (`_embed_parts`) takes the
    [B, steps, d_e] clock as its addend, broadcast over the node axis as a
    suffix.
    """
    x, clock = _embed_parts(params, config, block, calendar)
    return T.matmul(x, params["embed.proj"], clock)                # [N, B, steps, d_e]


def _collect(sink, label, result):
    """The output of an (out, scores) attention result; ``sink`` gets the labelled scores."""
    out, scores = result
    if sink is not None:
        sink.append((label, scores))
    return out


def _self_attention(params, name, x, axis, sink):
    """Self-attention of x [..., d_e] over ``axis``; the output has x's shape.

    q, k and v are projected from ``x`` by the ``<name>.w*`` weights; only
    q and v have biases (``<name>.bq``, ``<name>.bv``), since the row softmax
    cancels a key bias. One `T.attention` node keeps only ``x`` and the
    weights, and recomputes the projections in backward. The scale is
    1/sqrt(d_e), and ``sink`` gets the scores labelled with the last part
    of ``name``.
    """
    wq, wk, wv, bq, bv = (params[f"{name}.{nm}"] for nm in ("wq", "wk", "wv", "bq", "bv"))
    return _collect(sink, name.rsplit(".", 1)[-1],
                    T.attention((x, wq, bq), (x, wk, None), (x, wv, bv),
                                1.0 / np.sqrt(x.shape[-1]), axis))


def spatial_self_attention(params, prefix, e, sink=None):
    """Attention over the node axis, one score matrix per time step.

    e: [N, B, m, d_e] -> [N, B, m, d_e]; nodes, axis 0, are the attended
    axis. Scores are [B, m, N, N] row-stochastic.
    """
    return _self_attention(params, f"{prefix}.spatial", e, 0, sink)


def temporal_self_attention(params, prefix, x, sink=None):
    """Attention over the time axis, weights shared across nodes.

    x: [N, B, m, d_e] -> [N, B, m, d_e]; scores are [N, B, m, m].
    """
    return _self_attention(params, f"{prefix}.temporal", x, -2, sink)


def transition_block(params, prefix, e, basis: ChebyshevBasis, config, sink=None):
    """One stacked flow-transition unit; output shape equals input shape.

    residual(e) + conv_t(gcn(temporal_sa(spatial_sa(e)))), where conv_t is the
    per-step channel map h' -> d_e, so blocks stack. e: [N, B, m, d_e].
    """
    s = spatial_self_attention(params, prefix, e, sink)
    t = temporal_self_attention(params, prefix, s, sink)
    g = cheb_graph_conv(t, basis, params[f"{prefix}.theta"])  # [N, B, m, h']
    res = T.matmul(e, params[f"{prefix}.residual"])
    return T.matmul(g, params[f"{prefix}.conv_t"], res)        # [N, B, m, d_e]


def transition_readout(params, h, config):
    """Map the stacked representation to the forecast: [N, B, m, d_e] -> [B, n, N].

    Two chained linear maps with nothing between them: ``readout.feature``
    [d_e, 1] collapses the features at every step and node, then
    ``readout.time_mix`` [m, n] maps the m input steps to the n forecast
    steps, shared across nodes. Collapsing the features first regroups the
    same sum and never builds an [N, B, d_e, n] intermediate. The time mix
    is one [N·B, m] @ [m, n] GEMM: as an [N, B, m] product, numpy would run
    it as N matrix-vector products when B = 1, and a window's forecast
    would depend on its batch. One small permute of the [N, B, n] result
    gives the forecast layout.
    """
    n_nodes, b, m, _ = h.shape
    y = T.reshape(T.matmul(h, params["readout.feature"]), (n_nodes * b, m))
    y = T.reshape(T.matmul(y, params["readout.time_mix"]), (n_nodes, b, config.n))
    return T.permute(y, (1, 2, 0))


def _align(x, kernel):
    """Valid correlation over time as one matmul on gathered windows (im2col).

    x: [N, B, L, C], kernel: [w, C, C_out] -> [N, B, L-w+1, C_out], where
    output step s is sum_j x[:, :, s+j] @ kernel[j]. The L-w+1 overlapping
    windows are gathered at once along the time-leading layout.
    """
    w, c, c_out = kernel.shape
    steps = x.shape[2] - w + 1
    windows = T.gather_rows(T.permute(x, (2, 0, 1, 3)),
                            np.arange(steps)[:, None] + np.arange(w))  # [L', w, N, B, C]
    windows = T.permute(windows, (2, 3, 0, 1, 4))                      # [N, B, L', w, C]
    windows = T.reshape(windows, windows.shape[:3] + (w * c,))
    return T.matmul(windows, T.reshape(kernel, (w * c, c_out)))


def _project_embedding(params, x, clock, w, b=None, out=None):
    """(x @ embed.proj + clock) @ w (+ b) as a source triple, so the embedding is never built.

    x: [N, B, L, F], clock: [B, L, d_e] -> (x, embed.proj @ w,
    clock @ w (+ b)), which stands for the [N, B, L, h'] projection
    `T.matmul` of the triple computes: a rank-F product whose addend, the
    clock term, broadcasts over nodes. ``out`` [h', r], when given, is a
    map applied to the projection, folded into both terms: -> [N, B, L, r].
    """
    data_w, clock_term = T.matmul(params["embed.proj"], w), T.matmul(clock, w, b)
    if out is not None:
        data_w, clock_term = T.matmul(data_w, out), T.matmul(clock_term, out)
    return x, data_w, clock_term


def similarity_attention(params, branch, e_recent, pseudo_input, pseudo_future, config,
                         sink=None):
    """Soft lookup of a branch's pseudo-future keyed by its pseudo-input, read out.

    e_recent: [N, B, m, d_e]. The branch window comes as two (data, clock)
    pairs of `_embed_parts`: its first m steps, the pseudo-input
    ([N, B, m, F], [B, m, d_e]), and its last n, the pseudo-future
    ([N, B, n, F], [B, n, d_e]). Queries come from the recent embedding,
    keys from the pseudo-input, values from the pseudo-future. Keys and
    values are projected straight from each half's data and clock
    (`_project_embedding`), so no period embedding is materialized. All
    three go to `T.attention` as source triples, which it projects itself,
    so no q, k or v node is recorded. When m != n a width-(m-n+1)
    correlation over time (`_align`) maps query/key length to n, on
    queries and keys projected by `T.matmul` first.

    The branch readout, the channel map ``conv_t`` [h', h'] then the
    feature map ``conv_c`` [h', 1], is linear and follows the attention
    with nothing between, so (p v) conv_t conv_c = p (v (conv_t conv_c)):
    the [h', 1] product c = conv_t conv_c is folded into the value
    projection, v = x ((P W_v) c) + (clock W_v + b_v) c. Values, attention
    output and result are [N, B, n, 1]; scores are [N, B, n, n].
    """
    m, n = config.m, config.n
    for (x, _), steps, half in ((pseudo_input, m, "pseudo-input"),
                                (pseudo_future, n, "pseudo-future")):
        if x.shape[2] != steps:
            raise ValueError(f"{half} has {x.shape[2]} steps, expected {steps}")
    pre = f"branch.{branch}"
    q = (e_recent, params[f"{pre}.wq"], params[f"{pre}.bq"])                    # [N, B, m, h']
    k = _project_embedding(params, *pseudo_input, params[f"{pre}.wk"])
    readout = T.matmul(params[f"{pre}.conv_t"], params[f"{pre}.conv_c"])        # [h', 1]
    v = _project_embedding(params, *pseudo_future, params[f"{pre}.wv"], params[f"{pre}.bv"],
                           readout)                                             # [N, B, n, 1]
    if m != n:
        q = _align(T.matmul(*q), params[f"{pre}.align_q"])  # [N, B, n, h']
        k = _align(T.matmul(*k), params[f"{pre}.align_k"])
    return _collect(sink, f"similarity.{branch}",
                    T.attention(q, k, v, 1.0 / np.sqrt(config.h_prime)))


def generation_branch(y):
    """Branch output in the forecast layout: [N, B, n, 1] -> [B, n, N].

    The branch's readout maps are already folded into its values
    (`similarity_attention`), so only the layout changes here. Sum
    normalization (division by the active branch count) happens at fusion
    time, keeping per-branch outputs separate for the head weights.
    """
    return T.permute(T.reshape(y, y.shape[:3]), (1, 2, 0))


def fuse(params, config, y_recent, y_branches):
    """Elementwise trainable fusion: W_r . Y_r + sum_i W_p^i . (Y_p^i / count)."""
    if y_recent is None and not y_branches:
        raise ValueError("fuse: no active paths")
    out = None
    if y_recent is not None:
        out = T.mul(params["head.w_r"], y_recent)
    count = len(y_branches)
    for i, y_p in enumerate(y_branches):
        term = T.mul(params[f"head.w_p.{i}"], T.mul(y_p, Tensor(1.0 / count)))
        out = term if out is None else T.add(out, term)
    return out


def mse_loss(pred, target):
    """Mean over every element of the squared error against a constant target array.

    The difference is pred + (-target), which IEEE arithmetic defines to be
    pred - target, bit for bit.
    """
    target = np.asarray(target)
    if pred.shape != target.shape:
        raise T.ShapeError(f"mse_loss: prediction {pred.shape} vs target {target.shape}")
    diff = T.add(pred, Tensor(-target))
    return T.reduce(T.mul(diff, diff), axis=None, kind="mean")


def forward(batch: Batch, params: ModelParameters, config: ModelConfig,
            basis: ChebyshevBasis, sink=None) -> Tensor:
    """Full network forward pass: Batch -> predictions [B, n, N].

    ``sink``, when given, collects (label, score-matrix) pairs from every
    attention in the pass.
    """
    e_recent = embed(params, config, batch.recent, batch.recent_calendar)
    y_recent = None
    if config.enable_recent:
        h = e_recent
        for b in range(config.n_blocks):
            h = transition_block(params, f"transition.{b}", h, basis, config, sink)
        y_recent = transition_readout(params, h, config)

    m = config.m
    y_branches = []
    for i in range(config.n_branches):
        block, calendar = batch.periods[:, i], batch.period_calendar[:, i]
        past = _embed_parts(params, config, block[:, :m], calendar[:, :m])
        future = _embed_parts(params, config, block[:, m:], calendar[:, m:], first_step=m)
        y = similarity_attention(params, i, e_recent, past, future, config, sink)
        y_branches.append(generation_branch(y))
    return fuse(params, config, y_recent, y_branches)


# --------------------------------------------------------------------------
# checkpointing
# --------------------------------------------------------------------------


def save_checkpoint(path, params: ModelParameters, config: ModelConfig):
    """Versioned binary container; identical inputs produce identical bytes.

    Written through `data.atomic_write`, so a write that fails part way
    leaves neither a partial checkpoint nor the temp file.
    """
    blob = json.dumps(config.to_dict(), sort_keys=True).encode("utf-8")
    with atomic_write(path, "wb") as fh:
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
        raw_param = take(math.prod(shape) * 8)
        try:
            data = np.frombuffer(raw_param, dtype="<f8").reshape(shape)
        except ValueError:   # a zero dim beside dims whose product overflows
            raise CheckpointError(
                f"{path}: parameter {name!r} has impossible shape {shape}"
            ) from None
        params.new(name, data.copy())
    if pos != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after parameter table")
    layout = {name: t.shape for name, t in init_params(config).items()}
    if {name: t.shape for name, t in params.items()} != layout:
        raise CheckpointError(f"{path}: parameter names or shapes do not match the model config")
    return params, config

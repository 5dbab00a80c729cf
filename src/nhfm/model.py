"""The hierarchical FM model: its configuration, its parameters, and a
one-window forward pass.

Events are embedded as rescaled rows of one shared table; each event is
summarized by the pairwise Hadamard interaction of its features, computed
with the pooling identity 0.5 * ((sum u)^2 - sum u^2) instead of the
quadratic double sum. History events feed three branches selected by the
variant: a parameter-free interaction pool over history event vectors
(``alpha``), self-importance attention plus a bidirectional LSTM
(``beta``), or both (``full``). The current event's vector always joins
the MLP input, and a linear wide term over all raw features joins the
logit.

One engine computes all of it, in the paper's two levels. The event
level depends on one event alone (:func:`_event_rows`): its in-event FM
pool and its wide term, whose entries are added in order, and, with
attention, its self-importance logit and ReLU projection
(:func:`_self_importance`). The window level (:func:`_window_level`)
reads those values per slot and runs:

* the masked sequence FM pool;
* self-importance attention with a softmax over real history slots only;
* the BiLSTM, whose padded steps keep the previous state, so the forward
  direction starts at the first real event and the backward direction
  carries its state through the left padding. The history slots before
  the first one any window of the batch fills would leave the state zero,
  so neither direction runs them; the input projection and the weight
  gradients still take every slot, so each product keeps its shape and
  every bit;
* the MLP, the wide sum and the weighted NLL.

A batch of windows is gathered from an :class:`~nhfm.data.EventStore`
into ``idx (B, T, F)`` feature indices, ``val (B, T, F)`` feature values
and ``q (B, T)`` real-slot flags, where F is the largest entry count of
any event among the gathered windows. Padded entries carry index 0 and
value 0, so they add nothing. Training, the gradient check and the
attention report (:func:`window_forward`) run the event level on every
slot of their batch, each slot its own event (self-importance on the
history slots only), and the window level on the result. Windows without
history get zero attention and LSTM vectors. Backward passes are written
by hand per layer. The embedding gradient is summed into the rows the
batch touched and kept in that form (:class:`RowSparse`), so no array the
size of the table is built per batch; the wide gradient is one dense
vector.

Scoring (:func:`scores`) runs the event level once per distinct event.
It takes the windows in order of their history length, so each chunk's
windows share their left padding and its BiLSTM runs few steps, and
walks that order in spans of ``SPAN_WINDOWS`` windows. The event level
runs on each distinct store row a span references, in blocks of
``EVENT_ROWS`` rows. The window level runs once per stack of chunks of
``SCORE_ROWS`` windows, each chunk a batch of its own, with as many
chunks per stack as keep the BiLSTM input projection within
``STACK_CELLS`` cells; so the extra memory is bounded by the span, not
the store. The stack's BiLSTM (:func:`_stacked_bilstm`) keeps no caches
for a backward pass, and at each step runs one product per chunk for the
prefix of the stack whose chunks have started (forward) or not yet
finished (backward).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from .data import EventSequence, EventStore

VARIANTS = ("alpha", "beta", "full")
GATES = ("i", "f", "g", "o")


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "full"
    k: int = 64                       # embedding dimension
    h: int = 64                       # LSTM hidden dimension
    mlp_widths: tuple[int, ...] = (128, 64, 1)
    t_max: int = 10

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.k < 1 or self.h < 1:
            raise ValueError(f"k and h must be >= 1, got k={self.k}, h={self.h}")
        if not self.mlp_widths or self.mlp_widths[-1] != 1:
            raise ValueError(f"final MLP width must be 1, got {self.mlp_widths}")
        if min(self.mlp_widths) < 1:
            raise ValueError(f"MLP widths must be >= 1, got {self.mlp_widths}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")

    def mlp_input_width(self) -> int:
        if self.variant == "alpha":
            return 2 * self.k
        if self.variant == "beta":
            return 2 * self.k + self.h
        return 3 * self.k + self.h

    def uses_attention(self) -> bool:
        return self.variant in ("beta", "full")

    def uses_alpha_branch(self) -> bool:
        return self.variant in ("alpha", "full")


class Parameters(Mapping[str, np.ndarray]):
    """Named arrays in a fixed order, each a view into one contiguous
    float64 vector, ``flat``. ``params[name] = x`` copies into the view,
    so the optimizer and finite checks make one pass over ``flat``."""

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        arrays = {name: np.asarray(v, dtype=np.float64) for name, v in arrays.items()}
        self._bind(np.concatenate([v.ravel() for v in arrays.values()] or [np.zeros(0)]),
                   {name: v.shape for name, v in arrays.items()})

    def _bind(self, flat: np.ndarray, shapes: Mapping[str, tuple[int, ...]]) -> None:
        self.flat, self._views, offset = flat, {}, 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self._views[name] = flat[offset:offset + size].reshape(shape)
            offset += size

    def _with_flat(self, flat: np.ndarray) -> "Parameters":
        """The same names and shapes as views into ``flat``."""
        out = Parameters.__new__(Parameters)
        out._bind(flat, {name: v.shape for name, v in self._views.items()})
        return out

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, value) -> None:
        view = self._views[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != view.shape:
            raise ValueError(f"parameter {name!r}: shape {value.shape} "
                             f"does not match {view.shape}")
        view[...] = value

    def __iter__(self) -> Iterator[str]:
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    def names(self) -> list[str]:
        return list(self._views)

    def count(self) -> int:
        return self.flat.size

    def copy(self) -> "Parameters":
        return self._with_flat(self.flat.copy())

    def zeros_like(self) -> "Parameters":
        return self._with_flat(np.zeros(self.flat.size))


@dataclass(frozen=True)
class RowSparse:
    """The gradient of an ``(n, k)`` table that is zero outside ``rows``:
    the sorted distinct rows a batch touched and their sums ``values
    (len(rows), k)``."""

    rows: np.ndarray
    values: np.ndarray
    n: int

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.values.shape[1]))
        out[self.rows] = self.values
        return out


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def parameter_shapes(config: ModelConfig, n: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter for ``n`` features, in the order
    ``init_parameters`` creates them."""
    k, h = config.k, config.h
    shapes: dict[str, tuple[int, ...]] = {"embed.V": (n, k), "wide.w": (n,), "wide.b": ()}
    if config.uses_attention():
        for name in ("F1", "F2", "F3"):
            shapes[f"attn.{name}.W"] = (k, k)
            shapes[f"attn.{name}.b"] = (k,)
        for direction in ("fwd", "bwd"):
            for gate in GATES:
                shapes[f"lstm.{direction}.W{gate}"] = (h, k)
                shapes[f"lstm.{direction}.U{gate}"] = (h, h)
                shapes[f"lstm.{direction}.b{gate}"] = (h,)
    widths = (config.mlp_input_width(),) + tuple(config.mlp_widths)
    for i in range(len(config.mlp_widths)):
        shapes[f"mlp.{i}.W"] = (widths[i + 1], widths[i])
        shapes[f"mlp.{i}.b"] = (widths[i + 1],)
    return shapes


def init_parameters(config: ModelConfig, n: int, seed: int) -> Parameters:
    """Fresh parameters: embeddings N(0, 0.01^2), affine weights
    uniform +-sqrt(6/(fan_in+fan_out)), LSTM forget bias 1, other biases
    and the wide term zeros."""
    config.validate()
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(config, n).items():
        if name == "embed.V":
            arrays[name] = rng.normal(0.0, 0.01, size=shape)
        elif len(shape) == 2:
            arrays[name] = _glorot(rng, *shape)
        elif name.startswith("lstm.") and name.endswith(".bf"):
            arrays[name] = np.ones(shape)
        else:
            arrays[name] = np.zeros(shape)
    return Parameters(arrays)


def random_parameters(config: ModelConfig, n: int, seed: int,
                      scale: float = 0.5) -> Parameters:
    """Uniform(-scale, scale) draw of every tensor, for gradient checks.

    The training init puts ReLU pre-activations within the central
    difference step of the kink (embeddings are tiny, biases zero), where
    numeric derivatives are meaningless; an O(1) draw keeps the model away
    from non-differentiable points.
    """
    template = init_parameters(config, n, seed)
    rng = np.random.default_rng(seed)
    return Parameters({name: rng.uniform(-scale, scale, size=v.shape)
                       for name, v in template.items()})


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    # two-branch form avoids exp overflow warnings for large |x|
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_OPEN_LO = np.nextafter(0.0, 1.0)
_OPEN_HI = np.nextafter(1.0, 0.0)


def probabilities(logits: np.ndarray) -> np.ndarray:
    """Sigmoid of each logit, clamped to the nearest representable values
    inside (0, 1)."""
    return np.clip(sigmoid_values(logits), _OPEN_LO, _OPEN_HI)


# ---------------------------------------------------------------------------
# the batched engine

# Windows per scoring chunk. The last chunk is padded with empty windows to
# this row count, because BLAS may round a matrix row differently when the
# number of rows changes; at a fixed row count a window's score depends on
# neither its batchmates nor its position.
SCORE_ROWS = 64
# Store rows per event-level block while scoring, padded with the empty row 0
# by the same rule, and windows per scoring span (a whole number of chunks),
# which bounds the event-level values held at once.
EVENT_ROWS = 256
SPAN_WINDOWS = 16 * SCORE_ROWS
# Cells of the largest array of one scoring stack, the BiLSTM input
# projection C x (T - 1) x SCORE_ROWS x 4h: a span's chunks are scored C at
# a time, as many as fit and at least one. One chunk at the paper's shape
# (h = 64, t_max = 10) takes 147k cells, so that shape stacks one chunk and
# holds no more at once than chunk-by-chunk scoring did.
STACK_CELLS = 1 << 17


@dataclass(frozen=True)
class Batch:
    idx: np.ndarray    # (B, T, F) feature indices, 0 where padded
    val: np.ndarray    # (B, T, F) feature values, 0 where padded
    q: np.ndarray      # (B, T) bool, True on real slots
    label: np.ndarray  # (B,) 0.0 / 1.0


def gather(store: EventStore, windows, rows: int | None = None) -> Batch:
    """The windows at positions ``windows`` of ``store`` as padded arrays,
    as wide as their widest event: one gather of event rows. With
    ``rows``, empty windows (every slot the empty row 0, no real slot) fill
    the batch up to that count."""
    n = len(windows)
    refs = np.zeros((n if rows is None else rows, store.t_max), dtype=np.intp)
    refs[:n] = store.rows[windows]
    width = int(store.count[refs].max(initial=0))
    label = np.zeros(len(refs))
    label[:n] = store.label[windows]
    return Batch(store.idx[refs, :width].astype(np.intp), store.val[refs, :width],
                 refs > 0, label)


# ---------------------------------------------------------------------------
# layers: each forward returns its output and what its backward needs


def _fm_pool(u: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """0.5 * ((sum u)^2 - sum u^2) over ``axis``, and the sum itself."""
    total = u.sum(axis=axis)
    return 0.5 * (total * total - (u * u).sum(axis=axis)), total


def _self_importance(events: np.ndarray, params: Parameters, k: int):
    """Self-importance terms of event vectors ``events (..., k)``: with
    ``z = events @ W_cat.T + b_cat`` taken as one product over all rows,
    the logit ``f1 . f2 / sqrt(k)`` and the ReLU projection ``max(f3, 0)``
    of each event."""
    shape = events.shape[:-1]
    w_cat = np.concatenate([params[f"attn.{n}.W"] for n in ("F1", "F2", "F3")])
    b_cat = np.concatenate([params[f"attn.{n}.b"] for n in ("F1", "F2", "F3")])
    flat = events.reshape(-1, k)
    z = (flat @ w_cat.T + b_cat).reshape(*shape, 3 * k)
    f1, f2, z3 = z[..., :k], z[..., k:2 * k], z[..., 2 * k:]
    scale = 1.0 / math.sqrt(k)
    logits = (f1 * f2).sum(axis=-1) * scale
    proj = np.maximum(z3, 0.0)
    return logits, proj, (flat, w_cat, f1, f2, z3, proj, scale)


def _attend(logits: np.ndarray, proj: np.ndarray, mask: np.ndarray):
    """The softmax of the history slots' logits ``(..., Th)`` over the real
    slots only, and the weighted sum of their projections ``(..., Th, k)``."""
    masked = np.where(mask, logits, -np.inf)
    top = masked.max(axis=-1, keepdims=True, initial=-np.inf)
    ex = np.exp(masked - np.where(np.isfinite(top), top, 0.0))
    den = ex.sum(axis=-1, keepdims=True)
    weights = ex / np.where(den > 0, den, 1.0)
    return (weights[..., None] * proj).sum(axis=-2), weights


def _attention_backward(ds: np.ndarray, weights: np.ndarray, cache,
                        grads: dict) -> np.ndarray:
    flat, w_cat, f1, f2, z3, proj, scale = cache
    B, Th, k = f1.shape
    dw = (proj * ds[:, None, :]).sum(axis=-1)
    dlogits = weights * (dw - (dw * weights).sum(axis=1, keepdims=True))
    dz = np.concatenate([
        dlogits[..., None] * f2 * scale,
        dlogits[..., None] * f1 * scale,
        (weights[..., None] * ds[:, None, :]) * (z3 > 0),
    ], axis=-1).reshape(B * Th, 3 * k)
    dw_cat = dz.T @ flat
    db_cat = dz.sum(axis=0)
    for j, n in enumerate(("F1", "F2", "F3")):
        grads[f"attn.{n}.W"] = dw_cat[j * k:(j + 1) * k]
        grads[f"attn.{n}.b"] = db_cat[j * k:(j + 1) * k]
    return (dz @ w_cat).reshape(B, Th, k)


def _lstm(x: np.ndarray, mask: np.ndarray, params: Parameters,
          direction: str, h: int, live: range):
    """One direction over time-major steps ``x (S, B, k)``; a step whose
    ``mask (S, B)`` is False keeps the previous state. Only the steps in
    ``live`` run: the others are padded in every row, so the state is zero
    before them and carried through after them."""
    S, B, k = x.shape
    w = np.concatenate([params[f"lstm.{direction}.W{g}"] for g in GATES])
    u = np.concatenate([params[f"lstm.{direction}.U{g}"] for g in GATES])
    b = np.concatenate([params[f"lstm.{direction}.b{g}"] for g in GATES])
    # every step is projected, so the product's shape is the batch's alone
    xw = (x.reshape(S * B, k) @ w.T).reshape(S, B, 4 * h)
    # all four gates by one tanh: sigmoid(z) = 0.5 * tanh(z / 2) + 0.5
    half = np.full(4 * h, 0.5)
    half[2 * h:3 * h] = 1.0
    shift = 1.0 - half
    hidden = np.zeros((B, h))
    cell = np.zeros((B, h))
    acts = np.empty((S, B, 4 * h))
    cells_prev = np.zeros((S, B, h))
    tanh_cells = np.empty((S, B, h))
    hiddens_prev = np.zeros((S, B, h))
    for s in live:
        a = acts[s]
        np.tanh((xw[s] + hidden @ u.T + b) * half, out=a)
        a *= half
        a += shift
        i, f, g, o = (a[:, j * h:(j + 1) * h] for j in range(4))
        new_cell = f * cell + i * g
        tc = np.tanh(new_cell)
        cells_prev[s] = cell
        hiddens_prev[s] = hidden
        tanh_cells[s] = tc
        m = mask[s][:, None]
        cell = np.where(m, new_cell, cell)
        hidden = np.where(m, o * tc, hidden)
    return hidden, (x, mask, w, u, acts, cells_prev, tanh_cells, hiddens_prev, live)


def _bilstm(history: np.ndarray, mask: np.ndarray, params: Parameters, h: int):
    """The sum of both directions' final states over a batch's history
    ``(B, T - 1, k)``, and the caches of :func:`_lstm_backward`. A padded step
    keeps the state, so steps padded in every window leave it zero: both
    directions run from the first slot any window fills."""
    T1 = history.shape[1]
    filled = np.flatnonzero(mask.any(axis=0))
    s0 = filled[0] if len(filled) else T1
    steps, step_mask = history.transpose(1, 0, 2), mask.T
    h_fwd, fwd = _lstm(steps, step_mask, params, "fwd", h, range(s0, T1))
    h_bwd, bwd = _lstm(steps[::-1], step_mask[::-1], params, "bwd", h, range(T1 - s0))
    return h_fwd + h_bwd, {"fwd": fwd, "bwd": bwd}


def _lstm_final(x: np.ndarray, mask: np.ndarray, live: list[int],
                params: Parameters, direction: str, h: int) -> np.ndarray:
    """The final state ``(C, R, h)`` of one direction over a stack of C
    chunks' time-major steps ``x (C, S, R, k)``, keeping nothing for a
    backward pass. At step ``s`` only the first ``live[s]`` chunks run; the
    others are padded in every row there, so their state is zero or carried.

    Each chunk's input projection is one ``S * R``-row product and its
    recurrent product one ``R``-row product, as in :func:`_lstm`, and the
    gates take :func:`_lstm`'s operations in its order, so every chunk's
    state is :func:`_lstm`'s to the bit."""
    C, S, R, k = x.shape
    w = np.concatenate([params[f"lstm.{direction}.W{g}"] for g in GATES])
    u = np.concatenate([params[f"lstm.{direction}.U{g}"] for g in GATES])
    b = np.concatenate([params[f"lstm.{direction}.b{g}"] for g in GATES])
    xw = (x.reshape(C, S * R, k) @ w.T).reshape(C, S, R, 4 * h)
    half = np.full(4 * h, 0.5)
    half[2 * h:3 * h] = 1.0
    shift = 1.0 - half
    hidden = np.zeros((C, R, h))
    cell = np.zeros((C, R, h))
    gates = np.empty((C, R, 4 * h))
    for s, n in enumerate(live):
        if not n:
            continue
        a = gates[:n]
        np.matmul(hidden[:n], u.T, out=a)
        np.add(xw[:n, s], a, out=a)
        a += b
        a *= half
        np.tanh(a, out=a)
        a *= half
        a += shift
        i, f, g, o = (a[..., j * h:(j + 1) * h] for j in range(4))
        new_cell = f * cell[:n]
        new_cell += i * g
        m = mask[:n, s, :, None]
        hidden[:n] = np.where(m, o * np.tanh(new_cell), hidden[:n])
        cell[:n] = np.where(m, new_cell, cell[:n])
    return hidden


def _stacked_bilstm(history: np.ndarray, mask: np.ndarray, params: Parameters,
                    h: int):
    """:func:`_bilstm` over a stack of chunks' history ``(C, R, T - 1, k)``,
    each chunk a batch of its own, keeping no caches. A chunk starts at the
    first slot one of its windows fills, and at each slot the stack runs its
    chunks up to the last one started by then. Ordered longest history
    first, chunks start in stack order, so that prefix holds just the chunks
    that have started (forward) or not yet finished (backward)."""
    C = len(history)
    started = np.logical_or.accumulate(mask.any(axis=1), axis=1)  # (C, T - 1)
    live = (started * np.arange(1, C + 1)[:, None]).max(axis=0, initial=0).tolist()
    steps, step_mask = history.transpose(0, 2, 1, 3), mask.transpose(0, 2, 1)
    h_fwd = _lstm_final(steps, step_mask, live, params, "fwd", h)
    h_bwd = _lstm_final(steps[:, ::-1], step_mask[:, ::-1], live[::-1], params, "bwd", h)
    return h_fwd + h_bwd, {}


def _lstm_backward(dh: np.ndarray, cache, direction: str, h: int,
                   grads: dict) -> np.ndarray:
    """Backpropagation through time from the final hidden state's gradient
    ``dh``; returns the gradient of the inputs ``x``. The steps that did
    not run pass ``dh`` through and add zero rows to the products."""
    x, mask, w, u, acts, cells_prev, tanh_cells, hiddens_prev, live = cache
    S, B, k = x.shape
    dc = np.zeros((B, h))
    dpre = np.zeros((S, B, 4 * h))
    for s in reversed(live):
        m = mask[s][:, None]
        i, f, g, o = (acts[s, :, j * h:(j + 1) * h] for j in range(4))
        tc = tanh_cells[s]
        dh_new = np.where(m, dh, 0.0)
        dc_new = np.where(m, dc, 0.0) + dh_new * o * (1.0 - tc * tc)
        d = dpre[s]
        d[:, :h] = dc_new * g * i * (1.0 - i)
        d[:, h:2 * h] = dc_new * cells_prev[s] * f * (1.0 - f)
        d[:, 2 * h:3 * h] = dc_new * i * (1.0 - g * g)
        d[:, 3 * h:] = dh_new * tc * o * (1.0 - o)
        dc = np.where(m, dc_new * f, dc)
        dh = np.where(m, d @ u, dh)
    flat = dpre.reshape(S * B, 4 * h)
    dw = flat.T @ x.reshape(S * B, k)
    du = flat.T @ hiddens_prev.reshape(S * B, h)
    db = flat.sum(axis=0)
    for j, gate in enumerate(GATES):
        rows = slice(j * h, (j + 1) * h)
        grads[f"lstm.{direction}.W{gate}"] = dw[rows]
        grads[f"lstm.{direction}.U{gate}"] = du[rows]
        grads[f"lstm.{direction}.b{gate}"] = db[rows]
    return (flat @ w).reshape(S, B, k)


def _mlp(x: np.ndarray, params: Parameters, n_layers: int):
    inputs, pre = [], []
    for i in range(n_layers):
        inputs.append(x)
        z = x @ params[f"mlp.{i}.W"].T + params[f"mlp.{i}.b"]
        pre.append(z)
        x = np.maximum(z, 0.0) if i + 1 < n_layers else z
    return x[..., 0], (inputs, pre)


def _mlp_backward(dout: np.ndarray, cache, params: Parameters,
                  grads: dict) -> np.ndarray:
    inputs, pre = cache
    dz = dout[:, None]
    for i in range(len(inputs) - 1, -1, -1):
        if i + 1 < len(inputs):
            dz = dz * (pre[i] > 0)
        grads[f"mlp.{i}.W"] = dz.T @ inputs[i]
        grads[f"mlp.{i}.b"] = dz.sum(axis=0)
        dz = dz @ params[f"mlp.{i}.W"]
    return dz


# ---------------------------------------------------------------------------
# the whole model


def _event_rows(idx: np.ndarray, val: np.ndarray, params: Parameters):
    """The event level for events ``idx (..., F)``, ``val (..., F)``: each
    event's FM-pooled vector ``(..., k)`` and wide term ``(...)``, and the
    embedded entries ``u`` and their sum, which the backward pass reads."""
    u = params["embed.V"][idx]                                    # (..., F, k)
    u *= val[..., None]
    events, sums = _fm_pool(u, axis=-2)
    # each event adds its entries in order, so padded entries add exact
    # zeros last and the wide term does not depend on the width F
    terms = params["wide.w"][idx] * val
    wide = np.zeros(idx.shape[:-1])
    for f in range(idx.shape[-1]):
        wide += terms[..., f]
    return events, wide, u, sums


def _window_level(events: np.ndarray, wide: np.ndarray, q: np.ndarray,
                  att, params: Parameters, config: ModelConfig, bilstm=_bilstm):
    """Logits ``(...)`` and the caches of the window level, from the event
    level read per slot: ``events (..., T, k)``, ``wide (..., T)``, real-slot
    flags ``q (..., T)`` and, with attention, ``att``: the history slots'
    self-importance logits ``(..., T - 1)`` and projections ``(..., T - 1, k)``.
    The leading axes are a batch ``(B,)`` with :func:`_bilstm` or a stack of
    chunks ``(C, R)`` with :func:`_stacked_bilstm`; every product and sum
    takes the same rows in the same order either way."""
    history, mask = events[..., :-1, :], q[..., :-1]
    parts, cache = [], {"events": events}
    if config.uses_alpha_branch():
        s_alpha, cache["history_sum"] = _fm_pool(history * mask[..., None], axis=-2)
        parts.append(s_alpha)
    if config.uses_attention():
        s_self, cache["att_weights"] = _attend(*att, mask)
        s_rnn, rnn_cache = bilstm(history, mask, params, config.h)
        parts += [s_self, s_rnn]
        cache |= rnn_cache
    parts.append(events[..., -1, :])

    s = np.concatenate(parts, axis=-1)
    mlp_out, cache["mlp"] = _mlp(s, params, len(config.mlp_widths))
    return mlp_out + (wide.sum(axis=-1) + params["wide.b"]), cache


def _forward(batch: Batch, params: Parameters, config: ModelConfig):
    """Logits ``(B,)`` and the caches of every layer: the window level over
    the event level of the batch's own slots, each slot its own event."""
    events, wide, u, sums = _event_rows(batch.idx, batch.val, params)
    att, cache = None, {"u": u, "event_sums": sums}
    if config.uses_attention():
        # on the history slots alone, the rows the attention backward takes
        att_logits, proj, cache["attention"] = _self_importance(
            events[:, :-1], params, config.k)
        att = (att_logits, proj)
    logit, window_cache = _window_level(events, wide, batch.q, att, params, config)
    return logit, cache | window_cache


def logits(batch: Batch, params: Parameters, config: ModelConfig) -> np.ndarray:
    return _forward(batch, params, config)[0]


def _scatter_rows(idx: np.ndarray, terms: np.ndarray, n: int) -> RowSparse:
    """The sum of ``terms (..., k)`` into rows ``idx (...)`` of an ``(n, k)``
    table, kept as the touched rows only. One bincount over the touched
    rows' cells sums each cell's terms in input order, as np.add.at does,
    in less than half its time, so each row equals its dense sum."""
    k = terms.shape[-1]
    idx = idx.reshape(-1)
    touched = np.zeros(n, dtype=bool)
    touched[idx] = True
    rows = np.flatnonzero(touched)
    cells = (np.searchsorted(rows, idx)[:, None] * k + np.arange(k)).reshape(-1)
    values = np.bincount(cells, weights=terms.reshape(-1), minlength=len(rows) * k)
    return RowSparse(rows, values.reshape(-1, k), n)


def loss_and_grads(batch: Batch, params: Parameters, config: ModelConfig,
                   pos_weight: float = 1.0) -> tuple[float, dict]:
    """Mean weighted NLL over the batch and its gradient for every
    parameter: ``embed.V``'s as a :class:`RowSparse` of the rows the batch
    touched, every other one a dense array."""
    k, h = config.k, config.h
    B, T, F = batch.idx.shape
    logit, cache = _forward(batch, params, config)
    y = batch.label
    weight = np.where(y == 1, pos_weight, 1.0)
    loss = float((weight * (np.logaddexp(0.0, logit) - y * logit)).sum()) / B
    dlogit = weight * (sigmoid_values(logit) - y) / B

    grads: dict[str, np.ndarray] = {}
    ds = _mlp_backward(dlogit, cache["mlp"], params, grads)
    devents = np.zeros((B, T, k))
    devents[:, -1] = ds[:, -k:]
    dhistory = devents[:, :-1]
    mask = batch.q[:, :-1]
    col = 0
    if config.uses_alpha_branch():
        history = cache["events"][:, :-1]
        dhistory += (mask[..., None] * ds[:, None, :k]
                     * (cache["history_sum"][:, None, :] - history))
        col = k
    if config.uses_attention():
        dhistory += _attention_backward(ds[:, col:col + k], cache["att_weights"],
                                        cache["attention"], grads)
        d_rnn = ds[:, col + k:col + k + h]
        dsteps = _lstm_backward(d_rnn, cache["fwd"], "fwd", h, grads)
        dsteps += _lstm_backward(d_rnn, cache["bwd"], "bwd", h, grads)[::-1]
        dhistory += dsteps.transpose(1, 0, 2)

    # d/du of the in-event pool, times each entry's value, in place
    dv = cache["event_sums"][:, :, None, :] - cache["u"]
    dv *= devents[:, :, None, :]
    dv *= batch.val[..., None]
    n = params["wide.w"].shape[0]
    grads["embed.V"] = _scatter_rows(batch.idx, dv, n)
    flat_idx = batch.idx.reshape(-1)
    dw = (dlogit[:, None, None] * batch.val).reshape(-1)
    grads["wide.w"] = np.bincount(flat_idx, weights=dw, minlength=n)
    grads["wide.b"] = np.asarray(dlogit.sum())
    return loss, grads


def _event_level(store: EventStore, rows: np.ndarray, params: Parameters,
                 config: ModelConfig):
    """The event level of the store rows ``rows``, ``EVENT_ROWS`` at a time,
    the last block padded with the empty row 0: each row's pooled vector and
    wide term and, with attention, its self-importance logit and projection
    (``None`` without)."""
    k, n = config.k, len(rows)
    blocks = np.zeros(-(-n // EVENT_ROWS) * EVENT_ROWS, dtype=np.intp)
    blocks[:n] = rows
    events, wide = np.empty((len(blocks), k)), np.empty(len(blocks))
    att = None
    if config.uses_attention():
        att = (np.empty(len(blocks)), np.empty((len(blocks), k)))
    for lo in range(0, len(blocks), EVENT_ROWS):
        block, at = blocks[lo:lo + EVENT_ROWS], slice(lo, lo + EVENT_ROWS)
        width = int(store.count[block].max(initial=0))
        events[at], wide[at], _, _ = _event_rows(
            store.idx[block, :width].astype(np.intp), store.val[block, :width], params)
        if att is not None:
            att[0][at], att[1][at], _ = _self_importance(events[at], params, k)
    return events, wide, att


def scores(store: EventStore, params: Parameters, config: ModelConfig) -> np.ndarray:
    """Clamped probabilities for every window, in chunks of ``SCORE_ROWS``.

    The windows are chunked in order of their real history slots, longest
    first (a stable sort), so a chunk's windows share their left padding
    and its BiLSTM skips the slots that none of them fills. The order is
    walked in spans of ``SPAN_WINDOWS`` windows: the event level runs once
    on each distinct row a span references (row 0 first). The span's chunk
    references form one ``(C, SCORE_ROWS, T)`` array, the last chunk padded
    with empty windows, and the window level runs on stacks of as many
    chunks as ``STACK_CELLS`` allows, each chunk a batch of its own. At each
    step the BiLSTM runs only the prefix of the stack whose chunks fill that
    slot or an earlier one. Each score is written back to its window's
    position; a score depends on neither its batchmates nor its position,
    so the order changes no bit of it.
    """
    T = store.t_max
    stack = max(1, STACK_CELLS // (max(T - 1, 1) * SCORE_ROWS * 4 * config.h))
    order = np.argsort(-np.count_nonzero(store.rows[:, :-1], axis=1), kind="stable")
    out = np.empty(len(store))
    for start in range(0, len(store), SPAN_WINDOWS):
        span = order[start:start + SPAN_WINDOWS]
        # the distinct rows, row 0 first; by a sort, as np.unique imports numpy.ma
        rows = np.sort(np.append(0, store.rows[span]))
        rows = rows[np.append(True, rows[1:] != rows[:-1])]
        events, wide, att = _event_level(store, rows, params, config)
        refs = np.zeros((-(-len(span) // SCORE_ROWS) * SCORE_ROWS, T), dtype=np.intp)
        refs[:len(span)] = np.searchsorted(rows, store.rows[span])  # 0 on padded slots
        refs = refs.reshape(-1, SCORE_ROWS, T)
        logit = np.empty(refs.shape[:2])
        for lo in range(0, len(refs), stack):
            r = refs[lo:lo + stack]
            history = r[..., :-1]
            logit[lo:lo + stack] = _window_level(
                events[r], wide[r], r > 0,
                None if att is None else (att[0][history], att[1][history]),
                params, config, _stacked_bilstm)[0]
        out[span] = logit.reshape(-1)[:len(span)]
    return probabilities(out)


@dataclass
class ForwardCache:
    """What one window's forward pass gives its callers. ``att_weights``
    is aligned with ``history_slots``; it is ``None`` without attention
    or without history."""

    logit: float
    y_hat: float
    history_slots: list[int]
    att_weights: np.ndarray | None


def window_forward(store: EventStore, window: int, params: Parameters,
                   config: ModelConfig) -> ForwardCache:
    """Run the engine on the window at position ``window`` of ``store``, as
    a batch of one.

    The probability is clamped to the nearest representable values inside
    (0, 1); the loss is taken from the logit, never from it.
    """
    logit, cache = _forward(gather(store, [window]), params, config)
    slots = np.flatnonzero(store.rows[window, :-1]).tolist()
    weights = None
    if config.uses_attention() and slots:
        weights = cache["att_weights"][0, slots]
    return ForwardCache(float(logit[0]), float(probabilities(logit)[0]),
                        slots, weights)


def forward(seq: EventSequence, params: Parameters, config: ModelConfig) -> ForwardCache:
    """:func:`window_forward` on ``seq`` alone."""
    return window_forward(EventStore.of([seq]), 0, params, config)

"""Per-window tape: the reference the batched engine is tested against.

Not part of the library. The batched engine in ``nhfm.model`` trains and
scores; this module keeps an independent, op-by-op implementation of the
same model so the tests can compare the batched logits, loss and
gradients with it.

Tensors are C-contiguous ``numpy`` float64 arrays. A :class:`Tape` records
every operation as an append-only node list; node ids are topologically
ordered by construction, so :func:`backward` can walk the list once in
strict reverse insertion order. All operations are pure functions of their
inputs; a tape belongs to one logical thread.

Supported shapes are scalars ``()``, vectors ``(m,)`` and matrices
``(m, k)``. There is no broadcasting except scalar-with-tensor (``add``,
``sub``, ``smul``), which keeps shape bugs loud.

The model half mirrors the paper's two levels one window at a time: each
event is embedded and pooled by its in-event FM interaction, and the real
history events feed the sequence pool (``alpha``), self-importance
attention plus a BiLSTM (``beta``), or both (``full``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from nhfm.autodiff import finite_diff_errors
from nhfm.data import Event, EventSequence
from nhfm.model import ModelConfig, Parameters, probabilities, sigmoid_values

Array = np.ndarray


def as_tensor(x) -> Array:
    """Coerce to a C-contiguous float64 array (0-d stays 0-d)."""
    arr = np.asarray(x, dtype=np.float64)
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


class Node:
    """One recorded operation: kind, input node ids, forward value.

    ``vjp`` maps the upstream gradient to one gradient per input (``None``
    for inputs that receive nothing); leaves have ``vjp = None``. Saved
    forward values live in the closure.
    """

    __slots__ = ("op", "inputs", "value", "vjp")

    def __init__(self, op: str, inputs: tuple[int, ...], value: Array,
                 vjp: Callable[[Array], tuple] | None):
        self.op = op
        self.inputs = inputs
        self.value = value
        self.vjp = vjp


class Var:
    """Handle to a tape node."""

    __slots__ = ("tape", "id")

    def __init__(self, tape: "Tape", node_id: int):
        self.tape = tape
        self.id = node_id

    @property
    def value(self) -> Array:
        return self.tape.nodes[self.id].value

    @property
    def shape(self) -> tuple[int, ...]:
        return self.tape.nodes[self.id].value.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Var(id={self.id}, op={self.tape.nodes[self.id].op}, shape={self.shape})"


class Tape:
    """Append-only record of a forward computation."""

    def __init__(self):
        self.nodes: list[Node] = []

    def _append(self, op: str, inputs: tuple[int, ...], value: Array,
                vjp: Callable[[Array], tuple] | None) -> Var:
        self.nodes.append(Node(op, inputs, value, vjp))
        return Var(self, len(self.nodes) - 1)

    def leaf(self, value, op: str = "leaf") -> Var:
        """Register an input tensor (parameter or constant)."""
        return self._append(op, (), as_tensor(value), None)

    def constant(self, value) -> Var:
        """Register a non-learnable input; gradients reaching it are kept
        on the tape but callers never ask for them."""
        return self.leaf(value, op="const")


def _same_tape(*vs: Var) -> Tape:
    tape = vs[0].tape
    for v in vs[1:]:
        if v.tape is not tape:
            raise ValueError("operands recorded on different tapes")
    return tape


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Var, b: Var) -> Var:
    """Elementwise sum; one operand may be a scalar."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape and av.shape != () and bv.shape != ():
        raise ValueError(f"add: shape mismatch {av.shape} vs {bv.shape}")
    out = av + bv

    def vjp(g: Array):
        ga = g.sum() if av.shape == () and out.shape != () else g
        gb = g.sum() if bv.shape == () and out.shape != () else g
        return np.asarray(ga), np.asarray(gb)

    return tape._append("add", (a.id, b.id), out, vjp)


def sub(a: Var, b: Var) -> Var:
    """Elementwise difference; one operand may be a scalar."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape and av.shape != () and bv.shape != ():
        raise ValueError(f"sub: shape mismatch {av.shape} vs {bv.shape}")
    out = av - bv

    def vjp(g: Array):
        ga = g.sum() if av.shape == () and out.shape != () else g
        gb = g.sum() if bv.shape == () and out.shape != () else g
        return np.asarray(ga), np.asarray(-gb)

    return tape._append("sub", (a.id, b.id), out, vjp)


def scale(a: Var, c: float) -> Var:
    """Multiply by a compile-time constant scalar."""
    c = float(c)
    return a.tape._append("scale", (a.id,), c * a.value, lambda g: (c * g,))


def smul(s: Var, t: Var) -> Var:
    """Scalar variable times tensor variable."""
    tape = _same_tape(s, t)
    if s.value.shape != ():
        raise ValueError(f"smul: first operand must be scalar, got {s.value.shape}")
    sv, tv = s.value, t.value
    out = sv * tv

    def vjp(g: Array):
        return np.asarray((g * tv).sum()), sv * g

    return tape._append("smul", (s.id, t.id), out, vjp)


def hadamard(a: Var, b: Var) -> Var:
    """Elementwise product of identically shaped tensors."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.shape != bv.shape:
        raise ValueError(f"hadamard: shape mismatch {av.shape} vs {bv.shape}")
    return tape._append("hadamard", (a.id, b.id), av * bv,
                        lambda g: (g * bv, g * av))


def matmul(a: Var, b: Var) -> Var:
    """Matrix product: (m,k)@(k,p), (m,k)@(k,) or (k,)@(k,p)."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.ndim == 0 or bv.ndim == 0 or av.ndim > 2 or bv.ndim > 2:
        raise ValueError(f"matmul: unsupported ranks {av.shape} x {bv.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree {av.shape} x {bv.shape}")
    out = av @ bv

    def vjp(g: Array):
        if av.ndim == 2 and bv.ndim == 2:
            return g @ bv.T, av.T @ g
        if av.ndim == 2 and bv.ndim == 1:
            return np.outer(g, bv), av.T @ g
        # (k,) @ (k,p)
        return bv @ g, np.outer(av, g)

    return tape._append("matmul", (a.id, b.id), out, vjp)


def dot(a: Var, b: Var) -> Var:
    """Inner product of two equal-length vectors, yielding a scalar."""
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.ndim != 1 or av.shape != bv.shape:
        raise ValueError(f"dot: need equal-length vectors, got {av.shape} and {bv.shape}")
    return tape._append("dot", (a.id, b.id), np.asarray(av @ bv),
                        lambda g: (g * bv, g * av))


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def square(a: Var) -> Var:
    av = a.value
    return a.tape._append("square", (a.id,), av * av, lambda g: (2.0 * av * g,))


def sigmoid(a: Var) -> Var:
    s = sigmoid_values(a.value)
    return a.tape._append("sigmoid", (a.id,), s, lambda g: (s * (1.0 - s) * g,))


def tanh(a: Var) -> Var:
    t = np.tanh(a.value)
    return a.tape._append("tanh", (a.id,), t, lambda g: ((1.0 - t * t) * g,))


def relu(a: Var) -> Var:
    av = a.value
    return a.tape._append("relu", (a.id,), np.maximum(av, 0.0),
                          lambda g: ((av > 0) * g,))


def softplus(a: Var) -> Var:
    """log(1 + exp(x)), computed without overflow."""
    av = a.value
    return a.tape._append("softplus", (a.id,), np.logaddexp(0.0, av),
                          lambda g: (sigmoid_values(av) * g,))


# ---------------------------------------------------------------------------
# reductions and structure


def sum_axis(a: Var, axis: int | None = None) -> Var:
    """Sum over one axis, or over everything (-> scalar) when axis is None."""
    av = a.value
    if axis is None:
        return a.tape._append("sum", (a.id,), np.asarray(av.sum()),
                              lambda g: (np.full_like(av, float(g)),))
    if not 0 <= axis < av.ndim:
        raise ValueError(f"sum_axis: axis {axis} out of range for shape {av.shape}")
    out = av.sum(axis=axis)

    def vjp(g: Array):
        return (np.broadcast_to(np.expand_dims(g, axis), av.shape).copy(),)

    return a.tape._append("sum_axis", (a.id,), out, vjp)


def softmax(a: Var) -> Var:
    """Stable softmax over a non-empty vector."""
    av = a.value
    if av.ndim != 1 or av.size == 0:
        raise ValueError(f"softmax: need a non-empty vector, got shape {av.shape}")
    e = np.exp(av - av.max())
    s = e / e.sum()

    def vjp(g: Array):
        return (s * (g - float(g @ s)),)

    return a.tape._append("softmax", (a.id,), s, vjp)


def concat(parts: Sequence[Var]) -> Var:
    """Concatenate 1-D vectors."""
    if not parts:
        raise ValueError("concat: empty input")
    tape = _same_tape(*parts)
    vals = [p.value for p in parts]
    for v in vals:
        if v.ndim != 1:
            raise ValueError(f"concat: need 1-D vectors, got shape {v.shape}")
    sizes = [v.shape[0] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def vjp(g: Array):
        return tuple(g[offsets[i]:offsets[i + 1]] for i in range(len(vals)))

    return tape._append("concat", tuple(p.id for p in parts),
                        np.concatenate(vals), vjp)


def stack(parts: Sequence[Var]) -> Var:
    """Stack scalar variables into a vector."""
    if not parts:
        raise ValueError("stack: empty input")
    tape = _same_tape(*parts)
    for p in parts:
        if p.value.shape != ():
            raise ValueError(f"stack: need scalars, got shape {p.value.shape}")
    out = np.array([float(p.value) for p in parts])

    def vjp(g: Array):
        return tuple(np.asarray(g[i]) for i in range(len(parts)))

    return tape._append("stack", tuple(p.id for p in parts), out, vjp)


def pick(a: Var, index: int) -> Var:
    """Select one entry of a vector as a scalar."""
    av = a.value
    if av.ndim != 1:
        raise ValueError(f"pick: need a vector, got shape {av.shape}")
    if not 0 <= index < av.shape[0]:
        raise IndexError(f"pick: index {index} out of range for length {av.shape[0]}")
    out = np.asarray(av[index])

    def vjp(g: Array):
        z = np.zeros_like(av)
        z[index] = g
        return (z,)

    return a.tape._append("pick", (a.id,), out, vjp)


def gather_rows(a: Var, indices: Sequence[int]) -> Var:
    """Select rows by index along axis 0; gradients accumulate additively
    back into the selected rows (an index repeated m times receives m
    upstream contributions)."""
    av = a.value
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows: need a flat index list, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= av.shape[0]):
        raise IndexError(
            f"gather_rows: index out of range for axis of size {av.shape[0]}: "
            f"min={idx.min()}, max={idx.max()}")
    out = np.take(av, idx, axis=0)

    def vjp(g: Array):
        z = np.zeros_like(av)
        np.add.at(z, idx, g)
        return (z,)

    return a.tape._append("gather_rows", (a.id,), out, vjp)


# ---------------------------------------------------------------------------
# reverse pass


def backward(tape: Tape, loss: Var) -> dict[int, Array]:
    """Accumulate d(loss)/d(node) for every node reachable from ``loss``.

    Returns gradients keyed by leaf node id; leaves the loss never reaches
    map to zero arrays. Visits nodes in strict reverse insertion order, so
    two tapes built identically produce bit-identical gradients.
    """
    if loss.tape is not tape:
        raise ValueError("loss was recorded on a different tape")
    if loss.value.shape != ():
        raise ValueError(f"backward: loss must be scalar, got shape {loss.value.shape}")

    grads: list[Array | None] = [None] * len(tape.nodes)
    grads[loss.id] = np.ones(())
    for nid in range(loss.id, -1, -1):
        g = grads[nid]
        node = tape.nodes[nid]
        if g is None or node.vjp is None:
            continue
        for iid, ig in zip(node.inputs, node.vjp(g)):
            if ig is None:
                continue
            if grads[iid] is None:
                grads[iid] = np.zeros_like(tape.nodes[iid].value)
            grads[iid] += ig

    out: dict[int, Array] = {}
    for nid, node in enumerate(tape.nodes):
        if node.vjp is None:
            g = grads[nid]
            out[nid] = g if g is not None else np.zeros_like(node.value)
    return out




def finite_diff_check(f: Callable[[Mapping[str, Array]], float],
                      params: Mapping[str, Array],
                      analytic: Mapping[str, Array],
                      eps: float = 1e-5) -> float:
    """Max relative error between analytic gradients and central differences."""
    report = finite_diff_errors(f, params, analytic, eps=eps)
    return max((err for err, _ in report.values()), default=0.0)


# ---------------------------------------------------------------------------
# the model, one window at a time


@dataclass
class TapeCache:
    """Everything the tape forward computed, and the tape itself.
    Attention arrays are aligned with ``history_slots``."""

    event_vectors: list[np.ndarray | None]   # per slot; None where padded
    s_alpha: np.ndarray | None
    history_slots: list[int]
    att_logits: np.ndarray | None             # length = #real history events
    att_weights: np.ndarray | None
    s_self: np.ndarray | None
    s_rnn: np.ndarray | None
    s_beta: np.ndarray | None
    s: np.ndarray
    wide_value: float
    logit: float
    y_hat: float
    tape: Tape = field(repr=False, default=None)
    logit_var: Var = field(repr=False, default=None)
    param_vars: dict[str, Var] = field(repr=False, default=None)


# ---------------------------------------------------------------------------
# branch computations (each takes tape-level Vars and returns Vars)


def embed_event(tape: Tape, event: Event, v_table: Var, k: int) -> Var | None:
    """Rows x_i * v_i for the event's non-zero features, as an (m, k) Var.

    Only the listed entries are touched, so cost is O(m * k). Returns None
    for an empty event.
    """
    if not event.entries:
        return None
    rows = gather_rows(v_table, event.indices())
    values = np.repeat(np.asarray([v for _, v in event.entries])[:, None], k, axis=1)
    return hadamard(rows, tape.constant(values))


def event_fm(tape: Tape, u_rows: Var | None, k: int) -> Var:
    """Pairwise Hadamard interaction pool over one event's rescaled rows.

    Uses 0.5 * ((sum_i u_i)^2 - sum_i u_i^2), which equals the pairwise
    double sum and is identically zero for fewer than two rows.
    """
    if u_rows is None:
        return tape.constant(np.zeros(k))
    total = sum_axis(u_rows, axis=0)
    sum_of_squares = sum_axis(square(u_rows), axis=0)
    return scale(sub(square(total), sum_of_squares), 0.5)


def sequence_fm(tape: Tape, history_vectors: list[Var], k: int) -> Var:
    """Interaction pool over real history event vectors.

    Masked slots are excluded by the caller, which is equivalent to
    multiplying them by their zero mask. Introduces no parameters.
    """
    if len(history_vectors) < 2:
        return tape.constant(np.zeros(k))
    total = history_vectors[0]
    sum_of_squares = square(history_vectors[0])
    for vec in history_vectors[1:]:
        total = add(total, vec)
        sum_of_squares = add(sum_of_squares, square(vec))
    return scale(sub(square(total), sum_of_squares), 0.5)


def _affine(pv: Mapping[str, Var], prefix: str, x: Var) -> Var:
    return add(matmul(pv[f"{prefix}.W"], x), pv[f"{prefix}.b"])


def self_importance(tape: Tape, history_vectors: list[Var],
                    pv: Mapping[str, Var], k: int) -> tuple[Var, Var, Var]:
    """Scaled dot-product self-importance over real history events.

    Each event's logit is <F1(e), F2(e)> / sqrt(k); softmax runs over real
    events only, so padding can never absorb probability mass. Returns
    (weighted sum of F3(e), logits, weights).
    """
    if not history_vectors:
        raise ValueError("self_importance: no real history events")
    logit_scalars = []
    projected = []
    for e in history_vectors:
        f1 = _affine(pv, "attn.F1", e)
        f2 = _affine(pv, "attn.F2", e)
        logit_scalars.append(scale(dot(f1, f2), 1.0 / math.sqrt(k)))
        projected.append(relu(_affine(pv, "attn.F3", e)))
    logits = stack(logit_scalars)
    weights = softmax(logits)
    s_self = None
    for t, f3 in enumerate(projected):
        term = smul(pick(weights, t), f3)
        s_self = term if s_self is None else add(s_self, term)
    return s_self, logits, weights


def _lstm_direction(tape: Tape, vectors: list[Var], pv: Mapping[str, Var],
                    direction: str, h: int) -> Var:
    hidden = tape.constant(np.zeros(h))
    cell = tape.constant(np.zeros(h))
    for x in vectors:
        def gate(name: str) -> Var:
            pre = add(add(matmul(pv[f"lstm.{direction}.W{name}"], x),
                                matmul(pv[f"lstm.{direction}.U{name}"], hidden)),
                         pv[f"lstm.{direction}.b{name}"])
            return tanh(pre) if name == "g" else sigmoid(pre)

        i_g, f_g, g_g, o_g = gate("i"), gate("f"), gate("g"), gate("o")
        cell = add(hadamard(f_g, cell), hadamard(i_g, g_g))
        hidden = hadamard(o_g, tanh(cell))
    return hidden


def bilstm(tape: Tape, history_vectors: list[Var],
           pv: Mapping[str, Var], h: int) -> Var:
    """Sum of the forward and backward directions' final hidden states over
    real history events; masked slots are skipped so the result does not
    depend on how much padding a sequence carries. Zero history gives the
    zero vector."""
    if not history_vectors:
        return tape.constant(np.zeros(h))
    fwd = _lstm_direction(tape, history_vectors, pv, "fwd", h)
    bwd = _lstm_direction(tape, list(reversed(history_vectors)), pv, "bwd", h)
    return add(fwd, bwd)


def wide_term(tape: Tape, seq: EventSequence, pv: Mapping[str, Var]) -> Var:
    """Linear term over every raw feature of every event (current included)
    plus the bias; padded slots contribute nothing because they are empty."""
    indices: list[int] = []
    values: list[float] = []
    for event in seq.events:
        indices.extend(event.indices())
        values.extend(v for _, v in event.entries)
    bias = pv["wide.b"]
    if not indices:
        return bias
    picked = gather_rows(pv["wide.w"], indices)
    return add(dot(picked, tape.constant(values)), bias)


def _mlp(pv: Mapping[str, Var], x: Var, n_layers: int) -> Var:
    for i in range(n_layers):
        x = add(matmul(pv[f"mlp.{i}.W"], x), pv[f"mlp.{i}.b"])
        if i + 1 < n_layers:
            x = relu(x)
    return sum_axis(x)  # final width is 1


def forward(seq: EventSequence, params: Parameters,
            config: ModelConfig) -> TapeCache:
    """Run the full model on one sequence, recording a tape.

    Zero-history sequences use zero vectors for every history branch. The
    cached probability is clamped to the nearest representable values
    inside (0, 1); the loss is taken from the logit, never from it.
    """
    tape = Tape()
    pv = {name: tape.leaf(arr, op=f"param:{name}") for name, arr in params.items()}
    k, h = config.k, config.h

    slot_vars: list[Var | None] = []
    for t, event in enumerate(seq.events):
        if seq.q[t] == 1:
            slot_vars.append(event_fm(tape, embed_event(tape, event, pv["embed.V"], k), k))
        else:
            slot_vars.append(None)
    e_current = slot_vars[-1]
    history_slots = seq.history_positions()
    history = [slot_vars[t] for t in history_slots]

    s_alpha = sequence_fm(tape, history, k) if config.uses_alpha_branch() else None

    s_self = s_rnn = s_beta = None
    logits = weights = None
    if config.uses_attention():
        if history:
            s_self, logits, weights = self_importance(tape, history, pv, k)
            s_rnn = bilstm(tape, history, pv, h)
        else:
            s_self = tape.constant(np.zeros(k))
            s_rnn = tape.constant(np.zeros(h))
        s_beta = concat([s_self, s_rnn])

    if config.variant == "alpha":
        s = concat([s_alpha, e_current])
    elif config.variant == "beta":
        s = concat([s_beta, e_current])
    else:
        s = concat([s_alpha, s_beta, e_current])

    wide = wide_term(tape, seq, pv)
    logit = add(_mlp(pv, s, len(config.mlp_widths)), wide)
    y_hat = float(probabilities(logit.value.reshape(1))[0])

    return TapeCache(
        event_vectors=[v.value if v is not None else None for v in slot_vars],
        s_alpha=s_alpha.value if s_alpha is not None else None,
        history_slots=history_slots,
        att_logits=logits.value if logits is not None else None,
        att_weights=weights.value if weights is not None else None,
        s_self=s_self.value if s_self is not None else None,
        s_rnn=s_rnn.value if s_rnn is not None else None,
        s_beta=s_beta.value if s_beta is not None else None,
        s=s.value,
        wide_value=float(wide.value),
        logit=float(logit.value),
        y_hat=y_hat,
        tape=tape,
        logit_var=logit,
        param_vars=pv,
    )



def nll_loss_var(logit_var: Var, label: int, weight: float = 1.0) -> Var:
    """Tape-level fused loss softplus(z) - y * z, scaled by ``weight``."""
    loss = sub(softplus(logit_var), scale(logit_var, float(label)))
    return scale(loss, weight) if weight != 1.0 else loss


def example_loss_and_grads(seq: EventSequence, params: Parameters,
                           config: ModelConfig,
                           pos_weight: float = 1.0
                           ) -> tuple[float, dict[str, np.ndarray]]:
    """Forward + backward for one sequence; gradients keyed by parameter name."""
    cache = forward(seq, params, config)
    weight = pos_weight if seq.label == 1 else 1.0
    loss = nll_loss_var(cache.logit_var, seq.label, weight)
    node_grads = backward(cache.tape, loss)
    grads = {name: node_grads[var.id] for name, var in cache.param_vars.items()}
    return float(loss.value), grads

"""Hierarchical FM forward pass: event extractor, sequence extractor, wide
part, and the sigmoid prediction head.

Events are embedded as rescaled rows of one shared table; each event is
summarized by the pairwise Hadamard interaction of its features, computed
with the pooling identity 0.5 * ((sum u)^2 - sum u^2) instead of the
quadratic double sum. History events feed three branches selected by the
variant: a parameter-free interaction pool over history event vectors
(``alpha``), self-importance attention plus a bidirectional LSTM
(``beta``), or both (``full``). The current event's vector always joins
the MLP input, and a linear wide term over all raw features joins the
logit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var
from .data import Event, EventSequence

VARIANTS = ("alpha", "beta", "full")


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


class Parameters:
    """Named learnable arrays in a fixed iteration order."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self._arrays = {name: ad.as_tensor(v) for name, v in arrays.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self._arrays:
            raise KeyError(f"unknown parameter {name!r}")
        if value.shape != self._arrays[name].shape:
            raise ValueError(f"parameter {name!r}: shape {value.shape} "
                             f"does not match {self._arrays[name].shape}")
        self._arrays[name] = ad.as_tensor(value)

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self):
        return self._arrays.items()

    def count(self) -> int:
        return sum(v.size for v in self._arrays.values())

    def copy(self) -> "Parameters":
        return Parameters({n: v.copy() for n, v in self._arrays.items()})

    def assert_finite(self) -> None:
        for name, v in self._arrays.items():
            ad.assert_finite(v, name)

    def equals(self, other: "Parameters") -> bool:
        return (self.names() == other.names()
                and all(np.array_equal(self[n], other[n]) for n in self))


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


def init_parameters(config: ModelConfig, n: int, seed: int) -> Parameters:
    """Fresh parameters: embeddings N(0, 0.01^2), affine weights
    uniform +-sqrt(6/(fan_in+fan_out)), LSTM forget bias 1, wide zeros."""
    config.validate()
    rng = np.random.default_rng(seed)
    k, h = config.k, config.h
    arrays: dict[str, np.ndarray] = {}
    arrays["embed.V"] = rng.normal(0.0, 0.01, size=(n, k))
    arrays["wide.w"] = np.zeros(n)
    arrays["wide.b"] = np.zeros(())
    if config.uses_attention():
        for name in ("F1", "F2", "F3"):
            arrays[f"attn.{name}.W"] = _glorot(rng, k, k)
            arrays[f"attn.{name}.b"] = np.zeros(k)
        for direction in ("fwd", "bwd"):
            for gate in ("i", "f", "g", "o"):
                arrays[f"lstm.{direction}.W{gate}"] = _glorot(rng, h, k)
                arrays[f"lstm.{direction}.U{gate}"] = _glorot(rng, h, h)
                arrays[f"lstm.{direction}.b{gate}"] = (
                    np.ones(h) if gate == "f" else np.zeros(h))
    widths = (config.mlp_input_width(),) + tuple(config.mlp_widths)
    for i in range(len(config.mlp_widths)):
        arrays[f"mlp.{i}.W"] = _glorot(rng, widths[i + 1], widths[i])
        arrays[f"mlp.{i}.b"] = np.zeros(widths[i + 1])
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


@dataclass
class ForwardCache:
    """Everything the forward pass computed, kept for training and
    explanation. Attention arrays are aligned with ``history_slots``."""

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
    rows = ad.gather_rows(v_table, event.indices())
    values = np.repeat(np.asarray(event.values())[:, None], k, axis=1)
    return ad.hadamard(rows, tape.constant(values))


def event_fm(tape: Tape, u_rows: Var | None, k: int) -> Var:
    """Pairwise Hadamard interaction pool over one event's rescaled rows.

    Uses 0.5 * ((sum_i u_i)^2 - sum_i u_i^2), which equals the pairwise
    double sum and is identically zero for fewer than two rows.
    """
    if u_rows is None:
        return tape.constant(np.zeros(k))
    total = ad.sum_axis(u_rows, axis=0)
    sum_of_squares = ad.sum_axis(ad.square(u_rows), axis=0)
    return ad.scale(ad.sub(ad.square(total), sum_of_squares), 0.5)


def sequence_fm(tape: Tape, history_vectors: list[Var], k: int) -> Var:
    """Interaction pool over real history event vectors.

    Masked slots are excluded by the caller, which is equivalent to
    multiplying them by their zero mask. Introduces no parameters.
    """
    if len(history_vectors) < 2:
        return tape.constant(np.zeros(k))
    total = history_vectors[0]
    sum_of_squares = ad.square(history_vectors[0])
    for vec in history_vectors[1:]:
        total = ad.add(total, vec)
        sum_of_squares = ad.add(sum_of_squares, ad.square(vec))
    return ad.scale(ad.sub(ad.square(total), sum_of_squares), 0.5)


def _affine(pv: Mapping[str, Var], prefix: str, x: Var) -> Var:
    return ad.add(ad.matmul(pv[f"{prefix}.W"], x), pv[f"{prefix}.b"])


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
        logit_scalars.append(ad.scale(ad.dot(f1, f2), 1.0 / math.sqrt(k)))
        projected.append(ad.relu(_affine(pv, "attn.F3", e)))
    logits = ad.stack(logit_scalars)
    weights = ad.softmax(logits)
    s_self = None
    for t, f3 in enumerate(projected):
        term = ad.smul(ad.pick(weights, t), f3)
        s_self = term if s_self is None else ad.add(s_self, term)
    return s_self, logits, weights


def _lstm_direction(tape: Tape, vectors: list[Var], pv: Mapping[str, Var],
                    direction: str, h: int) -> Var:
    hidden = tape.constant(np.zeros(h))
    cell = tape.constant(np.zeros(h))
    for x in vectors:
        def gate(name: str) -> Var:
            pre = ad.add(ad.add(ad.matmul(pv[f"lstm.{direction}.W{name}"], x),
                                ad.matmul(pv[f"lstm.{direction}.U{name}"], hidden)),
                         pv[f"lstm.{direction}.b{name}"])
            return ad.tanh(pre) if name == "g" else ad.sigmoid(pre)

        i_g, f_g, g_g, o_g = gate("i"), gate("f"), gate("g"), gate("o")
        cell = ad.add(ad.hadamard(f_g, cell), ad.hadamard(i_g, g_g))
        hidden = ad.hadamard(o_g, ad.tanh(cell))
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
    return ad.add(fwd, bwd)


def wide_term(tape: Tape, seq: EventSequence, pv: Mapping[str, Var]) -> Var:
    """Linear term over every raw feature of every event (current included)
    plus the bias; padded slots contribute nothing because they are empty."""
    indices: list[int] = []
    values: list[float] = []
    for event in seq.events:
        indices.extend(event.indices())
        values.extend(event.values())
    bias = pv["wide.b"]
    if not indices:
        return bias
    picked = ad.gather_rows(pv["wide.w"], indices)
    return ad.add(ad.dot(picked, tape.constant(values)), bias)


def _mlp(pv: Mapping[str, Var], x: Var, n_layers: int) -> Var:
    for i in range(n_layers):
        x = ad.add(ad.matmul(pv[f"mlp.{i}.W"], x), pv[f"mlp.{i}.b"])
        if i + 1 < n_layers:
            x = ad.relu(x)
    return ad.sum_axis(x)  # final width is 1


_OPEN_LO = np.nextafter(0.0, 1.0)
_OPEN_HI = np.nextafter(1.0, 0.0)


def probabilities(logits: np.ndarray) -> np.ndarray:
    """Sigmoid of each logit, clamped to the nearest representable values
    inside (0, 1)."""
    return np.clip(ad.sigmoid_values(logits), _OPEN_LO, _OPEN_HI)


def forward(seq: EventSequence, params: Parameters,
            config: ModelConfig) -> ForwardCache:
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
        s_beta = ad.concat([s_self, s_rnn])

    if config.variant == "alpha":
        s = ad.concat([s_alpha, e_current])
    elif config.variant == "beta":
        s = ad.concat([s_beta, e_current])
    else:
        s = ad.concat([s_alpha, s_beta, e_current])

    wide = wide_term(tape, seq, pv)
    logit = ad.add(_mlp(pv, s, len(config.mlp_widths)), wide)
    y_hat = float(probabilities(logit.value.reshape(1))[0])

    return ForwardCache(
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


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
logit. :mod:`nhfm.batched` computes all of it; :func:`forward` runs that
engine on a single window.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import EventSequence

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
        self.flat = np.concatenate([v.ravel() for v in arrays.values()] or [np.zeros(0)])
        self._views: dict[str, np.ndarray] = {}
        offset = 0
        for name, v in arrays.items():
            self._views[name] = self.flat[offset:offset + v.size].reshape(v.shape)
            offset += v.size

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
        return Parameters(self)

    def zeros_like(self) -> "Parameters":
        return Parameters({name: np.zeros_like(v) for name, v in self.items()})


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
            for gate in ("i", "f", "g", "o"):
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


_OPEN_LO = np.nextafter(0.0, 1.0)
_OPEN_HI = np.nextafter(1.0, 0.0)


def probabilities(logits: np.ndarray) -> np.ndarray:
    """Sigmoid of each logit, clamped to the nearest representable values
    inside (0, 1)."""
    return np.clip(ad.sigmoid_values(logits), _OPEN_LO, _OPEN_HI)


@dataclass
class ForwardCache:
    """What one window's forward pass gives its callers. ``att_weights``
    is aligned with ``history_slots``; it is ``None`` without attention
    or without history."""

    logit: float
    y_hat: float
    history_slots: list[int]
    att_weights: np.ndarray | None


def forward(seq: EventSequence, params: Parameters,
            config: ModelConfig) -> ForwardCache:
    """Run the batched engine on one window.

    The probability is clamped to the nearest representable values inside
    (0, 1); the loss is taken from the logit, never from it.
    """
    from . import batched  # batched imports this module

    batch = batched.pack([seq], batched.max_entries([seq]))
    logits, cache = batched._forward(batch, params, config)
    slots = seq.history_positions()
    weights = None
    if config.uses_attention() and slots:
        weights = cache["attention"][6][0, slots]  # the softmax weights (B, T-1)
    return ForwardCache(float(logits[0]), float(probabilities(logits)[0]),
                        slots, weights)

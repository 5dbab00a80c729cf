"""Reference forward pass in plain numpy, written apart from ``nhfm.model``
and ``nhfm.autodiff`` so the benchmark can check ``forward`` logits.

It works on the whole padded window with masks instead of skipping padded
slots: both interaction pools use the sum-square identity over masked
event vectors, attention is a softmax with padded history slots set to
-inf, and only the BiLSTM walks the real history events alone.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _fm_pool(rows: np.ndarray) -> np.ndarray:
    """0.5 * ((sum_i r_i)^2 - sum_i r_i^2) over axis 0."""
    total = rows.sum(axis=0)
    return 0.5 * (total * total - (rows * rows).sum(axis=0))


def _lstm(p: Mapping[str, np.ndarray], d: str, xs: np.ndarray, h_dim: int) -> np.ndarray:
    h = np.zeros(h_dim)
    c = np.zeros(h_dim)
    for x in xs:
        pre = {g: p[f"lstm.{d}.W{g}"] @ x + p[f"lstm.{d}.U{g}"] @ h + p[f"lstm.{d}.b{g}"]
               for g in "ifgo"}
        c = _sigmoid(pre["f"]) * c + _sigmoid(pre["i"]) * np.tanh(pre["g"])
        h = _sigmoid(pre["o"]) * np.tanh(c)
    return h


def reference_logit(entries: list[tuple[tuple[int, float], ...]], q: list[int],
                    params: Mapping[str, np.ndarray], variant: str,
                    n_mlp_layers: int) -> float:
    """Logit for one window: ``entries[t]`` holds slot t's (index, value)
    pairs, ``q[t]`` is 1 for a real slot; the last slot is the prediction
    event. ``params`` maps the model's parameter names to arrays."""
    table = params["embed.V"]
    k = table.shape[1]
    t_max = len(q)
    mask = np.asarray(q, dtype=float)

    events = np.zeros((t_max, k))
    for t, slot in enumerate(entries):
        if q[t] and slot:
            idx = np.array([i for i, _ in slot])
            val = np.array([v for _, v in slot])
            events[t] = _fm_pool(table[idx] * val[:, None])
    history, h_mask = events[:-1], mask[:-1]
    parts = []

    if variant in ("alpha", "full"):
        parts.append(_fm_pool(history * h_mask[:, None]))

    if variant in ("beta", "full"):
        h_dim = params["lstm.fwd.bf"].shape[0]
        real = history[h_mask == 1]
        if len(real):
            f1 = history @ params["attn.F1.W"].T + params["attn.F1.b"]
            f2 = history @ params["attn.F2.W"].T + params["attn.F2.b"]
            f3 = np.maximum(history @ params["attn.F3.W"].T + params["attn.F3.b"], 0.0)
            scores = np.where(h_mask == 1, (f1 * f2).sum(axis=1) / math.sqrt(k), -np.inf)
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            parts.append(weights @ f3)
            parts.append(_lstm(params, "fwd", real, h_dim)
                         + _lstm(params, "bwd", real[::-1], h_dim))
        else:
            parts.extend([np.zeros(k), np.zeros(h_dim)])

    x = np.concatenate(parts + [events[-1]])
    for i in range(n_mlp_layers):
        x = params[f"mlp.{i}.W"] @ x + params[f"mlp.{i}.b"]
        if i + 1 < n_mlp_layers:
            x = np.maximum(x, 0.0)

    wide = float(params["wide.b"])
    for t, slot in enumerate(entries):
        if q[t]:
            wide += sum(params["wide.w"][i] * v for i, v in slot)
    return float(x[0]) + wide

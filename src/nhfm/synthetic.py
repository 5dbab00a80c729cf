"""Synthetic fraud-style event streams with a planted cross-event rule.

The label of an event depends on an interaction between the prediction
event and its window history: it fires when the prediction event carries
one trigger token and any history event inside the window carries another.
``rule_strength`` interpolates between pure noise labels (0.0) and the
deterministic rule (1.0); at strength 1 the rule itself is a perfect
scorer, which pins the Bayes-optimal AUC at exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (CATEGORICAL, Column, Columns, Dataset, FeatureSchema,
                   FieldSpec, encode_windows)
from .errors import DataError


@dataclass(frozen=True)
class SynthSpec:
    """Generator shape: fields, vocabulary, stream lengths, and the rule.

    ``plant_rate`` is the per-event probability of forcing the trigger pair
    into the stream, which keeps the positive class from being vanishingly
    rare. Events need at least two fields so their pairwise-interaction
    vectors are non-zero.
    """

    n_users: int = 400
    n_fields: int = 3
    vocab_size: int = 8
    len_min: int = 3
    len_max: int = 12
    t_max: int = 8
    rule_strength: float = 1.0
    plant_rate: float = 0.35
    trigger_field: int = 0
    current_token: int = 0
    history_token: int = 1
    base_rate: float = 0.5

    def validate(self) -> None:
        if self.n_users < 1:
            raise DataError("invalid spec: need at least one user")
        if self.n_fields < 2:
            raise DataError("invalid spec: need >= 2 fields for non-zero event vectors")
        if self.vocab_size < 2:
            raise DataError("invalid spec: vocab_size must be >= 2")
        if not 1 <= self.len_min <= self.len_max:
            raise DataError("invalid spec: bad stream-length range")
        if self.t_max < 2:
            raise DataError("invalid spec: t_max must leave room for history")
        if not 0.0 <= self.rule_strength <= 1.0:
            raise DataError("invalid spec: rule_strength outside [0, 1]")
        if not 0.0 <= self.plant_rate <= 1.0:
            raise DataError("invalid spec: plant_rate outside [0, 1]")
        if not 0 <= self.trigger_field < self.n_fields:
            raise DataError("invalid spec: trigger_field out of range")
        if not (0 <= self.current_token < self.vocab_size
                and 0 <= self.history_token < self.vocab_size):
            raise DataError("invalid spec: trigger tokens outside the vocabulary")


def synth_schema(spec: SynthSpec) -> FeatureSchema:
    """Full-vocabulary schema: fields f0..fF-1, tokens t0..tV-1 each."""
    fields = [
        FieldSpec(f"f{i}", CATEGORICAL,
                  {f"t{j}": j for j in range(spec.vocab_size)})
        for i in range(spec.n_fields)
    ]
    return FeatureSchema(fields)


def _window_start(j: int, t_max: int) -> int:
    return max(0, j - (t_max - 1))


def synth_generate(spec: SynthSpec, seed: int) -> Dataset:
    """Deterministic dataset of windowed sequences for one seed."""
    spec.validate()
    rng = np.random.default_rng(seed)
    schema = synth_schema(spec)
    tf = spec.trigger_field

    blocks, labels = [], []
    for u in range(spec.n_users):
        length = int(rng.integers(spec.len_min, spec.len_max + 1))
        tokens = rng.integers(0, spec.vocab_size, size=(length, spec.n_fields))

        # plant the trigger pair: current event + one window-history event
        for j in range(1, length):
            if rng.random() < spec.plant_rate:
                tokens[j, tf] = spec.current_token
                h = int(rng.integers(_window_start(j, spec.t_max), j))
                tokens[h, tf] = spec.history_token

        for j in range(length):
            fires = (tokens[j, tf] == spec.current_token and any(
                tokens[i, tf] == spec.history_token
                for i in range(_window_start(j, spec.t_max), j)))
            if spec.rule_strength >= 1.0:
                label = int(fires)
            elif rng.random() < spec.rule_strength:
                label = int(fires)
            else:
                label = int(rng.random() < spec.base_rate)
            labels.append(label)
        blocks.append(tokens)

    # token j of every field is f"t{j}", so a token's code is j
    code = np.concatenate(blocks).astype(np.intp)
    names = [f"t{j}" for j in range(spec.vocab_size)]
    user = np.repeat(np.arange(spec.n_users, dtype=np.intp), [len(b) for b in blocks])
    columns = Columns({f"f{k}": Column(code[:, k], names) for k in range(spec.n_fields)},
                      Column(user, [f"u{u}" for u in range(spec.n_users)]),
                      np.array(labels, dtype=np.uint8))
    return Dataset(schema, store=encode_windows(columns, schema, spec.t_max))


def rule_oracle_scores(dataset: Dataset, spec: SynthSpec) -> list[float]:
    """Score every sequence by the rule itself (the Bayes-optimal scorer
    when rule_strength is 1), from the store's arrays: 1.0 where the
    prediction event carries the current trigger token and a real history
    event carries the history trigger token."""
    store = dataset.store
    base = dataset.schema.field_base(f"f{spec.trigger_field}")
    real = np.arange(store.idx.shape[1]) < store.count[:, None]  # row 0, the padding, has none

    def carries(token: int) -> np.ndarray:  # per row
        return ((store.idx == base + token) & real).any(axis=1)

    fires = (carries(spec.current_token)[store.rows[:, -1]]
             & carries(spec.history_token)[store.rows[:, :-1]].any(axis=1))
    return fires.astype(np.float64).tolist()

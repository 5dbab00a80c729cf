"""The per-record schema fit, event encoder and memo window builder that the
columnar path in ``nhfm.data`` replaced, kept as an oracle: one ``Event``
per record, hashed to find a user's equal events, then flattened."""

import math
from itertools import chain

import numpy as np

from nhfm.data import (CATEGORICAL, META_KEYS, NUMERICAL, PADDING_EVENT, Event,
                       EventStore, FeatureSchema, FieldSpec)
from nhfm.errors import DataError


def _number(name, value) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError, OverflowError):
        v = math.nan
    if not math.isfinite(v):
        raise DataError(f"field {name!r}: numerical value {value!r} is not a finite number")
    return v


def fit_schema(records, field_config) -> FeatureSchema:
    fields = {name: FieldSpec(name, kind) for name, kind in field_config.items()}
    for f in fields.values():
        if f.kind not in (CATEGORICAL, NUMERICAL):
            raise DataError(f"field {f.name!r}: unknown kind {f.kind!r}")
    mins, maxs = {}, {}
    count = 0
    for rec in records:
        count += 1
        for key, value in rec.items():
            if key in META_KEYS:
                continue
            spec = fields.get(key)
            if spec is None:
                raise DataError(f"record field {key!r} is missing from the field config")
            if value is None:
                continue
            if spec.kind == CATEGORICAL:
                token = str(value)
                if token not in spec.vocab:
                    spec.vocab[token] = len(spec.vocab)
            else:
                v = _number(key, value)
                mins[key] = v if key not in mins else min(mins[key], v)
                maxs[key] = v if key not in maxs else max(maxs[key], v)
    if count == 0:
        raise DataError("cannot fit a schema on zero records")
    for name, spec in fields.items():
        if spec.kind == NUMERICAL:
            lo = mins.get(name, 0.0)
            spec.stats = (lo, maxs.get(name, lo))
    return FeatureSchema(list(fields.values()))


def encode_event(record, schema) -> Event:
    entries = []
    for f in schema.fields:
        if f.name not in record or record[f.name] is None:
            continue
        value = record[f.name]
        base = schema.field_base(f.name)
        if f.kind == CATEGORICAL:
            entries.append((base + f.vocab.get(str(value), len(f.vocab)), 1.0))
        else:
            lo, hi = f.stats
            v = _number(f.name, value)
            x = 0.0 if hi <= lo else (v - lo) / (hi - lo)
            entries.append((base, min(1.0, max(0.0, x))))
    entries.sort(key=lambda e: e[0])
    return Event(tuple(entries))


def assemble_sequences(user_events, t_max) -> EventStore:
    events = [PADDING_EVENT]
    slot_rows, labels, users, lengths = [], [], [], []
    for user, stream in user_events.items():
        if not stream:
            continue
        memo = {}
        for event, label in stream:
            row = memo.setdefault(event, len(events))
            if row == len(events):
                events.append(event)
            slot_rows.append(row)
            labels.append(int(label))
        users.append(str(user))
        lengths.append(len(stream))
    per_user = np.array(lengths, dtype=np.intp)
    owner = np.repeat(np.arange(len(users)), per_user)
    first = np.repeat(np.cumsum(per_user) - per_user, per_user)
    slots = np.arange(len(slot_rows))[:, None] + np.arange(1 - t_max, 1)
    slot_rows = np.array(slot_rows, dtype=np.int32)
    rows = np.where(slots >= first[:, None], slot_rows[np.maximum(slots, 0)], 0)

    entries = [ev.entries for ev in events]
    count = np.fromiter(map(len, entries), dtype=np.int32, count=len(entries))
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(entries)),
                        dtype=np.float64).reshape(-1, 2)
    present = np.arange(count.max(initial=0)) < count[:, None]
    idx = np.zeros(present.shape, dtype=np.int32)
    val = np.zeros(present.shape)
    idx[present] = pairs[:, 0]
    val[present] = pairs[:, 1]
    return EventStore(idx, val, count, rows.astype(np.int32), np.array(labels, dtype=np.uint8),
                      owner.astype(np.int32), tuple(users))


def encode_records(records, field_config, ratios, t_max, split_counts):
    """The schema and store the per-record path built from records sorted
    by user and time: fit on each user's earliest training fraction, then
    one ``Event`` per record."""
    per_user = {}
    for rec in records:
        per_user.setdefault(str(rec["__user"]), []).append(rec)
    train = []
    for recs in per_user.values():
        train.extend(recs[:split_counts(len(recs), ratios)[0]])
    schema = fit_schema(train, field_config)
    streams = {user: [(encode_event(rec, schema), int(rec["__label"])) for rec in recs]
               for user, recs in per_user.items()}
    return schema, assemble_sequences(streams, t_max)

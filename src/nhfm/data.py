"""Feature schema, sparse event encoding, and sequence assembly.

A raw record is a flat ``{field: value}`` mapping plus the meta keys
``__user``, ``__ts`` and ``__label``. Fitting a schema assigns every
categorical token (plus one out-of-vocabulary slot per field) and every
numerical field a global feature index; encoding turns records into sparse
events; assembly windows each user's chronological events into padded,
right-aligned sequences whose last slot is the prediction event.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import DataError, FormatError

META_KEYS = ("__user", "__ts", "__label")

CATEGORICAL = "categorical"
NUMERICAL = "numerical"


@dataclass
class FieldSpec:
    """One input field: a token vocabulary or fitted (min, max) stats."""

    name: str
    kind: str  # CATEGORICAL or NUMERICAL
    vocab: dict[str, int] = field(default_factory=dict)  # token -> offset, first-seen order
    stats: tuple[float, float] | None = None  # (min, max) for numerical fields

    def width(self) -> int:
        """Number of feature indices this field occupies."""
        return len(self.vocab) + 1 if self.kind == CATEGORICAL else 1


class FeatureSchema:
    """Ordered fields with a bijective feature-index assignment onto 0..n-1."""

    def __init__(self, fields: Sequence[FieldSpec]):
        self.fields = list(fields)
        self._base: dict[str, int] = {}
        offset = 0
        for f in self.fields:
            self._base[f.name] = offset
            offset += f.width()
        self.n = offset

    def field_base(self, name: str) -> int:
        return self._base[name]

    def oov_index(self, name: str) -> int:
        f = self.field_by_name(name)
        if f.kind != CATEGORICAL:
            raise DataError(f"field {name!r} is numerical; it has no OOV slot")
        return self._base[name] + len(f.vocab)

    def field_by_name(self, name: str) -> FieldSpec:
        for f in self.fields:
            if f.name == name:
                return f
        raise DataError(f"unknown field {name!r}")

    def describe_index(self, index: int) -> tuple[str, str | None]:
        """Reverse map: feature index -> (field name, token).

        Token is ``None`` for a numerical field and ``"<OOV>"`` for the
        out-of-vocabulary slot.
        """
        if not 0 <= index < self.n:
            raise DataError(f"feature index {index} outside 0..{self.n - 1}")
        for f in self.fields:
            base = self._base[f.name]
            if base <= index < base + f.width():
                if f.kind == NUMERICAL:
                    return f.name, None
                offset = index - base
                if offset == len(f.vocab):
                    return f.name, "<OOV>"
                for token, toff in f.vocab.items():
                    if toff == offset:
                        return f.name, token
        raise AssertionError("index map is not a bijection")  # pragma: no cover

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """Human-readable schema text (field order, vocab, stats)."""
        payload = {
            "format": "nhfm-schema-v1",
            "fields": [
                {
                    "name": f.name,
                    "kind": f.kind,
                    "vocab": list(f.vocab.keys()) if f.kind == CATEGORICAL else None,
                    "stats": list(f.stats) if f.stats is not None else None,
                }
                for f in self.fields
            ],
        }
        return json.dumps(payload, indent=2, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "FeatureSchema":
        """Parse :meth:`to_json` text; anything else is a ``FormatError``."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FormatError(f"schema is not valid JSON: {exc}") from None
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt != "nhfm-schema-v1":
            raise FormatError(f"unsupported schema format: {fmt!r}")
        try:
            fields = []
            for fj in payload["fields"]:
                vocab = {tok: i for i, tok in enumerate(fj["vocab"])} if fj["vocab"] is not None else {}
                stats = tuple(fj["stats"]) if fj["stats"] is not None else None
                fields.append(FieldSpec(fj["name"], fj["kind"], vocab, stats))
            return cls(fields)
        except (KeyError, TypeError) as exc:
            raise FormatError(f"schema fields are malformed: {exc!r}") from None

    def hash(self) -> bytes:
        """32-byte digest identifying this schema exactly."""
        return hashlib.sha256(self.to_json().encode("utf-8")).digest()


@dataclass(frozen=True)
class Event:
    """Sparse event: (feature index, value) entries, ascending by index.

    Categorical entries carry value 1.0; numerical entries carry the
    normalized value. At most one entry per field.
    """

    entries: tuple[tuple[int, float], ...] = ()

    def indices(self) -> list[int]:
        return [i for i, _ in self.entries]

    def values(self) -> list[float]:
        return [v for _, v in self.entries]


PADDING_EVENT = Event()


@dataclass
class EventSequence:
    """One training example: ``t_max`` slots, right-aligned real events.

    ``q[t] == 1`` iff ``events[t]`` is real; padding is a contiguous left
    prefix and the final slot is always the prediction event.
    """

    events: list[Event]
    q: list[int]
    label: int
    user: str

    @property
    def t_max(self) -> int:
        return len(self.events)

    def history_positions(self) -> list[int]:
        """Slots of real history events (everything real except the last)."""
        return [t for t in range(self.t_max - 1) if self.q[t] == 1]

    def current(self) -> Event:
        return self.events[-1]

    def validate(self) -> None:
        if len(self.q) != len(self.events):
            raise DataError("mask and event list lengths differ")
        if self.q[-1] != 1:
            raise DataError("final slot must hold the prediction event")
        seen_real = False
        for qt in self.q:
            if qt == 1:
                seen_real = True
            elif seen_real:
                raise DataError("padding must be a contiguous left prefix")


@dataclass
class Dataset:
    schema: FeatureSchema
    sequences: list[EventSequence]
    split: str = "all"


# ---------------------------------------------------------------------------
# schema fitting and encoding


def fit_schema(records: Iterable[Mapping], field_config: Mapping[str, str]) -> FeatureSchema:
    """Build vocabularies and numerical stats from training records.

    ``field_config`` maps field name -> kind, in the order indices should
    be assigned; tokens are numbered in first-seen order. Records carrying
    a field absent from the config are rejected.
    """
    fields = {
        name: FieldSpec(name, kind)
        for name, kind in field_config.items()
    }
    for f in fields.values():
        if f.kind not in (CATEGORICAL, NUMERICAL):
            raise DataError(f"field {f.name!r}: unknown kind {f.kind!r}")

    mins: dict[str, float] = {}
    maxs: dict[str, float] = {}
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
                v = float(value)
                mins[key] = v if key not in mins else min(mins[key], v)
                maxs[key] = v if key not in maxs else max(maxs[key], v)
    if count == 0:
        raise DataError("cannot fit a schema on zero records")

    for name, spec in fields.items():
        if spec.kind == NUMERICAL:
            lo = mins.get(name, 0.0)
            hi = maxs.get(name, lo)
            spec.stats = (lo, hi)
    return FeatureSchema(list(fields.values()))


def encode_event(record: Mapping, schema: FeatureSchema) -> Event:
    """Encode one raw record against a fitted schema.

    Unseen categorical tokens land on the field's OOV index with value 1.0;
    numerical values are min-max normalized into [0, 1] and clamped; a
    missing field simply contributes no entry.
    """
    entries: list[tuple[int, float]] = []
    for f in schema.fields:
        if f.name not in record or record[f.name] is None:
            continue
        value = record[f.name]
        base = schema.field_base(f.name)
        if f.kind == CATEGORICAL:
            token = str(value)
            offset = f.vocab.get(token, len(f.vocab))  # unseen -> OOV slot
            entries.append((base + offset, 1.0))
        else:
            lo, hi = f.stats
            x = 0.0 if hi <= lo else (float(value) - lo) / (hi - lo)
            entries.append((base, min(1.0, max(0.0, x))))
    entries.sort(key=lambda e: e[0])
    return Event(tuple(entries))


def decode_event(event: Event, schema: FeatureSchema) -> dict[str, str | float]:
    """Reverse map an encoded event to {field: token-or-value}."""
    out: dict[str, str | float] = {}
    for index, value in event.entries:
        name, token = schema.describe_index(index)
        out[name] = token if token is not None else value
    return out


# ---------------------------------------------------------------------------
# sequence assembly and splitting


def assemble_sequences(user_events: Mapping[str, Sequence[tuple[Event, int]]],
                       t_max: int) -> list[EventSequence]:
    """Slide a window over each user's chronological (event, label) stream.

    Emits exactly one sequence per input event: its prediction slot is that
    event, its history the up-to-``t_max - 1`` preceding events, left-padded
    with masked empty slots when the history is shorter.
    """
    if t_max < 1:
        raise DataError(f"t_max must be >= 1, got {t_max}")
    out: list[EventSequence] = []
    for user, stream in user_events.items():
        for j, (event, label) in enumerate(stream):
            history = [ev for ev, _ in stream[max(0, j - (t_max - 1)):j]]
            pad = t_max - 1 - len(history)
            events = [PADDING_EVENT] * pad + history + [event]
            q = [0] * pad + [1] * (len(history) + 1)
            out.append(EventSequence(events, q, int(label), str(user)))
    return out


def split_counts(m: int, ratios: tuple[float, float, float]) -> tuple[int, int, int]:
    """Per-user (train, valid, test) counts for a user with m sequences.

    Users with fewer than 3 sequences go wholly to train; otherwise every
    non-zero ratio claims at least one sequence. Also used at schema-fit
    time to identify which records belong to the training fraction.
    """
    if m < 3:
        return m, 0, 0
    n_valid = max(1, int(m * ratios[1])) if ratios[1] > 0 else 0
    n_test = max(1, int(m * ratios[2])) if ratios[2] > 0 else 0
    return m - n_valid - n_test, n_valid, n_test


def split(sequences: Sequence[EventSequence],
          ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
          schema: FeatureSchema | None = None) -> tuple[Dataset, Dataset, Dataset]:
    """Per-user chronological split: earliest fraction to train, then valid,
    then test. Nothing in it is random.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios must sum to 1, got {ratios}")
    if not sequences:
        raise DataError("cannot split an empty sequence list")

    by_user: dict[str, list[EventSequence]] = {}
    for s in sequences:
        by_user.setdefault(s.user, []).append(s)

    parts: tuple[list[EventSequence], ...] = ([], [], [])
    for user, seqs in by_user.items():
        n_train, n_valid, _ = split_counts(len(seqs), ratios)
        parts[0].extend(seqs[:n_train])
        parts[1].extend(seqs[n_train:n_train + n_valid])
        parts[2].extend(seqs[n_train + n_valid:])
    tags = ("train", "valid", "test")
    return tuple(Dataset(schema, part, tag) for part, tag in zip(parts, tags))  # type: ignore[return-value]

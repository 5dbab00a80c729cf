"""Feature schema, sparse event encoding, and the event store of windows.

A raw record is a flat ``{field: value}`` mapping plus the meta keys
``__user``, ``__ts`` and ``__label``. Fitting a schema assigns every
categorical token (plus one out-of-vocabulary slot per field) and every
numerical field a global feature index; encoding turns records into sparse
events; assembly windows each user's chronological events into padded,
right-aligned windows whose last slot is the prediction event.

Windows slide over a user's events, so consecutive windows repeat most of
their events. An :class:`EventStore` therefore holds each distinct event
of a user once, as one row of dense arrays, and each window as ``t_max``
row references; training, scoring and the file format work on its
arrays. ``Event`` and ``EventSequence`` objects are a decoded view of the
store, built only when something reads ``Dataset.sequences``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

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
        self._digest: bytes | None = None

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
        """32-byte digest identifying this schema exactly. Like the index
        map, it is worked out once: fields are not changed after
        construction. Every dataset read and checkpoint check asks for it."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.to_json().encode("utf-8")).digest()
        return self._digest


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


@dataclass(frozen=True, eq=False)
class EventStore:
    """Windows as row references into one table of events.

    Each distinct event of a user is one row: its ``count`` entries are
    left-aligned in ``idx`` and ``val``, and the rest of the row holds
    index 0 and value 0, so it adds nothing to the model. Row 0 is the
    empty sentinel that every padded slot references. A window is a row of
    ``rows``: ``t_max`` references, padding (0) as a left prefix and the
    prediction event last.
    """

    idx: np.ndarray     # (E, F) int32 feature indices
    val: np.ndarray     # (E, F) float64 feature values
    count: np.ndarray   # (E,) int32 entries per row; row 0 has none
    rows: np.ndarray    # (W, t_max) int32 row references, 0 on padded slots
    label: np.ndarray   # (W,) uint8
    user: np.ndarray    # (W,) int32 positions in ``users``
    users: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def t_max(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def build(cls, events: Sequence[Event], rows, label, user,
              users: Sequence[str], t_max: int) -> "EventStore":
        """A store over ``events``, whose first is the padding sentinel,
        and windows given as flat row references."""
        entries = [ev.entries for ev in events]
        count = np.fromiter(map(len, entries), dtype=np.int32, count=len(entries))
        pairs = np.fromiter(chain.from_iterable(chain.from_iterable(entries)),
                            dtype=np.float64).reshape(-1, 2)
        if len(pairs) and not 0 <= pairs[:, 0].min() <= pairs[:, 0].max() < 2**31:
            raise DataError("a feature index is outside 0..2^31-1")
        present = np.arange(count.max(initial=0)) < count[:, None]
        idx = np.zeros(present.shape, dtype=np.int32)
        val = np.zeros(present.shape)
        idx[present] = pairs[:, 0]
        val[present] = pairs[:, 1]
        label = np.asarray(label, dtype=np.uint8)
        return cls(idx, val, count,
                   np.asarray(rows, dtype=np.int32).reshape(len(label), t_max),
                   label, np.asarray(user, dtype=np.int32), tuple(users))

    @classmethod
    def of(cls, sequences: Sequence[EventSequence]) -> "EventStore":
        """The store of ``sequences``, which share one t_max; equal events
        of one user become one row."""
        t_max = sequences[0].t_max if sequences else 0
        events: list[Event] = [PADDING_EVENT]
        users: dict[str, int] = {}
        memo: dict[tuple[int, Event], int] = {}
        refs: list[int] = []
        for seq in sequences:
            if seq.t_max != t_max:
                raise DataError(f"mixed t_max in one dataset: {seq.t_max} vs {t_max}")
            u = users.setdefault(seq.user, len(users))
            real = [ev for ev, qt in zip(seq.events, seq.q) if qt == 1]
            refs += [0] * (t_max - len(real))
            for ev in real:
                row = memo.setdefault((u, ev), len(events))
                if row == len(events):
                    events.append(ev)
                refs.append(row)
        return cls.build(events, refs, [s.label for s in sequences],
                         [users[s.user] for s in sequences], users, t_max)

    def take(self, windows) -> "EventStore":
        """The windows at positions ``windows``, in that order, with only
        the rows and users they reference."""
        rows = self.rows[windows]
        keep = np.union1d(0, rows)
        width = int(self.count[keep].max(initial=0))
        kept_users, user = np.unique(self.user[windows], return_inverse=True)
        return EventStore(self.idx[keep, :width], self.val[keep, :width],
                          self.count[keep], np.searchsorted(keep, rows).astype(np.int32),
                          self.label[windows], user.astype(np.int32),
                          tuple(self.users[u] for u in kept_users.tolist()))

    def views(self) -> list[EventSequence]:
        """Every window decoded; the windows referencing a row share one
        ``Event``."""
        events = [PADDING_EVENT] + [
            Event(tuple(zip(i[:c], v[:c])))
            for i, v, c in zip(self.idx[1:].tolist(), self.val[1:].tolist(),
                               self.count[1:].tolist())]
        return [EventSequence([events[r] for r in refs], [1 if r else 0 for r in refs],
                              label, self.users[u])
                for refs, label, u in zip(self.rows.tolist(), self.label.tolist(),
                                          self.user.tolist())]


class Dataset:
    """One split's windows, held in an :class:`EventStore`.

    Built from a list of windows, it keeps that list as ``sequences``;
    built from a store, it decodes ``sequences`` on first read.
    """

    def __init__(self, schema: FeatureSchema | None,
                 sequences: Sequence[EventSequence] = (), split: str = "all", *,
                 store: EventStore | None = None):
        self.schema = schema
        self.split = split
        if store is None:
            store = EventStore.of(sequences)
            self._sequences: list[EventSequence] | None = list(sequences)
        else:
            self._sequences = None
        self.store = store

    @property
    def sequences(self) -> list[EventSequence]:
        if self._sequences is None:
            self._sequences = self.store.views()
        return self._sequences


# ---------------------------------------------------------------------------
# schema fitting and encoding


def _number(name: str, value) -> float:
    """A numerical field's value as a finite float, else ``DataError``."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        v = math.nan
    if not math.isfinite(v):
        raise DataError(f"field {name!r}: numerical value {value!r} is not a finite number")
    return v


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
                v = _number(key, value)
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
            v = _number(f.name, value)
            x = 0.0 if hi <= lo else (v - lo) / (hi - lo)
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
                       t_max: int) -> EventStore:
    """Slide a window over each user's chronological (event, label) stream.

    Emits exactly one window per input event: its prediction slot is that
    event, its history the up-to-``t_max - 1`` preceding events, left-padded
    with the empty sentinel row when the history is shorter. Equal events
    of one user share a row.
    """
    if t_max < 1:
        raise DataError(f"t_max must be >= 1, got {t_max}")
    events: list[Event] = [PADDING_EVENT]
    slot_rows: list[int] = []
    labels: list[int] = []
    users: list[str] = []
    lengths: list[int] = []
    for user, stream in user_events.items():
        if not stream:
            continue
        memo: dict[Event, int] = {}
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
    slot_rows_arr = np.array(slot_rows, dtype=np.int32)
    rows = np.where(slots >= first[:, None], slot_rows_arr[np.maximum(slots, 0)], 0)
    return EventStore.build(events, rows, labels, owner, users, t_max)


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


def split(dataset: Dataset, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
          ) -> tuple[Dataset, Dataset, Dataset]:
    """Per-user chronological split: each user's earliest fraction of
    windows to train, then valid, then test. Users keep the order of their
    first window, and each user's windows keep their order. Nothing in it
    is random.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise DataError(f"split ratios must sum to 1, got {ratios}")
    store = dataset.store
    if not len(store):
        raise DataError("cannot split an empty dataset")

    _, first = np.unique(store.user, return_index=True)
    rank = np.empty(len(store.users), dtype=np.intp)  # users in order of first window
    rank[store.user[np.sort(first)]] = np.arange(len(first))
    order = np.argsort(rank[store.user], kind="stable")
    group = rank[store.user[order]]
    per_user = np.bincount(group)
    at = np.arange(len(order)) - (np.cumsum(per_user) - per_user)[group]
    ends = np.cumsum([split_counts(int(m), ratios)[:2] for m in per_user], axis=1)
    part = (at[:, None] >= ends[group]).sum(axis=1)
    return tuple(Dataset(dataset.schema, split=tag, store=store.take(order[part == p]))  # type: ignore[return-value]
                 for p, tag in enumerate(("train", "valid", "test")))

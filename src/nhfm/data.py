"""Feature schema, sparse event encoding, and the event store of windows.

A raw record holds a value per field plus the meta values ``__user``,
``__ts`` and ``__label``. Records are held as :class:`Columns`: one
:class:`Column` per field, each record's value a position in the field's
table of distinct values, and user and label arrays, so no object is kept
per record; the raw readers build them directly, and ``{field: value}``
mappings convert through :meth:`Columns.of`. Fitting a schema assigns every
categorical token (plus one out-of-vocabulary slot per field) and every
numerical field a global feature index; encoding turns records into sparse
events, and windowing slides over each user's chronological events to make
padded, right-aligned windows whose last slot is the prediction event.

Records are fit and encoded a column at a time: one field's column becomes
one array of feature indices and one of values, with no object per event.
Windows slide over a user's events, so consecutive
windows repeat most of their events. An :class:`EventStore` therefore
holds each distinct event of a user once, as one row of dense arrays, and
each window as ``t_max`` row references; training, scoring and the file
format work on its arrays. ``Event`` and ``EventSequence`` objects are a
decoded view of the store, built only when something reads
``Dataset.sequences``; :meth:`EventStore.of` turns such windows back into a
store.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
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
        self._text: str | None = None
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
        """Human-readable schema text (field order, vocab, stats). Like the
        digest, it is built once: writing the schema and :meth:`hash` both
        ask for it.

        The text is byte for byte what ``json.dumps(payload, indent=2,
        ensure_ascii=False)`` writes for the payload ``{"format", "fields":
        [{"name", "kind", "vocab", "stats"}, ...]}``, so every hash stays
        put. ``indent`` would send the whole payload through json's pure
        Python encoder; here json's C encoder writes each list, with the
        separator that puts every item on its own line at the list's depth,
        and the fixed layout around the lists is written out directly.
        """
        if self._text is None:
            encode = json.JSONEncoder(ensure_ascii=False,
                                      separators=(",\n" + " " * 8, ": ")).encode

            def items(values: list) -> str:
                return "[\n" + " " * 8 + encode(values)[1:-1] + "\n      ]" if values else "[]"

            fields = [
                '    {\n      "name": ' + encode(f.name)
                + ',\n      "kind": ' + encode(f.kind)
                + ',\n      "vocab": ' + (items(list(f.vocab)) if f.kind == CATEGORICAL else "null")
                + ',\n      "stats": ' + (items(list(f.stats)) if f.stats is not None else "null")
                + "\n    }"
                for f in self.fields
            ]
            listed = "[\n" + ",\n".join(fields) + "\n  ]" if fields else "[]"
            self._text = '{\n  "format": "nhfm-schema-v1",\n  "fields": ' + listed + "\n}"
        return self._text

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
                kind, stats = fj["kind"], fj["stats"]
                tokens = [] if fj["vocab"] is None else fj["vocab"]
                "".join(tokens)  # a token that is not a string raises TypeError
                vocab = dict(zip(tokens, range(len(tokens))))
                # what to_json writes: a known kind, two numbers as stats, distinct
                # tokens, distinct field names
                if kind not in (CATEGORICAL, NUMERICAL) or stats is not None and [
                        type(x) in (int, float) for x in stats] != [True, True]:
                    raise FormatError(f"schema field {fj['name']!r} is malformed: "
                                      f"kind {kind!r}, stats {stats!r}")
                if type(tokens) is not list or len(vocab) < len(tokens):
                    raise FormatError(f"schema field {fj['name']!r} is malformed: "
                                      "its vocab is not a list of distinct strings")
                if any(f.name == fj["name"] for f in fields):
                    raise FormatError(f"schema field {fj['name']!r} appears twice")
                fields.append(FieldSpec(fj["name"], kind, vocab, stats and tuple(stats)))
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
    def of(cls, sequences: Sequence[EventSequence]) -> "EventStore":
        """The store of ``sequences``, which share one t_max; equal events
        of one user become one row."""
        t_max = sequences[0].t_max if sequences else 0
        users: dict[str, int] = {}
        for seq in sequences:
            if seq.t_max != t_max:
                raise DataError(f"mixed t_max in one dataset: {seq.t_max} vs {t_max}")
            users.setdefault(seq.user, len(users))
        real = [[ev.entries for ev, qt in zip(seq.events, seq.q) if qt == 1] for seq in sequences]
        n_real = np.fromiter(map(len, real), dtype=np.intp, count=len(real))
        user = np.array([users[s.user] for s in sequences], dtype=np.int32)
        # the real events as left-aligned index and value arrays, the layout _encode gives
        entries = list(chain.from_iterable(real))
        count = np.fromiter(map(len, entries), dtype=np.int32, count=len(entries))
        pairs = np.fromiter(chain.from_iterable(chain.from_iterable(entries)),
                            dtype=np.float64).reshape(-1, 2)
        if len(pairs) and not 0 <= pairs[:, 0].min() <= pairs[:, 0].max() < 2**31:
            raise DataError("a feature index is outside 0..2^31-1")
        present = np.arange(count.max(initial=0)) < count[:, None]
        idx, val = np.zeros(present.shape, dtype=np.int32), np.zeros(present.shape)
        idx[present], val[present] = pairs.T
        idx, val, count, number = _distinct_rows(idx, val, count, np.repeat(user, n_real))
        rows = np.zeros((len(sequences), t_max), dtype=np.int32)
        rows[np.arange(t_max) >= t_max - n_real[:, None]] = number
        return cls(idx, val, count, rows,
                   np.array([s.label for s in sequences], dtype=np.uint8), user, tuple(users))

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
        self._sequences = None if store is not None else list(sequences)
        self.store = store if store is not None else EventStore.of(self._sequences)

    @property
    def sequences(self) -> list[EventSequence]:
        if self._sequences is None:
            self._sequences = self.store.views()
        return self._sequences


# ---------------------------------------------------------------------------
# raw records as columns, schema fitting and encoding


# Column and Columns are plain classes: a dataclass costs about a millisecond
# at import, which every command pays.
class Column:
    """One field's value in each record, factorized: record r holds
    ``values[code[r]]``, or no value (the field is missing or null) where
    ``code[r]`` is -1. Categorical values are tokens, the ``str`` of what
    was given. Numerical values are floats, NaN where what was given is not
    a finite number; ``given`` keeps that value, by position, for the error
    that encoding it raises."""

    __slots__ = ("code", "values", "given")

    def __init__(self, code: np.ndarray, values: Sequence,
                 given: Mapping[int, object] | None = None):
        self.code = code  # (R,) intp positions in ``values``, -1 where there is none
        self.values = values  # tokens (str), or a float64 array
        self.given = {} if given is None else given

    def take(self, rows) -> "Column":
        return Column(self.code[rows], self.values, self.given)


class Columns:
    """Raw records as columns: one :class:`Column` per configured field,
    and the meta columns: ``user`` holds each record's ``str`` of
    ``__user`` and ``label`` its ``__label``. ``stray`` holds each record's
    first key that is neither a configured field nor a meta key, or is
    ``None`` when no record has one. Schema fitting and encoding read this
    form; the raw readers build it without an object per record."""

    __slots__ = ("fields", "user", "label", "stray")

    def __init__(self, fields: dict[str, Column], user: Column, label: np.ndarray,
                 stray: Column | None = None):
        self.fields = fields
        self.user = user
        self.label = label  # (R,) uint8
        self.stray = stray

    def __len__(self) -> int:
        return len(self.label)

    def take(self, rows) -> "Columns":
        """The records at ``rows`` (positions or a mask), in that order."""
        return Columns({name: c.take(rows) for name, c in self.fields.items()},
                       self.user.take(rows), self.label[rows],
                       None if self.stray is None else self.stray.take(rows))

    @classmethod
    def of(cls, records: Iterable[Mapping], field_config: Mapping[str, str]) -> "Columns":
        """The columns of ``records``, read once, one record at a time, so
        that an iterator's records can be dropped as they are read. A record
        without ``__user`` has the user ``"None"``, and one whose ``__label``
        is not 1 has the label 0."""
        from array import array  # loaded on first use, not at import
        known = set(field_config).union(META_KEYS)
        names = list(field_config)
        numerical = [field_config[name] == NUMERICAL for name in names]
        codes = [array("q") for _ in names]
        tables: list[dict] = [{} for _ in names]  # token -> position, in first-seen order
        numbers = [array("d") for _ in names]
        given: list[dict] = [{} for _ in names]
        user, users = array("q"), {}
        label = array("B")
        stray, strays = array("q"), {}
        for rec in records:
            user.append(users.setdefault(str(rec.get("__user")), len(users)))
            label.append(rec.get("__label") == 1)
            stray.append(-1 if known.issuperset(rec) else strays.setdefault(
                next(k for k in rec if k not in known), len(strays)))
            for name, is_number, code, table, number, bad in zip(
                    names, numerical, codes, tables, numbers, given):
                value = rec.get(name)
                if value is None:
                    code.append(-1)
                elif not is_number:
                    code.append(table.setdefault(str(value), len(table)))
                else:
                    x = _finite(value)
                    if x != x:  # NaN
                        bad[len(number)] = value
                    code.append(len(number))
                    number.append(x)
        fields = {name: Column(np.array(code, dtype=np.intp),
                               np.array(number) if is_number else list(table), bad)
                  for name, is_number, code, table, number, bad in zip(
                      names, numerical, codes, tables, numbers, given)}
        return cls(fields, Column(np.array(user, dtype=np.intp), list(users)),
                   np.array(label, dtype=np.uint8),
                   Column(np.array(stray, dtype=np.intp), list(strays)) if strays else None)


def _finite(value) -> float:
    """``float(value)``, or NaN where that fails or is not finite."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        return math.nan
    return x if math.isfinite(x) else math.nan


def _numbers(name: str, column: Column, code: np.ndarray) -> np.ndarray:
    """The numerical values at ``code``; the first that is not a finite
    number is a ``DataError``."""
    x = column.values[code]
    bad = np.isnan(x)
    if bad.any():
        value = column.given[int(code[bad.argmax()])]
        raise DataError(f"field {name!r}: numerical value {value!r} is not a finite number")
    return x


def fit_schema(columns: Columns, field_config: Mapping[str, str]) -> FeatureSchema:
    """Build vocabularies and numerical stats from training records.

    ``field_config`` maps field name -> kind, in the order indices should
    be assigned; tokens are numbered in first-seen order. Records carrying
    a field absent from the config are rejected.
    """
    for name, kind in field_config.items():
        if kind not in (CATEGORICAL, NUMERICAL):
            raise DataError(f"field {name!r}: unknown kind {kind!r}")
    stray = () if columns.stray is None else columns.stray.code[columns.stray.code >= 0]
    if len(stray):
        raise DataError(f"record field {columns.stray.values[stray[0]]!r} "
                        "is missing from the field config")
    if not len(columns):
        raise DataError("cannot fit a schema on zero records")

    fields = []
    for name, kind in field_config.items():
        column = columns.fields[name]
        code = column.code[column.code >= 0] if name not in META_KEYS else column.code[:0]
        if kind == CATEGORICAL:
            _, first = np.unique(code, return_index=True)
            tokens = dict.fromkeys(map(column.values.__getitem__, code[np.sort(first)].tolist()))
            fields.append(FieldSpec(name, kind, dict(zip(tokens, range(len(tokens))))))
        elif len(code):
            x = _numbers(name, column, code)
            # argmin and argmax keep the first of equal extremes (0.0, -0.0), as min() and max() do
            fields.append(FieldSpec(name, kind, stats=(float(x[x.argmin()]), float(x[x.argmax()]))))
        else:
            fields.append(FieldSpec(name, kind, stats=(0.0, 0.0)))
    return FeatureSchema(fields)


def _encode(columns: Columns, schema: FeatureSchema
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every record's entries, in ``(R, fields)`` index and value arrays
    and ``(R,)`` counts, a field's column at a time: a token to its index
    (an unseen one to the OOV) with value 1.0, a number min-max scaled and
    clamped into [0, 1], a missing or ``None`` field to no entry. Fields take
    ascending index ranges in schema order, so a record's entries ascend
    once left-aligned; the rest of the row holds index 0 and value 0."""
    shape = (len(schema.fields), len(columns))  # one row per field until the transpose
    idx = np.zeros(shape, dtype=np.int32)
    val = np.zeros(shape)
    present = np.zeros(shape, dtype=bool)
    for f, f_idx, f_val, has in zip(schema.fields, idx, val, present):
        column = columns.fields[f.name]
        np.greater_equal(column.code, 0, out=has)
        code = column.code[has]
        base = schema.field_base(f.name)
        if f.kind == CATEGORICAL:
            oov = len(f.vocab)  # unseen -> OOV
            lookup = np.fromiter(map(f.vocab.get, column.values, repeat(oov)),
                                 dtype=np.intp, count=len(column.values))
            f_idx[has] = base + lookup[code]
            f_val[has] = 1.0
            continue
        lo, hi = f.stats
        x = _numbers(f.name, column, code)
        with np.errstate(over="ignore", invalid="ignore"):
            x = (x - lo) / (hi - lo) if hi > lo else np.zeros_like(x)
        x = np.where(x > 0.0, x, 0.0)  # min(1.0, max(0.0, x)), NaN and -0.0 to 0.0
        f_idx[has] = base
        f_val[has] = np.where(x < 1.0, x, 1.0)
    idx, val, present = idx.T, val.T, present.T
    if not present.all():
        left = np.argsort(~present, axis=1, kind="stable")
        idx = np.take_along_axis(idx, left, axis=1)
        val = np.take_along_axis(val, left, axis=1)
    return idx, val, np.count_nonzero(present, axis=1).astype(np.int32)


def decode_event(event: Event, schema: FeatureSchema) -> dict[str, str | float]:
    """Reverse map an encoded event to {field: token-or-value}."""
    out: dict[str, str | float] = {}
    for index, value in event.entries:
        name, token = schema.describe_index(index)
        out[name] = token if token is not None else value
    return out


# ---------------------------------------------------------------------------
# windowing and splitting


def user_positions(columns: Columns) -> tuple[np.ndarray, tuple[str, ...]]:
    """Each record's position among the users of ``columns``, numbered in
    order of first record, and those users. One user's records must be
    contiguous."""
    code = columns.user.code
    start = np.flatnonzero(np.diff(code, prepend=-1))  # each run of one user's records
    runs = code[start]
    _, first = np.unique(runs, return_index=True)
    if len(first) < len(runs):
        again = np.ones(len(runs), dtype=bool)
        again[first] = False
        raise DataError(f"the records of user {columns.user.values[runs[again.argmax()]]!r} "
                        "are not contiguous")
    owner = np.repeat(np.arange(len(runs), dtype=np.int32), np.diff(start, append=len(code)))
    return owner, tuple(columns.user.values[u] for u in runs.tolist())


def encode_windows(columns: Columns, schema: FeatureSchema, t_max: int) -> EventStore:
    """Encode records, grouped by user and in time order within each user,
    and slide a window over each user's events, as :func:`_windows` does;
    ``__label`` is each window's label."""
    owner, users = user_positions(columns)
    return _windows(*_encode(columns, schema), owner, columns.label, users, t_max)


def _distinct_rows(idx: np.ndarray, val: np.ndarray, count: np.ndarray, owner: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The store's rows for events given as left-aligned arrays, with the
    user position of each: equal events of one user get one row, rows are
    numbered from 1 in order of first occurrence, and row 0 is the empty
    sentinel. Returns the rows' ``idx``, ``val`` and ``count`` and each
    event's row number."""
    width = int(count.max(initial=0))
    idx, val = idx[:, :width], val[:, :width]
    # one fixed-size byte string per event; -0.0 + 0.0 is 0.0, which equals it
    key = np.hstack([owner[:, None], count[:, None], idx,
                     np.ascontiguousarray(val + 0.0).view(np.int32)])
    key = key.view(np.dtype((np.void, key.shape[1] * key.itemsize))).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty(len(first), dtype=np.int32)
    number[order] = np.arange(1, len(first) + 1, dtype=np.int32)
    keep = first[order]
    return (np.concatenate([np.zeros((1, width), dtype=np.int32), idx[keep]]),
            np.concatenate([np.zeros((1, width)), val[keep]]),
            np.concatenate([np.zeros(1, dtype=np.int32), count[keep]]),
            number[inverse.ravel()])


def _windows(idx: np.ndarray, val: np.ndarray, count: np.ndarray, owner: np.ndarray,
             label, users: Sequence[str], t_max: int) -> EventStore:
    """The store of one window per event, for events in time order within
    each user and each user's events contiguous: the window ends at its
    event and holds the up-to-``t_max - 1`` events of that user before
    it, left-padded with row 0."""
    if t_max < 1:
        raise DataError(f"t_max must be >= 1, got {t_max}")
    idx, val, count, number = _distinct_rows(idx, val, count, owner)
    # each event's user's first event; int32 like the row numbers
    first = np.searchsorted(owner, owner).astype(np.int32)
    slots = np.arange(len(owner), dtype=np.int32)[:, None] + np.arange(
        1 - t_max, 1, dtype=np.int32)
    real = slots >= first[:, None]
    rows = number[np.maximum(slots, 0, out=slots)]
    rows[~real] = 0
    return EventStore(idx, val, count, rows,
                      np.asarray(label, dtype=np.uint8), owner, tuple(users))


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

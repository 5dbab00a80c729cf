"""Binary encoded-dataset files and human-readable schema files.

A dataset file (``NHFMDS2``) is an :class:`~nhfm.data.EventStore` written
as raw little-endian arrays: each distinct event of a user once, as one
row of entries, and each window as ``t_max`` row references. Layout:

    header   magic "NHFMDS2\\0" | schema hash (32 bytes) | eight uint32:
             t_max, windows W, rows E, entries N, stored values V,
             users U, user-id bytes, split-tag bytes
    values   float64 (V)        the values that are not 1.0, in entry order
    pointers int32 (E + 1)      row r's entries are [pointers[r], pointers[r+1])
    indices  int32 (N)          feature index of each entry
    rows     int32 (W, t_max)   row references; 0, the empty row, on padded slots
    users    int32 (W)          user of each window
    user ends int32 (U)         end of each user id in the user-id bytes
    labels   uint8 (W)
    mask     uint8 (ceil(N/8))  bit i (little-endian bit order) set iff
                                entry i's value is stored in ``values``
    user ids UTF-8, concatenated
    split    UTF-8

Categorical entries carry 1.0, so only numerical values are stored. The
reader takes every array with ``np.frombuffer`` and checks it whole:
sizes against the header, the schema hash, monotone pointers, indices
below the schema's feature count, finite values, labels 0 or 1, row and
user references in range, one to ``t_max`` real slots per window with
padding as a left prefix, and valid UTF-8. Any failure is a
``FormatError``. ``NHFMDS1`` files, the earlier varint format, are not
read: re-run ``nhfm preprocess`` to write them again.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .data import Dataset, EventStore, FeatureSchema
from .errors import FormatError

DATASET_MAGIC = b"NHFMDS2\0"
_OLD_MAGIC = b"NHFMDS1"
_HEADER = struct.Struct("<8s32s8I")
_LIMIT = 2**31  # pointers and references are int32


def decode_utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not valid UTF-8: {exc}") from None


def serialize_dataset(dataset: Dataset) -> bytes:
    store = dataset.store
    present = np.arange(store.idx.shape[1]) < store.count[:, None]
    values = store.val[present]
    marked = values != 1.0
    pointers = np.zeros(len(store.count) + 1, dtype=np.int64)
    np.cumsum(store.count, out=pointers[1:])
    if pointers[-1] >= _LIMIT or len(store.count) >= _LIMIT:
        raise FormatError(f"{pointers[-1]} entries in {len(store.count)} rows "
                          "do not fit one dataset file")
    user_ids = [u.encode("utf-8") for u in store.users]
    split = dataset.split.encode("utf-8")
    header = _HEADER.pack(DATASET_MAGIC, dataset.schema.hash(), store.t_max, len(store),
                          len(store.count), len(values), int(marked.sum()),
                          len(user_ids), sum(map(len, user_ids)), len(split))
    return b"".join([
        header,
        values[marked].astype("<f8").tobytes(),
        pointers.astype("<i4").tobytes(),
        store.idx[present].astype("<i4").tobytes(),
        store.rows.astype("<i4").tobytes(),
        store.user.astype("<i4").tobytes(),
        np.cumsum([len(u) for u in user_ids], dtype=np.int64).astype("<i4").tobytes(),
        store.label.astype(np.uint8).tobytes(),
        np.packbits(marked, bitorder="little").tobytes(),
        *user_ids,
        split,
    ])


def deserialize_dataset(blob: bytes, schema: FeatureSchema) -> Dataset:
    size = len(blob)
    if blob[:len(_OLD_MAGIC)] == _OLD_MAGIC:
        raise FormatError("this is an NHFMDS1 dataset file, an older format that is no "
                          "longer read; re-run `nhfm preprocess` to write it again")
    if blob[:len(DATASET_MAGIC)] != DATASET_MAGIC[:min(size, len(DATASET_MAGIC))]:
        raise FormatError(f"bad magic {bytes(blob[:8])!r}, expected {DATASET_MAGIC!r}")
    if size < _HEADER.size:
        raise FormatError(f"truncated file: expected {_HEADER.size} bytes for the header, "
                          f"got {size}")
    _, digest, t_max, n_windows, n_rows, n_entries, n_values, n_users, user_bytes, \
        split_bytes = _HEADER.unpack_from(blob)
    if digest != schema.hash():
        raise FormatError(
            "dataset was encoded against a different schema "
            f"(hash {digest.hex()[:12]}... vs {schema.hash().hex()[:12]}...)")

    sections = [("<f8", n_values), ("<i4", n_rows + 1), ("<i4", n_entries),
                ("<i4", n_windows * t_max), ("<i4", n_windows), ("<i4", n_users),
                ("u1", n_windows), ("u1", (n_entries + 7) // 8),
                ("u1", user_bytes), ("u1", split_bytes)]
    expected = _HEADER.size + sum(np.dtype(dt).itemsize * n for dt, n in sections)
    if size < expected:
        raise FormatError(f"truncated file: expected {expected} bytes, got {size}")
    if size > expected:
        raise FormatError(f"{size - expected} trailing bytes after the last section")
    arrays, offset = [], _HEADER.size
    for dt, n in sections:
        arrays.append(np.frombuffer(blob, dtype=dt, count=n, offset=offset))
        offset += arrays[-1].nbytes
    values, pointers, indices, rows, owners, user_ends, labels, mask, user_raw, split_raw \
        = arrays
    split = decode_utf8(split_raw.tobytes(), "split tag")

    if n_windows and t_max < 1:
        raise FormatError(f"{n_windows} windows of t_max={t_max} slots")
    if n_rows < 1:
        raise FormatError("the file has no rows, not even the empty row 0")
    if (pointers[0] != 0 or pointers[1] != 0 or pointers[-1] != n_entries
            or np.any(pointers[1:] < pointers[:-1])):
        raise FormatError("entry pointers are not monotone from an empty row 0 "
                          f"to {n_entries} entries")
    if np.any(user_ends[1:] < user_ends[:-1]) or (n_users and user_ends[0] < 0) \
            or (user_ends[-1] if n_users else 0) != user_bytes:
        raise FormatError(f"user id ends are not monotone up to {user_bytes} bytes")
    starts = [0] + user_ends[:-1].tolist()
    raw = user_raw.tobytes()
    users = tuple(decode_utf8(raw[a:b], "user id")
                  for a, b in zip(starts, user_ends.tolist()))
    if n_windows and not 0 <= owners.min() <= owners.max() < n_users:
        raise FormatError(f"a window's user is outside the file's {n_users} users")

    def window(i: int) -> str:
        return f"window {i} of user {users[owners[i]]!r}"

    if n_windows and labels.max() > 1:
        i = np.flatnonzero(labels > 1)[0]
        raise FormatError(f"{window(i)} has label byte {labels[i]}, expected 0 or 1")
    if n_entries and not 0 <= indices.min() <= indices.max() < schema.n:
        bad = indices[(indices < 0) | (indices >= schema.n)][0]
        raise FormatError(f"feature index {bad} outside the schema's {schema.n} features")
    if not np.isfinite(values).all():
        bad = values[~np.isfinite(values)][0]
        raise FormatError(f"stored feature value {bad} is not finite")
    marked = np.unpackbits(mask, bitorder="little").view(bool)
    if marked[n_entries:].any() or np.count_nonzero(marked) != n_values:
        raise FormatError(f"value mask does not mark {n_values} of {n_entries} entries")

    rows = rows.reshape(n_windows, t_max)
    if rows.size and not 0 <= rows.min() <= rows.max() < n_rows:
        raise FormatError(f"a row reference is outside the file's {n_rows} rows")
    if n_windows:
        real = rows > 0
        bad = np.flatnonzero(~real[:, -1] | np.any(real[:, 1:] < real[:, :-1], axis=1))
        if len(bad):
            i = bad[0]
            raise FormatError(f"{window(i)} has no real event" if not real[i].any()
                              else f"{window(i)} has a real event before padding")

    count = np.diff(pointers)
    width = int(count.max(initial=0))
    if width > schema.n:
        raise FormatError(f"an event has {width} entries, more than the schema's "
                          f"{schema.n} features")
    present = np.arange(width) < count[:, None]
    idx = np.zeros(present.shape, dtype=np.int32)
    idx[present] = indices
    val = present.astype(np.float64)
    stored = np.flatnonzero(marked)
    row = np.searchsorted(pointers, stored, side="right") - 1
    val[row, stored - pointers[row]] = values
    store = EventStore(idx, val, count, rows.astype(np.int32),
                       labels.copy(), owners.astype(np.int32), users)
    return Dataset(schema, split=split, store=store)


def write_dataset(dataset: Dataset, path) -> None:
    Path(path).write_bytes(serialize_dataset(dataset))


def read_dataset(path, schema: FeatureSchema) -> Dataset:
    return deserialize_dataset(Path(path).read_bytes(), schema)


def save_schema(schema: FeatureSchema, path) -> None:
    Path(path).write_text(schema.to_json(), encoding="utf-8")


def load_schema(path) -> FeatureSchema:
    try:
        return FeatureSchema.from_json(Path(path).read_text(encoding="utf-8"))
    except (FormatError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: {exc}") from None

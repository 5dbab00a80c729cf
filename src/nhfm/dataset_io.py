"""Binary encoded-dataset files and human-readable schema files.

Dataset layout (all little-endian, integers LEB128 varints):

    magic "NHFMDS1" | schema hash (32 bytes) | split tag (len + utf8)
    | t_max | sequence count
    | per sequence: user (len + utf8), label byte, real-event count,
      per real event: entry count, then (index varint, value f64) pairs

Real events are stored left to right; padding is reconstructed on read
from ``t_max`` and the real-event count.

Windows slide over each user's events, so a window repeats most of the
real events of the user's earlier windows. The writer encodes each
distinct ``Event`` of a user once and reuses its bytes; the reader
decodes and checks each distinct event of a user once, and that user's
windows share the one frozen ``Event``, as ``nhfm preprocess``'s output
does. Both keep their memo for one user at a time: a user's windows are
contiguous in a file, so the memo never holds more than one user's
events. The file bytes are the same as without the memo.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

from .data import Dataset, Event, EventSequence, FeatureSchema, PADDING_EVENT
from .errors import FormatError

DATASET_MAGIC = b"NHFMDS1"

_F64 = struct.Struct("<d")


def write_varint(out: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"varints are unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _truncated(n: int, what: str, got: int) -> FormatError:
    return FormatError(f"truncated file: expected {n} bytes for {what}, got {got}")


def read_varint(blob: bytes, pos: int, what: str) -> tuple[int, int]:
    """The varint at ``pos`` and the position after it."""
    size = len(blob)
    shift, value = 0, 0
    while True:
        if pos >= size:
            raise _truncated(1, what, 0)
        byte = blob[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 63:
            raise FormatError(f"varint for {what} exceeds 64 bits")


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not valid UTF-8: {exc}") from None


class ByteReader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise _truncated(n, what, len(self.blob) - self.pos)
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def varint(self, what: str) -> int:
        value, self.pos = read_varint(self.blob, self.pos, what)
        return value

    def string(self, what: str) -> str:
        length = self.varint(f"{what} length")
        return _utf8(self.take(length, what), what)


def _write_string(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    write_varint(out, len(raw))
    out.extend(raw)


def serialize_dataset(dataset: Dataset) -> bytes:
    if not dataset.sequences:
        t_max = 0
    else:
        t_max = dataset.sequences[0].t_max
    out = bytearray(DATASET_MAGIC)
    out.extend(dataset.schema.hash())
    _write_string(out, dataset.split)
    write_varint(out, t_max)
    write_varint(out, len(dataset.sequences))
    pack_f64 = _F64.pack
    user = None
    encoded: dict[int, bytes] = {}  # id(event) -> its bytes, for the current user
    for seq in dataset.sequences:
        if seq.t_max != t_max:
            raise FormatError(
                f"mixed t_max in one dataset: {seq.t_max} vs {t_max}")
        if seq.user != user:
            user = seq.user
            encoded.clear()
        _write_string(out, user)
        out.append(seq.label & 0xFF)
        real = [ev for ev, qt in zip(seq.events, seq.q) if qt == 1]
        write_varint(out, len(real))
        for ev in real:
            raw = encoded.get(id(ev))
            if raw is None:
                buf = bytearray()
                write_varint(buf, len(ev.entries))
                for index, value in ev.entries:
                    write_varint(buf, index)
                    buf += pack_f64(value)
                raw = encoded[id(ev)] = bytes(buf)
            out += raw
    return bytes(out)


def deserialize_dataset(blob: bytes, schema: FeatureSchema) -> Dataset:
    r = ByteReader(blob)
    magic = r.take(len(DATASET_MAGIC), "magic")
    if magic != DATASET_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {DATASET_MAGIC!r}")
    schema_hash = r.take(32, "schema hash")
    if schema_hash != schema.hash():
        raise FormatError(
            "dataset was encoded against a different schema "
            f"(hash {schema_hash.hex()[:12]}... vs {schema.hash().hex()[:12]}...)")
    split = r.string("split tag")
    t_max = r.varint("t_max")
    n_seqs = r.varint("sequence count")
    n_features = schema.n
    size, pos = len(blob), r.pos
    unpack_f64 = _F64.unpack_from
    isfinite = math.isfinite
    sequences = []
    user_raw = None
    memo: dict[bytes, Event] = {}  # an event's bytes -> its Event, for the current user
    for _ in range(n_seqs):
        length, pos = read_varint(blob, pos, "user id length")
        if pos + length > size:
            raise _truncated(length, "user id", size - pos)
        raw = blob[pos:pos + length]
        pos += length
        if raw != user_raw:
            user_raw, user = raw, _utf8(raw, "user id")
            memo.clear()
        if pos >= size:
            raise _truncated(1, "label", 0)
        label = blob[pos]
        pos += 1
        if label > 1:
            raise FormatError(f"sequence of user {user!r} has label byte {label}, "
                              "expected 0 or 1")
        n_real, pos = read_varint(blob, pos, "real-event count")
        if n_real > t_max:
            raise FormatError(f"sequence claims {n_real} real events but t_max={t_max}")
        if n_real == 0:
            raise FormatError(f"sequence of user {user!r} has no real event")
        real = []
        for _ in range(n_real):
            start = pos
            n_entries = blob[pos] if pos < size else 0x80
            if n_entries < 0x80:  # a one-byte count, the usual case
                pos += 1
            else:
                n_entries, pos = read_varint(blob, pos, "entry count")
            # Find the event's end without decoding it: each entry is a
            # varint, whose last byte has the high bit clear, then 8 bytes.
            end = pos
            try:
                for _ in range(n_entries):
                    while blob[end] & 0x80:
                        end += 1
                    end += 9
            except IndexError:
                end = size + 1
            key = blob[start:end] if end <= size else None
            event = memo.get(key)
            if event is not None:
                pos = end
            else:
                # a miss decodes with every check, in file order, so a
                # truncated or corrupt event raises here
                entries = []
                for _ in range(n_entries):
                    if pos >= size:
                        raise _truncated(1, "feature index", 0)
                    index = blob[pos]
                    pos += 1
                    if index & 0x80:
                        index &= 0x7F
                        shift = 7
                        while True:
                            if pos >= size:
                                raise _truncated(1, "feature index", 0)
                            byte = blob[pos]
                            pos += 1
                            index |= (byte & 0x7F) << shift
                            if not byte & 0x80:
                                break
                            shift += 7
                            if shift > 63:
                                raise FormatError("varint for feature index exceeds 64 bits")
                    if index >= n_features:
                        raise FormatError(f"feature index {index} outside the schema's "
                                          f"{n_features} features")
                    if pos + 8 > size:
                        raise _truncated(8, "feature value", size - pos)
                    value = unpack_f64(blob, pos)[0]
                    pos += 8
                    if not isfinite(value):
                        raise FormatError(f"sequence of user {user!r} has feature value "
                                          f"{value} at index {index}")
                    entries.append((index, value))
                event = memo[key] = Event(tuple(entries))
            real.append(event)
        pad = t_max - n_real
        sequences.append(EventSequence(
            [PADDING_EVENT] * pad + real,
            [0] * pad + [1] * n_real, int(label), user))
    if pos != size:
        raise FormatError(f"{size - pos} trailing bytes after the last sequence")
    return Dataset(schema, sequences, split)


def write_dataset(dataset: Dataset, path) -> None:
    Path(path).write_bytes(serialize_dataset(dataset))


def read_dataset(path, schema: FeatureSchema) -> Dataset:
    return deserialize_dataset(Path(path).read_bytes(), schema)


def save_schema(schema: FeatureSchema, path) -> None:
    Path(path).write_text(schema.to_json(), encoding="utf-8")


def load_schema(path) -> FeatureSchema:
    return FeatureSchema.from_json(Path(path).read_text(encoding="utf-8"))

"""Binary encoded-dataset files and human-readable schema files.

Dataset layout (all little-endian, integers LEB128 varints):

    magic "NHFMDS1" | schema hash (32 bytes) | split tag (len + utf8)
    | t_max | sequence count
    | per sequence: user (len + utf8), label byte, real-event count,
      per real event: entry count, then (index varint, value f64) pairs

Real events are stored left to right; padding is reconstructed on read
from ``t_max`` and the real-event count.
"""

from __future__ import annotations

import struct
from pathlib import Path

from .data import Dataset, Event, EventSequence, FeatureSchema, PADDING_EVENT
from .errors import FormatError

DATASET_MAGIC = b"NHFMDS1"


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


class ByteReader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(
                f"truncated file: expected {n} bytes for {what}, "
                f"got {len(self.blob) - self.pos}")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def varint(self, what: str) -> int:
        shift, value = 0, 0
        while True:
            byte = self.take(1, what)[0]
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise FormatError(f"varint for {what} exceeds 64 bits")

    def string(self, what: str) -> str:
        length = self.varint(f"{what} length")
        return self.take(length, what).decode("utf-8")

    def f64(self, what: str) -> float:
        return struct.unpack("<d", self.take(8, what))[0]


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
    for seq in dataset.sequences:
        if seq.t_max != t_max:
            raise FormatError(
                f"mixed t_max in one dataset: {seq.t_max} vs {t_max}")
        _write_string(out, seq.user)
        out.append(seq.label & 0xFF)
        real = [ev for ev, qt in zip(seq.events, seq.q) if qt == 1]
        write_varint(out, len(real))
        for ev in real:
            write_varint(out, len(ev.entries))
            for index, value in ev.entries:
                write_varint(out, index)
                out.extend(struct.pack("<d", value))
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
    sequences = []
    for _ in range(n_seqs):
        user = r.string("user id")
        label = r.take(1, "label")[0]
        if label > 1:
            raise FormatError(f"sequence of user {user!r} has label byte {label}, "
                              "expected 0 or 1")
        n_real = r.varint("real-event count")
        if n_real > t_max:
            raise FormatError(f"sequence claims {n_real} real events but t_max={t_max}")
        if n_real == 0:
            raise FormatError(f"sequence of user {user!r} has no real event")
        real = []
        for _ in range(n_real):
            n_entries = r.varint("entry count")
            entries = []
            for _ in range(n_entries):
                index = r.varint("feature index")
                if index >= n_features:
                    raise FormatError(f"feature index {index} outside the schema's "
                                      f"{n_features} features")
                value = r.f64("feature value")
                entries.append((index, value))
            real.append(Event(tuple(entries)))
        pad = t_max - n_real
        sequences.append(EventSequence(
            [PADDING_EVENT] * pad + real,
            [0] * pad + [1] * n_real, int(label), user))
    if r.pos != len(blob):
        raise FormatError(f"{len(blob) - r.pos} trailing bytes after the last sequence")
    return Dataset(schema, sequences, split)


def write_dataset(dataset: Dataset, path) -> None:
    Path(path).write_bytes(serialize_dataset(dataset))


def read_dataset(path, schema: FeatureSchema) -> Dataset:
    return deserialize_dataset(Path(path).read_bytes(), schema)


def save_schema(schema: FeatureSchema, path) -> None:
    Path(path).write_text(schema.to_json(), encoding="utf-8")


def load_schema(path) -> FeatureSchema:
    return FeatureSchema.from_json(Path(path).read_text(encoding="utf-8"))

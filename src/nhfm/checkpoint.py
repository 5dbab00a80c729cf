"""Checkpoint files: model config, schema hash, parameters, optimizer
state, and training metadata.

Layout (little-endian, integers LEB128 varints):

    magic "NHFMCK1" | version u16 | model-config JSON block
    | schema hash (32 bytes) | parameter blobs | optimizer-state block
    | metadata JSON block

A blob is name (len + utf8), rank, dims, then raw f64 data; JSON blocks
are length-prefixed utf8. Loading restores parameters bit-identically;
any version or framing problem is an explicit error, never a silent
migration.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import FeatureSchema
from .dataset_io import decode_utf8
from .errors import CheckpointError, FormatError
from .model import ModelConfig, Parameters, parameter_shapes
from .training import OptimizerState

CHECKPOINT_MAGIC = b"NHFMCK1"
CHECKPOINT_VERSION = 1


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
            raise FormatError(f"truncated file: expected {n} bytes for {what}, "
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
        return decode_utf8(self.take(length, what), what)


def write_string(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    write_varint(out, len(raw))
    out.extend(raw)


@dataclass
class Checkpoint:
    model_config: ModelConfig
    schema_hash: bytes
    params: Parameters
    opt_state: OptimizerState | None
    metadata: dict

    def require_schema(self, schema: FeatureSchema) -> None:
        """Check that this checkpoint can score data encoded with
        ``schema``: the schema hash, the model config, and every
        parameter's name and shape."""
        if schema.hash() != self.schema_hash:
            raise CheckpointError(
                "checkpoint was trained against a different schema "
                f"(hash {self.schema_hash.hex()[:12]}... vs "
                f"{schema.hash().hex()[:12]}...)")
        try:
            self.model_config.validate()
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint has an invalid model config: {exc}") from None
        want = parameter_shapes(self.model_config, schema.n)
        have = {name: arr.shape for name, arr in self.params.items()}
        if have.keys() != want.keys():
            raise CheckpointError(
                "checkpoint parameters do not match its model config: "
                f"missing {sorted(want.keys() - have.keys())}, "
                f"unexpected {sorted(have.keys() - want.keys())}")
        for name, shape in want.items():
            if have[name] != shape:
                raise CheckpointError(f"parameter {name} has shape {have[name]}, "
                                      f"expected {shape}")


def _write_json_block(out: bytearray, payload) -> None:
    raw = json.dumps(payload, sort_keys=True).encode("utf-8")
    write_varint(out, len(raw))
    out.extend(raw)


def _write_blob(out: bytearray, name: str, arr: np.ndarray) -> None:
    write_string(out, name)
    write_varint(out, arr.ndim)
    for dim in arr.shape:
        write_varint(out, dim)
    out.extend(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_json_block(r: ByteReader, what: str):
    length = r.varint(f"{what} length")
    return json.loads(r.take(length, what).decode("utf-8"))


def _read_blob(r: ByteReader) -> tuple[str, np.ndarray]:
    name = r.string("parameter name")
    ndim = r.varint("rank")
    shape = tuple(r.varint("dim") for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    raw = r.take(8 * count, f"data for {name}")
    # a read-only view of the file; Parameters copies it into its vector
    return name, np.frombuffer(raw, dtype="<f8").reshape(shape)


def serialize_checkpoint(ck: Checkpoint) -> bytes:
    out = bytearray(CHECKPOINT_MAGIC)
    out.extend(struct.pack("<H", CHECKPOINT_VERSION))
    cfg = ck.model_config
    _write_json_block(out, {
        "variant": cfg.variant, "k": cfg.k, "h": cfg.h,
        "mlp_widths": list(cfg.mlp_widths), "t_max": cfg.t_max,
    })
    if len(ck.schema_hash) != 32:
        raise CheckpointError(f"schema hash must be 32 bytes, got {len(ck.schema_hash)}")
    out.extend(ck.schema_hash)

    write_varint(out, len(ck.params.names()))
    for name, arr in ck.params.items():
        _write_blob(out, name, arr)

    state = ck.opt_state
    if state is None:
        write_string(out, "none")
        write_varint(out, 0)
        write_varint(out, 0)
    else:
        write_string(out, state.kind)
        write_varint(out, state.step)
        write_varint(out, len(state.m) + len(state.v))
        for prefix, table in (("m", state.m), ("v", state.v)):
            for name, arr in table.items():
                _write_blob(out, f"{prefix}:{name}", arr)

    _write_json_block(out, ck.metadata)
    return bytes(out)


def deserialize_checkpoint(blob: bytes) -> Checkpoint:
    r = ByteReader(blob)
    magic = r.take(len(CHECKPOINT_MAGIC), "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    version = struct.unpack("<H", r.take(2, "version"))[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version}, "
            f"this build reads version {CHECKPOINT_VERSION}")
    cfg = _read_json_block(r, "model config")
    model_config = ModelConfig(variant=cfg["variant"], k=cfg["k"], h=cfg["h"],
                               mlp_widths=tuple(cfg["mlp_widths"]),
                               t_max=cfg["t_max"])
    schema_hash = r.take(32, "schema hash")

    n_params = r.varint("parameter count")
    params = Parameters(dict(_read_blob(r) for _ in range(n_params)))

    kind = r.string("optimizer kind")
    step = r.varint("optimizer step")
    n_state = r.varint("optimizer blob count")
    opt_state: OptimizerState | None = None
    tables = {"": params}
    if kind != "none":
        m: dict[str, np.ndarray] = {}
        v: dict[str, np.ndarray] = {}
        for _ in range(n_state):
            name, arr = _read_blob(r)
            prefix, _, pname = name.partition(":")
            (m if prefix == "m" else v)[pname] = arr
        opt_state = OptimizerState(kind, step, Parameters(m), Parameters(v))
        tables.update({"m:": opt_state.m, "v:": opt_state.v})

    metadata = _read_json_block(r, "metadata")
    if r.pos != len(blob):
        raise CheckpointError(f"{len(blob) - r.pos} trailing bytes after metadata")
    for prefix, table in tables.items():
        if not np.isfinite(table.flat).all():
            name = next(n for n, arr in table.items() if not np.isfinite(arr).all())
            raise CheckpointError(f"blob {prefix}{name} holds a non-finite value")
    return Checkpoint(model_config, schema_hash, params, opt_state, metadata)


def save_checkpoint(ck: Checkpoint, path) -> None:
    Path(path).write_bytes(serialize_checkpoint(ck))


def load_checkpoint(path) -> Checkpoint:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    try:
        return deserialize_checkpoint(blob)
    except CheckpointError:
        raise
    except Exception as exc:  # framing errors from ByteReader
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc

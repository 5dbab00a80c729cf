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
from .dataset_io import ByteReader, write_varint
from .errors import CheckpointError
from .model import ModelConfig, Parameters, parameter_shapes
from .training import OptimizerState

CHECKPOINT_MAGIC = b"NHFMCK1"
CHECKPOINT_VERSION = 1


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


def _write_string(out: bytearray, s: str) -> None:
    raw = s.encode("utf-8")
    write_varint(out, len(raw))
    out.extend(raw)


def _write_blob(out: bytearray, name: str, arr: np.ndarray) -> None:
    _write_string(out, name)
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
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    return name, arr


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
        _write_string(out, "none")
        write_varint(out, 0)
        write_varint(out, 0)
    else:
        _write_string(out, state.kind)
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
    arrays = {}
    for _ in range(n_params):
        name, arr = _read_blob(r)
        arrays[name] = arr
    params = Parameters(arrays)

    kind = r.string("optimizer kind")
    step = r.varint("optimizer step")
    n_state = r.varint("optimizer blob count")
    opt_state: OptimizerState | None = None
    if kind != "none":
        opt_state = OptimizerState(kind, step)
        for _ in range(n_state):
            name, arr = _read_blob(r)
            prefix, _, pname = name.partition(":")
            (opt_state.m if prefix == "m" else opt_state.v)[pname] = arr

    metadata = _read_json_block(r, "metadata")
    if r.pos != len(blob):
        raise CheckpointError(f"{len(blob) - r.pos} trailing bytes after metadata")
    return Checkpoint(model_config, schema_hash, params, opt_state, metadata)


def save_checkpoint(ck: Checkpoint, path) -> None:
    Path(path).write_bytes(serialize_checkpoint(ck))


def load_checkpoint(path) -> Checkpoint:
    blob = Path(path).read_bytes()
    try:
        return deserialize_checkpoint(blob)
    except CheckpointError:
        raise
    except Exception as exc:  # framing errors from ByteReader
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc

"""Checkpoint files (``NHFMCK2``, little-endian): a header, one JSON
block, then the float64 vectors the program keeps.

    header   magic "NHFMCK2\\0" | schema hash (32 bytes) | uint32 JSON bytes
    JSON     UTF-8, sorted keys: model config, feature count n, optimizer
             kind (null, "sgd" or "adam"), step and metadata, padded with
             spaces so the vectors start 8-byte aligned
    vectors  ``Parameters.flat``, then for Adam ``m.flat`` and ``v.flat``

Names and shapes come from ``parameter_shapes(config, n)``, in vector
order. Loading restores the vectors bit-identically and checks the JSON,
the exact file size and that every value is finite; any problem is a
``CheckpointError``. ``NHFMCK1`` files, the earlier varint format, are
not read: train again to write them.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import FeatureSchema
from .errors import CheckpointError
from .model import ModelConfig, Parameters, parameter_shapes
from .training import OptimizerState

CHECKPOINT_MAGIC = b"NHFMCK2\0"
_OLD_MAGIC = b"NHFMCK1"
_HEADER = struct.Struct("<8s32sI")
_KINDS = (None, "sgd", "adam")
_PREFIXES = ("", "m:", "v:")  # params, then Adam's moments


def _layout(config: ModelConfig, n: int, table: Parameters | None = None,
            prefix: str = "") -> dict[str, tuple[int, ...]]:
    """``parameter_shapes(config, n)`` of a valid ``config``. Raise unless
    ``table``, when given, holds the same names, in order, and shapes."""
    try:
        config.validate()
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint has an invalid model config: {exc}") from None
    want = parameter_shapes(config, n)
    have = want if table is None else {name: arr.shape for name, arr in table.items()}
    if list(have) != list(want):
        raise CheckpointError(
            f"checkpoint {prefix}parameters do not match its model config: "
            f"missing {sorted(want.keys() - have.keys())}, "
            f"unexpected {sorted(have.keys() - want.keys())}"
            + ("" if have.keys() != want.keys() else ", or out of order"))
    for name, shape in want.items():
        if have[name] != shape:
            raise CheckpointError(f"parameter {prefix}{name} has shape {have[name]}, "
                                  f"expected {shape}")
    return want


def _count(value, what: str) -> int:
    if type(value) is not int or value < 0:
        raise CheckpointError(f"{what} must be an integer >= 0, got {value!r}")
    return value


@dataclass
class Checkpoint:
    model_config: ModelConfig
    schema_hash: bytes
    params: Parameters
    opt_state: OptimizerState | None
    metadata: dict

    def require_schema(self, schema: FeatureSchema) -> None:
        """Check that this checkpoint can score data encoded with
        ``schema``: the schema hash, the model config and the layout."""
        if schema.hash() != self.schema_hash:
            raise CheckpointError(
                "checkpoint was trained against a different schema "
                f"(hash {self.schema_hash.hex()[:12]}... vs "
                f"{schema.hash().hex()[:12]}...)")
        _layout(self.model_config, schema.n, self.params)


def serialize_checkpoint(ck: Checkpoint) -> bytes:
    if len(ck.schema_hash) != 32:
        raise CheckpointError(f"schema hash must be 32 bytes, got {len(ck.schema_hash)}")
    n = np.size(ck.params.get("wide.w", ()))  # the wide term has one weight per feature
    state = ck.opt_state
    kind = None if state is None else state.kind
    if kind not in _KINDS:
        raise CheckpointError(f"unknown optimizer kind {kind!r}")
    tables = [ck.params]
    if kind == "adam":
        tables += [state.m, state.v]
    for prefix, table in zip(_PREFIXES, tables):
        _layout(ck.model_config, n, table, prefix)
    head = json.dumps({"model": asdict(ck.model_config), "n": n, "optimizer": kind,
                       "step": 0 if state is None else _count(state.step, "the optimizer step"),
                       "metadata": ck.metadata}, sort_keys=True).encode("utf-8")
    head += b" " * (-(_HEADER.size + len(head)) % 8)
    return b"".join([_HEADER.pack(CHECKPOINT_MAGIC, ck.schema_hash, len(head)), head,
                     *(table.flat.astype("<f8").tobytes() for table in tables)])


def deserialize_checkpoint(blob: bytes) -> Checkpoint:
    size = len(blob)
    if blob[:len(_OLD_MAGIC)] == _OLD_MAGIC:
        raise CheckpointError("this is an NHFMCK1 checkpoint, an older format that is no "
                              "longer read; run `nhfm train` again to write it")
    if blob[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC[:min(size, len(CHECKPOINT_MAGIC))]:
        raise CheckpointError(f"bad magic {bytes(blob[:8])!r}, expected {CHECKPOINT_MAGIC!r}")
    if size < _HEADER.size:
        raise CheckpointError(f"truncated file: expected {_HEADER.size} bytes for the "
                              f"header, got {size}")
    _, schema_hash, head_size = _HEADER.unpack_from(blob)
    start = _HEADER.size + head_size
    if size < start:
        raise CheckpointError(f"truncated file: expected {start} bytes for the header "
                              f"and its JSON block, got {size}")
    try:
        head = json.loads(blob[_HEADER.size:start].decode("utf-8"))
        cfg = head["model"]
        config = ModelConfig(
            variant=cfg["variant"], k=_count(cfg["k"], "k"), h=_count(cfg["h"], "h"),
            mlp_widths=tuple(_count(w, "an MLP width") for w in cfg["mlp_widths"]),
            t_max=_count(cfg["t_max"], "t_max"))
        n, kind = _count(head["n"], "the feature count"), head["optimizer"]
        step, metadata = _count(head["step"], "the optimizer step"), head["metadata"]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # bad UTF-8 or JSON too
        raise CheckpointError(f"checkpoint JSON block is not valid: {exc!r}") from None
    if kind not in _KINDS:
        raise CheckpointError(f"unknown optimizer kind {kind!r}")

    shapes = _layout(config, n)
    sizes = [math.prod(shape) for shape in shapes.values()]
    expected = start + 8 * sum(sizes) * (3 if kind == "adam" else 1)
    if size < expected:
        raise CheckpointError(f"truncated file: expected {expected} bytes, got {size}")
    if size > expected:
        raise CheckpointError(f"{size - expected} trailing bytes after the last vector")
    # read-only views of the file; Parameters copies each into its own vector
    vectors = np.frombuffer(blob, dtype="<f8", offset=start).reshape(-1, sum(sizes))
    tables = []
    for prefix, flat in zip(_PREFIXES, vectors):
        views = {name: part.reshape(shape) for (name, shape), part
                 in zip(shapes.items(), np.split(flat, np.cumsum(sizes)[:-1]))}
        if not np.isfinite(flat).all():
            bad = next(name for name, arr in views.items() if not np.isfinite(arr).all())
            raise CheckpointError(f"blob {prefix}{bad} holds a non-finite value")
        tables.append(Parameters(views))
    opt_state = None if kind is None else OptimizerState(kind, step, *tables[1:])
    return Checkpoint(config, schema_hash, tables[0], opt_state, metadata)


def save_checkpoint(ck: Checkpoint, path) -> None:
    Path(path).write_bytes(serialize_checkpoint(ck))


def load_checkpoint(path) -> Checkpoint:
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    try:
        return deserialize_checkpoint(blob)
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None

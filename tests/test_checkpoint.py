"""Checkpoint round-trips, framing errors and corrupt files."""

import dataclasses
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhfm import checkpoint as cp
from nhfm import model as m
from nhfm import synthetic as syn
from nhfm import training as tr
from nhfm.errors import CheckpointError


def _checkpoint():
    spec = syn.SynthSpec(n_users=5, t_max=4)
    schema = syn.synth_schema(spec)
    config = m.ModelConfig(variant="full", k=3, h=2, mlp_widths=(4, 1), t_max=4)
    params = m.init_parameters(config, schema.n, seed=11)
    state = tr.OptimizerState.fresh("adam", params)
    state.step = 7
    state.m["embed.V"] += 0.25
    meta = {"epoch": 7, "seed": 11, "metric_history": [0.6, 0.65, 0.7]}
    return cp.Checkpoint(config, schema.hash(), params, state, meta), schema


@pytest.fixture
def checkpoint():
    return _checkpoint()


class TestRoundTrip:
    def test_parameters_bit_identical(self, tmp_path, checkpoint):
        ck, _ = checkpoint
        path = tmp_path / "model.nhfmck"
        cp.save_checkpoint(ck, path)
        loaded = cp.load_checkpoint(path)
        assert loaded.params.names() == ck.params.names()
        for name in ck.params:
            assert np.array_equal(loaded.params[name], ck.params[name])

    def test_config_state_metadata_survive(self, tmp_path, checkpoint):
        ck, _ = checkpoint
        path = tmp_path / "model.nhfmck"
        cp.save_checkpoint(ck, path)
        loaded = cp.load_checkpoint(path)
        assert loaded.model_config == ck.model_config
        assert loaded.metadata == ck.metadata
        assert loaded.opt_state.kind == "adam"
        assert loaded.opt_state.step == 7
        np.testing.assert_array_equal(loaded.opt_state.m["embed.V"],
                                      ck.opt_state.m["embed.V"])

    def test_save_is_deterministic(self, tmp_path, checkpoint):
        ck, _ = checkpoint
        a, b = tmp_path / "a", tmp_path / "b"
        cp.save_checkpoint(ck, a)
        cp.save_checkpoint(ck, b)
        assert a.read_bytes() == b.read_bytes()

    def test_optionless_state(self, tmp_path, checkpoint):
        ck, _ = checkpoint
        ck.opt_state = None
        path = tmp_path / "model.nhfmck"
        cp.save_checkpoint(ck, path)
        assert cp.load_checkpoint(path).opt_state is None

    def test_sgd_state_keeps_kind_and_step_without_moments(self, tmp_path, checkpoint):
        ck, _ = checkpoint
        ck.opt_state = tr.OptimizerState.fresh("sgd", ck.params)
        ck.opt_state.step = 12
        path = tmp_path / "model.nhfmck"
        cp.save_checkpoint(ck, path)
        loaded = cp.load_checkpoint(path)
        assert (loaded.opt_state.kind, loaded.opt_state.step) == ("sgd", 12)
        assert len(loaded.opt_state.m) == len(loaded.opt_state.v) == 0
        np.testing.assert_array_equal(loaded.params.flat, ck.params.flat)
        assert path.stat().st_size == _head_end(path.read_bytes()) + 8 * ck.params.count()

    def test_vectors_are_the_flat_arrays_aligned_after_the_json(self, checkpoint):
        ck, _ = checkpoint
        blob = cp.serialize_checkpoint(ck)
        start = _head_end(blob)
        assert start % 8 == 0
        count = ck.params.count()
        vectors = np.frombuffer(blob, dtype="<f8", offset=start).reshape(3, count)
        for vector, table in zip(vectors, (ck.params, ck.opt_state.m, ck.opt_state.v)):
            assert vector.tobytes() == table.flat.tobytes()


def _head_end(blob: bytes) -> int:
    """Where the JSON block ends and the vectors start."""
    return 44 + struct.unpack_from("<I", blob, 40)[0]


def _with_head(blob: bytes, edit) -> bytes:
    """``blob`` with its JSON block passed through ``edit`` and re-padded."""
    end = _head_end(blob)
    raw = edit(json.loads(blob[44:end]))
    raw = raw if isinstance(raw, bytes) else json.dumps(raw, sort_keys=True).encode("utf-8")
    raw += b" " * (-(44 + len(raw)) % 8)
    return blob[:40] + struct.pack("<I", len(raw)) + raw + blob[end:]


class TestFraming:
    def test_missing_file_names_the_path(self, tmp_path):
        path = tmp_path / "seed-1" / "checkpoint.nhfmck"
        with pytest.raises(CheckpointError, match=re.escape(f"cannot read checkpoint {path}")):
            cp.load_checkpoint(path)

    def test_truncated_file_names_byte_counts(self, tmp_path, checkpoint):
        ck, _ = checkpoint
        path = tmp_path / "model.nhfmck"
        blob = cp.serialize_checkpoint(ck)
        path.write_bytes(blob[:100])
        with pytest.raises(CheckpointError, match="expected .* bytes"):
            cp.load_checkpoint(path)

    def test_nhfmck1_files_are_refused(self, tmp_path):
        # an alpha checkpoint with an sgd state in the earlier varint format
        blob = (Path(__file__).parent / "data" / "alpha_seed11.nhfmck1").read_bytes()
        assert blob.startswith(b"NHFMCK1\x01\x00")
        path = tmp_path / "model.nhfmck"
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="NHFMCK1 checkpoint.*train` again"):
            cp.load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda head: b"\xff{}", "JSON block is not valid"),
        (lambda head: b"{", "JSON block is not valid"),
        (lambda head: [head], "JSON block is not valid"),
        (lambda head: {k: v for k, v in head.items() if k != "metadata"},
         "JSON block is not valid: KeyError('metadata')"),
        (lambda head: {**head, "model": {**head["model"], "mlp_widths": [4, 2]}},
         "invalid model config: final MLP width"),
        (lambda head: {**head, "model": {**head["model"], "variant": "gamma"}},
         "invalid model config: variant must be"),
        (lambda head: {**head, "model": {**head["model"], "k": 3.0}},
         "k must be an integer >= 0, got 3.0"),
        (lambda head: {**head, "model": {**head["model"], "h": True}},
         "h must be an integer >= 0, got True"),
        (lambda head: {**head, "optimizer": "rmsprop"}, "unknown optimizer kind 'rmsprop'"),
        (lambda head: {**head, "step": -1}, "the optimizer step must be an integer >= 0"),
        (lambda head: {**head, "n": -1}, "the feature count must be an integer >= 0, got -1"),
        (lambda head: {**head, "n": head["n"] + 1}, "truncated file: expected"),
        (lambda head: {**head, "n": head["n"] - 1}, "trailing bytes"),
        (lambda head: {**head, "optimizer": None}, "trailing bytes"),
    ])
    def test_bad_json_block_rejected(self, tmp_path, checkpoint, edit, message):
        ck, _ = checkpoint
        path = tmp_path / "model.nhfmck"
        path.write_bytes(_with_head(cp.serialize_checkpoint(ck), edit))
        with pytest.raises(CheckpointError, match=re.escape(message)):
            cp.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path, checkpoint):
        ck, _ = checkpoint
        blob = bytearray(cp.serialize_checkpoint(ck))
        blob[0] ^= 0xFF
        path = tmp_path / "model.nhfmck"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="magic"):
            cp.load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path, checkpoint):
        ck, _ = checkpoint
        path = tmp_path / "model.nhfmck"
        path.write_bytes(cp.serialize_checkpoint(ck) + b"extra")
        with pytest.raises(CheckpointError, match="trailing"):
            cp.load_checkpoint(path)


class TestSchemaGuard:
    def test_matching_schema_accepted(self, checkpoint):
        ck, schema = checkpoint
        ck.require_schema(schema)

    def test_mismatched_schema_rejected(self, checkpoint):
        ck, _ = checkpoint
        other = syn.synth_schema(syn.SynthSpec(vocab_size=5))
        with pytest.raises(CheckpointError, match="different schema"):
            ck.require_schema(other)

    def test_parameter_of_the_wrong_shape_rejected(self, checkpoint):
        ck, schema = checkpoint
        ck.params = m.Parameters({**dict(ck.params.items()), "embed.V": ck.params["embed.V"][:5]})
        with pytest.raises(CheckpointError, match=re.escape("embed.V has shape (5, 3)")):
            ck.require_schema(schema)

    def test_missing_parameter_rejected(self, checkpoint):
        ck, schema = checkpoint
        ck.params = m.Parameters({name: arr for name, arr in ck.params.items()
                                  if name != "mlp.0.b"})
        with pytest.raises(CheckpointError, match=re.escape("missing ['mlp.0.b']")):
            ck.require_schema(schema)

    def test_parameters_out_of_order_refused_on_save(self, checkpoint):
        ck, _ = checkpoint
        ck.params = m.Parameters(dict(reversed(list(ck.params.items()))))
        with pytest.raises(CheckpointError,
                           match=re.escape("missing [], unexpected [], or out of order")):
            cp.serialize_checkpoint(ck)

    def test_moments_of_another_layout_refused_on_save(self, checkpoint):
        ck, _ = checkpoint
        ck.opt_state.v = m.Parameters({name: arr for name, arr in ck.opt_state.v.items()
                                       if name != "wide.b"})
        with pytest.raises(CheckpointError,
                           match=re.escape("checkpoint v:parameters do not match its model "
                                           "config: missing ['wide.b']")):
            cp.serialize_checkpoint(ck)

    def test_invalid_model_config_rejected(self, checkpoint):
        ck, schema = checkpoint
        ck.model_config = dataclasses.replace(ck.model_config, mlp_widths=(4, 2))
        with pytest.raises(CheckpointError, match="invalid model config"):
            ck.require_schema(schema)


class TestNonFiniteBlobs:
    @pytest.mark.parametrize("table", ["params", "m", "v"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejected_naming_the_blob(self, tmp_path, checkpoint, table, value):
        ck, _ = checkpoint
        arrays = ck.params if table == "params" else getattr(ck.opt_state, table)
        bad = arrays["attn.F2.W"].copy()
        bad[1, 0] = value
        arrays["attn.F2.W"] = bad
        path = tmp_path / "model.nhfmck"
        cp.save_checkpoint(ck, path)
        name = "attn.F2.W" if table == "params" else f"{table}:attn.F2.W"
        with pytest.raises(CheckpointError,
                           match=re.escape(f"blob {name} holds a non-finite value")):
            cp.load_checkpoint(path)


_FUZZ_CK, _FUZZ_SCHEMA = _checkpoint()
_FUZZ_BLOB = cp.serialize_checkpoint(_FUZZ_CK)


def _flip(spot):
    pos, bit = spot
    blob = bytearray(_FUZZ_BLOB)
    blob[pos] ^= 1 << bit
    return bytes(blob)


@given(st.one_of(
    st.integers(0, len(_FUZZ_BLOB) - 1).map(lambda n: _FUZZ_BLOB[:n]),
    st.tuples(st.integers(0, len(_FUZZ_BLOB) - 1), st.integers(0, 7)).map(_flip)))
@settings(max_examples=300, deadline=None)
def test_corrupt_checkpoint_raises_checkpoint_error_or_loads_finite(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz.nhfmck"
    path.write_bytes(blob)
    try:
        ck = cp.load_checkpoint(path)
    except CheckpointError:
        return
    tables = [dict(ck.params.items())]
    if ck.opt_state is not None:
        tables += [ck.opt_state.m, ck.opt_state.v]
    assert all(np.all(np.isfinite(arr)) for table in tables for arr in table.values())
    try:
        ck.require_schema(_FUZZ_SCHEMA)
    except CheckpointError:
        pass

"""Checkpoint round-trips and framing errors."""

import dataclasses
import re

import numpy as np
import pytest

from nhfm import checkpoint as cp
from nhfm import model as m
from nhfm import synthetic as syn
from nhfm import training as tr
from nhfm.errors import CheckpointError


@pytest.fixture
def checkpoint():
    spec = syn.SynthSpec(n_users=5, t_max=4)
    schema = syn.synth_schema(spec)
    config = m.ModelConfig(variant="full", k=3, h=2, mlp_widths=(4, 1), t_max=4)
    params = m.init_parameters(config, schema.n, seed=11)
    state = tr.OptimizerState.fresh("adam", params)
    state.step = 7
    state.m["embed.V"] += 0.25
    meta = {"epoch": 7, "seed": 11, "metric_history": [0.6, 0.65, 0.7]}
    return cp.Checkpoint(config, schema.hash(), params, state, meta), schema


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


class TestFraming:
    def test_truncated_file_names_byte_counts(self, tmp_path, checkpoint):
        ck, _ = checkpoint
        path = tmp_path / "model.nhfmck"
        blob = cp.serialize_checkpoint(ck)
        path.write_bytes(blob[:100])
        with pytest.raises(CheckpointError, match="expected .* bytes"):
            cp.load_checkpoint(path)

    def test_version_bump_rejected(self, tmp_path, checkpoint):
        ck, _ = checkpoint
        blob = bytearray(cp.serialize_checkpoint(ck))
        blob[7] = 99  # version u16 lives right after the 7-byte magic
        path = tmp_path / "model.nhfmck"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
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

    def test_invalid_model_config_rejected(self, checkpoint):
        ck, schema = checkpoint
        ck.model_config = dataclasses.replace(ck.model_config, mlp_widths=(4, 2))
        with pytest.raises(CheckpointError, match="invalid model config"):
            ck.require_schema(schema)

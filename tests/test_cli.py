"""End-to-end command tests over a small synthetic configuration."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhfm
from nhfm import checkpoint as cp
from nhfm import data as d
from nhfm import dataset_io as dio
from nhfm import model as m
from nhfm import training as tr
from nhfm.cli import DEFAULT_CONFIG, RunConfig, ingest_generic, main
from nhfm.errors import CheckpointError, DataError, NumericalError


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "dataset": {
            "kind": "synthetic",
            "t_max": 5,
            "synth": {"n_users": 40, "n_fields": 3, "vocab_size": 5,
                      "len_min": 3, "len_max": 7},
            "synth_seed": 3,
        },
        "model": {"variant": "full", "k": 3, "h": 2, "mlp_widths": [4, 1]},
        "train": {"learning_rate": 0.01, "batch_size": 16, "max_epochs": 2,
                  "patience": 3},
        "seeds": [1, 2],
        "out_dir": str(tmp_path / "run"),
        "fpr_ceiling": 0.1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path, tmp_path / "run"


def run_cli(*args) -> int:
    return main([str(a) for a in args])


class TestPreprocess:
    def test_writes_data_files_and_stats(self, config_file, capsys):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        for name in ("schema.json", "train.nhfmds", "valid.nhfmds",
                     "test.nhfmds", "stats.txt"):
            assert (out / "data" / name).exists()
        assert (out / "config.json").read_text() == config.read_text()
        printed = capsys.readouterr().out
        assert "#pos=" in printed and "#fields=3" in printed

    def test_refuses_non_empty_dir_without_force(self, config_file, capsys):
        config, _ = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("preprocess", "--config", config) == 1
        assert run_cli("preprocess", "--config", config, "--force") == 0

    def test_rerun_is_byte_identical(self, config_file, tmp_path):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        first = (out / "data" / "train.nhfmds").read_bytes()
        assert run_cli("preprocess", "--config", config, "--force") == 0
        assert (out / "data" / "train.nhfmds").read_bytes() == first

    def test_set_override_changes_dataset(self, config_file):
        config, out = config_file
        assert run_cli("preprocess", "--config", config,
                       "--set", "dataset.synth.n_users=10") == 0
        assert (out / "config.effective.json").exists()
        effective = json.loads((out / "config.effective.json").read_text())
        assert effective["dataset"]["synth"]["n_users"] == 10

    def test_bad_override_is_usage_error(self, config_file):
        config, _ = config_file
        assert run_cli("preprocess", "--config", config, "--set", "nonsense") == 1


class TestTrain:
    def test_requires_preprocessed_data(self, config_file, capsys):
        config, _ = config_file
        assert run_cli("train", "--config", config) == 2
        assert "preprocess" in capsys.readouterr().err

    def test_writes_checkpoints_and_summary(self, config_file, capsys):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        for seed in (1, 2):
            assert (out / f"seed-{seed}" / "checkpoint.nhfmck").exists()
            log = (out / f"seed-{seed}" / "train_log.txt").read_text()
            assert "train_nll=" in log and "valid_auc=" in log
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["metrics"]["auc"]) == {"1", "2"}
        text = (out / "summary.txt").read_text()
        assert "±" in text  # mean±CI formatting

    def test_single_seed_omits_ci(self, config_file):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--seed", "7") == 0
        assert "CI omitted" in (out / "summary.txt").read_text()

    def test_variant_flag_selects_alpha(self, config_file):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--variant", "alpha",
                       "--seeds", "3") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["variant"] == "alpha"

    def test_refuses_existing_seed_dir_without_force(self, config_file):
        config, _ = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--seeds", "1") == 0
        assert run_cli("train", "--config", config, "--seeds", "1") == 1
        assert run_cli("train", "--config", config, "--seeds", "1", "--force") == 0


class TestEvalExplain:
    @pytest.fixture
    def trained(self, config_file):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        return config, out

    def test_eval_writes_report(self, trained, capsys):
        config, out = trained
        assert run_cli("eval", "--config", config) == 0
        report = (out / "eval-test.txt").read_text()
        assert "auc" in report and "mean±95%CI" in report

    def test_eval_deterministic(self, trained):
        config, out = trained
        assert run_cli("eval", "--config", config) == 0
        first = (out / "eval-test.txt").read_text()
        assert run_cli("eval", "--config", config) == 0
        assert (out / "eval-test.txt").read_text() == first

    def test_eval_against_baseline_reports_pvalue(self, trained):
        config, out = trained
        assert run_cli("eval", "--config", config,
                       "--baseline", out) == 0
        report = (out / "eval-test.txt").read_text()
        assert "p-value" in report

    def test_eval_without_checkpoints_is_data_error(self, config_file):
        config, _ = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("eval", "--config", config) == 2

    def test_eval_rejects_a_checkpoint_of_the_wrong_shape(self, trained, capsys):
        config, out = trained
        path = out / "seed-1" / "checkpoint.nhfmck"
        ck = cp.load_checkpoint(path)
        n = len(ck.params["embed.V"])
        # a file holds the layout of its own config and feature count, so
        # save refuses an embedding table that alone has another shape
        short = m.Parameters({**dict(ck.params.items()), "embed.V": ck.params["embed.V"][:5]})
        with pytest.raises(CheckpointError, match=re.escape("embed.V has shape (5, 3)")):
            cp.save_checkpoint(dataclasses.replace(ck, params=short), path)
        # a consistent checkpoint for n - 1 features loads, and eval refuses it
        shapes = m.parameter_shapes(ck.model_config, n - 1)
        ck.params = m.Parameters({name: np.resize(arr, shapes[name])
                                  for name, arr in ck.params.items()})
        ck.opt_state = tr.OptimizerState.fresh("adam", ck.params)
        cp.save_checkpoint(ck, path)
        assert run_cli("eval", "--config", config) == 2
        assert f"embed.V has shape ({n - 1}, 3), expected ({n}, 3)" in capsys.readouterr().err

    def test_eval_rejects_a_non_finite_parameter(self, trained, capsys):
        config, out = trained
        path = out / "seed-1" / "checkpoint.nhfmck"
        ck = cp.load_checkpoint(path)
        bad = ck.params["embed.V"].copy()
        bad[0, 0] = np.nan
        ck.params["embed.V"] = bad
        cp.save_checkpoint(ck, path)
        assert run_cli("eval", "--config", config) == 2
        assert "blob embed.V holds a non-finite value" in capsys.readouterr().err

    def test_explain_writes_rankings_and_reports(self, trained):
        config, out = trained
        assert run_cli("explain", "--config", config, "--count", "5") == 0
        text = (out / "explain.txt").read_text()
        assert "High-risk features" in text
        assert "Low-risk features" in text
        assert "user=" in text

    def test_explain_on_an_alpha_checkpoint_ranks_features_only(self, config_file, capsys):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--variant", "alpha", "--seeds", "1") == 0
        capsys.readouterr()
        assert run_cli("explain", "--config", config, "--count", "4") == 0
        text = (out / "explain.txt").read_text()
        assert capsys.readouterr().out == text
        assert "High-risk features" in text and "Low-risk features" in text
        assert "user=" not in text
        assert "needs a beta or full checkpoint" in text

    @pytest.mark.parametrize("option", ["--count", "--sequences"])
    def test_explain_refuses_negative_counts(self, trained, option, capsys):
        config, out = trained
        assert run_cli("explain", "--config", config, option, "-2") == 1
        assert ">=0" in capsys.readouterr().err
        assert not (out / "explain.txt").exists()
        assert run_cli("explain", "--config", config, option, "0") == 0

    def test_inspect_summarizes_a_dataset_file(self, config_file, capsys):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        capsys.readouterr()
        path = out / "data" / "valid.nhfmds"
        assert run_cli("inspect", path) == 0
        lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        schema = dio.load_schema(out / "data" / "schema.json")
        store = dio.read_dataset(path, schema).store
        n, pos = len(store), int(store.label.sum())
        assert lines["split"] == "valid"
        assert lines["windows"] == str(n)
        assert lines["t_max"] == "5"
        assert int(lines["distinct events"]) == len(store.count) - 1 < store.rows.astype(bool).sum()
        assert lines["bytes"] == f"{path.stat().st_size} ({path.stat().st_size / n:.1f} per window)"
        assert lines["labels"].startswith(f"{pos} pos / {n - pos} neg ")

    def test_inspect_refuses_a_corrupt_file(self, config_file, capsys):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        path = out / "data" / "train.nhfmds"
        path.write_bytes(path.read_bytes()[:-1])
        assert run_cli("inspect", path) == 2
        assert "truncated" in capsys.readouterr().err


def _drop_valid_file(config, out):
    assert run_cli("preprocess", "--config", config) == 0
    (out / "data" / "valid.nhfmds").unlink()
    return out / "data" / "valid.nhfmds", ["eval", "--config", config]


def _inspect_without_schema(config, out):
    assert run_cli("preprocess", "--config", config) == 0
    (out / "data" / "schema.json").unlink()
    return out / "data" / "schema.json", ["inspect", out / "data" / "train.nhfmds"]


def _generic_without_path(config, out):
    missing = out.parent / "events.jsonl"
    return missing, ["preprocess", "--config", config, "--set", "dataset.kind=generic",
                     "--set", f'dataset.path="{missing}"',
                     "--set", 'dataset.fields={"color": "categorical"}']


def _movielens_without_users(config, out):
    root = out.parent / "ml"
    root.mkdir()
    (root / "ratings.dat").write_text("1::1::5::978300760\n")
    (root / "movies.dat").write_text("1::Toy Story (1995)::Animation\n")
    return root / "users.dat", ["preprocess", "--config", config, "--set",
                                "dataset.kind=movielens",
                                "--set", f'dataset.movielens_dir="{root}"']


def _config_that_is_a_directory(config, out):
    return config.parent, ["train", "--config", config.parent]


@pytest.mark.parametrize("case", [_drop_valid_file, _inspect_without_schema,
                                  _generic_without_path, _movielens_without_users,
                                  _config_that_is_a_directory])
def test_unreadable_input_file_exits_2_naming_it(config_file, capsys, case):
    missing, args = case(*config_file)
    capsys.readouterr()
    assert run_cli(*args) == 2
    err = capsys.readouterr().err
    assert f"error: {missing}: " in err
    assert "Traceback" not in err


class TestGenericJsonl:
    @staticmethod
    def write(tmp_path, *lines):
        path = tmp_path / "events.jsonl"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    @staticmethod
    def line(user="u1", ts=0, label=0, color="red"):
        return json.dumps({"__user": user, "__ts": ts, "__label": label, "color": color})

    @pytest.mark.parametrize("label", [2, -1, 0.5, "1", "yes", None])
    def test_label_other_than_0_or_1_names_the_line(self, tmp_path, label):
        path = self.write(tmp_path, self.line(), self.line(ts=1, label=label))
        with pytest.raises(DataError, match=re.escape(f"{path}:2: __label must be 0 or 1")):
            ingest_generic(path)

    def test_mixed_timestamp_types_name_the_file(self, tmp_path):
        path = self.write(tmp_path, self.line(ts=1), self.line(ts="2024-01-02"))
        with pytest.raises(DataError, match=re.escape(f"{path}: one user's __ts values")):
            ingest_generic(path)

    def test_record_that_is_not_an_object_names_the_line(self, tmp_path):
        path = self.write(tmp_path, self.line(), "5")
        with pytest.raises(DataError,
                           match=re.escape(f"{path}:2: a record must be a JSON object")):
            ingest_generic(path)

    @pytest.mark.parametrize("value", ["1" + "0" * 5000, "[" * 100_000 + "]" * 100_000],
                             ids=["integer-over-the-digit-limit", "nested-100k-deep"])
    def test_value_the_json_parser_refuses_names_the_line(self, tmp_path, capsys, value):
        huge = self.line(ts=1)[:-1] + ', "b": ' + value + "}"
        path = self.write(tmp_path, self.line(), huge)
        with pytest.raises(DataError, match=re.escape(f"{path}:2: bad record: ")):
            ingest_generic(path)
        cfg = {"dataset": {"kind": "generic", "t_max": 3, "path": str(path),
                           "fields": {"color": "categorical", "b": "numerical"}},
               "out_dir": str(tmp_path / "run")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert run_cli("preprocess", "--config", config) == 2
        assert f"{path}:2: bad record: " in capsys.readouterr().err

    def test_preprocess_exits_2_on_a_bad_label(self, tmp_path, capsys):
        lines = [self.line(user=f"u{i % 3}", ts=i, label=i % 2) for i in range(12)]
        cfg = {"dataset": {"kind": "generic", "t_max": 3, "fields": {"color": "categorical"},
                           "path": str(self.write(tmp_path, *lines))},
               "out_dir": str(tmp_path / "run")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert run_cli("preprocess", "--config", config) == 0
        self.write(tmp_path, *lines[:-1], self.line(user="u2", ts=11, label=2))
        assert run_cli("preprocess", "--config", config, "--force") == 2
        assert ":12: __label must be 0 or 1, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ['"abc"', "[1]", "Infinity", "NaN", "{}",
                                     pytest.param("1" + "0" * 400, id="1e400")])
    def test_numerical_value_that_is_not_a_finite_number_exits_2(self, tmp_path, capsys, bad):
        lines = [self.line(user=f"u{i % 3}", ts=i, label=i % 2)[:-1] + f', "b": {i}}}'
                 for i in range(12)]
        lines[4] = lines[4][:lines[4].rindex(":") + 2] + bad + "}"
        cfg = {"dataset": {"kind": "generic", "t_max": 3,
                           "fields": {"color": "categorical", "b": "numerical"},
                           "path": str(self.write(tmp_path, *lines))},
               "out_dir": str(tmp_path / "run")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert run_cli("preprocess", "--config", config) == 2
        err = capsys.readouterr().err
        assert "field 'b': numerical value" in err and "is not a finite number" in err
        assert not (tmp_path / "run" / "data" / "schema.json").exists()

    @pytest.mark.parametrize("bad", ["abc", float("inf"), float("nan"), [1], {},
                                     pytest.param(10**400, id="1e400")])
    def test_encoding_refuses_a_value_outside_the_fitted_schema(self, bad):
        schema = d.fit_schema([{"b": 1.0}, {"b": 3.0}], {"b": "numerical"})
        assert d.encode_event({"b": 2.0}, schema).entries == ((0, 0.5),)
        with pytest.raises(DataError, match=re.escape(f"field 'b': numerical value {bad!r}")):
            d.encode_event({"b": bad}, schema)

    def test_fields_that_are_not_an_object_exit_2(self, tmp_path, capsys):
        cfg = {"dataset": {"kind": "generic", "t_max": 3, "fields": ["color"],
                           "path": str(self.write(tmp_path, self.line()))},
               "out_dir": str(tmp_path / "run")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert run_cli("preprocess", "--config", config) == 2
        assert "dataset.fields must be a JSON object" in capsys.readouterr().err
        assert run_cli("preprocess", "--config", config, "--force",
                       "--set", 'dataset.fields=["a","b"]') == 2

    def ten_event_run(self, tmp_path, label):
        """Six users of ten events, labelled ``label(user, event)``; each
        user's last two events fall to the valid and the test split."""
        lines = [self.line(user=f"u{u}", ts=t, label=label(u, t), color=f"c{(u + t) % 3}")
                 for u in range(6) for t in range(10)]
        cfg = {"dataset": {"kind": "generic", "t_max": 3, "fields": {"color": "categorical"},
                           "path": str(self.write(tmp_path, *lines))},
               "model": {"k": 2, "h": 2, "mlp_widths": [2, 1]},
               "train": {"max_epochs": 1}, "seeds": [1],
               "out_dir": str(tmp_path / "run")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        return config, tmp_path / "run"

    @pytest.mark.parametrize("split", ["valid", "test"])
    def test_train_rejects_a_one_class_split_before_training(self, tmp_path, capsys, split):
        one_class = 8 if split == "valid" else 9
        config, out = self.ten_event_run(
            tmp_path, lambda u, t: 0 if t == one_class else (u + t) % 2)
        assert run_cli("preprocess", "--config", config) == 0
        assert f"{split}: 6 sequences (0 pos / 6 neg)" in capsys.readouterr().out
        assert run_cli("train", "--config", config) == 2
        assert f"{split} split has 0 positives / 6 negatives" in capsys.readouterr().err
        assert not list(out.glob("seed-*"))

    def test_eval_rejects_a_one_class_split(self, tmp_path, capsys):
        # training windows are all negative, which training allows
        config, out = self.ten_event_run(tmp_path, lambda u, t: (u + t) % 2 if t >= 8 else 0)
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config) == 0
        capsys.readouterr()
        assert run_cli("eval", "--config", config, "--split", "train") == 2
        assert "train split has 0 positives / 48 negatives" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_and_prints_report(self, capsys):
        assert run_cli("gradcheck") == 0
        printed = capsys.readouterr().out
        assert "gradient check passed" in printed
        assert "worst:" in printed

    def test_checks_the_batched_backward(self, monkeypatch, capsys):
        true_backward = m._mlp_backward

        def scaled_backward(dout, cache, params, grads):
            dx = true_backward(dout, cache, params, grads)
            grads["mlp.0.W"] = 1.05 * grads["mlp.0.W"]
            return dx

        monkeypatch.setattr(m, "_mlp_backward", scaled_backward)
        assert run_cli("gradcheck") == 3
        printed = capsys.readouterr().out
        assert "FAIL mlp.0.W" in printed


class TestUsage:
    def test_unknown_command(self):
        assert run_cli("frobnicate") == 1

    def test_missing_config_file(self):
        assert run_cli("preprocess", "--config", "/nonexistent.json") == 1


class TestConfigDefaults:
    def test_overrides_leave_the_defaults_alone(self):
        cfg = RunConfig.load(None, ("model.k=3", "train.batch_size=7"))
        assert cfg.raw["model"]["k"] == 3
        assert DEFAULT_CONFIG["model"]["k"] == 64
        assert DEFAULT_CONFIG["train"]["batch_size"] == 32
        cfg.raw["model"]["variant"] = "alpha"  # as `train --variant` does
        assert DEFAULT_CONFIG["model"]["variant"] == "full"


class TestBadConfigValues:
    """Bad config values and run-directory files end in an error message
    and exit code 2, never a traceback."""

    @pytest.mark.parametrize("override, message", [
        ("train.learning_rate=-1", "learning_rate must be finite and > 0"),
        ("train.patience=0", "patience must be >= 1"),
        ("train.optimizer=rmsprop", "unknown optimizer 'rmsprop'"),
        ("train.batch_size=0", "batch_size must be >= 1"),
        ("train.eval_every=0", "eval_every must be >= 1"),
        ("train.max_epochs=0", "max_epochs must be >= 1"),
        ("model.k=abc", "invalid model config"),
        ("model.k=0", "k and h must be >= 1"),
        ("model.variant=gamma", "variant must be one of"),
        ("model.mlp_widths=[4,2]", "final MLP width must be 1"),
        ("model.mlp_widths=[0,1]", "MLP widths must be >= 1"),
        ("train.grad_clip_norm=0", "grad_clip_norm must be finite and > 0"),
        ("train.pos_weight=NaN", "pos_weight must be finite and > 0"),
        ("seeds=5", "expected a list of seeds"),
        ("seeds=[-1]", "a seed must be >= 0"),
        ("dataset.ratios=[0.5,0.5]", "invalid dataset.ratios"),
        ("fpr_ceiling=abc", "invalid fpr_ceiling"),
    ])
    def test_train_rejects_before_training(self, config_file, capsys, override, message):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--set", override) == 2
        assert message in capsys.readouterr().err
        assert not list(out.glob("seed-*"))

    def test_seeds_flag_that_is_not_a_number(self, config_file, capsys):
        config, _ = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--seeds", "1,x") == 2
        assert "invalid seeds" in capsys.readouterr().err

    def test_unknown_synth_key(self, config_file, capsys):
        config, _ = config_file
        assert run_cli("preprocess", "--config", config, "--set", "dataset.synth.bogus=1") == 2
        assert "invalid dataset.synth" in capsys.readouterr().err

    def test_gradcheck_k_zero(self, capsys):
        assert run_cli("gradcheck", "--set", "gradcheck.k=0") == 2
        assert "invalid gradcheck config" in capsys.readouterr().err

    def test_config_file_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1]")
        assert run_cli("train", "--config", path) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("ceiling", ["2", "0", "nan"])
    def test_eval_fpr_ceiling_outside_the_unit_interval(self, config_file, capsys, ceiling):
        config, _ = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("eval", "--config", config, "--fpr-ceiling", ceiling) == 2
        assert "invalid fpr_ceiling: must be in (0, 1]" in capsys.readouterr().err

    def test_failed_train_leaves_no_seed_dir(self, config_file, monkeypatch):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0

        def diverge(*args, **kwargs):
            raise NumericalError("injected")

        monkeypatch.setattr(tr, "train", diverge)
        assert run_cli("train", "--config", config) == 3
        assert not list(out.glob("seed-*"))

    def test_eval_on_an_empty_seed_dir(self, config_file, capsys):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        (out / "seed-1").mkdir()
        assert run_cli("eval", "--config", config) == 2
        err = capsys.readouterr().err
        assert f"cannot read checkpoint {out / 'seed-1' / 'checkpoint.nhfmck'}" in err

    def test_eval_against_a_corrupt_baseline_summary(self, config_file, tmp_path, capsys):
        config, _ = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--seeds", "1") == 0
        baseline = tmp_path / "baseline"
        baseline.mkdir()
        (baseline / "summary.json").write_text('{"metrics": {"auc": [0.5]}}')
        assert run_cli("eval", "--config", config, "--baseline", baseline) == 2
        assert f"cannot read baseline {baseline / 'summary.json'}" in capsys.readouterr().err

    def test_corrupt_schema(self, config_file, capsys):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        schema = out / "data" / "schema.json"
        schema.write_text(schema.read_text()[:40])
        assert run_cli("train", "--config", config) == 2
        assert f"{schema}: schema is not valid JSON" in capsys.readouterr().err


_BAD_VALUES = [
    ("train.learning_rate", ["-1", "0", "abc", "NaN", "Infinity", "[1]", "null"]),
    ("train.patience", ["0", "-3", "abc", "{}"]),
    ("train.optimizer", ["rmsprop", "5", "null"]),
    ("train.batch_size", ["0", "-1", "x", "[]"]),
    ("train.eval_every", ["0", "-1", "abc"]),
    ("train.max_epochs", ["0", "-2", "abc"]),
    ("train.grad_clip_norm", ["0", "-1", "NaN", "abc"]),
    ("train.pos_weight", ["0", "-2", "NaN", "abc"]),
    ("train", ["5", "{}"]),
    ("model.k", ["abc", "0", "-1", "[2]", "1.5e400"]),
    ("model.h", ["0", "abc"]),
    ("model.variant", ["gamma", "3", "null"]),
    ("model.mlp_widths", ["[4,2]", "[]", "5", "abc", "[0,1]"]),
    ("model", ["5", "{}"]),
    ("dataset.t_max", ["0", "abc"]),
    ("seeds", ["5", "[]", "[1,1]", "[-1]", "abc", "[\"a\"]"]),
    ("dataset.ratios", ["[0.5,0.5]", "[0.5,0.6,0.1]", "1", "[-0.1,0.6,0.5]", "[0,0.5,0.5]"]),
    ("fpr_ceiling", ["abc", "0", "2", "-0.5", "NaN", "null"]),
    ("out_dir", ["null", "5"]),
]
_BAD_PREPROCESS = [
    ("dataset.synth.bogus", ["1"]),
    ("dataset.synth", ["abc", "5"]),
    ("dataset.synth.n_users", ["abc", "0"]),
    ("dataset.synth_seed", ["-1", "abc"]),
]
_BAD_GRADCHECK = [
    ("gradcheck.k", ["0", "abc", "-2"]),
    ("gradcheck.h", ["0"]),
    ("gradcheck.seed", ["-1", "abc"]),
    ("gradcheck", ["5"]),
]


def _overrides(table, commands):
    return st.tuples(st.sampled_from(commands), st.sampled_from(
        [f"{key}={value}" for key, values in table for value in values]))


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A preprocessed and trained run directory, shared by the properties
    below, which restore every file they change."""
    root = tmp_path_factory.mktemp("trained")
    cfg = {
        "dataset": {"kind": "synthetic", "t_max": 5, "synth_seed": 3,
                    "synth": {"n_users": 30, "n_fields": 3, "vocab_size": 5,
                              "len_min": 3, "len_max": 7}},
        "model": {"variant": "full", "k": 3, "h": 2, "mlp_widths": [4, 1]},
        "train": {"learning_rate": 0.01, "batch_size": 16, "max_epochs": 1},
        "seeds": [1], "out_dir": str(root / "run"), "fpr_ceiling": 0.1,
    }
    config = root / "config.json"
    config.write_text(json.dumps(cfg))
    assert run_cli("preprocess", "--config", config) == 0
    assert run_cli("train", "--config", config) == 0
    return config, root / "run"


@given(st.one_of(
    _overrides(_BAD_VALUES, ["preprocess", "train", "eval", "explain"]),
    _overrides(_BAD_PREPROCESS, ["preprocess"]),
    _overrides(_BAD_GRADCHECK, ["gradcheck"])))
@settings(max_examples=80, deadline=None)
def test_bad_overrides_exit_with_an_error_code(trained_run, case):
    config, _ = trained_run
    command, override = case
    args = [command, "--config", config, "--set", override]
    if command in ("preprocess", "train"):
        args.append("--force")
    assert run_cli(*args) in (1, 2, 3)


@given(st.sampled_from([("data/schema.json", "train"), ("data/schema.json", "eval"),
                        ("data/schema.json", "explain"), ("seed-1/checkpoint.nhfmck", "eval"),
                        ("seed-1/checkpoint.nhfmck", "explain")]), st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_run_files_exit_with_an_error_code(trained_run, case, data):
    config, out = trained_run
    name, command = case
    path = out / name
    original = path.read_bytes()
    path.write_bytes(original[:data.draw(st.integers(0, len(original) - 1))])
    try:
        assert run_cli(command, "--config", config) in (1, 2, 3)
    finally:
        path.write_bytes(original)


def test_importing_the_cli_does_not_import_scipy():
    src = os.path.dirname(os.path.dirname(nhfm.__file__))
    code = "import sys, nhfm.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_the_library_builds_no_tape():
    # every module of the package, after the CLI's own imports: the batched
    # engine is the only one, and the tape lives only in the tests
    src = os.path.dirname(os.path.dirname(nhfm.__file__))
    code = ("import importlib, pkgutil, sys, nhfm.cli\n"
            "for info in pkgutil.iter_modules(nhfm.__path__):\n"
            "    importlib.import_module('nhfm.' + info.name)\n"
            "print(sorted(f'{n}.{a}' for n, mod in sys.modules.items() if n.startswith('nhfm')\n"
            "             for a in ('Tape', 'Var', 'Node', 'backward') if hasattr(mod, a)),\n"
            "      'nhfm.autodiff' in sys.modules, 'tape_oracle' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] True False"

"""End-to-end command tests over a small synthetic configuration."""

import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import nhfm
from nhfm import checkpoint as cp
from nhfm import cli
from nhfm import data as d
from nhfm import dataset_io as dio
from nhfm import explain as ex
from nhfm import model as m
from nhfm import synthetic as syn
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

    def test_checkpoint_holds_no_optimizer_state(self, config_file):
        # the best epoch comes before the last, so the last epoch's moments
        # and step would not belong to the saved parameters
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--seeds", "1", "--set",
                       "train.max_epochs=8", "--set", "train.patience=1") == 0
        ck = cp.load_checkpoint(out / "seed-1" / "checkpoint.nhfmck")
        assert ck.metadata["best_epoch"] < len(ck.metadata["metric_history"])
        assert ck.opt_state is None

    def test_refuses_existing_seed_dir_without_force(self, config_file):
        config, _ = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--seeds", "1") == 0
        assert run_cli("train", "--config", config, "--seeds", "1") == 1
        assert run_cli("train", "--config", config, "--seeds", "1", "--force") == 0

    def test_a_later_seed_dir_is_refused_before_any_seed_trains(self, config_file, capsys):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        (out / "seed-2").mkdir()
        (out / "seed-2" / "notes.txt").write_text("kept")
        assert run_cli("train", "--config", config, "--seeds", "1,2") == 1
        assert f"{out / 'seed-2'} is not empty" in capsys.readouterr().err
        assert not (out / "seed-1").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_scores_that_are_not_finite_exit_3(self, config_file, capsys):
        # Adam at this rate diverges in epoch 1, before any validation, so the
        # parameters at the stop are saved and score NaN
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--seeds", "1",
                       "--set", "train.learning_rate=1e100") == 3
        err = capsys.readouterr().err
        assert "numerical failure: " in err and " test scores are not finite" in err
        assert cp.load_checkpoint(out / "seed-1" / "checkpoint.nhfmck").metadata["diverged"]
        for command in ("eval", "explain"):
            assert run_cli(command, "--config", config) == 3
            assert " test scores are not finite" in capsys.readouterr().err


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

    def test_explain_decodes_only_the_windows_it_reports(self, trained, monkeypatch):
        config, out = trained
        views = d.EventStore.views

        def one_window(store):
            if len(store) > 1:
                raise AssertionError(f"decoded {len(store)} windows")
            return views(store)

        monkeypatch.setattr(d.EventStore, "views", one_window)
        assert run_cli("explain", "--config", config, "--sequences", "2") == 0
        assert (out / "explain.txt").read_text().count("user=") == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_explain_prints_the_scores_that_picked_its_windows(self, config_file):
        # sgd at this rate overflows the MLP weights: a batch of one reads
        # NaN where the scoring chunk reads a finite, clamped probability
        config, out = config_file
        overflow = ("--set", 'train.optimizer="sgd"', "--set", "train.learning_rate=1e6",
                    "--set", "model.k=4", "--set", "model.h=4",
                    "--set", "model.mlp_widths=[8, 1]")
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--seeds", "1", *overflow) == 0
        assert run_cli("explain", "--config", config, *overflow) == 0
        ck = cp.load_checkpoint(out / "seed-1" / "checkpoint.nhfmck")
        test = dio.read_dataset(out / "data" / "test.nhfmds",
                                dio.load_schema(out / "data" / "schema.json"))
        scores = tr.predict_scores(test, ck.params, ck.model_config)
        positives = np.flatnonzero(test.store.label == 1)
        top = positives[np.argsort(-scores[positives], kind="stable")[:3]]
        printed = re.findall(r"prediction=(\S+)", (out / "explain.txt").read_text())
        assert printed == [f"{scores[i]:.4f}" for i in top]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_attention_report_gives_the_score_after_overflow(self, config_file):
        # the overflow run above: a library caller of attention_report gets
        # the finite score of the scoring pass, not a batch of one's NaN
        config, out = config_file
        overflow = ("--set", 'train.optimizer="sgd"', "--set", "train.learning_rate=1e6",
                    "--set", "model.k=4", "--set", "model.h=4",
                    "--set", "model.mlp_widths=[8, 1]")
        assert run_cli("preprocess", "--config", config) == 0
        assert run_cli("train", "--config", config, "--seeds", "1", *overflow) == 0
        ck = cp.load_checkpoint(out / "seed-1" / "checkpoint.nhfmck")
        schema = dio.load_schema(out / "data" / "schema.json")
        test = dio.read_dataset(out / "data" / "test.nhfmds", schema)
        scores = tr.predict_scores(test, ck.params, ck.model_config)
        positives = np.flatnonzero(test.store.label == 1)
        for i in positives[np.argsort(-scores[positives], kind="stable")[:3]].tolist():
            assert ex.attention_report(ck, test.store, i, schema).y_hat == scores[i]

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

    @pytest.mark.parametrize("command", ["inspect", "train"])
    def test_an_nhfmds2_file_asks_for_preprocess_again(self, config_file, capsys, command):
        config, out = config_file
        assert run_cli("preprocess", "--config", config) == 0
        old = Path(__file__).parent / "data" / "synth20_seed11.nhfmds2"
        (out / "data" / "train.nhfmds").write_bytes(old.read_bytes())
        args = (["inspect", out / "data" / "train.nhfmds"] if command == "inspect"
                else ["train", "--config", config])
        capsys.readouterr()
        assert run_cli(*args) == 2
        assert re.search(r"NHFMDS2 dataset file.*re-run `nhfm preprocess`",
                         capsys.readouterr().err)


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
            ingest_generic(path, {"color": "categorical"})

    def test_mixed_timestamp_types_name_the_file(self, tmp_path):
        path = self.write(tmp_path, self.line(ts=1), self.line(ts="2024-01-02"))
        with pytest.raises(DataError, match=re.escape(f"{path}: one user's __ts values")):
            ingest_generic(path, {"color": "categorical"})

    def test_record_that_is_not_an_object_names_the_line(self, tmp_path):
        path = self.write(tmp_path, self.line(), "5")
        with pytest.raises(DataError,
                           match=re.escape(f"{path}:2: a record must be a JSON object")):
            ingest_generic(path, {"color": "categorical"})

    @pytest.mark.parametrize("value", ["1" + "0" * 5000, "[" * 100_000 + "]" * 100_000],
                             ids=["integer-over-the-digit-limit", "nested-100k-deep"])
    def test_value_the_json_parser_refuses_names_the_line(self, tmp_path, capsys, value):
        huge = self.line(ts=1)[:-1] + ', "b": ' + value + "}"
        path = self.write(tmp_path, self.line(), huge)
        with pytest.raises(DataError, match=re.escape(f"{path}:2: bad record: ")):
            ingest_generic(path, {"color": "categorical"})
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

    def test_a_line_that_is_not_utf8_names_the_line(self, tmp_path, capsys):
        path = self.write(tmp_path, self.line(color="r\u00e9d"), self.line(ts=1),
                          self.line(ts=2, color="\U0001f600 r#d"))
        assert "r\u00e9d" in ingest_generic(path, {"color": "categorical"}).fields["color"].values
        path.write_bytes(path.read_bytes().replace(b"r#d", b"r\xffd"))
        with pytest.raises(DataError, match=re.escape(f"{path}:3: not valid UTF-8")):
            ingest_generic(path, {"color": "categorical"})
        cfg = {"dataset": {"kind": "generic", "t_max": 3, "path": str(path),
                           "fields": {"color": "categorical"}},
               "out_dir": str(tmp_path / "run")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        assert run_cli("preprocess", "--config", config) == 2
        assert f"error: {path}:3: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["abc", float("inf"), float("nan"), [1], {},
                                     pytest.param(10**400, id="1e400")])
    def test_encoding_refuses_a_value_outside_the_fitted_schema(self, bad):
        fields = {"b": "numerical"}
        schema = d.fit_schema(d.Columns.of([{"b": 1.0}, {"b": 3.0}], fields), fields)

        def encode(value):
            return d.encode_windows(d.Columns.of([{"b": value}], fields), schema, 1)
        assert encode(2.0).views()[0].current().entries == ((0, 0.5),)
        with pytest.raises(DataError, match=re.escape(f"field 'b': numerical value {bad!r}")):
            encode(bad)

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

    def test_probe_reaches_every_tensor_through_the_trimmed_lstm(self):
        store, probe, n = cli.gradcheck_probe()
        # no probe window fills the first history slot, so the BiLSTM skips it
        assert not store.rows[probe, 0].any()
        params = m.random_parameters(cli.GRADCHECK_MODEL, n, cli.GRADCHECK_SEED)
        _, grads = m.loss_and_grads(m.gather(store, probe), params, cli.GRADCHECK_MODEL)
        grads["embed.V"] = grads["embed.V"].dense()
        assert [name for name, g in grads.items() if not np.any(g)] == []

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


_INT = [True, 1.5, "1", None, [1]]
_FLOAT = [True, "0.5", None, [0.5]]
_STR = [5, True, None, ["x"]]
_SHARE = st.floats(0.0, 1.0)

# a valid value and values of other types for every config key
_KEYS = {
    "dataset.kind": (st.sampled_from(["synthetic", "movielens", "generic"]), _STR + ["x"]),
    "dataset.t_max": (st.integers(2, 40), _INT),
    "dataset.ratios": (st.sampled_from([[0.8, 0.1, 0.1], [1, 0, 0], [0.5, 0.25, 0.25],
                                        [0.6, 0.2, 0.2], [0.7, 0.3, 0]]),
                       [0.8, [True, 0, 0], ["1", 0, 0], None]),
    "dataset.synth.n_users": (st.integers(1, 1000), _INT),
    "dataset.synth.n_fields": (st.integers(2, 9), _INT),
    "dataset.synth.vocab_size": (st.integers(2, 50), _INT),
    "dataset.synth.len_min": (st.integers(1, 5), _INT),
    "dataset.synth.len_max": (st.integers(5, 30), _INT),
    "dataset.synth.rule_strength": (_SHARE, _FLOAT),
    "dataset.synth.plant_rate": (_SHARE | st.sampled_from([0, 1]), _FLOAT),
    "dataset.synth.trigger_field": (st.integers(0, 1), _INT),
    "dataset.synth.current_token": (st.integers(0, 1), _INT),
    "dataset.synth.history_token": (st.integers(0, 1), _INT),
    "dataset.synth.base_rate": (_SHARE, _FLOAT),
    "dataset.synth_seed": (st.integers(0, 2**32), _INT),
    "dataset.movielens_dir": (st.none() | st.text(), [5, True, ["x"]]),
    "dataset.path": (st.none() | st.text(), [5, True, ["x"]]),
    "dataset.fields": (st.none() | st.dictionaries(st.text(), st.sampled_from(
        ["categorical", "numerical"]), max_size=3), [["x"], 5, {"a": 1}, {"a": None}]),
    "model.variant": (st.sampled_from(m.VARIANTS), _STR),
    "model.k": (st.integers(1, 256), _INT),
    "model.h": (st.integers(1, 256), _INT),
    "model.mlp_widths": (st.lists(st.integers(1, 256), max_size=3).map(lambda w: w + [1]),
                         [5, [16.5, 1], [True], "[1]", None]),
    "train.optimizer": (st.sampled_from(["sgd", "adam"]), _STR),
    "train.learning_rate": (st.floats(1e-6, 10.0) | st.integers(1, 3), _FLOAT),
    "train.batch_size": (st.integers(1, 512), _INT),
    "train.max_epochs": (st.integers(1, 100), _INT),
    "train.patience": (st.integers(1, 10), _INT),
    "train.grad_clip_norm": (st.none() | st.floats(0.01, 100.0) | st.integers(1, 5),
                             [True, "1", [1.0]]),
    "train.eval_every": (st.integers(1, 5), _INT),
    "train.pos_weight": (st.floats(0.01, 100.0) | st.integers(1, 5), _FLOAT),
    "seeds": (st.lists(st.integers(0, 10**6), min_size=1, max_size=5, unique=True),
              [5, [1.5, 2], [True], ["1"], "1,2", None]),
    "out_dir": (st.text(), _STR),
    "fpr_ceiling": (st.floats(0.0, 1.0, exclude_min=True) | st.just(1), _FLOAT),
}


def _nested(flat: dict) -> dict:
    tree: dict = {}
    for key, value in flat.items():
        *sections, name = key.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
    return tree


def _as_floats(section: dict, names) -> dict:
    return {k: float(v) if k in names and v is not None else v for k, v in section.items()}


def _leaf_keys(table: dict, path: str = ""):
    for name, spec in table.items():
        if type(spec) is dict:
            yield from _leaf_keys(spec, f"{path}{name}.")
        else:
            yield path + name


def test_the_public_surface_is_pinned():
    # a change that adds or removes an export or a config key edits these lists
    assert nhfm.__all__ == [
        "Dataset", "Event", "EventSequence", "EventStore", "FeatureSchema", "FieldSpec",
        "fit_schema", "split",
        "RunSummary", "ScoredSet", "auc", "mean_ci", "spauc", "ttest_ind",
        "ForwardCache", "ModelConfig", "Parameters", "forward", "init_parameters",
        "SynthSpec", "synth_generate",
        "TrainConfig", "TrainResult", "nll_loss", "train",
        "__version__",
    ]
    assert sorted(_leaf_keys(cli.CONFIG_TABLE)) == [
        "dataset.fields", "dataset.kind", "dataset.movielens_dir", "dataset.path",
        "dataset.ratios", "dataset.synth.base_rate", "dataset.synth.current_token",
        "dataset.synth.history_token", "dataset.synth.len_max", "dataset.synth.len_min",
        "dataset.synth.n_fields", "dataset.synth.n_users", "dataset.synth.plant_rate",
        "dataset.synth.rule_strength", "dataset.synth.trigger_field",
        "dataset.synth.vocab_size", "dataset.synth_seed", "dataset.t_max",
        "fpr_ceiling",
        "model.h", "model.k", "model.mlp_widths", "model.variant",
        "out_dir", "seeds",
        "train.batch_size", "train.eval_every", "train.grad_clip_norm",
        "train.learning_rate", "train.max_epochs", "train.optimizer", "train.patience",
        "train.pos_weight",
    ]


def test_every_key_refuses_each_value_of_another_type():
    assert set(_KEYS) == set(_leaf_keys(cli.CONFIG_TABLE))
    for key, (_, wrong_values) in _KEYS.items():
        for wrong in wrong_values:
            cfg = copy.deepcopy(DEFAULT_CONFIG)
            *sections, name = key.split(".")
            node = cfg
            for section in sections:
                node = node[section]
            node[name] = wrong
            with pytest.raises(DataError, match=re.escape(f"{key} must be ")):
                RunConfig(cfg)


@given(st.fixed_dictionaries({key: valid for key, (valid, _) in _KEYS.items()}), st.data())
@settings(max_examples=150, deadline=None)
def test_the_config_table_builds_exactly_the_values_drawn(values, data):
    raw = _nested(values)
    cfg = RunConfig(copy.deepcopy(raw))
    ds, train = raw["dataset"], raw["train"]
    t_max = ds["t_max"]
    # repr tells 1 from 1.0 and a list from a tuple
    assert repr(cfg.model_config()) == repr(m.ModelConfig(
        raw["model"]["variant"], raw["model"]["k"], raw["model"]["h"],
        tuple(raw["model"]["mlp_widths"]), t_max))
    train = _as_floats(train, ("learning_rate", "grad_clip_norm", "pos_weight"))
    for seed in values["seeds"]:
        assert repr(cfg.train_config(seed)) == repr(tr.TrainConfig(**train, seed=seed))
    synth = _as_floats(ds["synth"], ("rule_strength", "plant_rate", "base_rate"))
    assert repr(cfg.synth) == repr(syn.SynthSpec(**synth, t_max=t_max))
    assert cfg.seeds == values["seeds"]
    assert repr(cfg.ratios()) == repr(tuple(float(r) for r in ds["ratios"]))
    assert repr(cfg.fpr_ceiling) == repr(float(values["fpr_ceiling"]))
    assert cfg.out_dir == Path(values["out_dir"])

    key = data.draw(st.sampled_from(sorted(_KEYS)))
    if data.draw(st.booleans()):
        wrong = _nested({**values, key: data.draw(st.sampled_from(_KEYS[key][1]))})
        with pytest.raises(DataError, match=re.escape(f"{key} must be ")):
            RunConfig(wrong)
    else:
        cut = data.draw(st.integers(0, len(key) - 1))
        typo = key[:cut] + data.draw(st.sampled_from(["", "x", "_"])) + key[cut + 1:]
        assume(typo not in _KEYS and not any(k.startswith(typo + ".") for k in _KEYS))
        # the message names the typo's first part that is not a config key
        parts, node, depth = typo.split("."), cli.CONFIG_TABLE, 0
        while parts[depth] in node:
            node, depth = node[parts[depth]], depth + 1
        unknown = ".".join(parts[:depth + 1])
        with pytest.raises(DataError, match=re.escape(f"{unknown} is not a config key")):
            RunConfig(_nested({**values, typo: 1}))


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
        ("seeds=5", "seeds must be a list of integers, got 5"),
        ("seeds=[-1]", "a seed must be >= 0"),
        ("dataset.ratios=[0.5,0.5]", "invalid dataset.ratios"),
        ("fpr_ceiling=abc", "invalid fpr_ceiling"),
        # a value of another type is refused, never truncated or parsed
        ("model.k=2.7", "model.k must be an integer, got 2.7"),
        ("model.k=true", "model.k must be an integer, got true"),
        ("train.max_epochs=1.5", "train.max_epochs must be an integer, got 1.5"),
        ("train.patience=2.9", "train.patience must be an integer, got 2.9"),
        ("dataset.t_max=7.9", "dataset.t_max must be an integer, got 7.9"),
        ("seeds=[1.5,2]", "seeds must be a list of integers, got [1.5, 2]"),
        ("model.mlp_widths=[16.5,1]", "model.mlp_widths must be a list of integers, got [16.5, 1]"),
        ('train.batch_size="32"', 'train.batch_size must be an integer, got "32"'),
        ("fpr_ceiling=true", "fpr_ceiling must be a number, got true"),
        ("train.grad_clip_norm=true", "train.grad_clip_norm must be a number or null, got true"),
        ("dataset.ratios=[true,0,0]", "dataset.ratios must be a list of numbers, got [true, 0, 0]"),
        ("gradcheck.k=2.5", "invalid gradcheck: gradcheck is not a config key"),  # a fixed probe
        ("dataset.synth_seed=1.5", "dataset.synth_seed must be an integer, got 1.5"),
        ("dataset.synth.n_users=true", "dataset.synth.n_users must be an integer, got true"),
        # an unknown key is refused, naming the closest known one
        ("train.learnig_rate=0.5",
         "train.learnig_rate is not a config key; the closest is train.learning_rate"),
        ("modle.k=3", "modle is not a config key; the closest is model"),
        ("bogus=1", "bogus is not a config key; the closest is "),
        ("train.target_train_nll=0.5", "train.target_train_nll is not a config key"),
        ("dataset.synth.t_max=5", "dataset.synth.t_max is not a config key"),
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
        assert "gradcheck is not a config key" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1" + "0" * 5000, "[" * 100_000 + "]" * 100_000],
                             ids=["integer-over-the-digit-limit", "nested-100k-deep"])
    def test_a_value_the_json_parser_refuses(self, tmp_path, capsys, value):
        path = tmp_path / "config.json"
        path.write_text('{"model": {"k": ' + value + "}}")
        assert run_cli("gradcheck", "--config", path) == 2
        assert f"config {path} is not valid JSON" in capsys.readouterr().err
        assert run_cli("gradcheck", "--set", f"model.k={value}") == 2  # read as a string
        assert "model.k must be an integer, got" in capsys.readouterr().err

    def test_an_integer_too_large_for_a_float_setting(self, capsys):
        assert run_cli("gradcheck", "--set", "train.learning_rate=1" + "0" * 400) == 2
        assert "train.learning_rate must be a number, got 1000" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b'{"seeds": [1], "out_dir": "\xff"}')
        assert run_cli("gradcheck", "--config", path) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not valid UTF-8: ")

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
    ("train.patience", ["0", "-3", "abc", "{}", "2.9"]),
    ("train.optimizer", ["rmsprop", "5", "null"]),
    ("train.batch_size", ["0", "-1", "x", "[]", '"32"']),
    ("train.eval_every", ["0", "-1", "abc"]),
    ("train.max_epochs", ["0", "-2", "abc", "1.5"]),
    ("train.grad_clip_norm", ["0", "-1", "NaN", "abc", "true"]),
    ("train.pos_weight", ["0", "-2", "NaN", "abc"]),
    ("train", ["5", "{}"]),
    ("model.k", ["abc", "0", "-1", "[2]", "1.5e400", "2.7", "true"]),
    ("model.h", ["0", "abc"]),
    ("model.variant", ["gamma", "3", "null"]),
    ("model.mlp_widths", ["[4,2]", "[]", "5", "abc", "[0,1]", "[16.5,1]"]),
    ("model", ["5", "{}"]),
    ("dataset.t_max", ["0", "abc", "7.9"]),
    ("seeds", ["5", "[]", "[1,1]", "[-1]", "abc", "[\"a\"]", "[1.5,2]"]),
    ("dataset.ratios", ["[0.5,0.5]", "[0.5,0.6,0.1]", "1", "[-0.1,0.6,0.5]", "[0,0.5,0.5]",
                        "[true,0,0]"]),
    ("fpr_ceiling", ["abc", "0", "2", "-0.5", "NaN", "null", "true"]),
    ("out_dir", ["null", "5"]),
    ("gradcheck.k", ["2.5", "0"]),
    ("gradcheck", ["5"]),
    ("dataset.synth_seed", ["1.5"]),
    ("dataset.synth.n_users", ["true"]),
    ("train.learnig_rate", ["0.5"]),
    ("modle.k", ["3"]),
    ("bogus", ["1"]),
    ("train.target_train_nll", ["0.5"]),
]
_BAD_PREPROCESS = [
    ("dataset.synth.bogus", ["1"]),
    ("dataset.synth", ["abc", "5"]),
    ("dataset.synth.n_users", ["abc", "0"]),
    ("dataset.synth_seed", ["-1", "abc"]),
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
    _overrides(_BAD_VALUES, ["preprocess", "train", "eval", "explain", "gradcheck"]),
    _overrides(_BAD_PREPROCESS, ["preprocess"])))
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

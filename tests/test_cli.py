"""End-to-end command tests over a small synthetic configuration."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import nhfm
from nhfm import batched as bt
from nhfm import checkpoint as cp
from nhfm import model as m
from nhfm.cli import DEFAULT_CONFIG, RunConfig, ingest_generic, main
from nhfm.errors import DataError


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
        ck.params = m.Parameters({**dict(ck.params.items()), "embed.V": ck.params["embed.V"][:5]})
        cp.save_checkpoint(ck, path)
        assert run_cli("eval", "--config", config) == 2
        assert "embed.V has shape (5, 3)" in capsys.readouterr().err

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


class TestGradcheckCommand:
    def test_passes_and_prints_report(self, capsys):
        assert run_cli("gradcheck") == 0
        printed = capsys.readouterr().out
        assert "gradient check passed" in printed
        assert "worst:" in printed

    def test_checks_the_batched_backward(self, monkeypatch, capsys):
        true_backward = bt._mlp_backward

        def scaled_backward(dout, cache, params, grads):
            dx = true_backward(dout, cache, params, grads)
            grads["mlp.0.W"] = 1.05 * grads["mlp.0.W"]
            return dx

        monkeypatch.setattr(bt, "_mlp_backward", scaled_backward)
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

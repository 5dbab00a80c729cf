"""Command-line entry point: preprocess, multi-seed train, eval, gradcheck,
and explain, all driven by one JSON config with dotted-path overrides, and
inspect, which summarizes one dataset file.

A run directory is laid out as:

    out/
      config.json            verbatim copy of the input config
      config.effective.json  written only when --set overrides applied
      data/                  schema.json, train/valid/test .nhfmds, stats.txt
      seed-<s>/              checkpoint.nhfmck, train_log.txt
      summary.json, summary.txt
      eval-<split>.txt, explain.txt

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from itertools import compress
from pathlib import Path

import click
import numpy as np

from . import checkpoint as cp
from . import data as d
from . import dataset_io as dio
from . import explain as ex
from . import metrics as mt
from . import movielens as ml
from . import synthetic as syn
from . import training as tr
from .errors import CheckpointError, DataError, NumericalError
from .model import ModelConfig

DEFAULT_CONFIG: dict = {
    "dataset": {
        "kind": "synthetic",
        "t_max": 10,
        "ratios": [0.8, 0.1, 0.1],
        "synth": {},
        "synth_seed": 0,
        "movielens_dir": None,
        "path": None,
        "fields": None,
    },
    "model": {"variant": "full", "k": 64, "h": 64, "mlp_widths": [128, 64, 1]},
    "train": {
        "optimizer": "adam",
        "learning_rate": 1e-3,
        "batch_size": 32,
        "max_epochs": 20,
        "patience": 3,
        "grad_clip_norm": None,
        "eval_every": 1,
        "pos_weight": 1.0,
    },
    "seeds": [1, 2, 3, 4, 5],
    "out_dir": "runs/default",
    "fpr_ceiling": 0.01,
    "gradcheck": {"k": 2, "h": 2, "seed": 8},
}


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def _apply_override(cfg: dict, dotted: str) -> None:
    if "=" not in dotted:
        raise click.UsageError(f"override {dotted!r} must look like path.to.key=value")
    path, _, raw_value = dotted.partition("=")
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value  # bare strings stay strings
    node = cfg
    keys = path.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise click.UsageError(f"override path {path!r} crosses a non-object")
    node[keys[-1]] = value


def _checked(what: str, build):
    """``build()``, with a bad or missing config value reported as a
    ``DataError`` naming ``what``."""
    try:
        return build()
    except KeyError as exc:
        raise DataError(f"invalid {what}: missing key {exc}") from None
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise DataError(f"invalid {what}: {exc}") from None


def _seed(raw) -> int:
    seed = int(raw)
    if seed < 0:
        raise ValueError(f"a seed must be >= 0, got {raw}")
    return seed


def _seeds(raw) -> list[int]:
    if not isinstance(raw, list):
        raise TypeError(f"expected a list of seeds, got {raw!r}")
    seeds = [_seed(s) for s in raw]
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be non-empty and distinct, got {raw}")
    return seeds


def _ratios(raw) -> tuple[float, float, float]:
    train, valid, test = (float(r) for r in raw)
    if not (train > 0 and valid >= 0 and test >= 0
            and abs(train + valid + test - 1.0) <= 1e-9):
        raise ValueError(f"need three shares >= 0 summing to 1 with train > 0, got {raw}")
    return train, valid, test


def _fpr_ceiling(raw) -> float:
    ceiling = float(raw)
    if not 0.0 < ceiling <= 1.0:
        raise ValueError(f"must be in (0, 1], got {raw}")
    return ceiling


def _model_config(mc: dict, t_max) -> ModelConfig:
    config = ModelConfig(variant=mc["variant"], k=int(mc["k"]), h=int(mc["h"]),
                         mlp_widths=tuple(int(w) for w in mc["mlp_widths"]),
                         t_max=int(t_max))
    config.validate()
    return config


def _train_config(tc: dict, seed: int) -> tr.TrainConfig:
    config = tr.TrainConfig(
        optimizer=tc["optimizer"],
        learning_rate=float(tc["learning_rate"]),
        batch_size=int(tc["batch_size"]),
        max_epochs=int(tc["max_epochs"]),
        patience=int(tc["patience"]),
        seed=seed,
        grad_clip_norm=(None if tc.get("grad_clip_norm") is None
                        else float(tc["grad_clip_norm"])),
        eval_every=int(tc.get("eval_every", 1)),
        pos_weight=float(tc.get("pos_weight", 1.0)),
    )
    config.validate()
    return config


class RunConfig:
    """Effective configuration: file contents over defaults, then overrides.

    The model and train configs, seeds, split ratios and FPR ceiling are
    built and checked here, once, so a bad value is a ``DataError`` before
    any command starts work.
    """

    def __init__(self, raw: dict, source_text: str | None = None):
        self.raw = raw
        self.source_text = source_text
        self.out_dir = _checked("out_dir", lambda: Path(raw["out_dir"]))
        self.seeds = _checked("seeds", lambda: _seeds(raw["seeds"]))
        self.fpr_ceiling = _checked("fpr_ceiling", lambda: _fpr_ceiling(raw["fpr_ceiling"]))
        self._ratios = _checked("dataset.ratios", lambda: _ratios(raw["dataset"]["ratios"]))
        self._model = _checked("model config", lambda: _model_config(
            raw["model"], raw["dataset"]["t_max"]))
        self._train = _checked("train config", lambda: _train_config(
            raw["train"], self.seeds[0]))

    @classmethod
    def load(cls, config_path: str | None, overrides: tuple[str, ...],
             out_dir: str | None = None) -> "RunConfig":
        source_text = None
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        if config_path is not None:
            source_text = Path(config_path).read_text(encoding="utf-8")
            try:
                loaded = json.loads(source_text)
            except json.JSONDecodeError as exc:
                raise DataError(f"config {config_path} is not valid JSON: {exc}")
            if not isinstance(loaded, dict):
                raise DataError(f"config {config_path} must hold a JSON object")
            cfg = _deep_merge(cfg, loaded)
        for dotted in overrides:
            _apply_override(cfg, dotted)
        if out_dir is not None:
            cfg["out_dir"] = out_dir
        return cls(cfg, source_text)

    def model_config(self) -> ModelConfig:
        return self._model

    def train_config(self, seed: int) -> tr.TrainConfig:
        return dataclasses.replace(self._train, seed=seed)

    def ratios(self) -> tuple[float, float, float]:
        return self._ratios


# ---------------------------------------------------------------------------
# dataset preparation


def _encode_records(records: list[dict], field_config: dict, ratios, t_max: int
                    ) -> d.Dataset:
    """The windows of records sorted by user and time. The schema
    is fit on each user's earliest training fraction only, mirroring the
    chronological split so later tokens can fall to OOV."""
    owner, _ = d.user_positions(records)
    n_train = np.array([d.split_counts(int(m), ratios)[0] for m in np.bincount(owner)])
    train = np.arange(len(records)) - np.searchsorted(owner, owner) < n_train[owner]
    schema = d.fit_schema(compress(records, train), field_config)
    return d.Dataset(schema, store=d.encode_windows(records, schema, t_max))


def ingest_generic(path) -> list[dict]:
    """Newline-delimited JSON records with __user/__ts/__label meta keys."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also too many digits or too deep
                raise DataError(f"{path}:{lineno}: bad record: {exc}") from None
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: a record must be a JSON object")
            for key in d.META_KEYS:
                if key not in rec:
                    raise DataError(f"{path}:{lineno}: missing {key}")
            if rec["__label"] not in (0, 1):
                raise DataError(f"{path}:{lineno}: __label must be 0 or 1, "
                                f"got {rec['__label']!r}")
            records.append(rec)
    if not records:
        raise DataError(f"{path}: no records")
    try:
        records.sort(key=lambda r: (str(r["__user"]), r["__ts"]))
    except TypeError as exc:
        raise DataError(f"{path}: one user's __ts values cannot be ordered: {exc}") from None
    return records


def _synth_spec(synth_cfg: dict) -> syn.SynthSpec:
    spec = syn.SynthSpec(**synth_cfg)
    spec.validate()
    return spec


def prepare_datasets(cfg: RunConfig):
    """Build (train, valid, test) datasets per the config's dataset section."""
    ds_cfg = cfg.raw["dataset"]
    kind = ds_cfg["kind"]
    t_max = int(ds_cfg["t_max"])
    ratios = cfg.ratios()

    if kind == "synthetic":
        synth_cfg = _checked("dataset.synth", lambda: dict(ds_cfg.get("synth") or {}))
        if synth_cfg.get("t_max", t_max) != t_max:
            raise DataError(
                f"dataset.synth.t_max={synth_cfg['t_max']} conflicts with "
                f"dataset.t_max={t_max}")
        synth_cfg["t_max"] = t_max
        spec = _checked("dataset.synth", lambda: _synth_spec(synth_cfg))
        seed = _checked("dataset.synth_seed", lambda: _seed(ds_cfg.get("synth_seed", 0)))
        return d.split(syn.synth_generate(spec, seed=seed), ratios)
    if kind == "movielens":
        root = ds_cfg.get("movielens_dir")
        if not root:
            raise DataError("dataset.movielens_dir is required for kind=movielens")
        root = Path(root)
        records = ml.ingest_movielens(root / "ratings.dat", root / "users.dat",
                                      root / "movies.dat")
        fields = ml.MOVIELENS_FIELDS
    elif kind == "generic":
        path = ds_cfg.get("path")
        fields = ds_cfg.get("fields")
        if not path or not fields:
            raise DataError("dataset.path and dataset.fields are required for kind=generic")
        if not isinstance(fields, dict):
            raise DataError("dataset.fields must be a JSON object of field name -> kind, "
                            f"got {fields!r}")
        records = ingest_generic(path)
    else:
        raise DataError(f"unknown dataset kind {kind!r}")

    return d.split(_encode_records(records, fields, ratios, t_max), ratios)


def table_stats(datasets) -> str:
    """Summary statistics in the #pos / #neg / #fields / #events layout."""
    counts = [(len(ds.store), int(np.count_nonzero(ds.store.label))) for ds in datasets]
    n_all = sum(n for n, _ in counts)
    n_pos = sum(pos for _, pos in counts)
    schema = datasets[0].schema
    lines = [
        f"#pos={n_pos} #neg={n_all - n_pos} "
        f"#fields={len(schema.fields)} #events={n_all}",
    ]
    for ds, (n, pos) in zip(datasets, counts):
        lines.append(f"  {ds.split}: {n} sequences ({pos} pos / {n - pos} neg)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# run-directory helpers


def _ensure_dir(path: Path, force: bool) -> None:
    if path.exists() and any(path.iterdir()) and not force:
        raise click.UsageError(
            f"output directory {path} is not empty; pass --force to reuse it")
    path.mkdir(parents=True, exist_ok=True)


def _write_config_copy(cfg: RunConfig, out: Path, overridden: bool) -> None:
    if cfg.source_text is not None:
        (out / "config.json").write_text(cfg.source_text, encoding="utf-8")
    else:
        (out / "config.json").write_text(json.dumps(cfg.raw, indent=2),
                                         encoding="utf-8")
    if overridden:
        (out / "config.effective.json").write_text(
            json.dumps(cfg.raw, indent=2), encoding="utf-8")


def _load_run_data(out: Path):
    data_dir = out / "data"
    schema_path = data_dir / "schema.json"
    if not schema_path.exists():
        raise DataError(f"no preprocessed data under {data_dir}; "
                        "run `nhfm preprocess` first")
    schema = dio.load_schema(schema_path)
    splits = {}
    for tag in ("train", "valid", "test"):
        splits[tag] = dio.read_dataset(data_dir / f"{tag}.nhfmds", schema)
    return schema, splits


def _scores_and_labels(dataset, params, config):
    return mt.ScoredSet.of(tr.predict_scores(dataset, params, config),
                            dataset.store.label)


# ---------------------------------------------------------------------------
# commands


@click.group()
def cli():
    """Event-sequence model workflows: preprocess, train, eval, explain."""


option_config = click.option("--config", "config_path", type=click.Path(exists=True),
                             default=None, help="JSON config file.")
option_out = click.option("--out", "out_dir", default=None,
                          help="Output directory (overrides config out_dir).")
option_set = click.option("--set", "overrides", multiple=True,
                          help="Dotted-path config override, e.g. model.k=16.")
option_force = click.option("--force", is_flag=True,
                            help="Allow writing into non-empty targets.")


@cli.command()
@option_config
@option_out
@option_set
@option_force
def preprocess(config_path, out_dir, overrides, force):
    """Encode the configured dataset and write train/valid/test files."""
    cfg = RunConfig.load(config_path, overrides, out_dir)
    out = cfg.out_dir
    _ensure_dir(out, force)
    _write_config_copy(cfg, out, bool(overrides))

    train_ds, valid_ds, test_ds = prepare_datasets(cfg)
    data_dir = out / "data"
    data_dir.mkdir(exist_ok=True)
    dio.save_schema(train_ds.schema, data_dir / "schema.json")
    for ds in (train_ds, valid_ds, test_ds):
        dio.write_dataset(ds, data_dir / f"{ds.split}.nhfmds")
    stats = table_stats((train_ds, valid_ds, test_ds))
    (data_dir / "stats.txt").write_text(stats, encoding="utf-8")
    click.echo(stats, nl=False)


@cli.command()
@option_config
@option_out
@option_set
@option_force
@click.option("--seeds", "seeds_flag", default=None,
              help="Comma-separated seed list, e.g. 1,2,3.")
@click.option("--seed", "seed_flag", type=int, default=None,
              help="Single training seed (shorthand for --seeds).")
@click.option("--variant", type=click.Choice(["alpha", "beta", "full"]),
              default=None, help="Model variant override.")
def train(config_path, out_dir, overrides, force, seeds_flag, seed_flag, variant):
    """Train one checkpoint per seed and aggregate test metrics."""
    cfg = RunConfig.load(config_path, overrides, out_dir)
    if seeds_flag is not None:
        cfg.raw["seeds"] = [s for s in seeds_flag.split(",") if s]
    elif seed_flag is not None:
        cfg.raw["seeds"] = [seed_flag]
    if variant is not None:
        cfg.raw["model"]["variant"] = variant
    cfg = RunConfig(cfg.raw, cfg.source_text)

    out = cfg.out_dir
    schema, splits = _load_run_data(out)
    model_config = cfg.model_config()
    for tag in ("valid", "test"):  # AUC is taken on both, after training
        tr.require_both_classes(splits[tag])

    per_seed_auc: dict[int, float] = {}
    per_seed_spauc: dict[int, float] = {}
    for seed in cfg.seeds:
        seed_dir = out / f"seed-{seed}"
        if seed_dir.exists() and any(seed_dir.iterdir()) and not force:
            raise click.UsageError(f"{seed_dir} is not empty; pass --force")

        log_lines: list[str] = []
        result = tr.train(splits["train"], splits["valid"], model_config,
                          cfg.train_config(seed), log_fn=log_lines.append)
        seed_dir.mkdir(parents=True, exist_ok=True)
        (seed_dir / "train_log.txt").write_text("\n".join(log_lines) + "\n",
                                                encoding="utf-8")
        ck = cp.Checkpoint(
            model_config, schema.hash(), result.params, result.opt_state,
            metadata={
                "seed": seed,
                "best_epoch": result.best_epoch,
                "best_valid_auc": result.best_valid_auc,
                "diverged": result.diverged,
                "metric_history": [[r.epoch, r.train_nll, r.valid_auc]
                                   for r in result.log],
            })
        cp.save_checkpoint(ck, seed_dir / "checkpoint.nhfmck")

        scored = _scores_and_labels(splits["test"], result.params, model_config)
        per_seed_auc[seed] = mt.auc(scored)
        per_seed_spauc[seed] = mt.spauc(scored, cfg.fpr_ceiling)
        click.echo(f"seed {seed}: test auc={per_seed_auc[seed]:.4f} "
                   f"spauc@{cfg.fpr_ceiling:g}={per_seed_spauc[seed]:.4f}")

    summary = {
        "variant": model_config.variant,
        "fpr_ceiling": cfg.fpr_ceiling,
        "seeds": cfg.seeds,
        "metrics": {
            "auc": {str(s): per_seed_auc[s] for s in cfg.seeds},
            "spauc": {str(s): per_seed_spauc[s] for s in cfg.seeds},
        },
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2),
                                      encoding="utf-8")
    text = mt.render_metric_report(
        f"variant={model_config.variant} test metrics over seeds {cfg.seeds}",
        {"auc": [per_seed_auc[s] for s in cfg.seeds],
         f"spauc@{cfg.fpr_ceiling:g}": [per_seed_spauc[s] for s in cfg.seeds]})
    (out / "summary.txt").write_text(text, encoding="utf-8")
    click.echo(text, nl=False)


@cli.command("eval")
@option_config
@option_out
@option_set
@click.option("--split", "split_tag", default="test",
              type=click.Choice(["train", "valid", "test"]))
@click.option("--baseline", "baseline_dir", type=click.Path(exists=True),
              default=None, help="Run directory to t-test against.")
@click.option("--fpr-ceiling", type=float, default=None)
def eval_cmd(config_path, out_dir, overrides, split_tag, baseline_dir, fpr_ceiling):
    """Score trained checkpoints on a split; t-test against a baseline run."""
    cfg = RunConfig.load(config_path, overrides, out_dir)
    if fpr_ceiling is not None:
        cfg.raw["fpr_ceiling"] = fpr_ceiling
        cfg = RunConfig(cfg.raw, cfg.source_text)
    ceiling = cfg.fpr_ceiling
    out = cfg.out_dir
    schema, splits = _load_run_data(out)
    dataset = splits[split_tag]
    tr.require_both_classes(dataset)

    seed_dirs = sorted(out.glob("seed-*"))
    if not seed_dirs:
        raise DataError(f"no seed-*/ checkpoints under {out}; run `nhfm train`")
    auc_values, spauc_values = [], []
    for seed_dir in seed_dirs:
        ck = cp.load_checkpoint(seed_dir / "checkpoint.nhfmck")
        ck.require_schema(schema)
        scored = _scores_and_labels(dataset, ck.params, ck.model_config)
        auc_values.append(mt.auc(scored))
        spauc_values.append(mt.spauc(scored, ceiling))

    baseline = None
    baseline_name = "baseline"
    if baseline_dir is not None:
        summary_path = Path(baseline_dir) / "summary.json"
        try:
            base = json.loads(summary_path.read_text(encoding="utf-8"))["metrics"]
            baseline = {
                "auc": [float(v) for v in base["auc"].values()],
                f"spauc@{ceiling:g}": [float(v) for v in base["spauc"].values()],
            }
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            raise DataError(f"cannot read baseline {summary_path}: {exc!r}") from None
        baseline_name = str(baseline_dir)

    text = mt.render_metric_report(
        f"{split_tag} metrics for {len(seed_dirs)} checkpoint(s) under {out}",
        {"auc": auc_values, f"spauc@{ceiling:g}": spauc_values},
        baseline=baseline, baseline_name=baseline_name)
    (out / f"eval-{split_tag}.txt").write_text(text, encoding="utf-8")
    click.echo(text, nl=False)


@cli.command()
@option_config
@option_set
def gradcheck(config_path, overrides):
    """Finite-difference check of the full model at tiny dimensions."""
    cfg = RunConfig.load(config_path, overrides)
    gc = cfg.raw["gradcheck"]
    config = _checked("gradcheck config", lambda: _model_config(
        {"variant": "full", "k": gc["k"], "h": gc["h"], "mlp_widths": (3, 1)}, 5))
    seed = _checked("gradcheck config", lambda: _seed(gc["seed"]))
    spec = syn.SynthSpec(n_users=12, n_fields=3, vocab_size=3,
                         len_min=2, len_max=6, t_max=5)
    ds = syn.synth_generate(spec, seed=23)
    multi = [s for s in ds.sequences if len(s.history_positions()) >= 3]
    single = next(s for s in ds.sequences if len(s.history_positions()) == 1)
    zero = next(s for s in ds.sequences if not s.history_positions())
    probe = [multi[0], multi[1], single, zero]
    report = tr.grad_check_mode(probe, ds.schema.n, config, seed=seed)
    for line in report.lines():
        click.echo(line)
    if not report.passed():
        raise NumericalError(
            f"gradient check failed: max rel err {report.max_rel_err:.3e}")
    click.echo("gradient check passed")


@cli.command()
@option_config
@option_out
@option_set
@click.option("--count", type=click.IntRange(min=0), default=10,
              help="Features per direction.")
@click.option("--sequences", "n_sequences", type=click.IntRange(min=0), default=3,
              help="How many positive test sequences to explain.")
@click.option("--seed", "seed_flag", type=int, default=None,
              help="Explain this seed's checkpoint (default: first found).")
def explain(config_path, out_dir, overrides, count, n_sequences, seed_flag):
    """Feature risk ranking plus attention reports for top predictions."""
    cfg = RunConfig.load(config_path, overrides, out_dir)
    out = cfg.out_dir
    schema, splits = _load_run_data(out)
    seed_dirs = sorted(out.glob("seed-*"))
    if seed_flag is not None:
        seed_dirs = [out / f"seed-{seed_flag}"]
    if not seed_dirs or not (seed_dirs[0] / "checkpoint.nhfmck").exists():
        raise DataError(f"no checkpoint found under {out}")
    ck = cp.load_checkpoint(seed_dirs[0] / "checkpoint.nhfmck")
    ck.require_schema(schema)

    pieces = [ex.render_feature_ranking(
        ex.top_wide_features(ck, schema, count, "high"))]
    pieces.append(ex.render_feature_ranking(
        ex.top_wide_features(ck, schema, count, "low")))

    if not ck.model_config.uses_attention():
        pieces.append(f"No attention report: variant {ck.model_config.variant!r} has no "
                      "attention weights; it needs a beta or full checkpoint.\n")
    else:
        test = splits["test"]
        scores = tr.predict_scores(test, ck.params, ck.model_config)
        positives = np.flatnonzero(test.store.label == 1)
        top = positives[np.argsort(-scores[positives], kind="stable")[:n_sequences]]
        for i in top.tolist():
            pieces.append(ex.render_event_report(
                ex.attention_report(ck, test.sequences[i], schema)))

    text = "\n".join(pieces)
    (out / "explain.txt").write_text(text, encoding="utf-8")
    click.echo(text, nl=False)


@cli.command()
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--schema", "schema_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Schema file (default: schema.json beside PATH).")
def inspect(path, schema_path):
    """Summarize one .nhfmds dataset file from its arrays."""
    path = Path(path)
    schema = dio.load_schema(schema_path or path.parent / "schema.json")
    dataset = dio.read_dataset(path, schema)
    store = dataset.store
    n = len(store)
    n_pos = int(np.count_nonzero(store.label))
    size = path.stat().st_size
    click.echo(f"split: {dataset.split}\n"
               f"windows: {n}\n"
               f"distinct events: {len(store.count) - 1}\n"
               f"t_max: {store.t_max}\n"
               f"bytes: {size} ({size / n if n else 0:.1f} per window)\n"
               f"labels: {n_pos} pos / {n - n_pos} neg "
               f"({n_pos / n if n else 0:.1%} positive)")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.Abort:
        return 1
    except (DataError, CheckpointError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OSError as exc:  # an input file that is missing or unreadable
        click.echo(f"error: {exc.filename}: {exc.strerror}" if exc.filename
                   else f"error: {exc}", err=True)
        return 2
    except NumericalError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point: preprocess, multi-seed train, eval, gradcheck,
and explain, all driven by one JSON config with dotted-path overrides, and
inspect, which summarizes one dataset file. Every config key and its type is
in ``CONFIG_TABLE``; the model, train and dataset.synth keys are the fields of
the dataclasses they build. An unknown key, or a value of another type or out
of range, is a data error.

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
from pathlib import Path
from types import UnionType
from typing import Literal, get_args, get_origin, get_type_hints

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


def _refuse():
    raise TypeError


def _key(hint, default=None) -> tuple:
    """A config key of type ``hint``: (default, converter, description). The
    converter takes a JSON value of that type to the value, an int standing for
    a float and a list for a tuple, and raises TypeError on any other value."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType:                                       # T | None
        _, inner, text = _key(args[0])
        return default, (lambda v: None if v is None else inner(v)), text + " or null"
    if origin is Literal:
        return (default, (lambda v: v if type(v) is str and v in args else _refuse()),
                "one of " + ", ".join(map(json.dumps, args)))
    if origin in (list, tuple):
        _, item, text = _key(args[0])
        return (default, (lambda v: origin(map(item, v)) if type(v) is list else _refuse()),
                f"a list of {text.split()[-1]}s")
    if origin is dict:
        _, item, text = _key(args[1])
        return (default, (lambda v: {k: item(x) for k, x in v.items()} if type(v) is dict
                          else _refuse()), f"a JSON object of {text.split()[-1]}s")
    if hint is float:
        return default, (lambda v: float(v) if type(v) in (int, float) else _refuse()), "a number"
    return (default, (lambda v: v if type(v) is hint else _refuse()),   # so a bool is no int
            {int: "an integer", str: "a string"}[hint])


def _keys(cls, *skip) -> dict[str, tuple]:
    """The fields of dataclass ``cls``, less ``skip``, as config keys."""
    hints = get_type_hints(cls)
    return {f.name: _key(hints[f.name], f.default)
            for f in dataclasses.fields(cls) if f.name not in skip}


# Every config key, by section. model, train and dataset.synth are the
# fields of the dataclasses they build: their t_max is dataset.t_max, and
# train.seed is each of seeds. Ranges are checked by the dataclasses and RunConfig.
CONFIG_TABLE: dict = {
    "dataset": {
        "kind": _key(Literal["synthetic", "movielens", "generic"], "synthetic"),
        "t_max": _key(int, ModelConfig.t_max),
        "ratios": _key(tuple[float, ...], [0.8, 0.1, 0.1]),
        "synth": _keys(syn.SynthSpec, "t_max"),
        "synth_seed": _key(int, 0),
        "movielens_dir": _key(str | None, None),
        "path": _key(str | None, None),
        "fields": _key(dict[str, str] | None, None),
    },
    "model": _keys(ModelConfig, "t_max"),
    "train": _keys(tr.TrainConfig, "seed", "target_train_nll"),  # the last is library-only
    "seeds": _key(list[int], [1, 2, 3, 4, 5]),
    "out_dir": _key(str, "runs/default"),
    "fpr_ceiling": _key(float, 0.01),
}


def _defaults(table: dict) -> dict:
    return {name: _defaults(spec) if type(spec) is dict
            else list(spec[0]) if type(spec[0]) is tuple else spec[0]
            for name, spec in table.items()}


DEFAULT_CONFIG: dict = _defaults(CONFIG_TABLE)

_LABELS = {"model": "model config", "train": "train config"}


def _invalid(key: str, message: str) -> DataError:
    return DataError(f"invalid {_LABELS.get(key.partition('.')[0], key)}: {message}")


def _checked(raw, table: dict, path: str = "") -> dict:
    """``raw`` with every value converted to its table type; a key that is
    unknown or of another type is a ``DataError`` naming it. A missing key
    reads as null."""
    if type(raw) is not dict:
        raise TypeError
    if not raw.keys() <= table.keys():
        import difflib  # only an unknown key needs it
        name = min(raw.keys() - table.keys())
        closest = difflib.get_close_matches(name, table, n=1, cutoff=0)[0]
        raise _invalid(path + name, f"{path}{name} is not a config key; "
                                    f"the closest is {path}{closest}")
    out = {}
    for name, spec in table.items():
        value = raw.get(name)
        try:
            out[name] = (_checked(value, spec, f"{path}{name}.") if type(spec) is dict
                         else spec[1](value))
        except (TypeError, OverflowError):  # a float cannot hold the int
            key, text = path + name, "a JSON object" if type(spec) is dict else spec[2]
            raise _invalid(key, f"{key} must be {text}, "
                                f"got {json.dumps(value, default=repr)}") from None
    return out


def _built(key: str, cls, values: dict, **fixed):
    config = cls(**values, **fixed)
    try:
        config.validate()
    except ValueError as exc:
        raise _invalid(key, str(exc)) from None
    return config


def _deep_merge(base: dict, extra: dict) -> None:
    """Write ``extra`` into ``base``, merging the objects that both hold."""
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_merge(base[key], value)
        else:
            base[key] = value


def _apply_override(cfg: dict, dotted: str) -> None:
    if "=" not in dotted:
        raise click.UsageError(f"override {dotted!r} must look like path.to.key=value")
    path, _, raw_value = dotted.partition("=")
    try:
        value = json.loads(raw_value)
    except (ValueError, RecursionError):
        value = raw_value  # bare strings stay strings, and so does what JSON refuses
    node = cfg
    keys = path.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
        if not isinstance(node, dict):
            raise click.UsageError(f"override path {path!r} crosses a non-object")
    node[keys[-1]] = value


class RunConfig:
    """Effective configuration: file contents over defaults, then overrides.

    Every value is checked against ``CONFIG_TABLE`` and the model, train and
    synthetic-data configs are built here, once, so a bad value is a
    ``DataError`` before any command starts work.
    """

    def __init__(self, raw: dict, source_text: str | None = None):
        self.raw, self.source_text = raw, source_text
        c = _checked(raw, CONFIG_TABLE)
        self.dataset = ds = c["dataset"]
        self.seeds = seeds = c["seeds"]
        if not seeds or len(set(seeds)) != len(seeds):
            raise _invalid("seeds", f"seeds must be non-empty and distinct, got {seeds}")
        for key, values in (("seeds", seeds), ("dataset.synth_seed", [ds["synth_seed"]])):
            if min(values) < 0:
                raise _invalid(key, f"a seed must be >= 0, got {min(values)} in {key}")
        self.fpr_ceiling = c["fpr_ceiling"]
        if not 0.0 < self.fpr_ceiling <= 1.0:
            raise _invalid("fpr_ceiling", f"must be in (0, 1], got {self.fpr_ceiling}")
        r = ds["ratios"]
        if not (len(r) == 3 and r[0] > 0 and min(r) >= 0 and abs(sum(r) - 1.0) <= 1e-9):
            raise _invalid("dataset.ratios", "need three shares >= 0 summing to 1 with "
                                             f"train > 0, got {list(r)}")
        self.out_dir = Path(c["out_dir"])
        self._model = _built("model", ModelConfig, c["model"], t_max=ds["t_max"])
        self._train = _built("train", tr.TrainConfig, c["train"], seed=seeds[0])
        self.synth = syn.SynthSpec(**ds["synth"], t_max=ds["t_max"])
        if ds["kind"] == "synthetic":
            self.synth.validate()

    @classmethod
    def load(cls, config_path: str | None, overrides: tuple[str, ...],
             out_dir: str | None = None) -> "RunConfig":
        source_text = None
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        if config_path is not None:
            source_text = Path(config_path).read_text(encoding="utf-8")
            try:
                loaded = json.loads(source_text)
            except (ValueError, RecursionError) as exc:  # also too many digits or too deep
                raise DataError(f"config {config_path} is not valid JSON: {exc}")
            if not isinstance(loaded, dict):
                raise DataError(f"config {config_path} must hold a JSON object")
            _deep_merge(cfg, loaded)
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
        return self.dataset["ratios"]


# ---------------------------------------------------------------------------
# dataset preparation


def _encode_records(records: d.Columns, field_config: dict, ratios, t_max: int
                    ) -> d.Dataset:
    """The windows of records sorted by user and time. The schema
    is fit on each user's earliest training fraction only, mirroring the
    chronological split so later tokens can fall to OOV."""
    owner, _ = d.user_positions(records)
    n_train = np.array([d.split_counts(int(m), ratios)[0] for m in np.bincount(owner)])
    train = np.arange(len(records)) - np.searchsorted(owner, owner) < n_train[owner]
    schema = d.fit_schema(records.take(train), field_config)
    return d.Dataset(schema, store=d.encode_windows(records, schema, t_max))


def ingest_generic(path, field_config: dict) -> d.Columns:
    """The records of a newline-delimited JSON file, one object per line
    with the meta keys __user, __ts and __label, as columns of the fields of
    ``field_config``, sorted by the ``str`` of __user and then __ts with
    ties in file order. Each line's object is dropped once its values are
    in their columns."""
    stamps: list = []

    def records(fh):
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
            stamps.append(rec["__ts"])
            yield rec

    with open(path, encoding="utf-8") as fh:
        columns = d.Columns.of(records(fh), field_config)
    if not len(columns):
        raise DataError(f"{path}: no records")
    users, code = columns.user.values, columns.user.code.tolist()
    try:
        order = sorted(range(len(stamps)), key=lambda i: (users[code[i]], stamps[i]))
    except TypeError as exc:
        raise DataError(f"{path}: one user's __ts values cannot be ordered: {exc}") from None
    return columns.take(order)


def prepare_datasets(cfg: RunConfig):
    """Build (train, valid, test) datasets per the config's dataset section."""
    ds = cfg.dataset
    if ds["kind"] == "synthetic":
        return d.split(syn.synth_generate(cfg.synth, seed=ds["synth_seed"]), ds["ratios"])
    if ds["kind"] == "movielens":
        if not ds["movielens_dir"]:
            raise DataError("dataset.movielens_dir is required for kind=movielens")
        root = Path(ds["movielens_dir"])
        records = ml.ingest_movielens(root / "ratings.dat", root / "users.dat",
                                      root / "movies.dat")
        fields = ml.MOVIELENS_FIELDS
    else:
        if not ds["path"] or not ds["fields"]:
            raise DataError("dataset.path and dataset.fields are required for kind=generic")
        fields = ds["fields"]
        records = ingest_generic(ds["path"], fields)
    return d.split(_encode_records(records, fields, ds["ratios"], ds["t_max"]), ds["ratios"])


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
    effective = json.dumps(cfg.raw, indent=2)
    (out / "config.json").write_text(
        effective if cfg.source_text is None else cfg.source_text, encoding="utf-8")
    if overridden:
        (out / "config.effective.json").write_text(effective, encoding="utf-8")


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
    seeds = seeds_flag if seeds_flag is not None else seed_flag
    if seeds is not None:
        overrides += (f"seeds=[{seeds}]",)
    if variant is not None:
        overrides += (f"model.variant={variant}",)
    cfg = RunConfig.load(config_path, overrides, out_dir)

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
        # no optimizer state: it is the last epoch's, not the best's, and nothing resumes
        ck = cp.Checkpoint(
            model_config, schema.hash(), result.params, None,
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
    if fpr_ceiling is not None:
        overrides += (f"fpr_ceiling={json.dumps(fpr_ceiling)}",)
    cfg = RunConfig.load(config_path, overrides, out_dir)
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


# the gradient check's fixed probe: a full model at tiny dimensions, and its draw
GRADCHECK_MODEL = ModelConfig(variant="full", k=2, h=2, mlp_widths=(3, 1), t_max=5)
GRADCHECK_SEED = 21


def gradcheck_probe() -> tuple[d.EventStore, list[int], int]:
    """The gradient check's store, its probe windows and its feature count.
    The windows hold 3, 3, 1 and 0 history events: none fills the first
    history slot, so the BiLSTM runs from the second."""
    spec = syn.SynthSpec(n_users=12, n_fields=3, vocab_size=3,
                         len_min=2, len_max=6, t_max=5)
    ds = syn.synth_generate(spec, seed=23)
    history = np.count_nonzero(ds.store.rows[:, :-1], axis=1)  # real events before the last
    three = np.flatnonzero(history == 3)
    probe = [int(three[0]), int(three[1]), int(np.argmax(history == 1)),
             int(np.argmax(history == 0))]
    return ds.store, probe, ds.schema.n


@cli.command()
@option_config
@option_set
def gradcheck(config_path, overrides):
    """Finite-difference check of the full model at tiny dimensions."""
    RunConfig.load(config_path, overrides)  # a bad config is refused, as by every command
    store, probe, n = gradcheck_probe()
    report = tr.grad_check_mode(store, probe, n, GRADCHECK_MODEL, seed=GRADCHECK_SEED)
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

    pieces = [ex.render_feature_ranking(ex.top_wide_features(ck, schema, count, direction))
              for direction in ("high", "low")]

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
                ex.attention_report(ck, test.store, i, schema)))

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

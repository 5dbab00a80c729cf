"""The benchmark's workloads, run by ``run.py`` one process per step.

    python3 benchmarks/workloads.py prep WORKLOAD --work DIR [--toy]
    python3 benchmarks/workloads.py run WORKLOAD --work DIR --seconds S [--spans FILE] [--toy]

``prep`` turns the generated raw files into the program's own files
(``.nhfmds`` datasets and, for ``score_short``, a trained checkpoint) with
the code under test, in a process of its own so that ``run`` measures only
set-up and the workload. ``run`` sets up several times, repeats whole
rounds of the workload until the next round would end after ``--seconds``,
checks the outputs, and prints one JSON object as its last line.

With ``--spans`` it first runs untraced rounds, then wraps the program's
public functions (see ``spans.py``) and runs traced set-ups and rounds; it
writes the spans to that file and reports per-layer figures and the
tracing overhead instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import copy
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from nhfm import checkpoint, cli, data, dataset_io, metrics, model, training

import reference
import spans

clock = time.perf_counter

PAPER = model.ModelConfig(variant="full", k=64, h=64, mlp_widths=(128, 64, 1), t_max=10)
SHORT = model.ModelConfig(variant="full", k=8, h=8, mlp_widths=(16, 1), t_max=8)
# the default single worker
PAPER_TRAIN = training.TrainConfig(optimizer="adam", learning_rate=1e-3, batch_size=32,
                                   max_epochs=1, seed=1)
FRAUD_FIELDS = {"f0": data.CATEGORICAL, "f1": data.CATEGORICAL, "f2": data.CATEGORICAL}
SPAUC_CEILING = 0.05
# valid_auc on train_paper must exceed 0.5 by this much; README derives it
AUC_MARGIN = 0.1
# (train windows, valid windows) of the train_paper epoch
PAPER_WINDOWS = {False: (384, 256), True: (64, 48)}
# set-ups before the first round, before each later round and after the last:
# spread over the run, so that a slow phase of the machine lasting a few
# seconds moves the median set-up less
SETUPS = {"train_paper": (3, 3, 3), "score_short": (2, 1, 2), "ingest_ml": (2, 0, 2)}
# set-up repeats per timed sample, so that one sample lasts about 0.3 s
# rather than the 15-140 ms of a single set-up; a sample is their mean
SETUP_REPEATS = {"train_paper": 2, "score_short": 20, "ingest_ml": 1}


# ---------------------------------------------------------------------------
# shared pieces


def preprocess(t_max: int, **dataset):
    """(train, valid, test) from the program's own ``nhfm preprocess`` path,
    ``cli.prepare_datasets``, with the default config's dataset section
    updated by ``dataset``."""
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["dataset"].update(dataset, t_max=t_max)
    return cli.prepare_datasets(cli.RunConfig(cfg))


def fraud_datasets(work: Path):
    return preprocess(SHORT.t_max, kind="generic", path=str(work / "events.jsonl"),
                      fields=FRAUD_FIELDS)


def fit_user(user: str, truth: dict) -> bool:
    """Whether a fraud-style user's windows may train the checkpoint; the
    others are scored, so ``valid_auc`` on ``score_short`` is held out."""
    return int(user[1:]) < truth["fit_users"]


def read_truth(work: Path) -> dict:
    return json.loads((work / "truth.json").read_text(encoding="utf-8"))


def stride_pick(sequences: list, n: int) -> list:
    """n windows spread evenly over the list, so every user contributes."""
    if len(sequences) < n:
        raise SystemExit(f"need {n} windows, the split has {len(sequences)}")
    return sequences[::len(sequences) // n][:n]


def run_rounds(round_fn, seconds: float, between=lambda: None) -> list:
    """Whole rounds until the next one would end after ``seconds``; at
    least one. ``between`` runs before every round but the first."""
    results = []
    start = clock()
    while True:
        if results:
            between()
        results.append(round_fn())
        elapsed = clock() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def padding_share(sequences) -> float:
    return sum(s.q.count(0) for s in sequences) / sum(len(s.q) for s in sequences)


class BatchClock:
    """Stamps the end of every optimizer step, so the training rate can be
    built from medians over batches rather than one total that a slow phase
    of the machine skews. Costs one clock read per batch."""

    def __init__(self):
        self.stamps: list[float] = []
        original = training.optimizer_step

        def stamped(*args, **kwargs):
            out = original(*args, **kwargs)
            self.stamps.append(clock())
            return out
        training.optimizer_step = stamped


# ---------------------------------------------------------------------------
# checks made apart from the program


class Checks:
    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def forward_matches_reference(self, sequences, params, config, label: str) -> None:
        arrays = dict(params.items())
        worst = 0.0
        for seq in sequences:
            got = model.forward(seq, params, config).logit
            want = reference.reference_logit([ev.entries for ev in seq.events], seq.q, arrays,
                                             config.variant, len(config.mlp_widths))
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
        self.expect(worst <= 1e-9, f"{label}: forward differs from the reference by {worst:.3e}")

    def scores_are_permutation_invariant(self, dataset, params, config) -> np.ndarray:
        scores = training.predict_scores(dataset, params, config)
        order = np.random.default_rng(5).permutation(len(dataset.sequences))
        shuffled = data.Dataset(dataset.schema, [dataset.sequences[i] for i in order],
                                dataset.split)
        again = training.predict_scores(shuffled, params, config)
        self.expect(np.array_equal(again, scores[order]),
                    "predict_scores on a shuffled split is not the permuted scores")
        return scores

    def metrics_match_oracles(self, scores: np.ndarray, labels: np.ndarray) -> None:
        scored = metrics.ScoredSet.of(scores, labels)
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        pairwise = wins / (len(pos) * len(neg))
        self.expect(abs(metrics.auc(scored) - pairwise) <= 1e-12,
                    f"auc {metrics.auc(scored)!r} != pairwise count {pairwise!r}")
        for c in (SPAUC_CEILING, 0.3, 1.0):
            want = trapezoid_spauc(scores, labels, c)
            got = metrics.spauc(scored, c)
            self.expect(abs(got - want) <= 1e-9, f"spauc@{c} {got!r} != trapezoid {want!r}")


def trapezoid_spauc(scores: np.ndarray, labels: np.ndarray, c: float) -> float:
    """Standardized partial AUC over FPR in [0, c] by a direct trapezoid over
    the ROC points of every distinct score, highest first."""
    n_pos, n_neg = int(labels.sum()), int((1 - labels).sum())
    fpr, tpr = [0.0], [0.0]
    for t in np.unique(scores)[::-1]:
        above = scores >= t
        fpr.append(float((above & (labels == 0)).sum()) / n_neg)
        tpr.append(float((above & (labels == 1)).sum()) / n_pos)
    area = 0.0
    for (f0, t0), (f1, t1) in zip(zip(fpr, tpr), zip(fpr[1:], tpr[1:])):
        if f0 >= c:
            break
        if f1 > c:
            t1 = t0 + (t1 - t0) * (c - f0) / (f1 - f0)
            f1 = c
        area += (f1 - f0) * (t0 + t1) / 2.0
    return 0.5 * (1.0 + (area - c * c / 2.0) / (c - c * c / 2.0))


def sample_windows(sequences: list, n: int) -> list:
    """n windows at random plus the one with the shortest history."""
    picked = random.Random(3).sample(sequences, min(n, len(sequences)))
    return picked + [min(sequences, key=lambda s: sum(s.q))]


# ---------------------------------------------------------------------------
# prep: the program's own files, made by the code under test


def prep_train_paper(work: Path, toy: bool) -> None:
    train, valid, _ = preprocess(PAPER.t_max, kind="movielens", movielens_dir=str(work))
    n_train, n_valid = PAPER_WINDOWS[toy]
    dataset_io.save_schema(train.schema, work / "schema.json")
    dataset_io.write_dataset(data.Dataset(train.schema, stride_pick(train.sequences, n_train),
                                          "train"), work / "train.nhfmds")
    dataset_io.write_dataset(data.Dataset(valid.schema, stride_pick(valid.sequences, n_valid),
                                          "valid"), work / "valid.nhfmds")


def prep_score_short(work: Path, toy: bool) -> None:
    """A checkpoint trained on the first half of the users; the train-split
    windows of the other half are the scored split."""
    truth = read_truth(work)
    train, valid, _ = fraud_datasets(work)
    fit = data.Dataset(train.schema, [s for s in train.sequences if fit_user(s.user, truth)][:256],
                       "train")
    fit_valid = data.Dataset(valid.schema,
                             [s for s in valid.sequences if fit_user(s.user, truth)], "valid")
    result = training.train(fit, fit_valid, SHORT, training.TrainConfig(
        learning_rate=0.03, max_epochs=2, seed=1))
    checkpoint.save_checkpoint(checkpoint.Checkpoint(
        SHORT, train.schema.hash(), result.params, result.opt_state, {"seed": 1}),
        work / "model.nhfmck")
    dataset_io.save_schema(train.schema, work / "schema.json")
    scored = [s for s in train.sequences if not fit_user(s.user, truth)]
    dataset_io.write_dataset(data.Dataset(train.schema, scored, "train"),
                             work / "scored.nhfmds")


# ---------------------------------------------------------------------------
# workloads: set-up, one round, rates and checks


class TrainPaper:
    """One Adam epoch at batch 32 plus its validation pass, paper shape."""

    def __init__(self, work: Path, toy: bool):
        self.work, self.toy = work, toy
        self.clock = BatchClock()
        self.files = [work / "train.nhfmds", work / "valid.nhfmds"]
        # only the latest epoch's result is held, and earlier ones by digest,
        # so the number of rounds a run fits in does not change its peak RSS
        self.result = None
        self.digests: set[bytes] = set()

    def setup(self):
        self.train = self.valid = None
        gc.collect()  # start each set-up from a clean heap, as a fresh process would
        t0 = clock()
        schema = dataset_io.load_schema(self.work / "schema.json")
        r0 = clock()
        train, valid = (dataset_io.read_dataset(p, schema) for p in self.files)
        r1 = clock()
        model.init_parameters(PAPER, schema.n, PAPER_TRAIN.seed)
        t1 = clock()
        self.train, self.valid = train, valid
        self.windows = len(train.sequences) + len(valid.sequences)
        return t1 - t0, r1 - r0

    def round(self):
        stamps = self.clock.stamps
        stamps.clear()
        self.result = None
        t0 = clock()
        self.result = training.train(self.train, self.valid, PAPER, PAPER_TRAIN)
        t1 = clock()
        digest = hashlib.sha256()
        for name, value in self.result.params.items():
            digest.update(name.encode() + value.tobytes())
        self.digests.add(digest.digest())
        # the first interval holds the call's own preparation (validation of
        # the inputs, parameters, optimizer state, shuffle) and the first
        # batch; the last holds the validation pass and the epoch's record
        return {"total": t1 - t0, "steps": len(stamps),
                "first": stamps[0] - t0 if stamps else None,
                "batches": list(np.diff(stamps)),
                "last": t1 - stamps[-1] if stamps else None}

    def n_batches(self) -> int:
        return -(-len(self.train.sequences) // PAPER_TRAIN.batch_size)

    def rate(self, rounds) -> float:
        """Train windows over the time of the whole ``training.train`` call,
        each of its parts a median over the run: the first interval, the
        other batches and the last interval."""
        n = self.n_batches()
        if any(r["steps"] != n for r in rounds):
            return 0.0  # the check below reports it
        batches = [b for r in rounds for b in r["batches"]]
        per_call = (statistics.median(r["first"] for r in rounds)
                    + (n - 1) * statistics.median(batches)
                    + statistics.median(r["last"] for r in rounds))
        return len(self.train.sequences) / per_call

    def load_rate(self, rounds, setups) -> float:
        return statistics.median(self.windows / read for _, read in setups)

    def check(self, rounds, ck: Checks) -> dict:
        ck.expect(all(r["steps"] == self.n_batches() for r in rounds),
                  f"stamped {[r['steps'] for r in rounds]} optimizer steps per epoch, "
                  f"the epoch has {self.n_batches()} batches")
        params = self.result.params
        ck.expect(all(np.all(np.isfinite(v)) for _, v in params.items()),
                  "trained parameters are not finite")
        ck.expect(len(self.digests) == 1, "repeated epochs gave different parameters")
        ck.forward_matches_reference(sample_windows(self.train.sequences, 6)
                                     + sample_windows(self.valid.sequences, 6),
                                     params, PAPER, "trained")
        n = self.train.schema.n
        random_params = model.random_parameters(PAPER, n, seed=7)
        ck.forward_matches_reference(sample_windows(self.valid.sequences, 4),
                                     random_params, PAPER, "random parameters")
        self.check_gradients(random_params, ck)
        scores = ck.scores_are_permutation_invariant(self.valid, params, PAPER)
        labels = np.array([s.label for s in self.valid.sequences])
        ck.metrics_match_oracles(scores, labels)
        valid_auc = self.result.log[0].valid_auc
        ck.expect(valid_auc == metrics.auc(metrics.ScoredSet.of(scores, labels)),
                  "the epoch's valid_auc is not the AUC of its parameters' scores")
        if not self.toy:
            ck.expect(valid_auc > 0.5 + AUC_MARGIN,
                      f"valid_auc {valid_auc:.4f} is not above 0.5 + {AUC_MARGIN}")
        return {"valid_auc": valid_auc, "n_features": n,
                "padding_share": padding_share(self.train.sequences)}

    def check_gradients(self, params, ck: Checks) -> None:
        """Central differences on sampled coordinates against
        ``example_loss_and_grads``."""
        rng = np.random.default_rng(11)
        eps = 1e-5
        for seq in sample_windows(self.train.sequences, 1):
            _, grads = training.example_loss_and_grads(seq, params, PAPER)
            features = [i for ev in seq.events for i in ev.indices()]
            coords = [("embed.V", int(rng.choice(features)) * PAPER.k + int(rng.integers(PAPER.k))),
                      ("wide.w", int(rng.choice(features))), ("wide.b", 0)]
            for name in ("attn.F1.W", "attn.F3.b", "lstm.fwd.Wi", "lstm.bwd.Ug",
                         "mlp.0.W", "mlp.2.b"):
                if name in params:
                    coords.append((name, int(rng.integers(params[name].size))))
            for name, i in coords:
                losses = []
                for step in (eps, -eps):
                    moved = params.copy()
                    arr = moved[name].copy()
                    arr.flat[i] += step
                    moved[name] = arr
                    losses.append(training.nll_loss(model.forward(seq, moved, PAPER).logit,
                                                    seq.label))
                numeric = (losses[0] - losses[1]) / (2 * eps)
                analytic = float(grads[name].flat[i])
                err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
                ck.expect(err < 1e-4, f"gradient of {name}[{i}]: analytic {analytic!r} "
                                      f"vs central difference {numeric!r}")

    def attempted(self, n_rounds: int) -> int:
        return n_rounds * self.windows


class ScoreShort:
    """Score a split from a saved checkpoint, then AUC and spAUC."""

    def __init__(self, work: Path, toy: bool):
        self.work = work
        self.files = [work / "scored.nhfmds"]

    def setup(self):
        self.dataset = self.ck = None
        gc.collect()  # start each set-up from a clean heap, as a fresh process would
        t0 = clock()
        schema = dataset_io.load_schema(self.work / "schema.json")
        r0 = clock()
        dataset = dataset_io.read_dataset(self.files[0], schema)
        r1 = clock()
        ck = checkpoint.load_checkpoint(self.work / "model.nhfmck")
        ck.require_schema(schema)
        t1 = clock()
        self.dataset, self.ck = dataset, ck
        self.labels = np.array([s.label for s in dataset.sequences])
        self.windows = len(dataset.sequences)
        return t1 - t0, r1 - r0

    def round(self):
        t0 = clock()
        scores = training.predict_scores(self.dataset, self.ck.params, self.ck.model_config)
        scored = metrics.ScoredSet.of(scores, self.labels)
        auc = metrics.auc(scored)
        spauc = metrics.spauc(scored, SPAUC_CEILING)
        return {"total": clock() - t0, "scores": scores, "auc": auc, "spauc": spauc}

    def rate(self, rounds) -> float:
        return self.windows / statistics.median(r["total"] for r in rounds)

    def load_rate(self, rounds, setups) -> float:
        return statistics.median(self.windows / read for _, read in setups)

    def check(self, rounds, ck: Checks) -> dict:
        first = rounds[0]
        ck.expect(all(np.array_equal(r["scores"], first["scores"]) for r in rounds),
                  "repeated scoring gave different scores")
        params, config = self.ck.params, self.ck.model_config
        ck.forward_matches_reference(sample_windows(self.dataset.sequences, 12),
                                     params, config, "checkpoint")
        ck.forward_matches_reference(
            sample_windows(self.dataset.sequences, 6),
            model.random_parameters(config, self.dataset.schema.n, seed=7), config,
            "random parameters")
        scores = ck.scores_are_permutation_invariant(self.dataset, params, config)
        ck.expect(np.array_equal(scores, first["scores"]), "scores differ between calls")
        ck.metrics_match_oracles(scores, self.labels)
        self.check_against_generator(ck)
        return {"valid_auc": first["auc"], "spauc": first["spauc"],
                "n_features": self.dataset.schema.n,
                "padding_share": padding_share(self.dataset.sequences)}

    def check_against_generator(self, ck: Checks) -> None:
        """The generator's counts against the program's datasets, and the
        scored split against the held-out users' train windows."""
        truth = read_truth(self.work)
        train, valid, test = fraud_datasets(self.work)
        sequences = train.sequences + valid.sequences + test.sequences
        ck.expect(len(sequences) == truth["ratings"],
                  f"{len(sequences)} windows for {truth['ratings']} events")
        ck.expect(sum(s.label for s in sequences) == truth["positives"], "positive count")
        ck.expect(len({s.user for s in sequences}) == truth["users"], "user count")
        ck.expect(train.schema.n == truth["n_features"],
                  f"schema has {train.schema.n} features, generator expects {truth['n_features']}")
        for name, count in truth["tokens"].items():
            ck.expect(len(train.schema.field_by_name(name).vocab) == count,
                      f"{name} vocabulary size")
        held_out = [s for s in train.sequences if not fit_user(s.user, truth)]
        ck.expect(len(held_out) == len(self.dataset.sequences) and all(
            a.user == b.user and a.label == b.label and a.q == b.q and a.events == b.events
            for a, b in zip(held_out, self.dataset.sequences)),
            "the scored split is not the held-out users' train windows")

    def attempted(self, n_rounds: int) -> int:
        return n_rounds * self.windows


class IngestMl:
    """MovieLens files to the three ``.nhfmds`` files, then read back."""

    def __init__(self, work: Path, toy: bool):
        self.work = work
        self.out = work / "out"
        self.out.mkdir(exist_ok=True)
        self.files = [self.out / f"{tag}.nhfmds" for tag in ("train", "valid", "test")]

    def setup(self):
        """The set-up ``nhfm preprocess`` pays before any work: a fresh
        interpreter importing the package and its dependencies."""
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import nhfm.cli"], check=True, timeout=60)
        return clock() - t0, 0.0

    def round(self):
        self.last = None  # hold one round's datasets at a time
        t0 = clock()
        parts = preprocess(PAPER.t_max, kind="movielens", movielens_dir=str(self.work))
        dataset_io.save_schema(parts[0].schema, self.out / "schema.json")
        for ds, path in zip(parts, self.files):
            dataset_io.write_dataset(ds, path)
        t1 = clock()
        schema = dataset_io.load_schema(self.out / "schema.json")
        back = [dataset_io.read_dataset(path, schema) for path in self.files]
        t2 = clock()
        self.windows = sum(len(ds.sequences) for ds in parts)
        self.last = {"parts": parts, "back": back}
        return {"total": t2 - t0, "write": t1 - t0, "read": t2 - t1,
                "digest": [hashlib.sha256(p.read_bytes()).hexdigest() for p in self.files]}

    # Totals rather than medians: a round's write path lasts about 0.3 s, short
    # enough for the machine's phases to skew single rounds, and on the same
    # runs the total over all rounds spread less between runs than the median.
    def rate(self, rounds) -> float:
        return self.windows * len(rounds) / sum(r["write"] for r in rounds)

    def load_rate(self, rounds, setups) -> float:
        return self.windows * len(rounds) / sum(r["read"] for r in rounds)

    def check(self, rounds, ck: Checks) -> dict:
        truth = read_truth(self.work)
        last = self.last
        parts, back = last["parts"], last["back"]
        schema = parts[0].schema
        sequences = [s for ds in parts for s in ds.sequences]
        ck.expect(len(sequences) == truth["ratings"],
                  f"{len(sequences)} windows for {truth['ratings']} ratings")
        ck.expect(sum(s.label for s in sequences) == truth["positives"], "positive count")
        ck.expect(len({s.user for s in sequences}) == truth["users"], "user count")
        ck.expect(schema.n == truth["n_features"],
                  f"schema has {schema.n} features, generator expects {truth['n_features']}")
        for name, count in truth["tokens"].items():
            ck.expect(len(schema.field_by_name(name).vocab) == count, f"{name} vocabulary size")
        ck.expect(all(r["digest"] == rounds[0]["digest"] for r in rounds),
                  "repeated rounds wrote different files")
        for written, read in zip(parts, back):
            ck.expect(written.split == read.split and len(written.sequences) == len(read.sequences)
                      and all(a.user == b.user and a.label == b.label and a.q == b.q
                              and a.events == b.events
                              for a, b in zip(written.sequences, read.sequences)),
                      f"read-back {written.split} split differs from the written one")
        by_split = {ds.split: ds.sequences for ds in back}
        for sample in truth["samples"]:
            seq = [s for s in by_split[sample["split"]] if s.user == sample["user"]][sample["index"]]
            real = [data.decode_event(ev, schema) for ev, q in zip(seq.events, seq.q) if q]
            ok = seq.label == sample["label"] and len(real) == len(sample["events"])
            for got, want in zip(real, sample["events"]):
                ok = ok and got.keys() == want.keys() and all(
                    abs(got[f] - want[f]) <= 1e-12 if f == "release_year" else got[f] == want[f]
                    for f in want)
            ck.expect(ok, f"window {sample['user']}/{sample['split']}[{sample['index']}] "
                          "does not decode to the generator's records")
        return {"valid_auc": prior_auc(back[0], back[1], "occupation"),
                "n_features": schema.n, "padding_share": padding_share(sequences),
                "oracle_valid_auc": truth["oracle_valid_auc"]}

    def attempted(self, n_rounds: int) -> int:
        return 2 * n_rounds * self.windows


def prior_auc(train, valid, field: str) -> float:
    """AUC on the valid split of scoring each window by the train split's
    positive rate for its current event's token of ``field``: a check that
    encoding and splitting kept the planted signal, with no model involved."""
    spec = train.schema.field_by_name(field)
    base = train.schema.field_base(field)

    def token(seq):
        return next(i for i in seq.current().indices() if base <= i < base + spec.width())
    pos: dict[int, int] = {}
    seen: dict[int, int] = {}
    for s in train.sequences:
        t = token(s)
        pos[t] = pos.get(t, 0) + s.label
        seen[t] = seen.get(t, 0) + 1
    scores = [(pos.get(token(s), 0) + 1) / (seen.get(token(s), 0) + 2) for s in valid.sequences]
    return metrics.auc(metrics.ScoredSet.of(scores, [s.label for s in valid.sequences]))


WORKLOADS = {"train_paper": TrainPaper, "score_short": ScoreShort, "ingest_ml": IngestMl}
PREP = {"train_paper": prep_train_paper, "score_short": prep_score_short}


# ---------------------------------------------------------------------------
# entry point


def measure(name: str, work: Path, seconds: float, spans_path: Path | None, toy: bool) -> dict:
    w = WORKLOADS[name](work, toy)
    first, each, after = (1, 0, 1) if toy else SETUPS[name]
    repeats = SETUP_REPEATS[name]
    budget = 0.0 if toy else seconds / 2 if spans_path else seconds

    untraced, tracer, setups = [], None, []
    if spans_path:
        w.setup()
        untraced = run_rounds(w.round, budget)
        tracer = spans.Tracer()
        tracer.install()

    def do_setups(n: int) -> None:
        """n timed samples, each the mean (set-up s, read s) of ``repeats``
        set-ups."""
        if tracer:
            tracer.phase = "setup"
        for _ in range(n):
            times = [w.setup() for _ in range(repeats)]
            setups.append(tuple(statistics.fmean(col) for col in zip(*times)))
        if tracer:
            tracer.phase = "round"

    do_setups(first)
    rounds = run_rounds(w.round, budget, lambda: do_setups(each))
    do_setups(after)
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ck = Checks()
    info = w.check(rounds, ck)
    info["rounds"] = len(untraced) + len(rounds)
    info["round_s"] = [round(r["total"], 4) for r in untraced + rounds]
    info["setup_s"] = [round(t, 4) for t, _ in setups]
    result = {"correct": not ck.problems, "attempted": w.attempted(len(untraced) + len(rounds)),
              "failed": 0, "problems": ck.problems, "info": info}

    if tracer:
        tracer.write(spans_path)
        layers = tracer.layer_metrics(len(setups) * repeats, len(rounds))
        layers["trace.overhead_pct"] = {"value": 100.0 * (
            statistics.median(r["total"] for r in rounds)
            / statistics.median(r["total"] for r in untraced) - 1.0), "unit": "%"}
        result["metrics"] = layers
        return result

    bytes_total = sum(p.stat().st_size for p in w.files)
    result["metrics"] = {
        "setup_s": {"value": statistics.median(s for s, _ in setups), "unit": "s"},
        "windows_per_s": {"value": w.rate(rounds), "unit": "1/s"},
        "load_windows_per_s": {"value": w.load_rate(rounds, setups), "unit": "1/s"},
        "dataset_bytes_per_window": {"value": bytes_total / w.windows, "unit": "B"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "valid_auc": {"value": info["valid_auc"], "unit": "1"},
    }
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark workload step")
    ap.add_argument("step", choices=("prep", "run"))
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spans", default=None,
                    help="trace the run and write its spans to this file")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)
    work = Path(args.work)
    if args.step == "prep":
        if args.workload in PREP:
            PREP[args.workload](work, args.toy)
        return 0
    result = measure(args.workload, work, args.seconds,
                     Path(args.spans) if args.spans else None, args.toy)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Training-based criteria use frozen seeds; everything here is
deterministic, so the asserted numbers are stable across runs.

The MovieLens-1M criterion needs the real dataset, which is not shipped:
point NHFM_ML1M_DIR at a directory containing ratings.dat / users.dat /
movies.dat (and set NHFM_ML1M_TRAIN=1 to run the multi-hour training
gate). Without the files those tests skip.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from rule_oracle import rule_fires
from nhfm import checkpoint as cp
from nhfm import data as d
from nhfm import metrics as mt
from nhfm import model as m
from nhfm import movielens as ml
from nhfm import synthetic as syn
from nhfm import training as tr
from nhfm.model import SCORE_ROWS


def _report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS: {detail}")


def pairwise_oracle(vectors):
    out = np.zeros_like(vectors[0])
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            out = out + vectors[i] * vectors[j]
    return out


def test_criterion_1_fm_pooling_identity_oracle():
    """1,000 random events: the shipped pooling identity
    (``model._fm_pool``) equals the pairwise double sum within 1e-10
    absolute, in under 10 seconds."""
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        k = int(rng.integers(1, 9))
        m_rows = int(rng.integers(0, 9))
        rows = rng.uniform(-2, 2, (m_rows, k))

        got, _ = m._fm_pool(rows, axis=0)
        want = pairwise_oracle(list(rows)) if m_rows >= 2 else np.zeros(k)
        worst = max(worst, float(np.max(np.abs(got - want))))

        # same identity over a masked history for the sequence-level pool
        n_hist = int(rng.integers(0, 9))
        vecs = rng.uniform(-2, 2, (n_hist, k))
        mask = rng.integers(0, 2, n_hist)
        got2, _ = m._fm_pool(vecs * mask[:, None], axis=0)
        want2 = pairwise_oracle([mask[i] * vecs[i] for i in range(n_hist)]) \
            if n_hist >= 2 else np.zeros(k)
        worst = max(worst, float(np.max(np.abs(got2 - want2))))
    elapsed = time.perf_counter() - started
    assert worst < 1e-10
    assert elapsed < 10.0
    _report(1, f"max abs deviation {worst:.2e} over 1000 events, {elapsed:.1f}s")


def test_criterion_2_full_model_gradient_check():
    """Full variant, k=h=4, MLP [8,1], 4 sequences including a zero-history
    case: every parameter group within 1e-4 of central differences."""
    started = time.perf_counter()
    spec = syn.SynthSpec(n_users=12, n_fields=3, vocab_size=3,
                         len_min=2, len_max=6, t_max=5)
    ds = syn.synth_generate(spec, seed=23)
    config = m.ModelConfig(variant="full", k=4, h=4, mlp_widths=(8, 1), t_max=5)
    # two windows with at least 3 history events, one with 1, one with none
    history = np.count_nonzero(ds.store.rows[:, :-1], axis=1)
    multi = np.flatnonzero(history >= 3)
    probe = [multi[0], multi[1], np.argmax(history == 1), np.argmax(history == 0)]
    report = tr.grad_check_mode(ds.store, probe, ds.schema.n, config, seed=9,
                                eps=1e-5, tolerance=1e-4)
    elapsed = time.perf_counter() - started
    assert report.passed(), report.lines()
    assert elapsed < 120.0
    name, err, idx = report.worst()
    _report(2, f"worst group {name}[{idx}] rel err {err:.2e}, {elapsed:.0f}s")


def test_criterion_3_metric_oracles():
    """AUC equals pair counting exactly; the partial-AUC hand case matches
    exhaustive thresholds; ceiling 1 reduces to AUC; chance head is ~0.5."""
    from test_metrics import auc_pair_count_oracle, spauc_threshold_oracle

    rng = np.random.default_rng(3003)
    for _ in range(200):
        n = int(rng.integers(4, 51))
        labels = rng.integers(0, 2, n)
        while labels.sum() in (0, n):
            labels = rng.integers(0, 2, n)
        scores = np.round(rng.uniform(0, 1, n), 2)
        s = mt.ScoredSet.of(scores, labels)
        assert mt.auc(s) == auc_pair_count_oracle(scores, labels)

    hand_scores = [0.9, 0.2, 0.8, 0.1]
    hand_labels = [1, 1, 0, 0]
    hand = mt.ScoredSet.of(hand_scores, hand_labels)
    assert abs(mt.spauc(hand, 0.5)
               - spauc_threshold_oracle(hand_scores, hand_labels, 0.5)) < 1e-12

    for _ in range(50):
        n = int(rng.integers(4, 51))
        labels = rng.integers(0, 2, n)
        while labels.sum() in (0, n):
            labels = rng.integers(0, 2, n)
        s = mt.ScoredSet.of(np.round(rng.uniform(0, 1, n), 2), labels)
        assert abs(mt.spauc(s, 1.0) - mt.auc(s)) < 1e-12

    chance = mt.ScoredSet.of(rng.uniform(0, 1, 10_000),
                             rng.integers(0, 2, 10_000))
    chance_spauc = mt.spauc(chance, 0.01)
    assert 0.45 <= chance_spauc <= 0.55
    _report(3, f"200 AUC sets exact, hand case exact, chance spauc {chance_spauc:.4f}")


def test_criterion_4_overfit_sanity():
    """A 100-sequence subset reaches training NLL < 0.05 within 500 epochs
    and well under 5 CPU minutes; final NLL is >= 10x below the initial."""
    started = time.perf_counter()
    spec = syn.SynthSpec(n_users=60, n_fields=3, vocab_size=6, len_min=2,
                         len_max=6, t_max=6, rule_strength=0.0, base_rate=0.5)
    ds = syn.synth_generate(spec, seed=7)
    subset = d.Dataset(ds.schema, ds.sequences[:100], "train")
    config = m.ModelConfig(variant="full", k=8, h=8, mlp_widths=(16, 1), t_max=6)
    tcfg = tr.TrainConfig(seed=1, learning_rate=0.01, batch_size=16,
                          max_epochs=500, patience=500, eval_every=1000,
                          target_train_nll=0.05)
    result = tr.train(subset, subset, config, tcfg)
    elapsed = time.perf_counter() - started
    final_nll = result.log[-1].train_nll
    first_nll = result.log[0].train_nll
    assert final_nll < 0.05
    assert len(result.log) <= 500
    assert elapsed < 300.0
    assert final_nll * 10 < first_nll
    _report(4, f"NLL {first_nll:.3f} -> {final_nll:.4f} in {len(result.log)} "
               f"epochs, {elapsed:.0f}s")


PLANT_SPEC = syn.SynthSpec(n_users=300, n_fields=3, vocab_size=8, len_min=3,
                           len_max=12, t_max=8, rule_strength=1.0,
                           plant_rate=0.35)
PLANT_MODEL = m.ModelConfig(variant="full", k=8, h=8, mlp_widths=(16, 1), t_max=8)


def test_criterion_5_planted_rule_learnability():
    """Deterministic cross-event rule: test AUC >= 0.95; the no-signal twin
    stays at 0.5 +- 0.02; attention puts its max weight on a rule-triggering
    history event in >= 80% of positive test sequences."""
    ds = syn.synth_generate(PLANT_SPEC, seed=101)
    oracle = syn.rule_oracle_scores(ds, PLANT_SPEC)
    all_labels = [s.label for s in ds.sequences]
    assert oracle == [float(label) for label in all_labels]
    assert mt.auc(mt.ScoredSet.of(oracle, all_labels)) == 1.0  # Bayes optimum
    train_ds, valid_ds, test_ds = d.split(ds)
    tcfg = tr.TrainConfig(seed=1, learning_rate=0.01, batch_size=32,
                          max_epochs=8, patience=3)
    result = tr.train(train_ds, valid_ds, PLANT_MODEL, tcfg)
    scores = tr.predict_scores(test_ds, result.params, PLANT_MODEL)
    labels = [s.label for s in test_ds.sequences]
    signal_auc = mt.auc(mt.ScoredSet.of(scores, labels))
    assert signal_auc >= 0.95

    aligned = total = 0
    for seq in test_ds.sequences:
        if seq.label != 1:
            continue
        _, trigger_slots = rule_fires(seq, ds.schema, PLANT_SPEC)
        cache = m.forward(seq, result.params, PLANT_MODEL)
        best_slot = cache.history_slots[int(np.argmax(cache.att_weights))]
        total += 1
        aligned += best_slot in trigger_slots
    assert total > 0
    assert aligned / total >= 0.80

    no_signal_spec = syn.SynthSpec(n_users=1200, n_fields=3, vocab_size=8,
                                   len_min=2, len_max=6, t_max=8,
                                   rule_strength=0.0, plant_rate=0.0)
    ds0 = syn.synth_generate(no_signal_spec, seed=11)
    tr0, va0, te0 = d.split(ds0)
    res0 = tr.train(tr0, va0, PLANT_MODEL,
                    tr.TrainConfig(seed=1, learning_rate=0.01, batch_size=32,
                                   max_epochs=2, patience=5))
    scores0 = tr.predict_scores(te0, res0.params, PLANT_MODEL)
    chance_auc = mt.auc(mt.ScoredSet.of(scores0, [s.label for s in te0.sequences]))
    assert 0.48 <= chance_auc <= 0.52
    _report(5, f"signal AUC {signal_auc:.4f}, attention alignment "
               f"{aligned}/{total}, no-signal AUC {chance_auc:.4f}")


def _ml1m_dir() -> Path | None:
    root = Path(os.environ.get("NHFM_ML1M_DIR", "data/ml-1m"))
    needed = ("ratings.dat", "users.dat", "movies.dat")
    if all((root / name).exists() for name in needed):
        return root
    return None


def test_criterion_6_movielens_table_statistics():
    """MovieLens-1M ingest must reproduce the published dataset statistics:
    one sequence per rating event (1,000,209) with roughly 575K positives
    and 425K negatives under the rating >= 4 rule, across 9 fields."""
    root = _ml1m_dir()
    if root is None:
        pytest.skip("MovieLens-1M files not present; set NHFM_ML1M_DIR to "
                    "a directory with ratings.dat/users.dat/movies.dat")
    columns = ml.ingest_movielens(root / "ratings.dat", root / "users.dat",
                                  root / "movies.dat")
    assert len(columns) == 1_000_209
    positives = int(columns.label.sum())
    negatives = len(columns) - positives
    assert abs(positives - 575_000) < 10_000
    assert abs(negatives - 425_000) < 10_000
    assert len(ml.MOVIELENS_FIELDS) == 9

    schema = d.fit_schema(columns, ml.MOVIELENS_FIELDS)
    sequences = d.encode_windows(columns, schema, t_max=10)
    assert len(sequences) == 1_000_209  # exactly one sequence per event
    _report(6, f"{positives} pos / {negatives} neg / 9 fields / "
               f"{len(sequences)} events")


def test_criterion_6_movielens_training_gate():
    """Desk-scale reproduction gate: full variant, defaults, 5 seeds, mean
    test AUC >= 0.74. Exact reproduction of the published 0.7708 is not
    guaranteed (fields, split, and hyperparameters are this build's own
    choices); the stretch and directional comparisons are reported, not
    gated."""
    root = _ml1m_dir()
    if root is None:
        pytest.skip("MovieLens-1M files not present")
    if os.environ.get("NHFM_ML1M_TRAIN") != "1":
        pytest.skip("multi-hour training gate; set NHFM_ML1M_TRAIN=1 to run "
                    "(budget: <= 2h CPU per seed, 5 seeds)")

    from nhfm.cli import RunConfig, prepare_datasets

    cfg = RunConfig.load(None, (
        "dataset.kind=movielens",
        f"dataset.movielens_dir={root}",
    ))
    train_ds, valid_ds, test_ds = prepare_datasets(cfg)
    model_config = cfg.model_config()
    aucs = []
    for seed in (1, 2, 3, 4, 5):
        started = time.perf_counter()
        result = tr.train(train_ds, valid_ds, model_config,
                          cfg.train_config(seed))
        assert time.perf_counter() - started < 7200
        scores = tr.predict_scores(test_ds, result.params, model_config)
        aucs.append(mt.auc(mt.ScoredSet.of(
            scores, [s.label for s in test_ds.sequences])))
    summary = mt.mean_ci(aucs)
    assert summary.mean >= 0.74
    stretch = abs(summary.mean - 0.7708) <= 0.015  # reported, non-gating
    _report(6, f"mean test AUC {summary.format()} (stretch within 0.015 of "
               f"0.7708: {stretch})")


def test_criterion_7_fraud_style_spauc_report():
    """The proprietary industrial datasets cannot be reproduced; instead a
    fraud-style imbalanced synthetic run reports spAUC with 95% CIs in the
    mean+-halfwidth table format."""
    spec = syn.SynthSpec(n_users=250, n_fields=3, vocab_size=8, len_min=3,
                         len_max=10, t_max=8, rule_strength=1.0, plant_rate=0.10)
    ds = syn.synth_generate(spec, seed=41)
    train_ds, valid_ds, test_ds = d.split(ds)
    labels = [s.label for s in test_ds.sequences]
    assert np.mean(labels) < 0.25  # imbalanced, fraud-style
    config = m.ModelConfig(variant="full", k=8, h=8, mlp_widths=(16, 1), t_max=8)

    spauc_vals = []
    for seed in (1, 2, 3):
        res = tr.train(train_ds, valid_ds, config,
                       tr.TrainConfig(seed=seed, learning_rate=0.01,
                                      batch_size=32, max_epochs=5, patience=3))
        scores = tr.predict_scores(test_ds, res.params, config)
        spauc_vals.append(mt.spauc(mt.ScoredSet.of(scores, labels), 0.05))
    summary = mt.mean_ci(spauc_vals)
    line = summary.format()
    mean_s, hw_s = line.split("±")
    assert len(mean_s.split(".")[1]) == 4 and len(hw_s.split(".")[1]) == 4
    assert summary.mean > 0.9  # the planted rule is learnable at low FPR
    _report(7, f"spAUC@0.05 over 3 seeds: {line}")


def _criterion_8_run():
    """Train the criterion-8 model; returns (datasets, config, result)."""
    spec = syn.SynthSpec(n_users=40, n_fields=3, vocab_size=5, len_min=3,
                         len_max=7, t_max=5)
    ds = syn.synth_generate(spec, seed=5)
    splits = d.split(ds)
    config = m.ModelConfig(variant="full", k=3, h=3, mlp_widths=(4, 1), t_max=5)
    res = tr.train(splits[0], splits[1], config,
                   tr.TrainConfig(seed=9, learning_rate=0.01, batch_size=8,
                                  max_epochs=3, patience=5))
    return splits, config, res


def _criterion_8_checkpoint() -> bytes:
    splits, config, res = _criterion_8_run()
    return cp.serialize_checkpoint(cp.Checkpoint(
        config, splits[0].schema.hash(), res.params, res.opt_state, {"seed": 9}))


def test_criterion_8_training_determinism():
    """Identical config+seed must give bit-identical checkpoints: from two
    runs in this process and from a run in a fresh interpreter, which
    starts from its own allocator, caches and hash seed. The trained
    model scores a shuffled split as the permuted scores, bit for bit,
    although each window lands in another scoring chunk at another
    position."""
    blobs = [_criterion_8_checkpoint(), _criterion_8_checkpoint()]
    assert blobs[0] == blobs[1]

    src = str(Path(m.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_acceptance import _criterion_8_checkpoint; "
            "sys.stdout.buffer.write(_criterion_8_checkpoint())")
    fresh = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
        capture_output=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="123"))
    assert fresh.returncode == 0, fresh.stderr.decode()
    assert fresh.stdout == blobs[0]

    (train_ds, _, _), config, res = _criterion_8_run()
    scores = tr.predict_scores(train_ds, res.params, config)
    order = np.random.default_rng(3).permutation(len(train_ds.sequences))
    shuffled = d.Dataset(train_ds.schema, [train_ds.sequences[i] for i in order])
    assert len(train_ds.sequences) > SCORE_ROWS  # several chunks, the last one padded
    assert np.array_equal(tr.predict_scores(shuffled, res.params, config), scores[order])
    _report(8, f"checkpoints bit-identical across runs and interpreters "
               f"({len(blobs[0])} bytes); shuffled scores are the permuted scores")

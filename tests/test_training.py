"""Loss, optimizers, the training loop's determinism and early stopping,
and the gradient verification mode (including a fault-injection case)."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_oracle as to
from nhfm import cli
from nhfm import data as d
from nhfm import dataset_io as dio
from nhfm import model as m
from nhfm import synthetic as syn
from nhfm import training as tr
from nhfm.errors import DataError, NumericalError


class TestNLLLoss:
    def test_logit_zero_gives_ln2(self):
        assert abs(tr.nll_loss(0.0, 1) - math.log(2)) < 1e-15
        assert abs(tr.nll_loss(0.0, 0) - math.log(2)) < 1e-15

    def test_saturated_logit(self):
        assert tr.nll_loss(20.0, 1) < 1e-8
        assert tr.nll_loss(-20.0, 0) < 1e-8

    def test_matches_direct_formula_where_stable(self):
        # the complement 1 - sigmoid(z) is evaluated as sigmoid(-z) so the
        # direct formula itself stays accurate across the whole range
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = float(rng.uniform(-30, 30))
            y = int(rng.integers(0, 2))
            p = 1.0 / (1.0 + math.exp(-z))
            q = 1.0 / (1.0 + math.exp(z))
            direct = -(y * math.log(p) + (1 - y) * math.log(q))
            assert abs(tr.nll_loss(z, y) - direct) < 1e-12 * max(1.0, abs(direct))

    def test_total_at_extreme_logits(self):
        assert math.isfinite(tr.nll_loss(5000.0, 0))
        assert math.isfinite(tr.nll_loss(-5000.0, 1))

    def test_tape_version_agrees(self):
        t = to.Tape()
        z = t.leaf(1.3)
        var = to.nll_loss_var(z, 1)
        assert abs(float(var.value) - tr.nll_loss(1.3, 1)) < 1e-15


def _params_of(**arrays):
    return m.Parameters({k: np.asarray(v, dtype=np.float64)
                         for k, v in arrays.items()})


# finite values with denormals and both zeros among them
_VALUES = st.one_of(st.floats(-1e3, 1e3),
                    st.sampled_from([5e-324, -5e-324, 2.2e-310, -1e-320, 0.0, -0.0]))
# names in vector order: the table first, as the model has it, or between
# dense tensors
_LAYOUTS = [("embed.V", "w", "b"), ("w", "embed.V", "b")]


def _array(draw, shape):
    size = math.prod(shape)
    return np.array(draw(st.lists(_VALUES, min_size=size, max_size=size)),
                    dtype=np.float64).reshape(shape)


@st.composite
def sparse_runs(draw):
    """A model of a table of n rows and two dense tensors, Adam moments that
    may hold denormals on rows no step touches, and a few steps of
    gradients whose table part is row-sparse."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    order = draw(st.sampled_from(_LAYOUTS))
    shapes = {"embed.V": (n, k), "w": (draw(st.integers(1, 4)),), "b": ()}
    shapes = {name: shapes[name] for name in order}
    params = {name: _array(draw, shape) for name, shape in shapes.items()}
    # neither moment holds -0.0 (see optimizer_step); v is never negative
    moments = {name: _array(draw, shape) + 0.0 for name, shape in shapes.items()}
    squares = {name: np.abs(_array(draw, shape)) for name, shape in shapes.items()}
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        rows = np.array(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))), dtype=np.intp)
        grads = {name: _array(draw, shape) for name, shape in shapes.items() if name != "embed.V"}
        grads["embed.V"] = m.RowSparse(rows, _array(draw, (len(rows), k)), n)
        steps.append(grads)
    return params, moments, squares, steps


class TestOptimizerStep:
    def test_sgd_update_rule(self):
        params = _params_of(p=[1.0])
        cfg = tr.TrainConfig(optimizer="sgd", learning_rate=0.1)
        state = tr.OptimizerState.fresh("sgd", params)
        tr.optimizer_step(params, {"p": np.array([0.5])}, state, cfg)
        np.testing.assert_allclose(params["p"], [0.95])

    def test_adam_first_step_is_signed_learning_rate(self):
        # closed form: m_hat = g, v_hat = g^2, step = -lr * g / (|g| + eps)
        for g in (0.5, -2.0, 3e-3):
            params = _params_of(p=[1.0])
            cfg = tr.TrainConfig(optimizer="adam", learning_rate=1e-3)
            state = tr.OptimizerState.fresh("adam", params)
            tr.optimizer_step(params, {"p": np.array([g])}, state, cfg)
            expected = 1.0 - 1e-3 * g / (abs(g) + 1e-8)
            assert abs(float(params["p"][0]) - expected) < 1e-15

    def test_adam_in_place_matches_the_out_of_place_expressions(self):
        # the per-tensor expressions, with global-norm clipping, that the
        # one pass over the flat vector must reproduce bit for bit
        shapes = {"W": (7, 3), "b": (5,), "c": ()}
        b1, b2, eps = tr.BETA1, tr.BETA2, tr.ADAM_EPS
        for kind, clip in (("adam", None), ("adam", 0.5), ("sgd", None), ("sgd", 0.5)):
            rng = np.random.default_rng(21)
            params = _params_of(**{n: rng.normal(size=s) for n, s in shapes.items()})
            cfg = tr.TrainConfig(optimizer=kind, learning_rate=3e-3, grad_clip_norm=clip)
            lr = cfg.learning_rate
            state = tr.OptimizerState.fresh(kind, params)
            ref_p = {n: v.copy() for n, v in params.items()}
            ref_m = {n: np.zeros(s) for n, s in shapes.items()}
            ref_v = {n: np.zeros(s) for n, s in shapes.items()}
            for t in range(1, 6):
                grads = {n: np.asarray(rng.normal(size=s)) for n, s in shapes.items()}
                tr.optimizer_step(params, grads, state, cfg)
                if clip is not None:
                    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                    assert total > clip
                    grads = {n: g * (clip / total) for n, g in grads.items()}
                for n, g in grads.items():
                    if kind == "sgd":
                        ref_p[n] = ref_p[n] - lr * g
                        assert np.array_equal(params[n], ref_p[n]), (kind, clip, t, n)
                        continue
                    ref_m[n] = b1 * ref_m[n] + (1 - b1) * g
                    ref_v[n] = b2 * ref_v[n] + (1 - b2) * g * g
                    m_hat = ref_m[n] / (1 - b1 ** t)
                    v_hat = ref_v[n] / (1 - b2 ** t)
                    ref_p[n] = ref_p[n] - lr * m_hat / (np.sqrt(v_hat) + eps)
                    assert np.array_equal(params[n], ref_p[n]), (kind, clip, t, n)
                    assert np.array_equal(state.m[n], ref_m[n]), (kind, clip, t, n)
                    assert np.array_equal(state.v[n], ref_v[n]), (kind, clip, t, n)
            assert state.step == 5

    def test_zero_gradient_is_fixed_point(self):
        for kind in ("sgd", "adam"):
            params = _params_of(p=[2.0, -1.0])
            cfg = tr.TrainConfig(optimizer=kind)
            state = tr.OptimizerState.fresh(kind, params)
            tr.optimizer_step(params, {"p": np.zeros(2)}, state, cfg)
            np.testing.assert_array_equal(params["p"], [2.0, -1.0])

    def test_nan_gradient_names_parameter(self):
        params = _params_of(good=[1.0], bad=[1.0])
        cfg = tr.TrainConfig(optimizer="sgd")
        state = tr.OptimizerState.fresh("sgd", params)
        grads = {"good": np.array([0.1]), "bad": np.array([np.nan])}
        with pytest.raises(NumericalError, match="'bad'"):
            tr.optimizer_step(params, grads, state, cfg)

    @settings(max_examples=150, deadline=None)
    @given(run=sparse_runs(), kind=st.sampled_from(["adam", "sgd"]),
           clip=st.sampled_from([None, 1e-3, 1e6]), lr=st.sampled_from([1e-3, 0.5]))
    def test_a_row_sparse_table_gradient_steps_as_its_dense_table(self, run, kind, clip, lr):
        arrays, moments, squares, steps = run
        cfg = tr.TrainConfig(optimizer=kind, learning_rate=lr, grad_clip_norm=clip)
        sides = []
        for dense in (False, True):
            params = _params_of(**arrays)
            state = tr.OptimizerState(kind, 3, _params_of(**moments), _params_of(**squares))
            for grads in steps:
                if dense:
                    grads = {**grads, "embed.V": grads["embed.V"].dense()}
                tr.optimizer_step(params, grads, state, cfg)
            sides.append((params.flat.tobytes(), state.m.flat.tobytes(),
                          state.v.flat.tobytes(), state.step))
        assert sides[0] == sides[1]

    @pytest.mark.parametrize("order", _LAYOUTS)
    def test_nan_in_a_row_sparse_gradient_names_the_table(self, order):
        shapes = {"embed.V": (4, 2), "w": (3,), "b": ()}
        params = _params_of(**{name: np.zeros(shapes[name]) for name in order})
        before = params.flat.copy()
        grads = {name: np.ones(params[name].shape) for name in order}
        grads["embed.V"] = m.RowSparse(np.array([1, 3]), np.array([[0.5, 1.0], [np.nan, 2.0]]), 4)
        for kind in ("adam", "sgd"):
            state = tr.OptimizerState.fresh(kind, params)
            with pytest.raises(NumericalError, match="'embed.V'"):
                tr.optimizer_step(params, grads, state, tr.TrainConfig(optimizer=kind))
            assert np.array_equal(params.flat, before)

    def test_a_row_sparse_step_allocates_no_vector_of_the_parameters_size(self):
        rng = np.random.default_rng(3)
        params = _params_of(**{"embed.V": rng.normal(size=(20000, 16)), "w": rng.normal(size=500)})
        state = tr.OptimizerState.fresh("adam", params)
        rows = np.sort(rng.choice(20000, size=300, replace=False))
        grads = {"embed.V": m.RowSparse(rows, rng.normal(size=(300, 16)), 20000),
                 "w": rng.normal(size=500)}
        tr.optimizer_step(params, grads, state, tr.TrainConfig())
        tracemalloc.start()
        try:
            tr.optimizer_step(params, grads, state, tr.TrainConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two block-sized scratch arrays and the touched rows, against 2.6 MB
        assert peak < params.flat.nbytes / 4, peak

    def test_global_norm_clipping(self):
        params = _params_of(p=[0.0, 0.0])
        cfg = tr.TrainConfig(optimizer="sgd", learning_rate=1.0,
                             grad_clip_norm=1.0)
        state = tr.OptimizerState.fresh("sgd", params)
        tr.optimizer_step(params, {"p": np.array([3.0, 4.0])}, state, cfg)
        # gradient norm 5 clipped to 1 -> step is the unit vector
        np.testing.assert_allclose(params["p"], [-0.6, -0.8])


def _tiny_run(seed=1, max_epochs=3, users=25, **kw):
    spec = syn.SynthSpec(n_users=users, n_fields=2, vocab_size=4,
                         len_min=3, len_max=6, t_max=4)
    ds = syn.synth_generate(spec, seed=17)
    train_ds, valid_ds, test_ds = d.split(ds)
    config = m.ModelConfig(variant="full", k=3, h=3, mlp_widths=(4, 1), t_max=4)
    tcfg = tr.TrainConfig(seed=seed, max_epochs=max_epochs, batch_size=8, **kw)
    result = tr.train(train_ds, valid_ds, config, tcfg)
    return result, test_ds, config


def test_hot_paths_build_no_window_objects(monkeypatch, tmp_path):
    spec = syn.SynthSpec(n_users=25, n_fields=2, vocab_size=4, len_min=3, len_max=6, t_max=4)
    ds = syn.synth_generate(spec, seed=17)
    parts = []
    for part in d.split(ds):
        dio.write_dataset(part, tmp_path / part.split)
        parts.append(dio.read_dataset(tmp_path / part.split, ds.schema))

    def refuse(store):
        raise AssertionError("a hot path decoded EventSequence objects")
    monkeypatch.setattr(d.EventStore, "views", refuse)
    train_ds, valid_ds, test_ds = parts
    config = m.ModelConfig(variant="full", k=3, h=3, mlp_widths=(4, 1), t_max=4)
    tr.require_both_classes(valid_ds)
    result = tr.train(train_ds, valid_ds, config, tr.TrainConfig(max_epochs=1, batch_size=8))
    assert np.all(np.isfinite(tr.predict_scores(test_ds, result.params, config)))
    assert "#events=" in cli.table_stats(parts)
    with pytest.raises(AssertionError, match="decoded"):
        test_ds.sequences


def test_no_command_builds_window_objects(monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise AssertionError("a command built EventSequence objects")
    monkeypatch.setattr(d.EventStore, "views", refuse)
    monkeypatch.setattr(d.EventStore, "of", refuse)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": {"kind": "synthetic", "t_max": 4, "synth_seed": 17,
                    "synth": {"n_users": 25, "n_fields": 2, "vocab_size": 4,
                              "len_min": 3, "len_max": 6}},
        "model": {"k": 3, "h": 3, "mlp_widths": [4, 1]},
        "train": {"batch_size": 8, "max_epochs": 1},
        "seeds": [1], "out_dir": str(tmp_path / "run")}))
    for command in ("preprocess", "train", "eval", "explain"):
        assert cli.main([command, "--config", str(config)]) == 0, command
    assert "user=" in (tmp_path / "run" / "explain.txt").read_text()  # it reported windows
    assert cli.main(["gradcheck"]) == 0
    assert cli.main(["inspect", str(tmp_path / "run" / "data" / "test.nhfmds")]) == 0
    assert "gradient check passed" in capsys.readouterr().out


class TestTrainLoop:
    def test_fixed_seed_repeats_epoch_one_loss(self):
        r1, _, _ = _tiny_run(max_epochs=1)
        r2, _, _ = _tiny_run(max_epochs=1)
        assert r1.log[0].train_nll == r2.log[0].train_nll

    def test_different_seeds_differ(self):
        r1, _, _ = _tiny_run(seed=1, max_epochs=1)
        r2, _, _ = _tiny_run(seed=2, max_epochs=1)
        assert r1.log[0].train_nll != r2.log[0].train_nll

    def test_returns_best_validation_epoch(self):
        result, _, _ = _tiny_run(max_epochs=4)
        evaluated = [rec.valid_auc for rec in result.log if rec.valid_auc is not None]
        assert result.best_valid_auc == max(evaluated)

    def test_early_stop_on_patience(self):
        # a vanishing learning rate freezes validation AUC, so patience
        # terminates the run long before max_epochs
        result, _, _ = _tiny_run(max_epochs=50, patience=2,
                                 learning_rate=1e-12)
        assert len(result.log) == 3  # first eval + two stale evals
        assert result.best_epoch == 1

    def test_empty_dataset_rejected(self):
        spec = syn.SynthSpec(n_users=5, t_max=4)
        ds = syn.synth_generate(spec, seed=1)
        config = m.ModelConfig(variant="full", k=2, h=2, mlp_widths=(2, 1), t_max=4)
        empty = d.Dataset(ds.schema, [], "train")
        with pytest.raises(DataError, match="train split is empty"):
            tr.train(empty, ds, config, tr.TrainConfig())

    @pytest.mark.parametrize("keep", [(), (0,), (1,)])
    def test_validation_split_needs_both_classes(self, keep):
        spec = syn.SynthSpec(n_users=5, t_max=4)
        ds = syn.synth_generate(spec, seed=1)
        config = m.ModelConfig(variant="full", k=2, h=2, mlp_widths=(2, 1), t_max=4)
        valid = d.Dataset(ds.schema, [s for s in ds.sequences if s.label in keep], "valid")
        n_pos = sum(s.label for s in valid.sequences)
        with pytest.raises(DataError, match=f"valid split has {n_pos} positives / "
                                            f"{len(valid.sequences) - n_pos} negatives"):
            tr.train(ds, valid, config, tr.TrainConfig())

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_returns_last_good_parameters(self):
        result, _, _ = _tiny_run(max_epochs=6, optimizer="sgd",
                                 learning_rate=1e150)
        assert result.diverged
        assert np.isfinite(result.params.flat).all()

    def test_target_train_nll_stops_early(self):
        result, _, _ = _tiny_run(max_epochs=50, learning_rate=0.05,
                                 target_train_nll=0.68)
        assert result.log[-1].train_nll < 0.68
        assert len(result.log) < 50


class TestGradCheckMode:
    # seeds below are pinned: entries whose true gradient sits near zero
    # measure finite-difference noise against the 1e-8 denominator floor,
    # so the probe needs gradients comfortably above that floor. At seed 8
    # dead ReLUs cut the probe off from every attention and LSTM gradient;
    # at seed 21 each is nonzero, so the checks of the whole model use it

    @pytest.fixture
    def setup(self):
        spec = syn.SynthSpec(n_users=12, n_fields=3, vocab_size=3,
                             len_min=2, len_max=6, t_max=5)
        ds = syn.synth_generate(spec, seed=23)
        config = m.ModelConfig(variant="full", k=2, h=2, mlp_widths=(3, 1), t_max=5)
        # two windows with at least 3 history events, one with 1, one with none
        history = np.count_nonzero(ds.store.rows[:, :-1], axis=1)
        multi = np.flatnonzero(history >= 3)
        return ds, config, [multi[0], multi[1], np.argmax(history == 1), np.argmax(history == 0)]

    def test_fresh_model_passes(self, setup):
        ds, config, probe = setup
        report = tr.grad_check_mode(ds.store, probe, ds.schema.n, config, seed=21)
        assert report.passed(), report.lines()

    def test_zero_history_only_passes(self, setup):
        ds, config, probe = setup
        zero = probe[-1]
        report = tr.grad_check_mode(ds.store, [zero], ds.schema.n, config, seed=21)
        assert report.passed(), report.lines()

    def test_corrupted_fm_pool_backward_flags_embeddings(self, setup, monkeypatch):
        ds, config, probe = setup
        # precondition: the probe actually exercises the embedding table
        # (dead ReLUs can cut it off, which would hide the fault)
        params = m.random_parameters(config, ds.schema.n, 8)
        live = np.zeros_like(params["embed.V"])
        for window in probe:
            _, grads = m.loss_and_grads(m.gather(ds.store, [window]), params, config)
            live += grads["embed.V"].dense()
        assert np.max(np.abs(live)) > 1e-6

        true_pool = m._fm_pool

        def broken_pool(u, axis):
            # the pooled value stays right, so the loss does too; only the
            # backward pass reads the saved sum
            pooled, total = true_pool(u, axis)
            return pooled, 1.05 * total

        monkeypatch.setattr(m, "_fm_pool", broken_pool)
        report = tr.grad_check_mode(ds.store, probe, ds.schema.n, config, seed=8)
        assert not report.passed()
        err, _ = report.per_group["embed.V"]
        assert err > report.tolerance

    @staticmethod
    def failing_tensors(setup) -> list[str]:
        ds, config, probe = setup
        report = tr.grad_check_mode(ds.store, probe, ds.schema.n, config, seed=21)
        return [name for name, (err, _) in report.per_group.items()
                if err >= report.tolerance]

    def test_the_attention_and_lstm_probe_passes(self, setup):
        ds, config, probe = setup
        # precondition: the probe reaches the attention and LSTM weights
        params = m.random_parameters(config, ds.schema.n, 21)
        _, grads = m.loss_and_grads(m.gather(ds.store, probe), params, config)
        for name in ("attn.F1.W", "lstm.fwd.Ui"):
            assert np.max(np.abs(grads[name])) > 1e-6, name
        assert self.failing_tensors(setup) == []

    def test_corrupted_attention_backward_flags_its_weights(self, setup, monkeypatch):
        true_backward = m._attention_backward

        def broken_backward(ds, weights, cache, grads):
            dx = true_backward(ds, weights, cache, grads)
            grads["attn.F1.W"] = 1.05 * grads["attn.F1.W"]
            return dx

        monkeypatch.setattr(m, "_attention_backward", broken_backward)
        assert self.failing_tensors(setup) == ["attn.F1.W"]

    def test_corrupted_lstm_backward_flags_its_weights(self, setup, monkeypatch):
        true_backward = m._lstm_backward

        def broken_backward(dh, cache, direction, h, grads):
            dx = true_backward(dh, cache, direction, h, grads)
            if direction == "fwd":
                grads["lstm.fwd.Ui"] = 1.05 * grads["lstm.fwd.Ui"]
            return dx

        monkeypatch.setattr(m, "_lstm_backward", broken_backward)
        assert self.failing_tensors(setup) == ["lstm.fwd.Ui"]

    def test_corrupted_mlp_backward_flags_its_weights(self, setup, monkeypatch):
        true_backward = m._mlp_backward

        def broken_backward(dout, cache, params, grads):
            ds = true_backward(dout, cache, params, grads)
            grads["mlp.0.W"] = 1.05 * grads["mlp.0.W"]
            return ds

        monkeypatch.setattr(m, "_mlp_backward", broken_backward)
        assert self.failing_tensors(setup) == ["mlp.0.W"]

    def test_corrupted_embedding_scatter_flags_the_table(self, setup, monkeypatch):
        true_scatter = m._scatter_rows

        def scaled_scatter(idx, terms, n):
            # the embedding table's scatter-add (not the wide term's) weighs 5% too much
            return true_scatter(idx, 1.05 * terms, n)

        monkeypatch.setattr(m, "_scatter_rows", scaled_scatter)
        assert self.failing_tensors(setup) == ["embed.V"]

    def test_report_lines_name_worst_offender(self, setup):
        ds, config, probe = setup
        report = tr.grad_check_mode(ds.store, probe[:1], ds.schema.n, config, seed=8)
        assert any("worst:" in line for line in report.lines())

"""Model tests. The branch tests check the tape oracle (``tape_oracle``),
which the batched engine is compared with, against brute-force oracles:
pairwise double sums for the interaction pools, a plain-loop
reimplementation of the attention formula, and a scalar LSTM recurrence.
The forward tests run the shipped one-window ``forward`` where they read
only what it returns, and the tape where they read inner vectors."""

import math
import tracemalloc

import numpy as np
import pytest

import encode_oracle as oracle
import tape_oracle as to
from nhfm import data as d
from nhfm import model as m
from nhfm import synthetic as syn


def pairwise_hadamard_oracle(vectors):
    """Explicit double sum over unordered pairs."""
    out = np.zeros_like(vectors[0]) if vectors else np.zeros(0)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            out = out + vectors[i] * vectors[j]
    return out


def attention_oracle(history, params, k):
    """Loop evaluation of the self-importance formula."""
    w1, b1 = params["attn.F1.W"], params["attn.F1.b"]
    w2, b2 = params["attn.F2.W"], params["attn.F2.b"]
    w3, b3 = params["attn.F3.W"], params["attn.F3.b"]
    logits = np.array([float((w1 @ e + b1) @ (w2 @ e + b2)) / math.sqrt(k)
                       for e in history])
    ex = np.exp(logits - logits.max())
    a = ex / ex.sum()
    s = np.zeros(k)
    for t, e in enumerate(history):
        s = s + a[t] * np.maximum(w3 @ e + b3, 0.0)
    return s, logits, a


def scalar_lstm_reference(xs, w, u, b):
    """Step-by-step scalar LSTM with per-gate weights w/u/b dicts."""
    def sig(z):
        return 1.0 / (1.0 + math.exp(-z))

    h = c = 0.0
    for x in xs:
        i = sig(w["i"] * x + u["i"] * h + b["i"])
        f = sig(w["f"] * x + u["f"] * h + b["f"])
        g = math.tanh(w["g"] * x + u["g"] * h + b["g"])
        o = sig(w["o"] * x + u["o"] * h + b["o"])
        c = f * c + i * g
        h = o * math.tanh(c)
    return h


def two_token_schema():
    return oracle.fit_schema(
        [{"__user": "u", "__ts": 0, "__label": 0, "a": "x", "b": "y"},
         {"__user": "u", "__ts": 1, "__label": 0, "a": "z", "b": "w"}],
        {"a": d.CATEGORICAL, "b": d.CATEGORICAL})


class TestEmbedEvent:
    def test_unit_value_returns_row(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(5, 3))
        t = to.Tape()
        ev = d.Event(((2, 1.0),))
        u = to.embed_event(t, ev, t.leaf(v), 3)
        np.testing.assert_array_equal(u.value, v[[2]])

    def test_value_rescales_row(self):
        t = to.Tape()
        v = np.array([[2.0, 4.0]])
        u = to.embed_event(t, d.Event(((0, 0.5),)), t.leaf(v), 2)
        np.testing.assert_array_equal(u.value, [[1.0, 2.0]])

    def test_empty_event(self):
        t = to.Tape()
        assert to.embed_event(t, d.Event(), t.leaf(np.zeros((3, 2))), 2) is None


class TestEventFM:
    def test_single_feature_gives_zero(self):
        t = to.Tape()
        u = t.leaf([[1.0, 2.0]])
        np.testing.assert_array_equal(to.event_fm(t, u, 2).value, [0.0, 0.0])

    def test_empty_gives_zero(self):
        t = to.Tape()
        np.testing.assert_array_equal(to.event_fm(t, None, 4).value, np.zeros(4))

    def test_single_pair(self):
        t = to.Tape()
        u = t.leaf([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(to.event_fm(t, u, 2).value, [3.0, 8.0])

    def test_matches_double_sum(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(-2, 2, (6, 4))
        t = to.Tape()
        got = to.event_fm(t, t.leaf(rows), 4).value
        want = pairwise_hadamard_oracle(list(rows))
        assert np.max(np.abs(got - want)) < 1e-10


class TestSequenceFM:
    def test_one_real_event_gives_zero(self):
        t = to.Tape()
        vecs = [t.leaf([1.0, 2.0])]
        np.testing.assert_array_equal(to.sequence_fm(t, vecs, 2).value, [0.0, 0.0])

    def test_disjoint_supports(self):
        t = to.Tape()
        vecs = [t.leaf([1.0, 0.0]), t.leaf([0.0, 1.0])]
        np.testing.assert_array_equal(to.sequence_fm(t, vecs, 2).value, [0.0, 0.0])

    def test_masked_oracle(self):
        # five slots, two masked: the pool must see only the real three
        rng = np.random.default_rng(2)
        all_vecs = rng.uniform(-2, 2, (5, 3))
        q = [1, 0, 1, 0, 1]
        real = [all_vecs[i] for i in range(5) if q[i]]
        t = to.Tape()
        got = to.sequence_fm(t, [t.leaf(v) for v in real], 3).value
        masked = [q[i] * all_vecs[i] for i in range(5)]
        want = pairwise_hadamard_oracle(masked)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        vecs = rng.uniform(-1, 1, (4, 3))
        t1, t2 = to.Tape(), to.Tape()
        a = to.sequence_fm(t1, [t1.leaf(v) for v in vecs], 3).value
        b = to.sequence_fm(t2, [t2.leaf(v) for v in vecs[::-1]], 3).value
        np.testing.assert_allclose(a, b, atol=1e-12)


def _attn_params(rng, k):
    return {
        f"attn.F{i}.{kind}": (rng.normal(size=(k, k)) if kind == "W"
                              else rng.normal(size=k))
        for i in (1, 2, 3) for kind in ("W", "b")
    }


class TestSelfImportance:
    def _run(self, history, params, k):
        t = to.Tape()
        pv = {name: t.leaf(v) for name, v in params.items()}
        vecs = [t.leaf(e) for e in history]
        s_self, logits, weights = to.self_importance(t, vecs, pv, k)
        return s_self.value, logits.value, weights.value

    def test_single_event_takes_all_weight(self):
        rng = np.random.default_rng(4)
        k = 3
        params = _attn_params(rng, k)
        e = rng.normal(size=k)
        s_self, _, weights = self._run([e], params, k)
        np.testing.assert_array_equal(weights, [1.0])
        want = np.maximum(params["attn.F3.W"] @ e + params["attn.F3.b"], 0.0)
        np.testing.assert_allclose(s_self, want, atol=1e-12)

    def test_identical_events_share_weight(self):
        rng = np.random.default_rng(5)
        k = 3
        params = _attn_params(rng, k)
        e = rng.normal(size=k)
        _, _, weights = self._run([e, e.copy()], params, k)
        np.testing.assert_allclose(weights, [0.5, 0.5], atol=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(6)
        k = 4
        params = _attn_params(rng, k)
        history = [rng.normal(size=k) for _ in range(4)]
        s_self, logits, weights = self._run(history, params, k)
        want_s, want_logits, want_a = attention_oracle(history, params, k)
        np.testing.assert_allclose(logits, want_logits, atol=1e-12)
        np.testing.assert_allclose(weights, want_a, atol=1e-12)
        np.testing.assert_allclose(s_self, want_s, atol=1e-12)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        k = 3
        params = _attn_params(rng, k)
        for n_hist in (1, 2, 5, 9):
            history = [rng.normal(size=k) for _ in range(n_hist)]
            _, _, weights = self._run(history, params, k)
            assert abs(weights.sum() - 1.0) < 1e-12
            assert np.all(weights > 0)

    def test_empty_history_rejected(self):
        t = to.Tape()
        rng = np.random.default_rng(8)
        pv = {name: t.leaf(v) for name, v in _attn_params(rng, 3).items()}
        with pytest.raises(ValueError, match="no real history"):
            to.self_importance(t, [], pv, 3)

    def test_extreme_parameters_keep_weights_normalized(self):
        # the max-shifted softmax keeps a probability vector even when the
        # projection weights blow the logits up
        rng = np.random.default_rng(12)
        k = 3
        params = {name: 1e6 * v for name, v in _attn_params(rng, k).items()}
        history = [rng.normal(size=k) for _ in range(4)]
        _, logits, weights = self._run(history, params, k)
        assert np.all(np.isfinite(weights))
        assert abs(weights.sum() - 1.0) < 1e-12
        assert np.all(weights >= 0)


def _lstm_params(values: dict[str, dict[str, float]]):
    """1x1 LSTM parameter dict for both directions from scalar gate values."""
    out = {}
    for direction in ("fwd", "bwd"):
        for gate in "ifgo":
            v = values[direction]
            out[f"lstm.{direction}.W{gate}"] = np.array([[v[f"W{gate}"]]])
            out[f"lstm.{direction}.U{gate}"] = np.array([[v[f"U{gate}"]]])
            out[f"lstm.{direction}.b{gate}"] = np.array([v[f"b{gate}"]])
    return out


class TestBiLSTM:
    def _run(self, history, params, h):
        t = to.Tape()
        pv = {name: t.leaf(v) for name, v in params.items()}
        vecs = [t.leaf(e) for e in history]
        return to.bilstm(t, vecs, pv, h).value

    def test_all_zero_parameters_give_zero_state(self):
        zeros = {d_: {f"{w}{g}": 0.0 for w in "WUb" for g in "ifgo"}
                 for d_ in ("fwd", "bwd")}
        out = self._run([np.array([1.0]), np.array([-2.0])], _lstm_params(zeros), 1)
        np.testing.assert_array_equal(out, [0.0])

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(9)
        values = {d_: {f"{w}{g}": float(rng.uniform(-1, 1))
                       for w in "WUb" for g in "ifgo"}
                  for d_ in ("fwd", "bwd")}
        xs = [0.7, -1.3]
        out = self._run([np.array([x]) for x in xs], _lstm_params(values), 1)

        def gates(d_):
            v = values[d_]
            return ({g: v[f"W{g}"] for g in "ifgo"},
                    {g: v[f"U{g}"] for g in "ifgo"},
                    {g: v[f"b{g}"] for g in "ifgo"})

        want = (scalar_lstm_reference(xs, *gates("fwd"))
                + scalar_lstm_reference(list(reversed(xs)), *gates("bwd")))
        np.testing.assert_allclose(out, [want], atol=1e-12)

    def test_single_event_sums_both_directions(self):
        rng = np.random.default_rng(10)
        values = {d_: {f"{w}{g}": float(rng.uniform(-1, 1))
                       for w in "WUb" for g in "ifgo"}
                  for d_ in ("fwd", "bwd")}
        x = [0.3]
        out = self._run([np.array(x)], _lstm_params(values), 1)

        def one(d_):
            v = values[d_]
            return scalar_lstm_reference(x, {g: v[f"W{g}"] for g in "ifgo"},
                                         {g: v[f"U{g}"] for g in "ifgo"},
                                         {g: v[f"b{g}"] for g in "ifgo"})

        np.testing.assert_allclose(out, [one("fwd") + one("bwd")], atol=1e-12)

    def test_empty_history_gives_zero(self):
        rng = np.random.default_rng(11)
        values = {d_: {f"{w}{g}": float(rng.uniform(-1, 1))
                       for w in "WUb" for g in "ifgo"}
                  for d_ in ("fwd", "bwd")}
        np.testing.assert_array_equal(self._run([], _lstm_params(values), 1), [0.0])


class TestWide:
    def _run(self, seq, w, b):
        t = to.Tape()
        pv = {"wide.w": t.leaf(w), "wide.b": t.leaf(b)}
        return float(to.wide_term(t, seq, pv).value)

    def test_empty_events_give_bias(self):
        seq = d.EventSequence([d.Event(), d.Event()], [0, 1], 0, "u")
        assert self._run(seq, np.zeros(4), np.array(0.37)) == 0.37

    def test_feature_in_two_events_counts_twice(self):
        ev = d.Event(((2, 1.0),))
        seq = d.EventSequence([ev, ev], [1, 1], 0, "u")
        w = np.array([0.0, 0.0, 1.5, 0.0])
        assert self._run(seq, w, np.array(0.25)) == 2 * 1.5 + 0.25

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        n = 10
        w = rng.normal(size=n)
        b = np.array(rng.normal())
        events, dense = [], np.zeros(n)
        for _ in range(4):
            idx = sorted(rng.choice(n, size=3, replace=False))
            vals = rng.uniform(0, 1, 3)
            events.append(d.Event(tuple((int(i), float(v)) for i, v in zip(idx, vals))))
            for i, v in zip(idx, vals):
                dense[i] += v
        seq = d.EventSequence(events, [1] * 4, 0, "u")
        got = self._run(seq, w, b)
        assert abs(got - (w @ dense + float(b))) < 1e-12


class TestForward:
    @pytest.fixture
    def setup(self):
        spec = syn.SynthSpec(n_users=6, t_max=5)
        ds = syn.synth_generate(spec, seed=13)
        config = m.ModelConfig(variant="full", k=4, h=3, mlp_widths=(6, 1), t_max=5)
        params = m.init_parameters(config, ds.schema.n, seed=0)
        return ds, config, params

    def test_probability_strictly_inside_unit_interval(self, setup):
        ds, config, params = setup
        for seq in ds.sequences[:10]:
            cache = m.forward(seq, params, config)
            assert 0.0 < cache.y_hat < 1.0

    def test_zero_history_uses_zero_branches(self, setup):
        ds, config, params = setup
        seq = next(s for s in ds.sequences if not s.history_positions())
        cache = to.forward(seq, params, config)
        np.testing.assert_array_equal(cache.s_alpha, np.zeros(4))
        np.testing.assert_array_equal(cache.s_self, np.zeros(4))
        np.testing.assert_array_equal(cache.s_rnn, np.zeros(3))
        e_t = cache.event_vectors[-1]
        np.testing.assert_array_equal(cache.s, np.concatenate(
            [np.zeros(4), np.zeros(4), np.zeros(3), e_t]))

    def test_deterministic(self, setup):
        ds, config, params = setup
        seq = ds.sequences[0]
        a = m.forward(seq, params, config)
        b = m.forward(seq, params, config)
        assert a.y_hat == b.y_hat
        assert a.logit == b.logit

    def test_variant_mlp_inputs(self, setup):
        ds, _, _ = setup
        seq = next(s for s in ds.sequences if len(s.history_positions()) >= 2)
        k, h = 4, 3
        for variant, width in (("alpha", 2 * k), ("beta", 2 * k + h),
                               ("full", 3 * k + h)):
            config = m.ModelConfig(variant=variant, k=k, h=h,
                                   mlp_widths=(6, 1), t_max=5)
            params = m.init_parameters(config, ds.schema.n, seed=0)
            cache = to.forward(seq, params, config)
            assert cache.s.shape == (width,)
            assert config.mlp_input_width() == width

    def test_attention_weights_cover_real_history_only(self, setup):
        ds, config, params = setup
        for seq in ds.sequences[:20]:
            cache = m.forward(seq, params, config)
            n_hist = len(seq.history_positions())
            if n_hist == 0:
                assert cache.att_weights is None
            else:
                assert cache.att_weights.shape == (n_hist,)
                assert abs(cache.att_weights.sum() - 1.0) < 1e-12

    def test_history_permutation_leaves_alpha_and_attention_unchanged(self, setup):
        ds, config, params = setup
        seq = next(s for s in ds.sequences if len(s.history_positions()) >= 3)
        cache = to.forward(seq, params, config)

        hist = seq.history_positions()
        perm = list(reversed(hist))
        events = list(seq.events)
        for src, dst in zip(hist, perm):
            events[dst] = seq.events[src]
        permuted = d.EventSequence(events, list(seq.q), seq.label, seq.user)
        cache_p = to.forward(permuted, params, config)

        np.testing.assert_allclose(cache_p.s_alpha, cache.s_alpha, atol=1e-10)
        np.testing.assert_allclose(sorted(cache_p.att_weights),
                                   sorted(cache.att_weights), atol=1e-10)
        np.testing.assert_allclose(cache_p.s_self, cache.s_self, atol=1e-10)

    def test_alpha_variant_has_no_sequence_branch_parameters(self, setup):
        ds, _, _ = setup
        config = m.ModelConfig(variant="alpha", k=4, h=3, mlp_widths=(6, 1), t_max=5)
        params = m.init_parameters(config, ds.schema.n, seed=0)
        assert all(name.split(".")[0] in ("embed", "wide", "mlp")
                   for name in params.names())

    def test_alpha_param_count_formula(self, setup):
        # the history-interaction pool adds nothing beyond the MLP widening
        ds, _, _ = setup
        n, k = ds.schema.n, 4
        config = m.ModelConfig(variant="alpha", k=k, h=3, mlp_widths=(6, 1), t_max=5)
        params = m.init_parameters(config, n, seed=0)
        expect = (n * k            # embeddings
                  + n + 1          # wide
                  + 6 * 2 * k + 6  # first MLP layer on [pool; current]
                  + 6 + 1)         # output layer
        assert params.count() == expect


class TestFullModelGradients:
    def test_finite_difference_small_dims(self):
        spec = syn.SynthSpec(n_users=4, n_fields=2, vocab_size=3, len_min=1,
                             len_max=4, t_max=4)
        ds = syn.synth_generate(spec, seed=21)
        config = m.ModelConfig(variant="full", k=2, h=2, mlp_widths=(3, 1), t_max=4)
        # O(1) parameters keep ReLU inputs clear of the finite-difference step
        params = m.random_parameters(config, ds.schema.n, seed=3)
        seqs = [next(s for s in ds.sequences if len(s.history_positions()) >= 2),
                next(s for s in ds.sequences if not s.history_positions())]

        def loss_given(arrays):
            p = m.Parameters(dict(arrays))
            total = 0.0
            for seq in seqs:
                cache = to.forward(seq, p, config)
                z = cache.logit
                total += float(np.logaddexp(0.0, z) - seq.label * z)
            return total

        analytic = {name: np.zeros_like(v) for name, v in params.items()}
        for seq in seqs:
            cache = to.forward(seq, params, config)
            z = cache.logit_var
            loss = to.sub(to.softplus(z), to.scale(z, float(seq.label)))
            grads = to.backward(cache.tape, loss)
            for name, var in cache.param_vars.items():
                analytic[name] += grads[var.id]

        err = to.finite_diff_check(loss_given, dict(params.items()), analytic)
        assert err < 1e-4


class TestParameters:
    @pytest.fixture
    def params(self):
        config = m.ModelConfig(variant="full", k=3, h=2, mlp_widths=(4, 1), t_max=4)
        return m.init_parameters(config, 11, seed=5), config

    def test_views_share_one_vector_in_order(self, params):
        params, config = params
        assert list(params) == list(m.parameter_shapes(config, 11))
        assert params.count() == params.flat.size
        assert np.array_equal(params.flat,
                              np.concatenate([v.ravel() for v in params.values()]))
        for name, view in params.items():
            assert np.shares_memory(view, params.flat), name
        assert params["wide.b"].shape == ()

    def test_setitem_writes_through(self, params):
        params, _ = params
        params["attn.F1.b"] = np.arange(3.0)
        params["wide.b"] = 2.5
        offset = 0
        for name, view in params.items():
            if name == "attn.F1.b":
                assert np.array_equal(params.flat[offset:offset + 3], [0.0, 1.0, 2.0])
            offset += view.size
        assert float(params["wide.b"]) == 2.5
        params["embed.V"] += 1.0  # in place through the view
        assert np.shares_memory(params["embed.V"], params.flat)

    def test_copy_and_zeros_like_are_independent(self, params):
        params, _ = params
        before = params.flat.copy()
        twin, zeros = params.copy(), params.zeros_like()
        twin["embed.V"] = np.ones((11, 3))
        zeros.flat += 1.0
        assert np.array_equal(params.flat, before)
        assert not np.shares_memory(twin.flat, params.flat)
        # each is one vector with a view per name
        for table in (twin, zeros):
            assert all(np.shares_memory(table[n], table.flat) for n in table)
        assert zeros.names() == params.names()
        assert all(zeros[n].shape == params[n].shape for n in params)
        assert np.array_equal(zeros.flat, np.ones_like(before))

    def test_shape_mismatch_and_unknown_name_raise(self, params):
        params, _ = params
        with pytest.raises(ValueError, match="embed.V"):
            params["embed.V"] = np.zeros((3, 11))
        with pytest.raises(KeyError, match="nope"):
            params["nope"] = np.zeros(1)

    def test_init_draws_into_one_vector(self):
        # paper shape: the tensors are drawn into the parameter vector itself,
        # so init holds no second copy of them
        config = m.ModelConfig(variant="full", k=64, h=64, mlp_widths=(128, 64, 1), t_max=10)
        m.init_parameters(config, 3673, seed=1)  # warm any first-call caches
        tracemalloc.start()
        try:
            params = m.init_parameters(config, 3673, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * params.flat.nbytes
        assert all(np.shares_memory(v, params.flat) for v in params.values())

    def test_empty(self):
        empty = m.Parameters({})
        assert len(empty) == 0 and empty.count() == 0

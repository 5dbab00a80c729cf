"""The batched engine against the per-window tape oracle
(``tape_oracle``), and the invariants its scores must keep: batchmates,
position in a scoring chunk and the amount of left padding do not change
a window's score."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pack_oracle as po
import score_oracle as so
import tape_oracle as to
from nhfm import data as d
from nhfm import model as m
from nhfm import training as tr

N_FIELDS, VOCAB, T_MAX = 4, 5, 6
N_FEATURES = N_FIELDS * VOCAB


def random_event(rng, full: bool = False, width: int = N_FIELDS) -> d.Event:
    """One entry for each of a random subset of at most ``width`` fields
    (the first ``width`` fields when ``full``); the last field is
    numerical, with a value in [0, 1]."""
    fields = range(width) if full else sorted(
        rng.choice(N_FIELDS, size=int(rng.integers(0, width + 1)), replace=False))
    entries = []
    for f in fields:
        if f == N_FIELDS - 1:
            entries.append((f * VOCAB, float(rng.uniform())))
        else:
            entries.append((f * VOCAB + int(rng.integers(VOCAB)), 1.0))
    return d.Event(tuple(entries))


def random_window(rng, n_history: int, t_max: int = T_MAX,
                  width: int = N_FIELDS) -> d.EventSequence:
    """A window with ``n_history`` real history events of at most ``width``
    entries; its current event has exactly ``width``, so the window packs
    ``width`` wide."""
    pad = t_max - 1 - n_history
    events = [d.PADDING_EVENT] * pad + [random_event(rng, width=width)
                                        for _ in range(n_history)]
    events.append(random_event(rng, full=True, width=width))
    return d.EventSequence(events, [0] * pad + [1] * (n_history + 1),
                           int(rng.integers(2)), "u")


def left_pad(seq: d.EventSequence, extra: int) -> d.EventSequence:
    return d.EventSequence([d.PADDING_EVENT] * extra + seq.events,
                           [0] * extra + seq.q, seq.label, seq.user)


def window_pool(seed: int, count: int, width: int = N_FIELDS) -> list:
    rng = np.random.default_rng(seed)
    return [random_window(rng, int(rng.integers(T_MAX)), width=width)
            for _ in range(count)]


def close(got, want, tol):
    return np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want))


def assert_matches_tape(windows, variant, pos_weight) -> dict:
    """Batched logits, loss and gradients of ``windows`` against the tape's
    per-window ones, to 1e-10; returns the batched gradients."""
    config = m.ModelConfig(variant=variant, k=4, h=3, mlp_widths=(5, 3, 1), t_max=T_MAX)
    params = m.random_parameters(config, N_FEATURES, seed=5)
    batch = po.pack(windows)

    tape_logits = np.array([to.forward(s, params, config).logit for s in windows])
    assert np.all(close(m.logits(batch, params, config), tape_logits, 1e-10))

    loss, grads = m.loss_and_grads(batch, params, config, pos_weight)
    tape_loss = 0.0
    tape_grads = {name: np.zeros_like(v) for name, v in params.items()}
    for seq in windows:
        one_loss, one_grads = to.example_loss_and_grads(seq, params, config, pos_weight)
        tape_loss += one_loss
        for name, g in one_grads.items():
            tape_grads[name] += g
    assert abs(loss - tape_loss / len(windows)) <= 1e-10
    assert set(grads) == set(tape_grads)
    for name, g in tape_grads.items():
        mean = g / len(windows)
        assert grads[name].shape == mean.shape, name
        assert np.all(close(grads[name], mean, 1e-10)), name
    return grads


@pytest.mark.parametrize("variant", ["alpha", "beta", "full"])
@pytest.mark.parametrize("pos_weight", [1.0, 3.5])
def test_logits_and_gradients_match_the_tape(variant, pos_weight):
    rng = np.random.default_rng(17)
    # zero, one and full history first, then a random mix
    windows = [random_window(rng, n) for n in (0, 1, T_MAX - 1, 0, 1, T_MAX - 1)]
    windows += [random_window(rng, int(rng.integers(T_MAX))) for _ in range(10)]
    windows[1] = d.EventSequence(windows[1].events, windows[1].q, 1, "u")
    grads = assert_matches_tape(windows, variant, pos_weight)
    for name, g in grads.items():
        assert np.any(g != 0), name


@pytest.mark.parametrize("variant", ["alpha", "beta", "full"])
@pytest.mark.parametrize("longest", [T_MAX - 2, 2, 1, 0])
def test_trimmed_lstm_matches_the_tape(variant, longest):
    # no window holds more than ``longest`` history events, so every window
    # pads the first T_MAX - 1 - longest history slots and the BiLSTM runs
    # ``longest`` steps; with no history at all it runs none
    rng = np.random.default_rng(29 + longest)
    windows = [random_window(rng, n) for n in (longest, 0, longest)]
    windows += [random_window(rng, int(rng.integers(longest + 1))) for _ in range(7)]
    windows[0] = d.EventSequence(windows[0].events, windows[0].q, 1, "u")
    grads = assert_matches_tape(windows, variant, 2.0)
    lstm = [g for name, g in grads.items() if name.startswith("lstm.")]
    assert len(lstm) == (0 if variant == "alpha" else 24)
    if longest == 0:
        assert not any(np.any(g) for g in lstm)
    # equal history lengths: every step the BiLSTM runs is real in every row
    assert_matches_tape([random_window(rng, longest) for _ in range(4)], variant, 2.0)


@pytest.mark.parametrize("variant", ["alpha", "beta", "full"])
def test_one_window_calls_match_the_tape(variant):
    rng = np.random.default_rng(23)
    windows = [random_window(rng, n) for n in (0, 1, 2, T_MAX - 1)]
    config = m.ModelConfig(variant=variant, k=4, h=3, mlp_widths=(5, 3, 1), t_max=T_MAX)
    params = m.random_parameters(config, N_FEATURES, seed=9)
    for seq in windows:
        got, want = m.forward(seq, params, config), to.forward(seq, params, config)
        assert close(got.logit, want.logit, 1e-10)
        assert close(got.y_hat, want.y_hat, 1e-10)
        assert got.history_slots == want.history_slots
        if want.att_weights is None:
            assert got.att_weights is None
        else:
            assert np.all(close(got.att_weights, want.att_weights, 1e-10))
        loss, grads = tr.example_loss_and_grads(seq, params, config, 2.0)
        tape_loss, tape_grads = to.example_loss_and_grads(seq, params, config, 2.0)
        assert close(loss, tape_loss, 1e-10)
        assert grads.keys() == tape_grads.keys()
        for name, g in tape_grads.items():
            assert np.all(close(grads[name], g, 1e-10)), name


def test_windows_without_history_slots():
    rng = np.random.default_rng(4)
    windows = [random_window(rng, 0, t_max=1) for _ in range(4)]
    config = m.ModelConfig(variant="full", k=4, h=3, mlp_widths=(5, 1), t_max=1)
    params = m.random_parameters(config, N_FEATURES, seed=6)
    batch = po.pack(windows)
    tape_logits = np.array([to.forward(s, params, config).logit for s in windows])
    assert np.all(close(m.logits(batch, params, config), tape_logits, 1e-10))
    _, grads = m.loss_and_grads(batch, params, config)
    assert not np.any(grads["lstm.fwd.Wi"]) and not np.any(grads["attn.F1.W"])
    store = d.EventStore.of(windows * 20)  # two chunks, the second partial
    assert m.scores(store, params, config).tobytes() == so.scores(store, params, config).tobytes()


def test_filler_rows_are_empty_and_score_finite():
    windows = window_pool(3, 5)
    config = m.ModelConfig(variant="full", k=4, h=3, mlp_widths=(5, 1), t_max=T_MAX)
    params = m.random_parameters(config, N_FEATURES, seed=2)
    batch = m.gather(d.EventStore.of(windows), np.arange(5), rows=8)
    assert not batch.q[5:].any() and not batch.val[5:].any()
    assert np.all(np.isfinite(m.logits(batch, params, config)))


def assert_same_batch(got: m.Batch, want: m.Batch) -> None:
    for name in ("idx", "val", "q", "label"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), wide=st.integers(0, 6), narrow=st.integers(0, 6),
       filler=st.integers(0, 3), data=st.data())
def test_gather_equals_the_list_packer(seed, wide, narrow, filler, data):
    # full-width and narrower windows, some with empty real events
    windows = window_pool(seed, wide) + window_pool(seed + 1, narrow, width=2)
    if not windows:
        windows = window_pool(seed, 1)
    picks = data.draw(st.lists(st.integers(0, len(windows) - 1), min_size=1,
                               max_size=2 * len(windows)))
    picked = [windows[i] for i in picks]
    rows = len(picked) + filler
    want = po.pack(picked, rows=rows)
    assert_same_batch(m.gather(d.EventStore.of(picked), np.arange(len(picked)), rows=rows),
                      want)
    assert_same_batch(m.gather(d.EventStore.of(windows), np.array(picks), rows=rows), want)
    shuffled = [windows[i] for i in data.draw(st.permutations(range(len(windows))))]
    assert_same_batch(m.gather(d.EventStore.of(shuffled), np.arange(len(shuffled))),
                      po.pack(shuffled))


SCORE_CONFIG = m.ModelConfig(variant="full", k=16, h=16, mlp_widths=(32, 16, 1),
                             t_max=T_MAX)
# full-width windows and narrower ones, so a window is often scored next to
# batchmates wider than itself
SCORE_POOL = window_pool(11, 40) + window_pool(12, 20, width=3)
SCORE_PARAMS = m.random_parameters(SCORE_CONFIG, N_FEATURES, seed=13)


def scores_of(windows):
    return tr.predict_scores(d.Dataset(None, windows), SCORE_PARAMS, SCORE_CONFIG)


def test_scoring_runs_only_the_history_slots_a_chunk_fills(monkeypatch):
    # three chunks' worth of windows with full, two and no history events,
    # interleaved in the store
    rng = np.random.default_rng(31)
    windows = [random_window(rng, n) for n in (T_MAX - 1, 2, 0) * m.SCORE_ROWS]
    lives = []
    true_lstm = m._lstm_final

    def counted(x, mask, live, params, direction, h):
        lives.append((direction, live))
        return true_lstm(x, mask, live, params, direction, h)

    monkeypatch.setattr(m, "_lstm_final", counted)
    m.scores(d.EventStore.of(windows), SCORE_PARAMS, SCORE_CONFIG)
    # one stack of three chunks; at each step the first live[s] of them run
    assert [direction for direction, _ in lives] == ["fwd", "bwd"]
    for _, live in lives:
        assert len(live) == T_MAX - 1
        # ordered longest first, the chunks run 5, 2 and 0 steps in each
        # direction; in store order each would run all T_MAX - 1 = 5
        assert [sum(n > c for n in live) for c in range(3)] == [T_MAX - 1, 2, 0]


def sliding_store(n_users: int, n_events: int) -> d.EventStore:
    """Every window over each of ``n_users`` streams of ``n_events`` events,
    as the ingest builds them; each event's numerical entry, ``number /
    1e5``, numbers it from 1, so no two events are equal."""
    rng = np.random.default_rng(37)
    windows, number = [], 0
    for user in range(n_users):
        stream = []
        for _ in range(n_events):
            number += 1
            stream.append(d.Event(((int(rng.integers(VOCAB)), 1.0),
                                   (VOCAB + int(rng.integers(VOCAB)), 1.0),
                                   ((N_FIELDS - 1) * VOCAB, number / 1e5))))
        for end in range(n_events):
            events = stream[max(0, end + 1 - T_MAX):end + 1]
            pad = T_MAX - len(events)
            windows.append(d.EventSequence([d.PADDING_EVENT] * pad + events,
                                           [0] * pad + [1] * len(events),
                                           int(rng.integers(2)), f"u{user}"))
    return d.EventStore.of(windows)


# more windows than one span, and more distinct rows than one event block
SLIDING = sliding_store(3, 400)


def test_scoring_computes_each_distinct_event_once_per_span(monkeypatch):
    computed = []
    true_rows = m._event_rows

    def recorded(idx, val, params):
        assert len(idx) == m.EVENT_ROWS
        # the numerical entry is last, so it names the event; 0 names row 0
        computed.append(np.rint(val[:, -1] * 1e5).astype(int))
        return true_rows(idx, val, params)

    monkeypatch.setattr(m, "_event_rows", recorded)
    m.scores(SLIDING, SCORE_PARAMS, SCORE_CONFIG)
    # the windows are scored in order of their history length, longest first
    order = np.argsort(-np.count_nonzero(SLIDING.rows[:, :-1], axis=1), kind="stable")
    numbers = np.rint(SLIDING.val[:, 2] * 1e5).astype(int)
    blocks = iter(computed)
    for start in range(0, len(SLIDING), m.SPAN_WINDOWS):
        want = np.union1d(0, numbers[SLIDING.rows[order[start:start + m.SPAN_WINDOWS]]])
        got = np.concatenate([next(blocks) for _ in range(-(-len(want) // m.EVENT_ROWS))])
        # each distinct row once, then the empty row as filler
        assert np.array_equal(got[:len(want)], want)
        assert not got[len(want):].any()
    assert next(blocks, None) is None


@pytest.mark.parametrize("variant", ["alpha", "beta", "full"])
def test_spans_and_blocks_score_as_single_windows(variant):
    # at this draw the attention and LSTM weights move every variant's scores
    config = m.ModelConfig(variant=variant, k=8, h=4, mlp_widths=(8, 1), t_max=T_MAX)
    params = m.random_parameters(config, N_FEATURES, seed=43)
    assert len(SLIDING) > m.SPAN_WINDOWS and len(SLIDING.idx) > m.EVENT_ROWS
    got = m.scores(SLIDING, params, config)
    alone = [m.logits(m.gather(SLIDING, [i], rows=m.SCORE_ROWS), params, config)[0]
             for i in range(len(SLIDING))]
    assert np.all(close(got, m.probabilities(np.array(alone)), 1e-12))
    # a sub-store, in any order and with repeats, scores its windows' bits
    rng = np.random.default_rng(43)
    for sub in (rng.permutation(len(SLIDING))[:700], rng.integers(len(SLIDING), size=300),
                np.arange(m.SPAN_WINDOWS + 1)[::-1]):
        assert m.scores(SLIDING.take(sub), params, config).tobytes() == got[sub].tobytes()


def length_pool(seed: int, each: int) -> d.EventStore:
    """``each`` windows of every history length, in order of length."""
    rng = np.random.default_rng(seed)
    return d.EventStore.of([random_window(rng, n) for n in range(T_MAX) for _ in range(each)])


# the windows that scored stores are drawn from
STACK_POOL = length_pool(47, 400)
# 1,110 windows by history length: two spans, a partial last chunk and,
# last in scoring order, two chunks without history
STACKED = [130, 400, 300, 150, 100, 30]


@settings(max_examples=25, deadline=None)
@given(variant=st.sampled_from(m.VARIANTS), h=st.sampled_from([3, 40]),
       counts=st.lists(st.integers(0, 400), min_size=T_MAX, max_size=T_MAX),
       seed=st.integers(0, 2**32 - 1))
# per span, h = 40 stacks two chunks at a time and h = 3 all of them; the
# longest-history chunks come first and the chunks without history last
@example(variant="full", h=40, counts=STACKED[::-1], seed=1)
@example(variant="beta", h=40, counts=STACKED, seed=2)
@example(variant="alpha", h=3, counts=STACKED, seed=3)
@example(variant="full", h=3, counts=[400, 0, 0, 30, 0, 1], seed=4)
def test_stacked_scores_equal_the_per_chunk_oracle(variant, h, counts, seed):
    config = m.ModelConfig(variant=variant, k=4, h=h, mlp_widths=(5, 1), t_max=T_MAX)
    params = m.random_parameters(config, N_FEATURES, seed=seed % 1000)
    rng = np.random.default_rng(seed)
    # counts[n] windows with n history events, in a shuffled store
    picks = np.concatenate([n * 400 + rng.permutation(400)[:c] for n, c in enumerate(counts)])
    store = STACK_POOL.take(rng.permutation(picks) if len(picks) else [0])
    assert m.scores(store, params, config).tobytes() == so.scores(store, params, config).tobytes()


@settings(max_examples=40, deadline=None)
@given(target=st.integers(0, len(SCORE_POOL) - 1),
       mates=st.lists(st.integers(0, len(SCORE_POOL) - 1), max_size=3 * m.SCORE_ROWS),
       at=st.integers(0, 3 * m.SCORE_ROWS))
# a three-wide window after a four-wide one: summed over the batch's pad
# width, its wide term once rounded differently than alone
@example(target=50, mates=[0], at=1)
def test_score_ignores_batchmates_and_position(target, mates, at):
    alone = scores_of([SCORE_POOL[target]])[0]
    windows = [SCORE_POOL[i] for i in mates]
    at = min(at, len(windows))
    windows.insert(at, SCORE_POOL[target])
    assert scores_of(windows)[at] == alone


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(st.integers(0, len(SCORE_POOL) - 1), min_size=1, max_size=20),
       extra=st.integers(1, 6),
       variant=st.sampled_from(["alpha", "beta", "full"]))
def test_left_padding_barely_moves_a_logit(picks, extra, variant):
    config = m.ModelConfig(variant=variant, k=16, h=16, mlp_widths=(32, 16, 1),
                           t_max=T_MAX)
    params = m.random_parameters(config, N_FEATURES, seed=13)
    windows = [SCORE_POOL[i] for i in picks]
    padded = [left_pad(s, extra) for s in windows]
    short = m.logits(po.pack(windows), params, config)
    long = m.logits(po.pack(padded), params, config)
    assert np.all(close(long, short, 1e-12))

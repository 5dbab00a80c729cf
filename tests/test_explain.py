"""Wide-weight feature rankings and attention-based event reports."""

import numpy as np
import pytest

from nhfm import checkpoint as cp
from nhfm import data as d
from nhfm import explain as ex
from nhfm import model as m
from nhfm import synthetic as syn
from nhfm.errors import CheckpointError


def make_checkpoint(variant="full", wide_w=None, seed=0):
    spec = syn.SynthSpec(n_users=10, t_max=5)
    ds = syn.synth_generate(spec, seed=31)
    config = m.ModelConfig(variant=variant, k=3, h=2, mlp_widths=(4, 1), t_max=5)
    params = m.init_parameters(config, ds.schema.n, seed=seed)
    if wide_w is not None:
        params["wide.w"] = np.asarray(wide_w, dtype=np.float64)
    ck = cp.Checkpoint(config, ds.schema.hash(), params, None, {"seed": seed})
    return ck, ds


class TestTopWideFeatures:
    def test_zero_weights_keep_index_order(self):
        ck, ds = make_checkpoint()
        ranking = ex.top_wide_features(ck, ds.schema, count=ds.schema.n)
        assert [f.index for f in ranking.entries] == list(range(ds.schema.n))
        assert all(f.weight == 0.0 for f in ranking.entries)

    def test_large_positive_weight_ranks_first(self):
        ck, ds = make_checkpoint()
        w = np.zeros(ds.schema.n)
        w[7] = 3.5
        ck.params["wide.w"] = w
        ranking = ex.top_wide_features(ck, ds.schema, count=3)
        assert ranking.entries[0].index == 7
        assert ranking.entries[0].weight == 3.5

    def test_low_direction_ranks_most_negative_first(self):
        ck, ds = make_checkpoint()
        w = np.zeros(ds.schema.n)
        w[2], w[5] = -1.0, -2.0
        ck.params["wide.w"] = w
        ranking = ex.top_wide_features(ck, ds.schema, count=2, direction="low")
        assert [f.index for f in ranking.entries] == [5, 2]

    def test_full_count_is_permutation(self):
        ck, ds = make_checkpoint()
        rng = np.random.default_rng(1)
        ck.params["wide.w"] = rng.normal(size=ds.schema.n)
        ranking = ex.top_wide_features(ck, ds.schema, count=ds.schema.n)
        assert sorted(f.index for f in ranking.entries) == list(range(ds.schema.n))

    def test_features_resolve_through_schema(self):
        ck, ds = make_checkpoint()
        ranking = ex.top_wide_features(ck, ds.schema, count=ds.schema.n)
        for f in ranking.entries:
            field, token = ds.schema.describe_index(f.index)
            assert f.field == field and f.token == token

    def test_schema_mismatch_rejected(self):
        ck, _ = make_checkpoint()
        other = syn.synth_schema(syn.SynthSpec(vocab_size=3))
        with pytest.raises(CheckpointError, match="different schema"):
            ex.top_wide_features(ck, other, count=5)


def first_window(ds, has) -> int:
    """The first window of ``ds`` whose count of real history events the
    predicate ``has`` accepts."""
    return int(np.flatnonzero(has(np.count_nonzero(ds.store.rows[:, :-1], axis=1)))[0])


class TestAttentionReport:
    def test_single_history_event_gets_weight_one(self):
        ck, ds = make_checkpoint()
        report = ex.attention_report(ck, ds.store, first_window(ds, lambda n: n == 1), ds.schema)
        assert len(report.events) == 1
        assert report.events[0].weight == 1.0
        assert report.events[0].rank == 1

    def test_weights_sum_to_one(self):
        ck, ds = make_checkpoint()
        for window in range(15):
            if not ds.store.rows[window, :-1].any():
                continue
            report = ex.attention_report(ck, ds.store, window, ds.schema)
            assert abs(sum(e.weight for e in report.events) - 1.0) < 1e-12

    def test_weights_match_forward_cache_bitwise(self):
        ck, ds = make_checkpoint(seed=5)
        window = first_window(ds, lambda n: n >= 3)
        report = ex.attention_report(ck, ds.store, window, ds.schema)
        seq = ds.sequences[window]
        cache = m.forward(seq, ck.params, ck.model_config)
        assert [e.weight for e in report.events] == list(cache.att_weights)
        assert [e.slot for e in report.events] == seq.history_positions()
        assert [e.fields for e in report.events] == [
            d.decode_event(seq.events[t], ds.schema) for t in seq.history_positions()]
        assert (report.user, report.label, report.y_hat) == (seq.user, seq.label, cache.y_hat)

    def test_ranks_are_a_permutation_ordered_by_weight(self):
        ck, ds = make_checkpoint(seed=6)
        report = ex.attention_report(ck, ds.store, first_window(ds, lambda n: n >= 3),
                                     ds.schema)
        ranks = sorted(e.rank for e in report.events)
        assert ranks == list(range(1, len(report.events) + 1))
        by_rank = sorted(report.events, key=lambda e: e.rank)
        weights = [e.weight for e in by_rank]
        assert weights == sorted(weights, reverse=True)

    def test_alpha_variant_rejected(self):
        ck, ds = make_checkpoint(variant="alpha")
        with pytest.raises(ValueError, match="no attention"):
            ex.attention_report(ck, ds.store, 0, ds.schema)

    def test_deterministic(self):
        ck, ds = make_checkpoint()
        window = first_window(ds, lambda n: n >= 2)
        a = ex.attention_report(ck, ds.store, window, ds.schema)
        b = ex.attention_report(ck, ds.store, window, ds.schema)
        assert a == b

    def test_decoded_fields_present(self):
        ck, ds = make_checkpoint()
        report = ex.attention_report(ck, ds.store, first_window(ds, lambda n: n >= 1), ds.schema)
        for ev in report.events:
            assert set(ev.fields) == {"f0", "f1", "f2"}


class TestRendering:
    def test_feature_table(self):
        ck, ds = make_checkpoint()
        w = np.zeros(ds.schema.n)
        w[0] = 1.0
        ck.params["wide.w"] = w
        text = ex.render_feature_ranking(
            ex.top_wide_features(ck, ds.schema, count=3))
        assert "High-risk features" in text
        assert "f0=t0" in text

    def test_event_table(self):
        ck, ds = make_checkpoint()
        text = ex.render_event_report(ex.attention_report(
            ck, ds.store, first_window(ds, lambda n: n >= 2), ds.schema))
        assert "user=" in text and "weight" in text

"""Schema fitting, event encoding, window assembly, splitting, the event
store and its NHFMDS3 files, and the synthetic generator."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import encode_oracle as oracle
from rule_oracle import rule_fires
from nhfm import data as d
from nhfm import dataset_io as dio
from nhfm import synthetic as syn
from nhfm.errors import DataError, FormatError


def rec(user="u1", ts=0, label=0, **fields):
    return {"__user": user, "__ts": ts, "__label": label, **fields}


def fit(records, fields):
    return d.fit_schema(d.Columns.of(records, fields), fields)


def encode(records, schema, t_max):
    fields = {f.name: f.kind for f in schema.fields}
    return d.encode_windows(d.Columns.of(records, fields), schema, t_max)


def encoded(body, schema):
    """The event that ``encode_windows`` makes of one record holding ``body``."""
    return encode([rec(**body)], schema, 1).views()[0].current()


def is_padded_left(window):
    """Padding is a contiguous left prefix and the last slot is real."""
    q = window.q
    return len(q) == len(window.events) and q == sorted(q) and q[-1] == 1


class TestFitSchema:
    def test_one_categorical_field_has_oov_slot(self):
        schema = fit([rec(color="a"), rec(color="b")], {"color": d.CATEGORICAL})
        assert schema.n == 3  # a, b, OOV
        assert schema.oov_index("color") == 2

    def test_one_numerical_field(self):
        schema = fit([rec(amount=3.0)], {"amount": d.NUMERICAL})
        assert schema.n == 1
        assert schema.fields[0].stats == (3.0, 3.0)

    def test_first_seen_token_order(self):
        schema = fit(
            [rec(color="z"), rec(color="a"), rec(color="z")],
            {"color": d.CATEGORICAL})
        assert schema.fields[0].vocab == {"z": 0, "a": 1}

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="zero records"):
            fit([], {"color": d.CATEGORICAL})

    def test_unknown_field_rejected(self):
        with pytest.raises(DataError, match="mystery"):
            fit([rec(mystery="x")], {"color": d.CATEGORICAL})

    def test_index_assignment_is_bijection(self):
        schema = fit(
            [rec(color="a", size="s", amount=1.0),
             rec(color="b", size="m", amount=9.0)],
            {"color": d.CATEGORICAL, "size": d.CATEGORICAL, "amount": d.NUMERICAL})
        seen = [schema.describe_index(i) for i in range(schema.n)]
        assert len(set(seen)) == schema.n == 7


class TestEncodeEvent:
    @pytest.fixture
    def schema(self):
        return fit(
            [rec(color="a", amount=10.0), rec(color="b", amount=20.0)],
            {"color": d.CATEGORICAL, "amount": d.NUMERICAL})

    def test_one_hot_token(self, schema):
        ev = encoded({"color": "a"}, schema)
        assert ev.entries == ((0, 1.0),)

    def test_numerical_min_maps_to_zero(self, schema):
        ev = encoded({"amount": 10.0}, schema)
        assert ev.entries == ((3, 0.0),)
        assert encoded({"amount": 20.0}, schema).entries == ((3, 1.0),)

    def test_numerical_clamped(self, schema):
        assert encoded({"amount": 999.0}, schema).entries == ((3, 1.0),)
        assert encoded({"amount": -999.0}, schema).entries == ((3, 0.0),)

    def test_unseen_token_goes_to_oov(self, schema):
        ev = encoded({"color": "z"}, schema)
        assert ev.entries == ((schema.oov_index("color"), 1.0),)

    def test_missing_field_is_absent(self, schema):
        assert encoded({}, schema).entries == ()

    def test_round_trip_non_oov_tokens(self, schema):
        ev = encoded({"color": "b", "amount": 15.0}, schema)
        decoded = d.decode_event(ev, schema)
        assert decoded["color"] == "b"
        assert decoded["amount"] == 0.5

    def test_entries_sorted_ascending(self, schema):
        ev = encoded({"amount": 12.0, "color": "a"}, schema)
        idx = ev.indices()
        assert idx == sorted(idx)


class TestAssembleSequences:
    @staticmethod
    def _store(schema, t_max, **tokens):
        """The windows of one record per token, each user's in order."""
        return encode([rec(user=user, ts=i, label=i % 2, color=t)
                       for user, stream in tokens.items() for i, t in enumerate(stream)],
                      schema, t_max)

    @pytest.fixture
    def schema(self):
        return fit([rec(color="a"), rec(color="b"), rec(color="c")],
                   {"color": d.CATEGORICAL})

    def test_single_event_fully_padded(self, schema):
        seqs = self._store(schema, 10, u="a").views()
        assert len(seqs) == 1
        assert seqs[0].q == [0] * 9 + [1]
        assert is_padded_left(seqs[0])

    def test_window_of_two(self, schema):
        seqs = self._store(schema, 2, u="abc").views()
        assert len(seqs) == 3
        third = seqs[2]
        assert third.q == [1, 1]
        # history of the third sequence is exactly the second event
        assert third.events[0] == encoded({"color": "b"}, schema)
        assert third.current() == encoded({"color": "c"}, schema)

    def test_one_sequence_per_event(self, schema):
        store = self._store(schema, 3, u1="abcab", u2="ca")
        assert len(store) == len(store.views()) == 7

    def test_padding_is_contiguous_prefix_and_last_is_real(self, schema):
        seqs = self._store(schema, 4, u="abcabc").views()
        for s in seqs:
            assert is_padded_left(s)
            assert s.q[-1] == 1

    def test_truncates_oldest_history(self, schema):
        seqs = self._store(schema, 3, u="abcab").views()
        last = seqs[-1]
        # events 5's history window is events 3 and 4, not 1 or 2
        assert last.events[0] == encoded({"color": "c"}, schema)
        assert last.events[1] == encoded({"color": "a"}, schema)


def _toy_sequences(schema, n, user="u"):
    ev = d.Event(((schema.field_base("color"), 1.0),))
    return [d.EventSequence([ev], [1], 0, user) for _ in range(n)]


class TestSplit:
    @pytest.fixture
    def schema(self):
        return oracle.fit_schema([rec(color="a")], {"color": d.CATEGORICAL})

    def test_ten_sequences_split_8_1_1(self, schema):
        train, valid, test = d.split(d.Dataset(schema, _toy_sequences(schema, 10)))
        assert (len(train.sequences), len(valid.sequences), len(test.sequences)) == (8, 1, 1)

    def test_small_user_goes_to_train(self, schema):
        train, valid, test = d.split(d.Dataset(schema, _toy_sequences(schema, 1)))
        assert (len(train.sequences), len(valid.sequences), len(test.sequences)) == (1, 0, 0)

    def test_chronological_order_kept(self, schema):
        seqs = []
        for i in range(10):
            ev = d.Event(((schema.field_base("color"), 1.0),))
            seqs.append(d.EventSequence([ev], [1], i % 2, "u"))
        train, valid, test = d.split(d.Dataset(schema, seqs))
        assert train.sequences == seqs[:8]
        assert valid.sequences == seqs[8:9]
        assert test.sequences == seqs[9:]

    def test_deterministic(self, schema):
        seqs = _toy_sequences(schema, 10) + _toy_sequences(schema, 4, user="v")
        a = d.split(d.Dataset(schema, seqs))
        b = d.split(d.Dataset(schema, seqs))
        for da, db in zip(a, b):
            assert da.sequences == db.sequences

    def test_bad_ratios_rejected(self, schema):
        with pytest.raises(DataError, match="sum to 1"):
            d.split(d.Dataset(schema, _toy_sequences(schema, 5)), ratios=(0.5, 0.2, 0.2))

    def test_empty_rejected(self, schema):
        with pytest.raises(DataError, match="empty"):
            d.split(d.Dataset(schema, []))


def _dumps_schema(schema):
    """The schema text as ``json.dumps`` writes it through json's pure
    Python encoder, kept as the reference for ``to_json``."""
    payload = {
        "format": "nhfm-schema-v1",
        "fields": [
            {
                "name": f.name,
                "kind": f.kind,
                "vocab": list(f.vocab.keys()) if f.kind == d.CATEGORICAL else None,
                "stats": list(f.stats) if f.stats is not None else None,
            }
            for f in schema.fields
        ],
    }
    return json.dumps(payload, indent=2, ensure_ascii=False)


# what JSON escapes or passes through: quotes, backslashes, control
# characters, U+2028 and characters outside the BMP
_schema_text = st.text(st.one_of(st.sampled_from('"\\\x00\n\x1f\x7f\u2028\U0001f600'),
                                 st.characters(codec="utf-8")), max_size=5)
_schema_field = st.builds(
    d.FieldSpec, _schema_text, st.sampled_from([d.CATEGORICAL, d.NUMERICAL]),
    st.lists(_schema_text, max_size=4, unique=True).map(lambda ts: dict(zip(ts, range(len(ts))))),
    st.none() | st.tuples(*[st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0])] * 2))


class TestSchemaSerialization:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_schema_field, max_size=4))
    @example([])
    @example([d.FieldSpec("empty", d.CATEGORICAL), d.FieldSpec("x", d.NUMERICAL)])
    def test_text_is_what_json_dumps_writes(self, fields):
        schema = d.FeatureSchema(fields)
        assert schema.to_json() == _dumps_schema(schema)

    def test_json_round_trip_preserves_hash(self):
        schema = oracle.fit_schema(
            [rec(color="a", amount=1.5), rec(color="b", amount=2.5)],
            {"color": d.CATEGORICAL, "amount": d.NUMERICAL})
        clone = d.FeatureSchema.from_json(schema.to_json())
        assert clone.hash() == schema.hash()
        assert clone.n == schema.n

    def test_hash_changes_with_vocab(self):
        s1 = oracle.fit_schema([rec(color="a")], {"color": d.CATEGORICAL})
        s2 = oracle.fit_schema([rec(color="b")], {"color": d.CATEGORICAL})
        assert s1.hash() != s2.hash()

    @pytest.mark.parametrize("text, message", [
        ('{"format": "nhfm-sch', "not valid JSON"),
        ("[1]", "unsupported schema format: None"),
        ('{"format": "nhfm-schema-v1"}', "malformed"),
        ('{"format": "nhfm-schema-v1", "fields": [{"name": "a"}]}', "malformed"),
        ('{"format": "nhfm-schema-v1", "fields": 3}', "malformed"),
        ('{"format": "nhfm-schema-v1", "fields": [{"name": "a", "kind": "ordinal", '
         '"vocab": null, "stats": null}]}', "field 'a' is malformed: kind 'ordinal'"),
        ('{"format": "nhfm-schema-v1", "fields": [{"name": "a", "kind": "numerical", '
         '"vocab": null, "stats": [[0], 1]}]}', r"field 'a' is malformed: .* stats \[\[0\], 1\]"),
        # what to_json never writes: a vocab that is an object, repeats a token
        # or holds a number, and stats that are not two numbers
        *[('{"format": "nhfm-schema-v1", "fields": [{"name": "a", "kind": "categorical", '
           f'"vocab": {vocab}, "stats": null}}]}}', message)
          for vocab, message in (
              ('{"x": 0}', "field 'a' is malformed: its vocab is not a list of distinct strings"),
              ('["x", "x"]', "field 'a' is malformed: its vocab is not a list of distinct strings"),
              ('["x", 1]', "schema fields are malformed: .*expected str instance, int found"))],
        *[('{"format": "nhfm-schema-v1", "fields": [{"name": "a", "kind": "numerical", '
           f'"vocab": null, "stats": {stats}}}]}}',
           f"field 'a' is malformed: kind 'numerical', stats {re.escape(want)}")
          for stats, want in (("[0.5]", "[0.5]"), ("[0, 1, 2]", "[0, 1, 2]"),
                              ("[0, true]", "[0, True]"))],
        # two fields of one name: the second's base overwrote the first's
        ('{"format": "nhfm-schema-v1", "fields": ['
         '{"name": "a", "kind": "categorical", "vocab": ["x"], "stats": null}, '
         '{"name": "a", "kind": "categorical", "vocab": ["y"], "stats": null}]}',
         "schema field 'a' appears twice"),
    ])
    def test_bad_text_is_a_format_error(self, text, message):
        with pytest.raises(FormatError, match=message):
            d.FeatureSchema.from_json(text)

    def test_load_names_the_file(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_bytes(b'{"format": "nhfm-schema-v1", "fields": [{"name": "\xc3')
        with pytest.raises(FormatError) as info:
            dio.load_schema(path)
        assert str(info.value).startswith(f"{path}: ")


class TestSyntheticGenerator:
    def test_same_seed_byte_identical(self):
        spec = syn.SynthSpec(n_users=30)
        a = dio.serialize_dataset(syn.synth_generate(spec, seed=5))
        b = dio.serialize_dataset(syn.synth_generate(spec, seed=5))
        assert a == b

    def test_different_seed_differs(self):
        spec = syn.SynthSpec(n_users=30)
        a = dio.serialize_dataset(syn.synth_generate(spec, seed=5))
        b = dio.serialize_dataset(syn.synth_generate(spec, seed=6))
        assert a != b

    def test_deterministic_rule_matches_labels(self):
        spec = syn.SynthSpec(n_users=50, rule_strength=1.0)
        ds = syn.synth_generate(spec, seed=1)
        assert any(s.label == 1 for s in ds.sequences)
        assert any(s.label == 0 for s in ds.sequences)
        for s in ds.sequences:
            fires, _ = rule_fires(s, ds.schema, spec)
            assert s.label == int(fires)

    def test_rule_oracle_separates_classes_perfectly(self):
        spec = syn.SynthSpec(n_users=50, rule_strength=1.0)
        ds = syn.synth_generate(spec, seed=2)
        scores = syn.rule_oracle_scores(ds, spec)
        labels = [s.label for s in ds.sequences]
        assert all(sc == float(lb) for sc, lb in zip(scores, labels))

    @pytest.mark.parametrize("strength, seed", [(1.0, 2), (0.5, 4), (0.0, 3)])
    def test_rule_oracle_scores_read_the_store_as_rule_fires_reads_windows(
            self, monkeypatch, strength, seed):
        spec = syn.SynthSpec(n_users=40, t_max=4, rule_strength=strength, trigger_field=1,
                             current_token=2, history_token=0)
        ds = syn.synth_generate(spec, seed=seed)
        want = [float(rule_fires(s, ds.schema, spec)[0]) for s in ds.sequences]

        def refuse(store):
            raise AssertionError("decoded EventSequence objects")
        monkeypatch.setattr(d.EventStore, "views", refuse)
        got = syn.rule_oracle_scores(d.Dataset(ds.schema, store=ds.store), spec)
        assert got == want and 0.0 < sum(got) < len(got)

    def test_strength_zero_labels_present_both_classes(self):
        spec = syn.SynthSpec(n_users=50, rule_strength=0.0)
        ds = syn.synth_generate(spec, seed=3)
        labels = {s.label for s in ds.sequences}
        assert labels == {0, 1}

    def test_all_sequences_valid(self):
        ds = syn.synth_generate(syn.SynthSpec(n_users=25), seed=9)
        for s in ds.sequences:
            assert is_padded_left(s)
            for t, ev in enumerate(s.events):
                if s.q[t]:
                    assert len(ev.entries) == 3
                    assert all(0.0 <= v <= 1.0 for _, v in ev.entries)
                else:
                    assert ev.entries == ()

    def test_invalid_spec_rejected(self):
        with pytest.raises(DataError, match="invalid spec"):
            syn.synth_generate(syn.SynthSpec(n_fields=1), seed=0)
        with pytest.raises(DataError, match="invalid spec"):
            syn.synth_generate(syn.SynthSpec(rule_strength=1.5), seed=0)


class TestDatasetIO:
    @pytest.fixture
    def dataset(self):
        return syn.synth_generate(syn.SynthSpec(n_users=20), seed=11)

    def test_round_trip(self, tmp_path, dataset):
        path = tmp_path / "ds.nhfmds"
        dio.write_dataset(dataset, path)
        loaded = dio.read_dataset(path, dataset.schema)
        assert loaded.split == dataset.split
        assert loaded.sequences == dataset.sequences

    def test_rerun_byte_identical(self, tmp_path, dataset):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        dio.write_dataset(dataset, p1)
        dio.write_dataset(dataset, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path, dataset):
        path = tmp_path / "ds.nhfmds"
        blob = bytearray(dio.serialize_dataset(dataset))
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            dio.read_dataset(path, dataset.schema)

    def test_truncation_names_byte_counts(self, tmp_path, dataset):
        path = tmp_path / "ds.nhfmds"
        blob = dio.serialize_dataset(dataset)
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError, match="expected .* bytes"):
            dio.read_dataset(path, dataset.schema)

    def test_schema_hash_mismatch(self, tmp_path, dataset):
        path = tmp_path / "ds.nhfmds"
        dio.write_dataset(dataset, path)
        other = syn.synth_schema(syn.SynthSpec(vocab_size=5))
        with pytest.raises(FormatError, match="different schema"):
            dio.read_dataset(path, other)

    def test_schema_file_round_trip(self, tmp_path, dataset):
        path = tmp_path / "schema.json"
        dio.save_schema(dataset.schema, path)
        assert dio.load_schema(path).hash() == dataset.schema.hash()

    @pytest.fixture
    def one_window(self, dataset):
        """A one-window dataset over the synthetic schema, to corrupt."""
        return d.Dataset(dataset.schema, [dataset.sequences[0]], "train")

    def _with(self, ds, **changes):
        seq = ds.sequences[0]
        fields = dict(events=seq.events, q=seq.q, label=seq.label, user=seq.user)
        fields.update(changes)
        return d.Dataset(ds.schema, [d.EventSequence(**fields)], ds.split)

    def test_label_byte_other_than_0_1_rejected(self, one_window):
        blob = dio.serialize_dataset(self._with(one_window, label=7))
        with pytest.raises(FormatError, match="label byte 7"):
            dio.deserialize_dataset(blob, one_window.schema)

    def test_window_without_real_events_rejected(self, one_window):
        t_max = one_window.sequences[0].t_max
        empty = self._with(one_window, events=[d.PADDING_EVENT] * t_max, q=[0] * t_max)
        blob = dio.serialize_dataset(empty)
        with pytest.raises(FormatError, match="no real event"):
            dio.deserialize_dataset(blob, one_window.schema)

    def test_feature_index_outside_schema_rejected(self, one_window):
        seq = one_window.sequences[0]
        n = one_window.schema.n
        events = seq.events[:-1] + [d.Event(((n, 1.0),))]
        blob = dio.serialize_dataset(self._with(one_window, events=events))
        with pytest.raises(FormatError, match=f"feature index {n} outside"):
            dio.deserialize_dataset(blob, one_window.schema)
        # the largest valid index still reads back
        events = seq.events[:-1] + [d.Event(((n - 1, 1.0),))]
        blob = dio.serialize_dataset(self._with(one_window, events=events))
        assert dio.deserialize_dataset(blob, one_window.schema).sequences[0].events == events

    def test_file_bytes_are_pinned(self, dataset):
        blob = dio.serialize_dataset(dataset)
        assert blob.startswith(b"NHFMDS3\0")
        assert hashlib.sha256(blob).hexdigest() == (
            "342e9bef4098c903581be2bca97cb80e0f9c402591f14e64e71627825f3cbb34")

    def test_nhfmds1_files_are_refused(self, dataset):
        # the same dataset in the earlier varint format, as its pinned bytes
        blob = (Path(__file__).parent / "data" / "synth20_seed11.nhfmds1").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "7639de2807373f77cb8d898fa1430de8cce599f03369731760926dbcba1428ce")
        with pytest.raises(FormatError, match="NHFMDS1.*re-run `nhfm preprocess`"):
            dio.deserialize_dataset(blob, dataset.schema)

    def test_nhfmds2_files_are_refused(self, dataset):
        # the same dataset in the earlier fixed-width format, as its pinned bytes
        blob = (Path(__file__).parent / "data" / "synth20_seed11.nhfmds2").read_bytes()
        assert hashlib.sha256(blob).hexdigest() == (
            "eea5b36c4e69bc17364a76d743dcc68fad4d88d4a86de8a187fb503521c2e6c2")
        with pytest.raises(FormatError, match="NHFMDS2.*re-run `nhfm preprocess`"):
            dio.deserialize_dataset(blob, dataset.schema)

    @pytest.mark.parametrize("n", [255, 65_535])
    def test_writer_refuses_an_index_wider_than_its_field(self, n):
        # 255 features give 1-byte indices, 65,535 give 2-byte ones
        wider = 256 if n == 255 else 65_536
        seq = d.EventSequence([d.Event(((wider, 1.0),))], [1], 0, "u")
        with pytest.raises(FormatError, match=f"feature index {wider} does not fit"):
            dio.serialize_dataset(d.Dataset(_BOUNDARY_SCHEMAS[n], [seq]))

    def test_writer_refuses_a_count_wider_than_its_field(self, one_window):
        # 256 entries in one event, where 27 features give 1-byte counts
        store = one_window.store
        wide = d.EventStore(np.zeros((len(store.count), 256), dtype=np.int32),
                            np.ones((len(store.count), 256)),
                            np.where(store.count > 0, 256, 0).astype(np.int32),
                            store.rows, store.label, store.user, store.users)
        with pytest.raises(FormatError, match="entry count 256 does not fit"):
            dio.serialize_dataset(d.Dataset(one_window.schema, split="train", store=wide))

    def test_each_distinct_event_of_a_user_is_one_row(self, dataset):
        store = dio.deserialize_dataset(dio.serialize_dataset(dataset), dataset.schema).store
        rows_of: dict[tuple, set[int]] = {}
        for refs, user in zip(store.rows.tolist(), store.user.tolist()):
            for r in refs:
                if r:
                    c = store.count[r]
                    key = (user, tuple(store.idx[r, :c]), tuple(store.val[r, :c]))
                    rows_of.setdefault(key, set()).add(r)
        assert all(len(rows) == 1 for rows in rows_of.values())
        # windows overlap, so rows are referenced again and again
        assert len(store.count) - 1 == len(rows_of) < np.count_nonzero(store.rows)

    def test_equal_events_of_one_user_decode_to_one_object(self, dataset):
        back = dio.deserialize_dataset(dio.serialize_dataset(dataset), dataset.schema)
        ids: dict[tuple[str, d.Event], set[int]] = {}
        slots = 0
        for seq in back.sequences:
            for ev, q in zip(seq.events, seq.q):
                if q:
                    ids.setdefault((seq.user, ev), set()).add(id(ev))
                    slots += 1
        assert all(len(objects) == 1 for objects in ids.values())
        assert len(ids) < slots  # windows overlap, so events do repeat

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_value_rejected(self, one_window, value):
        seq = one_window.sequences[0]
        events = seq.events[:-1] + [d.Event(((0, value),))]
        blob = dio.serialize_dataset(self._with(one_window, events=events))
        with pytest.raises(FormatError, match="feature value"):
            dio.deserialize_dataset(blob, one_window.schema)

    @pytest.mark.parametrize("what", ["user id", "split tag"])
    def test_invalid_utf8_names_the_field(self, one_window, what):
        ds = one_window
        if what == "user id":
            ds = self._with(ds, user="\u00e9")
        else:
            ds = d.Dataset(ds.schema, ds.sequences, "\u00e9")
        blob = bytearray(dio.serialize_dataset(ds))
        blob[blob.index("\u00e9".encode("utf-8"))] = 0xFF
        with pytest.raises(FormatError, match=f"{what} is not valid UTF-8"):
            dio.deserialize_dataset(bytes(blob), ds.schema)


# A schema whose feature indices need 1, 2 and 3 varint bytes.
WIDE_SCHEMA = d.FeatureSchema([
    d.FieldSpec("item", d.CATEGORICAL, {str(i): i for i in range(16_500)}),
    d.FieldSpec("amount", d.NUMERICAL, stats=(0.0, 1.0)),
])
_index = st.one_of(st.integers(0, 127), st.integers(128, 16_383),
                   st.integers(16_384, WIDE_SCHEMA.n - 1))
_value = st.one_of(st.just(1.0), st.floats(allow_nan=False, allow_infinity=False))
_event = st.lists(st.tuples(_index, _value),
                  max_size=4, unique_by=lambda e: e[0]).map(lambda es: d.Event(tuple(sorted(es))))


@st.composite
def _streams(draw, max_events=6):
    """Event streams over a small event pool, so events repeat within and
    across users. Any index may carry 1.0, which the file does not store,
    or another value."""
    pool = draw(st.lists(_event, min_size=1, max_size=6))
    users = draw(st.lists(st.text(st.characters(codec="utf-8"), max_size=4),
                          min_size=1, max_size=4, unique=True))
    return {user: [(draw(st.sampled_from(pool)), draw(st.integers(0, 1)))
                   for _ in range(draw(st.integers(1, max_events)))]
            for user in users}


@st.composite
def _datasets(draw):
    """Windows of drawn streams, sometimes shuffled, so a user's windows
    are not contiguous."""
    sequences = oracle.assemble_sequences(draw(_streams()), draw(st.integers(1, 4))).views()
    if draw(st.booleans()):
        sequences = draw(st.permutations(sequences))
    return d.Dataset(WIDE_SCHEMA, sequences, draw(st.sampled_from(["train", "t\u00e9st"])))


def _loop_windows(streams, t_max):
    """The list-based window assembly that the store replaced, kept as the
    reference."""
    out = []
    for user, stream in streams.items():
        for j, (event, label) in enumerate(stream):
            history = [ev for ev, _ in stream[max(0, j - (t_max - 1)):j]]
            pad = t_max - 1 - len(history)
            out.append(d.EventSequence([d.PADDING_EVENT] * pad + history + [event],
                                       [0] * pad + [1] * (len(history) + 1),
                                       int(label), str(user)))
    return out


def _loop_split(sequences, ratios):
    """The list-based per-user split that the store replaced, kept as the
    reference."""
    by_user = {}
    for s in sequences:
        by_user.setdefault(s.user, []).append(s)
    parts = ([], [], [])
    for seqs in by_user.values():
        n_train, n_valid, _ = d.split_counts(len(seqs), ratios)
        parts[0].extend(seqs[:n_train])
        parts[1].extend(seqs[n_train:n_train + n_valid])
        parts[2].extend(seqs[n_train + n_valid:])
    return parts


@given(_streams(max_events=12), st.integers(1, 4), st.data(),
       st.sampled_from([(0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (1.0, 0.0, 0.0), (0.6, 0.0, 0.4)]))
@settings(max_examples=60, deadline=None)
def test_assembly_and_split_match_the_list_based_loops(streams, t_max, data, ratios):
    pairs = [pair for stream in streams.values() for pair in stream]
    owner = np.repeat(np.arange(len(streams), dtype=np.int32), list(map(len, streams.values())))
    store = d._windows(*oracle.event_arrays([ev for ev, _ in pairs]), owner,
                       [label for _, label in pairs], list(streams), t_max)
    assert store.views() == _loop_windows(streams, t_max)
    shuffled = data.draw(st.permutations(store.views()))
    parts = d.split(d.Dataset(WIDE_SCHEMA, shuffled), ratios)
    assert [p.sequences for p in parts] == list(_loop_split(shuffled, ratios))
    assert [p.split for p in parts] == ["train", "valid", "test"]


@given(_datasets())
@settings(max_examples=60, deadline=None)
def test_dataset_round_trip_property(dataset):
    blob = dio.serialize_dataset(dataset)
    back = dio.deserialize_dataset(blob, WIDE_SCHEMA)
    assert back.split == dataset.split
    assert back.sequences == dataset.sequences
    for seq in back.sequences:
        assert type(seq.q) is list
        assert all(type(ev.entries) is tuple and all(type(i) is int and type(v) is float
                                                      for i, v in ev.entries)
                   for ev in seq.events)
    assert dio.serialize_dataset(back) == blob


def _features(n: int) -> d.FeatureSchema:
    """A schema of exactly ``n`` features: one categorical field."""
    return d.FeatureSchema([d.FieldSpec("item", d.CATEGORICAL,
                                        {str(i): i for i in range(n - 1)})])


_BOUNDARY_SCHEMAS = {n: _features(n) for n in (255, 256, 65_535, 65_536)}


def _bytes(limit: int) -> int:
    return 1 if limit < 2**8 else 2 if limit < 2**16 else 4


@st.composite
def _boundary_stores(draw):
    """Stores at the edges of the 1-, 2- and 4-byte fields: 255 or 256 and
    65,535 or 65,536 features, up to 65,537 rows and up to 257 users, each
    reaching the largest index, row and user its counts allow."""
    n = draw(st.sampled_from(sorted(_BOUNDARY_SCHEMAS)))
    n_rows = draw(st.sampled_from([2, 255, 256, 257, 65_535, 65_536, 65_537]))
    n_users = draw(st.sampled_from([1, 255, 256, 257]))
    t_max = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = rng.integers(0, 4, size=n_rows).astype(np.int32)
    count[0], count[-1] = 0, 3
    present = np.arange(3) < count[:, None]
    idx = np.where(present, rng.integers(0, n, size=present.shape), 0).astype(np.int32)
    idx[-1, 0] = n - 1
    val = np.where(rng.random(present.shape) < 0.5, 1.0, rng.normal(size=present.shape))
    val[~present] = 0.0
    n_windows = max(n_users, 40)
    real = rng.integers(1, t_max + 1, size=n_windows)
    rows = np.where(np.arange(t_max) >= t_max - real[:, None],
                    rng.integers(1, n_rows, size=(n_windows, t_max)), 0).astype(np.int32)
    rows[0, -1] = n_rows - 1
    user = rng.permutation(np.arange(n_windows) % n_users).astype(np.int32)
    label = rng.integers(0, 2, size=n_windows).astype(np.uint8)
    store = d.EventStore(idx, val, count, rows, label, user,
                         tuple(f"u{i}" for i in range(n_users)))
    return d.Dataset(_BOUNDARY_SCHEMAS[n], split="train", store=store)


@given(_boundary_stores())
@settings(max_examples=40, deadline=None)
def test_round_trip_across_field_widths(dataset):
    blob = dio.serialize_dataset(dataset)
    back = dio.deserialize_dataset(blob, dataset.schema).store
    store = dataset.store
    for name, dtype in [("idx", np.int32), ("val", np.float64), ("count", np.int32),
                        ("rows", np.int32), ("label", np.uint8), ("user", np.int32)]:
        assert getattr(back, name).dtype == dtype
        assert np.array_equal(getattr(back, name), getattr(store, name))
    assert back.users == store.users
    n_windows, t_max = store.rows.shape
    n_entries = int(store.count.sum())
    n_values = int(np.count_nonzero(store.val[np.arange(3) < store.count[:, None]] != 1.0))
    feature = _bytes(dataset.schema.n)
    assert len(blob) == (8 + 32 + 8 * 4 + 8 * n_values + feature * (len(store.count) + n_entries)
                         + _bytes(len(store.count)) * n_windows * t_max
                         + _bytes(len(store.users)) * n_windows + 4 * len(store.users)
                         + n_windows + (n_entries + 7) // 8
                         + sum(map(len, store.users)) + len("train"))


_SMALL = syn.synth_generate(syn.SynthSpec(n_users=8), seed=11)
# one categorical and one numerical entry per event, half of them not 1.0
_VALUED = d.Dataset(WIDE_SCHEMA, oracle.assemble_sequences(
    {f"u{u}": [(d.Event(((3 * u + j, 1.0), (WIDE_SCHEMA.n - 1, (u + j) / 8))), j % 2)
               for j in range(5)] for u in range(3)}, 3).views(), "valid")
_BLOBS = [(dio.serialize_dataset(ds), ds.schema) for ds in (_SMALL, _VALUED)]


@st.composite
def _corrupt(draw):
    blob, schema = draw(st.sampled_from(_BLOBS))
    if draw(st.booleans()):
        return blob[:draw(st.integers(0, len(blob) - 1))], schema
    flipped = bytearray(blob)
    flipped[draw(st.integers(0, len(blob) - 1))] ^= 1 << draw(st.integers(0, 7))
    return bytes(flipped), schema


@given(_corrupt())
@settings(max_examples=300, deadline=None)
def test_corrupt_dataset_raises_format_error_or_reads_finite(case):
    blob, schema = case
    try:
        back = dio.deserialize_dataset(blob, schema)
    except FormatError:
        return
    assert all(math.isfinite(v) for seq in back.sequences for ev in seq.events
               for _, v in ev.entries)
    assert all(0 <= i < schema.n for seq in back.sequences for ev in seq.events
               for i in ev.indices())

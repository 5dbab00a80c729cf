"""Schema fitting, event encoding, sequence assembly, splitting, and the
synthetic generator."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhfm import data as d
from nhfm import dataset_io as dio
from nhfm import synthetic as syn
from nhfm.errors import DataError, FormatError


def rec(user="u1", ts=0, label=0, **fields):
    return {"__user": user, "__ts": ts, "__label": label, **fields}


class TestFitSchema:
    def test_one_categorical_field_has_oov_slot(self):
        schema = d.fit_schema([rec(color="a"), rec(color="b")], {"color": d.CATEGORICAL})
        assert schema.n == 3  # a, b, OOV
        assert schema.oov_index("color") == 2

    def test_one_numerical_field(self):
        schema = d.fit_schema([rec(amount=3.0)], {"amount": d.NUMERICAL})
        assert schema.n == 1
        assert schema.fields[0].stats == (3.0, 3.0)

    def test_first_seen_token_order(self):
        schema = d.fit_schema(
            [rec(color="z"), rec(color="a"), rec(color="z")],
            {"color": d.CATEGORICAL})
        assert schema.fields[0].vocab == {"z": 0, "a": 1}

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="zero records"):
            d.fit_schema([], {"color": d.CATEGORICAL})

    def test_unknown_field_rejected(self):
        with pytest.raises(DataError, match="mystery"):
            d.fit_schema([rec(mystery="x")], {"color": d.CATEGORICAL})

    def test_index_assignment_is_bijection(self):
        schema = d.fit_schema(
            [rec(color="a", size="s", amount=1.0),
             rec(color="b", size="m", amount=9.0)],
            {"color": d.CATEGORICAL, "size": d.CATEGORICAL, "amount": d.NUMERICAL})
        seen = [schema.describe_index(i) for i in range(schema.n)]
        assert len(set(seen)) == schema.n == 7


class TestEncodeEvent:
    @pytest.fixture
    def schema(self):
        return d.fit_schema(
            [rec(color="a", amount=10.0), rec(color="b", amount=20.0)],
            {"color": d.CATEGORICAL, "amount": d.NUMERICAL})

    def test_one_hot_token(self, schema):
        ev = d.encode_event({"color": "a"}, schema)
        assert ev.entries == ((0, 1.0),)

    def test_numerical_min_maps_to_zero(self, schema):
        ev = d.encode_event({"amount": 10.0}, schema)
        assert ev.entries == ((3, 0.0),)
        assert d.encode_event({"amount": 20.0}, schema).entries == ((3, 1.0),)

    def test_numerical_clamped(self, schema):
        assert d.encode_event({"amount": 999.0}, schema).entries == ((3, 1.0),)
        assert d.encode_event({"amount": -999.0}, schema).entries == ((3, 0.0),)

    def test_unseen_token_goes_to_oov(self, schema):
        ev = d.encode_event({"color": "z"}, schema)
        assert ev.entries == ((schema.oov_index("color"), 1.0),)

    def test_missing_field_is_absent(self, schema):
        assert d.encode_event({}, schema).entries == ()

    def test_round_trip_non_oov_tokens(self, schema):
        ev = d.encode_event({"color": "b", "amount": 15.0}, schema)
        decoded = d.decode_event(ev, schema)
        assert decoded["color"] == "b"
        assert decoded["amount"] == 0.5

    def test_entries_sorted_ascending(self, schema):
        ev = d.encode_event({"amount": 12.0, "color": "a"}, schema)
        idx = ev.indices()
        assert idx == sorted(idx)


class TestAssembleSequences:
    def _stream(self, schema, tokens):
        return [(d.encode_event({"color": t}, schema), i % 2)
                for i, t in enumerate(tokens)]

    @pytest.fixture
    def schema(self):
        return d.fit_schema([rec(color="a"), rec(color="b"), rec(color="c")],
                            {"color": d.CATEGORICAL})

    def test_single_event_fully_padded(self, schema):
        seqs = d.assemble_sequences({"u": self._stream(schema, "a")}, t_max=10)
        assert len(seqs) == 1
        assert seqs[0].q == [0] * 9 + [1]
        seqs[0].validate()

    def test_window_of_two(self, schema):
        seqs = d.assemble_sequences({"u": self._stream(schema, "abc")}, t_max=2)
        assert len(seqs) == 3
        third = seqs[2]
        assert third.q == [1, 1]
        # history of the third sequence is exactly the second event
        assert third.events[0] == d.encode_event({"color": "b"}, schema)
        assert third.current() == d.encode_event({"color": "c"}, schema)

    def test_one_sequence_per_event(self, schema):
        streams = {"u1": self._stream(schema, "abcab"),
                   "u2": self._stream(schema, "ca")}
        seqs = d.assemble_sequences(streams, t_max=3)
        assert len(seqs) == 7

    def test_padding_is_contiguous_prefix_and_last_is_real(self, schema):
        seqs = d.assemble_sequences({"u": self._stream(schema, "abcabc")}, t_max=4)
        for s in seqs:
            s.validate()
            assert s.q[-1] == 1

    def test_truncates_oldest_history(self, schema):
        seqs = d.assemble_sequences({"u": self._stream(schema, "abcab")}, t_max=3)
        last = seqs[-1]
        # events 5's history window is events 3 and 4, not 1 or 2
        assert last.events[0] == d.encode_event({"color": "c"}, schema)
        assert last.events[1] == d.encode_event({"color": "a"}, schema)


def _toy_sequences(schema, n, user="u"):
    ev = d.encode_event({"color": "a"}, schema)
    return [d.EventSequence([ev], [1], 0, user) for _ in range(n)]


class TestSplit:
    @pytest.fixture
    def schema(self):
        return d.fit_schema([rec(color="a")], {"color": d.CATEGORICAL})

    def test_ten_sequences_split_8_1_1(self, schema):
        train, valid, test = d.split(_toy_sequences(schema, 10), schema=schema)
        assert (len(train.sequences), len(valid.sequences), len(test.sequences)) == (8, 1, 1)

    def test_small_user_goes_to_train(self, schema):
        train, valid, test = d.split(_toy_sequences(schema, 1), schema=schema)
        assert (len(train.sequences), len(valid.sequences), len(test.sequences)) == (1, 0, 0)

    def test_chronological_order_kept(self, schema):
        seqs = []
        for i in range(10):
            ev = d.encode_event({"color": "a"}, schema)
            seqs.append(d.EventSequence([ev], [1], i % 2, "u"))
        train, valid, test = d.split(seqs, schema=schema)
        assert train.sequences == seqs[:8]
        assert valid.sequences == seqs[8:9]
        assert test.sequences == seqs[9:]

    def test_deterministic(self, schema):
        seqs = _toy_sequences(schema, 10) + _toy_sequences(schema, 4, user="v")
        a = d.split(seqs, seed=7, schema=schema)
        b = d.split(seqs, seed=7, schema=schema)
        for da, db in zip(a, b):
            assert da.sequences == db.sequences

    def test_bad_ratios_rejected(self, schema):
        with pytest.raises(DataError, match="sum to 1"):
            d.split(_toy_sequences(schema, 5), ratios=(0.5, 0.2, 0.2), schema=schema)

    def test_empty_rejected(self, schema):
        with pytest.raises(DataError, match="empty"):
            d.split([], schema=schema)


class TestSchemaSerialization:
    def test_json_round_trip_preserves_hash(self):
        schema = d.fit_schema(
            [rec(color="a", amount=1.5), rec(color="b", amount=2.5)],
            {"color": d.CATEGORICAL, "amount": d.NUMERICAL})
        clone = d.FeatureSchema.from_json(schema.to_json())
        assert clone.hash() == schema.hash()
        assert clone.n == schema.n

    def test_hash_changes_with_vocab(self):
        s1 = d.fit_schema([rec(color="a")], {"color": d.CATEGORICAL})
        s2 = d.fit_schema([rec(color="b")], {"color": d.CATEGORICAL})
        assert s1.hash() != s2.hash()


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
            fires, _ = syn.rule_fires(s, ds.schema, spec)
            assert s.label == int(fires)

    def test_rule_oracle_separates_classes_perfectly(self):
        spec = syn.SynthSpec(n_users=50, rule_strength=1.0)
        ds = syn.synth_generate(spec, seed=2)
        scores = syn.rule_oracle_scores(ds, spec)
        labels = [s.label for s in ds.sequences]
        assert all(sc == float(lb) for sc, lb in zip(scores, labels))

    def test_strength_zero_labels_present_both_classes(self):
        spec = syn.SynthSpec(n_users=50, rule_strength=0.0)
        ds = syn.synth_generate(spec, seed=3)
        labels = {s.label for s in ds.sequences}
        assert labels == {0, 1}

    def test_all_sequences_valid(self):
        ds = syn.synth_generate(syn.SynthSpec(n_users=25), seed=9)
        for s in ds.sequences:
            s.validate()
            for t, ev in enumerate(s.events):
                if s.q[t]:
                    assert len(ev.entries) == 3
                    assert all(0.0 <= v <= 1.0 for v in ev.values())
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

    def test_varint_round_trip(self):
        for value in (0, 1, 127, 128, 300, 2**20, 2**40):
            buf = bytearray()
            dio.write_varint(buf, value)
            assert dio.ByteReader(bytes(buf)).varint("x") == value

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
        assert hashlib.sha256(blob).hexdigest() == (
            "7639de2807373f77cb8d898fa1430de8cce599f03369731760926dbcba1428ce")

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
_event = st.lists(st.tuples(_index, st.floats(allow_nan=False, allow_infinity=False)),
                  max_size=4, unique_by=lambda e: e[0]).map(lambda es: d.Event(tuple(sorted(es))))


@st.composite
def _datasets(draw):
    """Windows over a small event pool, so events repeat within and across
    users; sometimes shuffled, so a user's windows are not contiguous."""
    pool = draw(st.lists(_event, min_size=1, max_size=6))
    users = draw(st.lists(st.text(st.characters(codec="utf-8"), max_size=4),
                          min_size=1, max_size=4, unique=True))
    streams = {user: [(draw(st.sampled_from(pool)), draw(st.integers(0, 1)))
                      for _ in range(draw(st.integers(1, 6)))]
               for user in users}
    sequences = d.assemble_sequences(streams, draw(st.integers(1, 4)))
    if draw(st.booleans()):
        sequences = draw(st.permutations(sequences))
    return d.Dataset(WIDE_SCHEMA, sequences, draw(st.sampled_from(["train", "t\u00e9st"])))


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


_SMALL = syn.synth_generate(syn.SynthSpec(n_users=8), seed=11)
_SMALL_BLOB = dio.serialize_dataset(_SMALL)


def _flip(spot):
    pos, bit = spot
    blob = bytearray(_SMALL_BLOB)
    blob[pos] ^= 1 << bit
    return bytes(blob)


@given(st.one_of(
    st.integers(0, len(_SMALL_BLOB) - 1).map(lambda n: _SMALL_BLOB[:n]),
    st.tuples(st.integers(0, len(_SMALL_BLOB) - 1), st.integers(0, 7)).map(_flip)))
@settings(max_examples=200, deadline=None)
def test_corrupt_dataset_raises_format_error_or_reads_finite(blob):
    try:
        back = dio.deserialize_dataset(blob, _SMALL.schema)
    except FormatError:
        return
    assert all(math.isfinite(v) for seq in back.sequences for ev in seq.events
               for _, v in ev.entries)

"""The columnar encoder and window builder against the per-record oracle in
``encode_oracle``, and the pinned bytes ``nhfm preprocess`` writes for small
MovieLens and generic JSONL inputs."""

import copy
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import encode_oracle as oracle
from nhfm import cli
from nhfm import data as d
from nhfm import dataset_io as dio
from nhfm.cli import _encode_records, main
from nhfm.errors import DataError

# a field is left out of a record, set to None, or set to a drawn value
_ABSENT = object()
_TOKENS = st.one_of(st.sampled_from(["a", "b", "1", "1.0", "True", ""]), st.integers(0, 2),
                    st.booleans(), st.sampled_from([1.0, 2.5, -0.0]))
_NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-10, 10, allow_nan=False),
                     st.sampled_from([0.0, -0.0, 1e308, -1e308, True, "2.5", " 4 "]))
# (name, kind, values); "const" takes one value only, so its lo == hi, and
# "never" is never set
_FIELDS = [("c1", d.CATEGORICAL, _TOKENS), ("n1", d.NUMERICAL, _NUMBERS),
           ("c2", d.CATEGORICAL, _TOKENS), ("const", d.NUMERICAL, st.just(7)),
           ("never", d.CATEGORICAL, st.nothing())]


@st.composite
def _body(draw, fields):
    out = {}
    for name, _, values in fields:
        value = draw(st.one_of(st.just(_ABSENT), st.none(), values))
        if value is not _ABSENT:
            out[name] = value
    return out


@st.composite
def _records(draw):
    """Records grouped by user from a small pool of bodies, so equal
    events repeat within and across users; some users have one event."""
    fields = draw(st.permutations(_FIELDS))
    pool = draw(st.lists(_body(fields), min_size=1, max_size=6))
    records = []
    for u in range(draw(st.integers(1, 4))):
        for t in range(draw(st.sampled_from([1, 1, 2, 3, 5, 9]))):
            records.append({"__user": f"u{u}", "__ts": t, "__label": draw(st.integers(0, 1)),
                            **draw(st.sampled_from(pool))})
    return {name: kind for name, kind, _ in fields}, records


def _assert_same_store(got, want):
    for name in ("idx", "val", "count", "rows", "label", "user"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.users == want.users


@given(_records(), st.integers(1, 4),
       st.sampled_from([(0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (1.0, 0.0, 0.0)]))
@settings(max_examples=150, deadline=None)
def test_columnar_store_matches_the_per_record_oracle(case, t_max, ratios):
    fields, records = case
    want_schema, want = oracle.encode_records(records, fields, ratios, t_max, d.split_counts)
    got = _encode_records(d.Columns.of(records, fields), fields, ratios, t_max)
    assert got.schema.to_json() == want_schema.to_json()
    _assert_same_store(got.store, want)
    # the adapters give what the oracle gives, one record and one stream at a time
    events = [d.encode_event(rec, got.schema) for rec in records]
    assert events == [oracle.encode_event(rec, got.schema) for rec in records]
    assert all(type(i) is int and type(v) is float for ev in events for i, v in ev.entries)
    streams = {}
    for rec, ev in zip(records, events):
        streams.setdefault(rec["__user"], []).append((ev, rec["__label"]))
    _assert_same_store(d.assemble_sequences(streams, t_max), want)
    # and the store of the decoded windows is the same store
    _assert_same_store(d.EventStore.of(got.store.views()), want)


def _user(*bodies):
    return [{"__user": "u", "__ts": t, "__label": t % 2, **body} for t, body in enumerate(bodies)]


@pytest.mark.parametrize("fields, records", [
    # -0.0 - 0.0 is -0.0, which the clamp makes 0.0
    ({"n": d.NUMERICAL}, _user({"n": 0.0}, {"n": -0.0}, {"n": 4.0}, {"n": -0.0}, {"n": 9.0})),
    # inf / inf is NaN, which the clamp makes 0.0
    ({"n": d.NUMERICAL}, _user({"n": -1e308}, {"n": 1e308}, {"n": 1e308}, {"n": 0.0}, {})),
    # an empty event and one whose only entry is index 0 with value 0.0
    ({"n": d.NUMERICAL, "c": d.CATEGORICAL}, _user({"n": 1.0}, {}, {"n": 1.0, "c": "a"},
                                                   {"c": None}, {"n": 2.0})),
    # a field named like a meta key gets no vocabulary, then encodes to OOV
    ({"__ts": d.CATEGORICAL, "c": d.CATEGORICAL}, _user({"c": "a"}, {"c": "b"}, {}, {})),
])
def test_edge_values_match_the_oracle(fields, records):
    want_schema, want = oracle.encode_records(records, fields, (0.6, 0.2, 0.2), 3, d.split_counts)
    got = _encode_records(d.Columns.of(records, fields), fields, (0.6, 0.2, 0.2), 3)
    assert got.schema.to_json() == want_schema.to_json()
    _assert_same_store(got.store, want)


@pytest.mark.parametrize("bad", ["abc", float("inf"), float("nan"), [1], {}, 10**400])
def test_a_bad_numerical_value_gives_the_oracle_message(bad):
    fields = {"c": d.CATEGORICAL, "n": d.NUMERICAL}
    records = [{"__user": "u", "__label": 0, "c": "a", "n": 1.0} for _ in range(5)]
    for at in (0, 4):  # in the training fraction, then only in the test one
        case = [dict(rec) for rec in records]
        case[at]["n"] = bad
        with pytest.raises(DataError) as want:
            oracle.encode_records(case, fields, (0.6, 0.2, 0.2), 3, d.split_counts)
        with pytest.raises(DataError, match=re.escape(str(want.value))):
            _encode_records(d.Columns.of(case, fields), fields, (0.6, 0.2, 0.2), 3)


def test_records_of_one_user_must_be_contiguous():
    records = [{"__user": u, "__label": 0, "c": "a"} for u in ("x", "y", "x")]
    columns = d.Columns.of(records, {"c": d.CATEGORICAL})
    schema = d.fit_schema(columns, {"c": d.CATEGORICAL})
    with pytest.raises(DataError, match="records of user 'x' are not contiguous"):
        d.encode_windows(columns, schema, 3)


def _movielens_files(root):
    """Six users rating eight movies, one of them undated; some users rate
    a movie twice in the same hour of the same weekday, so equal events
    repeat within a user, and the ratings file is not in user order."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "users.dat").write_text("".join(
        f"{u}::{'MF'[u % 2]}::{(1, 18, 25, 35, 45, 56)[u % 6]}::{u * 3 % 21}::{u * 7919 % 100000:05d}\n"
        for u in range(1, 7)), encoding="latin-1")
    (root / "movies.dat").write_text(
        "1::Toy Story (1995)::Animation|Children's|Comedy\n"
        "2::Jumanji (1995)::Adventure|Children's|Fantasy\n"
        "3::Heat (1995)::Action|Crime|Thriller\n"
        "4::Untitled Reel::Drama\n"
        "5::Casino (1995)::Drama|Thriller\n"
        "6::Metropolis (1927)::Sci-Fi\n"
        "7::Fargo (1996)::Crime|Drama|Thriller\n"
        "8::Alien (1979)::Horror|Sci-Fi\n", encoding="latin-1")
    lines = []
    for u in range(1, 7):
        for j in range(2 + u * 3 % 7):
            movie = 1 + (u * j + j // 2) % 8
            ts = 978_300_000 + u * 1_000 + (j // 2) * 90_000 + j % 2 * 60
            lines.append(f"{u}::{movie}::{1 + (u + j) % 5}::{ts}\n")
    (root / "ratings.dat").write_text("".join(lines[1::2] + lines[::2]), encoding="latin-1")


def _generic_lines():
    """Five users of up to eight records with missing fields, ``None``
    values, tokens of mixed types, numerical values outside the training
    range, a constant numerical field and repeated records; one user has a
    single record."""
    colors = ["red", "blue", 1, "1", True, None, 2.5]
    out = []
    for u in range(5):
        for t in range(1 if u == 3 else 8):
            rec = {"__user": f"u{u}", "__ts": 100 - t if u == 1 else t, "__label": (u + t) % 2}
            if (u + t) % 4:
                rec["color"] = colors[(u * 3 + t) % len(colors)]
            if t != 2:
                rec["amount"] = None if t == 5 else (t * 2.5 - u if t < 6 else 40 + u)
            rec["flag"] = [False, "x", 0][t % 3] if u != 2 else "x"
            rec["const"] = 5
            out.append(json.dumps(rec))
    return "".join(line + "\n" for line in out[::-1])


GENERIC_FIELDS = {"color": "categorical", "amount": "numerical",
                  "flag": "categorical", "const": "numerical"}

# SHA-256 of what ``nhfm preprocess`` wrote for these inputs with the
# per-record encoder that the columnar one replaced
PINNED = {
    "movielens": {
        "schema.json": "3f595e95073e90f23f85a6f41ca83e871c22d9fdbdf3728b9e9e438d97681860",
        "train.nhfmds": "0f20dcab17bb957db02bbba4e6551730668c7bd0ba4706a87477ce613b737f00",
        "valid.nhfmds": "8531b7572133a6ea890d3aa14973118eba10bae4937324ce557666e693e86c01",
        "test.nhfmds": "91456a8b2b88bf44656423769c8120931f58347ef003d4eae1909ccd21277bcb",
    },
    "generic": {
        "schema.json": "4b994f6ca93bb5ab52e6588ff4552919dd4c3e5963a0dcf9ed20ece70684caf2",
        "train.nhfmds": "bc0a8ea834d6859f36152aa6dcc017b76e6a23459af10796d2fa399b3a79f250",
        "valid.nhfmds": "f06ccb23c705a1df383d8cb8dd52f10d64633d6568c6a5fb13c9225a1be84ca1",
        "test.nhfmds": "b538dacdf63201ab06f05af07707d8bf6f4de4e42ee017bd4c94a83a15ca4385",
    },
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_preprocess_file_bytes_are_pinned(tmp_path, kind):
    if kind == "movielens":
        _movielens_files(tmp_path / "ml")
        dataset = {"movielens_dir": str(tmp_path / "ml")}
    else:
        (tmp_path / "events.jsonl").write_text(_generic_lines(), encoding="utf-8")
        dataset = {"path": str(tmp_path / "events.jsonl"), "fields": GENERIC_FIELDS}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": {"kind": kind, "t_max": 4, **dataset},
                                  "out_dir": str(tmp_path / "run")}))
    assert main(["preprocess", "--config", str(config)]) == 0
    written = {name: hashlib.sha256((tmp_path / "run" / "data" / name).read_bytes()).hexdigest()
               for name in PINNED[kind]}
    assert written == PINNED[kind]


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_default_config_with_a_dataset_update_builds_the_pinned_files(tmp_path, kind):
    # the benchmark's preprocess builds its datasets this way, in every
    # timed ingest_ml round: a copy of DEFAULT_CONFIG whose dataset section
    # is updated, straight into RunConfig and prepare_datasets
    if kind == "movielens":
        _movielens_files(tmp_path / "ml")
        dataset = {"movielens_dir": str(tmp_path / "ml")}
    else:
        (tmp_path / "events.jsonl").write_text(_generic_lines(), encoding="utf-8")
        dataset = {"path": str(tmp_path / "events.jsonl"), "fields": GENERIC_FIELDS}
    cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
    cfg["dataset"].update(dataset, kind=kind, t_max=4)
    parts = cli.prepare_datasets(cli.RunConfig(cfg))
    dio.save_schema(parts[0].schema, tmp_path / "schema.json")
    for ds in parts:
        dio.write_dataset(ds, tmp_path / f"{ds.split}.nhfmds")
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in PINNED[kind]}
    assert written == PINNED[kind]


def test_equal_events_share_a_row_as_the_oracle_has_them():
    # 0.0 == -0.0, so these two events are equal and the first one is kept
    zero, minus = d.Event(((0, 0.0),)), d.Event(((0, -0.0),))
    streams = {"u": [(minus, 0), (zero, 1), (minus, 0)], "v": [(zero, 1)], "w": []}
    _assert_same_store(d.assemble_sequences(streams, 2), oracle.assemble_sequences(streams, 2))

"""The columnar raw readers against the per-record ones kept in
``ingest_oracle``: ``nhfm preprocess`` must write the oracle's bytes, or
exit 2 with the oracle's message, for odd MovieLens and JSONL inputs; and
the order of the input lines must not matter when no timestamps tie."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import encode_oracle
import ingest_oracle as oracle
from nhfm import cli
from nhfm import data as d
from nhfm import dataset_io as dio
from nhfm.cli import main
from nhfm.errors import DataError
from nhfm.movielens import MOVIELENS_FIELDS, ingest_movielens

RATIOS = (0.6, 0.2, 0.2)
T_MAX = 3
FILES = ("schema.json", "train.nhfmds", "valid.nhfmds", "test.nhfmds")

# ---------------------------------------------------------------------------
# MovieLens lines: ids repeat, so a later line overrides an earlier one, and
# some references are unknown; fields hold spaces, Latin-1 bytes, colons
# and "|" in odd places

_UIDS = st.sampled_from(["1", "2", "10", "01", " 1", "é", "u:x", "12345678", ""])
_MIDS = st.sampled_from(["1", "2", "7", "x", "007", "Ñ", "123456789", ""])
_USER = st.builds("::".join, st.tuples(
    _UIDS, st.sampled_from(["F", "M", "", "é"]), st.sampled_from(["1", "18", "56", " 25"]),
    st.sampled_from(["0", "10", "20", "x"]), st.sampled_from(["48067", "7", "", "é12", " 1"])))
_TITLES = st.sampled_from([
    "Toy Story (1995)", "Heat (1995) ", "Undated", "Café (2001)\xa0", "Odd (19x5)",
    "(1999)", "Title (2000)\x85", "Star: Wars (1977)", "Two (1990) (1991)", "(12345)",
    "Tail (1980)x", "Sup (²³¹²)", "Spaced (1970)\x1c \t", "", "Late (1990)\x0b"])
_GENRES = st.sampled_from(["Drama", "Action|Crime", "", "|Comedy", "Sci-Fi|", "Comédie|x",
                           "Children's", "a||b"])
_MOVIE = st.builds("::".join, st.tuples(_MIDS, _TITLES, _GENRES))
_RATING = st.sampled_from(["1", "2", "3", "4", "5", "0", "6", "-1", " 4", "4 ", "+4", "x",
                           "", "4.0", "04", "4_0", "\xa05"])
_STAMP = st.one_of(
    st.integers(-62_135_596_800 - 5, 253_402_300_799 + 5).map(str),
    st.integers(978_300_000, 978_300_000 + 3 * 86_400).map(str),
    st.sampled_from(["-62135596800", "253402300799", "-62135596801", "253402300800", "0", "-0",
                     " 978300760", "+978300760", "978_300_760", "", "abc",
                     "99999999999999999999", "-1", "0000000000000000000978300760"]))
_RATING_LINE = st.builds("::".join, st.tuples(st.one_of(st.just("1"), _UIDS),
                                               st.one_of(st.just("1"), _MIDS), _RATING, _STAMP))
_GARBAGE = st.sampled_from(["junk", "a::b", "1::2::3::4::5::6", "::", ":::", "1:::2::3::4",
                            "1::2::3::4::", " ", "\x85", "é::é"])
_ENDINGS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def _file(draw, line, garbage_share):
    lines = draw(st.lists(st.one_of(*[line] * 8, *[_GARBAGE] * garbage_share, st.just("")),
                          max_size=12))
    return "".join(text + draw(_ENDINGS) for text in lines)


@st.composite
def _movielens(draw, garbage_share=1):
    """The three files, with a user and a movie of id 1 that most ratings
    reference and, sometimes, enough good ratings of them that a few bad
    lines stay within the 1% limit."""
    bulk = draw(st.sampled_from([0, 400]))
    return {
        "users.dat": "1::F::1::10::48067\n" + draw(_file(_USER, garbage_share)),
        "movies.dat": f"1::{draw(_TITLES)}::{draw(_GENRES)}\n" + draw(_file(_MOVIE, garbage_share)),
        "ratings.dat": draw(_file(_RATING_LINE, garbage_share))
        + "".join(f"1::1::{1 + i % 5}::{978_300_000 + 97 * i}\n" for i in range(bulk)),
    }


def _write(root: Path, files: dict) -> None:
    root.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (root / name).write_bytes(text.encode("latin-1" if name.endswith(".dat") else "utf-8"))


def _files(parts) -> dict:
    """The bytes ``nhfm preprocess`` writes for the (train, valid, test)
    datasets ``parts``."""
    return {"schema.json": parts[0].schema.to_json().encode("utf-8"),
            **{f"{ds.split}.nhfmds": dio.serialize_dataset(ds) for ds in parts}}


def _oracle(read, fields) -> dict | str:
    """The files of the oracle's records, or the message of its ``DataError``."""
    try:
        schema, store = encode_oracle.encode_records(read(), fields, RATIOS, T_MAX,
                                                     d.split_counts)
        return _files(d.split(d.Dataset(schema, store=store), RATIOS))
    except DataError as exc:
        return str(exc)


def _preprocess(root: Path, dataset: dict) -> dict | str:
    """What ``nhfm preprocess`` writes, or the message it exits 2 with."""
    config = root / "config.json"
    config.write_text(json.dumps({"dataset": {"t_max": T_MAX, "ratios": list(RATIOS),
                                              **dataset},
                                  "out_dir": str(root / "run")}))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as stderr:
        code = main(["preprocess", "--config", str(config)])
    err = stderr.getvalue()
    if code == 2:
        assert err.startswith("error: ") and err.endswith("\n"), err
        return err[len("error: "):-1]
    assert code == 0, err
    return {name: (root / "run" / "data" / name).read_bytes() for name in FILES}


@given(_movielens())
@settings(max_examples=120, deadline=None)
def test_movielens_preprocess_matches_the_per_record_oracle(files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(root, files)
        want = _oracle(lambda: oracle.ingest_movielens(
            root / "ratings.dat", root / "users.dat", root / "movies.dat"), MOVIELENS_FIELDS)
        got = _preprocess(root, {"kind": "movielens", "movielens_dir": str(root)})
    assert got == want


@given(_movielens(garbage_share=3))
@settings(max_examples=120, deadline=None)
def test_movielens_records_match_the_oracle_without_a_malformed_limit(files):
    # no limit, so every kind of bad line is skipped rather than aborting
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(root, files)
        paths = (root / "ratings.dat", root / "users.dat", root / "movies.dat")
        want = _oracle(lambda: oracle.ingest_movielens(*paths, max_malformed_fraction=1.0),
                       MOVIELENS_FIELDS)
        try:
            columns = ingest_movielens(*paths, max_malformed_fraction=1.0)
        except DataError as exc:
            got = str(exc)
        else:
            got = _files(d.split(cli._encode_records(columns, MOVIELENS_FIELDS, RATIOS, T_MAX),
                                 RATIOS))
    assert got == want


# ---------------------------------------------------------------------------
# JSONL lines: values of mixed type, missing and null fields, stray keys,
# labels and timestamps of odd types, and lines that are not records

_VALUES = st.sampled_from([1, "1", True, 1.0, "a", 2.5, -0.0, None, [1], {"k": 1}, "é"])
_NUMBERS = st.sampled_from([1, "1", True, 1.0, 2.5, -0.0, 0.0, -3, None, " 4 ", "2.5", 1e308])
_BAD_NUMBERS = st.sampled_from(["abc", float("nan"), float("inf"), [1], {}, "nan", 10**400])
_USERS = st.sampled_from(["u1", "u2", 1, "1", True, None, "é"])
_STAMPS = st.one_of(st.integers(0, 5), st.integers(0, 5), st.sampled_from(
    [1.5, "a", None, [1], True, 2**70, float("nan"), "b", [0, "x"]]))
_LABELS = st.sampled_from([0, 1, 0, 1, True, False, 1.0, 0.0])
_NOT_RECORDS = st.sampled_from(["{", "5", "[]", "", "   ", '{"__user": "u1", "__ts": 1}',
                                '{"__user": "u1", "__ts": 1, "__label": 2}', "null"])


@st.composite
def _record(draw, stray):
    rec = {"__user": draw(_USERS), "__ts": draw(_STAMPS), "__label": draw(_LABELS)}
    for name, values in (("c", _VALUES), ("n", _NUMBERS), ("m", _NUMBERS)):
        if draw(st.booleans()):
            rec[name] = draw(values)
    if stray and draw(st.integers(0, 9)) == 0:
        rec["zz"] = 1
    keys = draw(st.permutations(list(rec)))
    return json.dumps({k: rec[k] for k in keys})


@st.composite
def _jsonl(draw):
    """A JSONL file; it holds at most one numerical value that is not a
    number, and then no stray key, because the oracle encoder names
    several bad values in record order where the program names them in
    field order (both name the one bad value the same way)."""
    bad = draw(st.integers(0, 3)) == 0
    lines = draw(st.lists(_record(stray=not bad), min_size=1, max_size=14))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOT_RECORDS))
    if bad:
        rec = json.loads(draw(_record(stray=False)))
        rec["n"] = draw(_BAD_NUMBERS)
        lines.insert(draw(st.integers(0, len(lines))), json.dumps(rec))
    fields = {"c": "categorical", "n": "numerical", "m": "numerical"}
    if draw(st.booleans()):
        fields = {"__ts": "categorical", **fields}
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines), fields


@given(_jsonl())
@settings(max_examples=200, deadline=None)
def test_generic_preprocess_matches_the_per_record_oracle(case):
    text, fields = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        path = root / "events.jsonl"
        path.write_text(text, encoding="utf-8")
        want = _oracle(lambda: oracle.ingest_generic(path), fields)
        got = _preprocess(root, {"kind": "generic", "path": str(path), "fields": fields})
    assert got == want


# ---------------------------------------------------------------------------
# with distinct timestamps per user, the sort fixes every record's place

def _prepared(dataset: dict) -> dict:
    cfg = {**cli.DEFAULT_CONFIG, "dataset": {**cli.DEFAULT_CONFIG["dataset"], "t_max": T_MAX,
                                            "ratios": list(RATIOS), **dataset}}
    return _files(cli.prepare_datasets(cli.RunConfig(cfg)))


@st.composite
def _distinct_ratings(draw):
    lines = []
    for user in draw(st.lists(st.sampled_from(["1", "2", "10", "3"]), min_size=1, unique=True)):
        stamps = draw(st.lists(st.integers(978_300_000, 978_300_000 + 20 * 86_400),
                               min_size=1, max_size=12, unique=True))
        lines += [f"{user}::{draw(st.sampled_from(['1', '2', '3', '4']))}::"
                  f"{draw(st.integers(1, 5))}::{ts}\n" for ts in stamps]
    return lines


@given(_distinct_ratings(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_shuffled_ratings_lines_write_the_same_files(lines, rng):
    users = "".join(f"{u}::{'FM'[i % 2]}::{18 + i}::{i}::{i}0000\n"
                    for i, u in enumerate(["1", "2", "10", "3"]))
    movies = ("1::Toy Story (1995)::Animation|Comedy\n2::Heat (1995)::Action\n"
              "3::Undated::Drama\n4::Alien (1979)::Sci-Fi\n")
    shuffled = list(lines)
    rng.shuffle(shuffled)
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for order in (lines, shuffled):
            root = Path(tmp) / str(len(files))
            _write(root, {"users.dat": users, "movies.dat": movies,
                          "ratings.dat": "".join(order)})
            files.append(_prepared({"kind": "movielens", "movielens_dir": str(root)}))
    assert files[0] == files[1]


@st.composite
def _distinct_records(draw):
    lines = []
    for user in draw(st.lists(st.sampled_from(["u1", "u2", 3, "u10"]), min_size=1, unique=True)):
        for ts in draw(st.lists(st.integers(0, 50), min_size=1, max_size=10, unique=True)):
            rec = {"__user": user, "__ts": ts, "__label": draw(st.integers(0, 1)),
                   "c": draw(st.sampled_from(["a", "b", 1, None])),
                   "n": draw(st.sampled_from([1, 2.5, -1, None]))}
            lines.append(json.dumps(rec) + "\n")
    return lines


@given(_distinct_records(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_shuffled_jsonl_lines_write_the_same_files(lines, rng):
    shuffled = list(lines)
    rng.shuffle(shuffled)
    fields = {"c": "categorical", "n": "numerical"}
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for order in (lines, shuffled):
            path = Path(tmp) / f"{len(files)}.jsonl"
            path.write_text("".join(order), encoding="utf-8")
            files.append(_prepared({"kind": "generic", "path": str(path), "fields": fields}))
    assert files[0] == files[1]

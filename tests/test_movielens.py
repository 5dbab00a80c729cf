"""MovieLens-1M ingestion against small fixture files; full-dataset checks
run only when the real files are present (see test_acceptance)."""

import json
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhfm import data as d
from nhfm.cli import main
from nhfm.errors import DataError
from nhfm.movielens import MOVIELENS_FIELDS, ingest_movielens


@pytest.fixture
def ml_dir(tmp_path):
    (tmp_path / "users.dat").write_text(
        "1::F::1::10::48067\n"
        "2::M::56::16::70072\n", encoding="latin-1")
    (tmp_path / "movies.dat").write_text(
        "10::Toy Story (1995)::Animation|Children's|Comedy\n"
        "20::Heat (1995)::Action|Crime|Thriller\n"
        "30::Mystery Film::Drama\n", encoding="latin-1")
    # 978300760 = Sun 2000-12-31 22:12:40 UTC
    (tmp_path / "ratings.dat").write_text(
        "1::10::5::978300760\n"
        "1::20::3::978301760\n"
        "2::20::4::978302760\n"
        "2::30::1::978303760\n", encoding="latin-1")
    return tmp_path


def _ingest(ml_dir, **kw):
    return ingest_movielens(ml_dir / "ratings.dat", ml_dir / "users.dat",
                            ml_dir / "movies.dat", **kw)


def _column(columns, name):
    """Each record's value of field ``name``, None where it has none."""
    column = columns.fields[name]
    return [None if c < 0 else column.values[c] for c in column.code.tolist()]


def _users(columns):
    return [columns.user.values[c] for c in columns.user.code.tolist()]


class TestIngest:
    def test_labels_binarized_at_four(self, ml_dir):
        columns = _ingest(ml_dir)
        by_key = dict(zip(zip(_users(columns), _column(columns, "movie_id")),
                          columns.label.tolist()))
        assert by_key[("1", "10")] == 1   # rating 5
        assert by_key[("1", "20")] == 0   # rating 3
        assert by_key[("2", "20")] == 1   # rating 4
        assert by_key[("2", "30")] == 0   # rating 1

    def test_first_genre_rule(self, ml_dir):
        columns = _ingest(ml_dir)
        genres = dict(zip(_column(columns, "movie_id"), _column(columns, "genre")))
        assert genres["10"] == "Animation"
        assert genres["20"] == "Action"

    def test_nine_fields_present(self, ml_dir):
        assert len(MOVIELENS_FIELDS) == 9
        columns = _ingest(ml_dir)
        assert list(columns.fields) == list(MOVIELENS_FIELDS)
        # release_year is None for undated titles; every other field has a value
        for name in MOVIELENS_FIELDS:
            assert (None in _column(columns, name)) == (name == "release_year")

    def test_undated_title_has_no_year(self, ml_dir):
        columns = _ingest(ml_dir)
        years = dict(zip(_column(columns, "movie_id"), _column(columns, "release_year")))
        assert years["30"] is None
        assert years["10"] == 1995.0

    def test_time_fields_are_utc(self, ml_dir):
        columns = _ingest(ml_dir)
        # the first record is user 1's rating of movie 10, at 978300760
        assert (_users(columns)[0], _column(columns, "movie_id")[0]) == ("1", "10")
        assert _column(columns, "hour")[0] == "22"
        assert _column(columns, "weekday")[0] == "6"  # Sunday

    def test_user_attributes_joined(self, ml_dir):
        columns = _ingest(ml_dir)
        at = _users(columns).index("2")
        assert [_column(columns, name)[at] for name in ("gender", "age", "occupation", "zip1")] \
            == ["M", "56", "16", "7"]

    def test_ordering_user_then_timestamp(self, ml_dir):
        ratings = ml_dir / "ratings.dat"
        ratings.write_text("".join(reversed(ratings.read_text(encoding="latin-1")
                                            .splitlines(keepends=True))), encoding="latin-1")
        columns = _ingest(ml_dir)
        assert list(zip(_users(columns), _column(columns, "movie_id"))) == [
            ("1", "10"), ("1", "20"), ("2", "20"), ("2", "30")]

    def test_fits_schema_with_nine_fields(self, ml_dir):
        schema = d.fit_schema(_ingest(ml_dir), MOVIELENS_FIELDS)
        assert len(schema.fields) == 9


class TestMalformedHandling:
    def test_few_malformed_lines_skipped(self, ml_dir):
        ratings = ml_dir / "ratings.dat"
        good = ratings.read_text(encoding="latin-1")
        # bulk keeps the bad fraction under the 1% abort limit
        bulk = "".join(f"1::10::4::{978300760 + i}\n" for i in range(400))
        ratings.write_text(good + bulk + "garbage line\nanother::bad\n",
                           encoding="latin-1")
        records = _ingest(ml_dir)
        assert len(records) == 404

    def test_too_many_malformed_aborts(self, ml_dir):
        ratings = ml_dir / "ratings.dat"
        ratings.write_text(ratings.read_text(encoding="latin-1")
                           + "junk\n" * 10, encoding="latin-1")
        with pytest.raises(DataError, match="malformed"):
            _ingest(ml_dir)

    def test_unknown_movie_reference_is_malformed(self, ml_dir):
        ratings = ml_dir / "ratings.dat"
        ratings.write_text("1::999::4::978300760\n", encoding="latin-1")
        with pytest.raises(DataError, match="malformed"):
            _ingest(ml_dir)

    def test_a_line_that_fails_validation_counts_once(self, ml_dir):
        ratings = ml_dir / "ratings.dat"
        ratings.write_text("1::10::5::978300760\n1::20::9::978301760\n2::20::4::978302760\n",
                           encoding="latin-1")
        # the three files hold 2 + 3 + 3 lines
        with pytest.raises(DataError, match="^1 malformed lines out of 8 exceeds"):
            _ingest(ml_dir)
        # 1 bad line of 105 is within the 1% limit
        ratings.write_text(ratings.read_text(encoding="latin-1") + "".join(
            f"1::10::4::{978300761 + i}\n" for i in range(97)), encoding="latin-1")
        assert len(_ingest(ml_dir)) == 99

    def test_the_limit_counts_the_lines_of_all_three_files(self, ml_dir):
        # 1 bad line of 262 is 0.38%, within the 1% limit, though it is
        # more than 1% of the 60 ratings lines
        (ml_dir / "users.dat").write_text("1::F::1::10::48067\n", encoding="latin-1")
        (ml_dir / "movies.dat").write_text("".join(
            f"{m}::Film {m} (1990)::Drama\n" for m in range(200)) + "garbage\n",
            encoding="latin-1")
        (ml_dir / "ratings.dat").write_text("".join(
            f"1::{m}::4::{978300760 + m}\n" for m in range(60)), encoding="latin-1")
        assert len(_ingest(ml_dir)) == 60
        with open(ml_dir / "users.dat", "a", encoding="latin-1") as fh:
            fh.write("junk\nmore::junk\n")
        with pytest.raises(DataError, match="^3 malformed lines out of 264 exceeds the 1% limit$"):
            _ingest(ml_dir)

    def test_empty_ratings_aborts(self, ml_dir):
        (ml_dir / "ratings.dat").write_text("", encoding="latin-1")
        with pytest.raises(DataError, match="no rating rows"):
            _ingest(ml_dir)

    @pytest.mark.parametrize("ts", ["99999999999999", "253402300800", "-62135596801"])
    def test_timestamp_outside_datetime_years_is_malformed(self, ml_dir, ts):
        ratings = ml_dir / "ratings.dat"
        bulk = "".join(f"1::10::4::{978300760 + i}\n" for i in range(400))
        ratings.write_text(ratings.read_text(encoding="latin-1") + bulk + f"2::20::4::{ts}\n",
                           encoding="latin-1")
        assert len(_ingest(ml_dir)) == 404
        ratings.write_text(f"1::10::5::{ts}\n" + bulk, encoding="latin-1")
        assert len(_ingest(ml_dir)) == 400

    def test_preprocess_exits_2_on_a_timestamp_out_of_range(self, ml_dir, capsys):
        with open(ml_dir / "ratings.dat", "a", encoding="latin-1") as fh:
            fh.write("2::10::4::99999999999999\n")
        config = ml_dir / "config.json"
        config.write_text(json.dumps({"dataset": {"kind": "movielens", "movielens_dir": str(ml_dir)},
                                      "out_dir": str(ml_dir / "run")}))
        assert main(["preprocess", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "error: 1 malformed lines out of " in err and "Traceback" not in err


_DATETIME_TS = st.integers(-62_135_596_800, 253_402_300_799)


@given(st.lists(st.one_of(_DATETIME_TS, st.integers(-86_400 * 3, 86_400 * 3),
                          st.sampled_from([-62_135_596_800, 253_402_300_799, -1, 0])),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_hour_and_weekday_equal_datetime_in_utc(stamps):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "users.dat").write_text("1::F::1::10::48067\n", encoding="latin-1")
        (root / "movies.dat").write_text("10::Toy Story (1995)::Animation\n", encoding="latin-1")
        (root / "ratings.dat").write_text("".join(f"1::10::4::{ts}\n" for ts in stamps),
                                          encoding="latin-1")
        columns = _ingest(root)
    assert len(columns) == len(stamps)
    # one user, so the records are in time order
    for ts, hour, weekday in zip(sorted(stamps), _column(columns, "hour"),
                                 _column(columns, "weekday")):
        when = datetime.fromtimestamp(ts, tz=timezone.utc)
        assert (hour, weekday) == (str(when.hour), str(when.weekday()))

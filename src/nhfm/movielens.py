"""MovieLens-1M ingestion: one event per rating, binarized at rating >= 4.

Reads the standard "::"-delimited ratings/users/movies files into columns
with nine fields: movie id, first genre, release year, rating hour-of-day,
rating weekday, user gender, age bucket, occupation, and zip 1-prefix.
The files are split, joined and parsed as byte arrays: a rating is a row
of integer arrays (user and movie position, rating, timestamp), and only
the users and movies that some rating references are read into strings.
Timestamps are interpreted as UTC so the derived hour/weekday are
machine-independent; a timestamp outside the years 1 to 9999 makes its
line malformed.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .data import CATEGORICAL, NUMERICAL, Column, Columns
from .errors import DataError

MOVIELENS_FIELDS: dict[str, str] = {
    "movie_id": CATEGORICAL,
    "genre": CATEGORICAL,
    "release_year": NUMERICAL,
    "hour": CATEGORICAL,
    "weekday": CATEGORICAL,
    "gender": CATEGORICAL,
    "age": CATEGORICAL,
    "occupation": CATEGORICAL,
    "zip1": CATEGORICAL,
}

POSITIVE_RATING_THRESHOLD = 4

# a release year is four digits in parentheses at the end of the title
_YEAR_RE = re.compile(r"\((\d{4})\)\s*$")
# UTC seconds of 0001-01-01T00:00:00 and 9999-12-31T23:59:59, the range
# that ``datetime`` represents
_TS_RANGE = (-62_135_596_800, 253_402_300_799)
_HOURS = [str(h) for h in range(24)]
_WEEKDAYS = [str(w) for w in range(7)]
# ids of up to this many bytes are joined as uint64 keys, longer ones by a dict
_KEY_BYTES = 7
# integers of up to this many digits are parsed as arrays, others by int()
_DIGITS = 18


class _Table:
    """The lines of one file that split into its fields."""

    __slots__ = ("raw", "b", "lines", "start", "end")

    def __init__(self, raw: bytes, b: np.ndarray, lines: int, start: np.ndarray,
                 end: np.ndarray):
        self.raw = raw  # the file, Latin-1, with universal newlines
        self.b = b  # raw as uint8
        self.lines = lines  # non-empty lines
        self.start = start  # (m, fields) offset of each field of each line that splits
        self.end = end  # (m, fields) offset past it


def _table(path: Path, n_fields: int) -> _Table:
    """Split each non-empty line of ``path`` at "::" as ``str.split`` does
    and keep the lines with exactly ``n_fields`` parts."""
    raw = path.read_bytes()
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    b = np.frombuffer(raw, dtype=np.uint8)
    newline = np.flatnonzero(b == 10)
    start = np.concatenate(([0], newline + 1))
    end = np.append(newline, len(b))
    start, end = start[end > start], end[end > start]
    # "::" at each pair of colons; where pairs overlap, in a run of three or
    # more colons, str.split takes them leftmost first: every other one
    sep = np.flatnonzero((b[:-1] == 58) & (b[1:] == 58))
    joined = np.diff(sep) == 1
    if joined.any():
        at = np.arange(len(sep))
        run = np.ones(len(sep), dtype=bool)
        run[1:] = ~joined
        sep = sep[(at - np.maximum.accumulate(np.where(run, at, 0))) % 2 == 0]
    line = np.searchsorted(end, sep, side="right")
    whole = np.bincount(line, minlength=len(end)) == n_fields - 1
    sep = sep[whole[line]].reshape(-1, n_fields - 1)
    return _Table(raw, b, len(end), np.column_stack([start[whole], sep + 2]),
                  np.column_stack([sep, end[whole]]))


def _strings(table: _Table, rows: np.ndarray, field: int, width=None, empty: str = ""
             ) -> list[str]:
    """Field ``field`` of lines ``rows`` as strings, cut to ``width``
    characters, and ``empty`` where the field has none: the spans are
    gathered into one buffer, a newline after each, which is decoded and
    split once."""
    start, end = table.start[rows, field], table.end[rows, field]
    cut = end if width is None else np.minimum(end, start + width)
    size = cut - start + 1
    at = np.cumsum(size) - size
    buf = table.b[np.minimum(np.arange(size.sum()) + np.repeat(start - at, size),
                             len(table.b) - 1)]
    buf[at + size - 1] = 10
    out = buf.tobytes().decode("latin-1").split("\n")[:-1]
    if empty:
        for i in np.flatnonzero(end == start).tolist():
            out[i] = empty
    return out


def _keys(b: np.ndarray, start: np.ndarray, end: np.ndarray, width: int) -> np.ndarray:
    """Spans of at most ``width`` <= 7 bytes as uint64 keys, equal where
    the bytes are: the bytes, zero-padded, then the length."""
    key = np.zeros((len(start), 8), dtype=np.uint8)
    at = np.arange(width)
    key[:, :width] = np.where(at < (end - start)[:, None],
                              b[np.minimum(start[:, None] + at, len(b) - 1)], 0)
    key[:, 7] = end - start
    return key.view(np.uint64).ravel()


def _join(table: _Table, refs: _Table, field: int) -> np.ndarray:
    """For each line of ``refs``, the last line of ``table`` whose id (its
    first field) has the bytes of the reference's field ``field``, or -1."""
    t_start, t_end = table.start[:, 0], table.end[:, 0]
    r_start, r_end = refs.start[:, field], refs.end[:, field]
    t_short, r_short = t_end - t_start <= _KEY_BYTES, r_end - r_start <= _KEY_BYTES
    width = int(max((t_end - t_start)[t_short].max(initial=0),
                    (r_end - r_start)[r_short].max(initial=0)))
    ids = _keys(table.b, t_start[t_short], t_end[t_short], width)
    line = np.flatnonzero(t_short)
    order = np.argsort(ids, kind="stable")  # the last line of an id comes last
    ids, line = ids[order], line[order]
    want = _keys(refs.b, r_start[r_short], r_end[r_short], width)
    at = np.searchsorted(ids, want, side="right") - 1
    hit = at >= 0
    hit[hit] = ids[at[hit]] == want[hit]
    out = np.full(len(r_start), -1, dtype=np.intp)
    out[np.flatnonzero(r_short)[hit]] = line[at[hit]]
    if not r_short.all():  # longer ids, one at a time
        long_ids = {table.raw[s:e]: i for i, s, e in zip(np.flatnonzero(~t_short).tolist(),
                                                          t_start[~t_short].tolist(),
                                                          t_end[~t_short].tolist())}
        for i in np.flatnonzero(~r_short).tolist():
            out[i] = long_ids.get(refs.raw[r_start[i]:r_end[i]], -1)
    return out


def _integers(table: _Table, field: int, lo: int, hi: int) -> np.ndarray:
    """``int()`` of each line's field ``field``, or ``lo - 1`` where that
    fails or falls outside lo..hi. A field of 1 to 18 ASCII digits, after
    an optional "-", is parsed as arrays; any other goes through ``int()``."""
    b, start, end = table.b, table.start[:, field], table.end[:, field]
    minus = (end > start) & (b[np.minimum(start, len(b) - 1)] == 45)
    first = start + minus
    digits = end - first
    plain = (digits >= 1) & (digits <= _DIGITS)
    value = np.zeros(len(start), dtype=np.int64)
    for k in range(int(digits[plain].max(initial=0))):
        more = plain & (k < digits)
        d = b[np.minimum(first + k, len(b) - 1)].astype(np.int64) - 48
        digit = (0 <= d) & (d <= 9)
        plain &= ~more | digit
        value = np.where(more & digit, value * 10 + d, value)
    value = np.where(minus, -value, value)
    for i in np.flatnonzero(~plain).tolist():
        try:
            value[i] = min(max(int(table.raw[start[i]:end[i]].decode("latin-1")), lo - 1), hi + 1)
        except ValueError:
            value[i] = lo - 1
    return np.where((lo <= value) & (value <= hi), value, lo - 1)


def ingest_movielens(ratings_path, users_path, movies_path,
                     max_malformed_fraction: float = 0.01) -> Columns:
    """The rating events of the three MovieLens-1M files, as columns of the
    nine :data:`MOVIELENS_FIELDS`.

    Records are ordered by (user id string, timestamp, file order); each
    user's id is ``__user``, and ``__label`` is 1 for a rating >= 4. A line
    that does not split into its file's fields, and a rating line with an
    unknown user or movie, a rating outside 1-5 or a timestamp outside the
    years 1-9999, is skipped and counted; more than
    ``max_malformed_fraction`` of the non-empty lines of the three files
    aborts the ingest. Where a user or movie id repeats, its last line wins.
    """
    users = _table(Path(users_path), 5)
    movies = _table(Path(movies_path), 3)
    ratings = _table(Path(ratings_path), 4)
    user = _join(users, ratings, 0)
    movie = _join(movies, ratings, 1)
    rating = _integers(ratings, 2, 1, 5)
    ts = _integers(ratings, 3, *_TS_RANGE)
    good = (user >= 0) & (movie >= 0) & (rating >= 1) & (ts >= _TS_RANGE[0])

    lines = users.lines + movies.lines + ratings.lines
    malformed = lines - len(users.start) - len(movies.start) - int(np.count_nonzero(good))
    if malformed > max_malformed_fraction * lines:
        raise DataError(f"{malformed} malformed lines out of {lines} "
                        f"exceeds the {max_malformed_fraction:.0%} limit")
    if not good.any():
        raise DataError("no rating rows could be read")

    # only the users and movies that a rating references are read as text
    user_rows, user = np.unique(user[good], return_inverse=True)
    uid = _strings(users, user_rows, 0)
    rank = np.empty(len(uid), dtype=np.intp)  # users in the order of their id strings
    rank[sorted(range(len(uid)), key=uid.__getitem__)] = np.arange(len(uid))
    movie, rating, ts = movie[good], rating[good], ts[good]
    order = np.lexsort((ts, rank[user]))
    user, rating, ts = user[order], rating[order], ts[order]
    movie_rows, movie = np.unique(movie[order], return_inverse=True)
    year = np.array([float(m.group(1)) if (m := _YEAR_RE.search(t)) else np.nan
                     for t in _strings(movies, movie_rows, 1)])

    # multi-valued genre strings reduce to the first genre, zip codes to
    # their first character; an empty one is "?"
    genres = movies.start[movie_rows, 2]
    pipe = np.append(np.flatnonzero(movies.b == 124), len(movies.b))
    genre = _strings(movies, movie_rows, 2, pipe[np.searchsorted(pipe, genres)] - genres, "?")
    fields = {
        "movie_id": Column(movie, _strings(movies, movie_rows, 0)),
        "genre": Column(movie, genre),
        "release_year": Column(np.where(np.isnan(year)[movie], -1, movie), year),
        "hour": Column(ts // 3600 % 24, _HOURS),
        "weekday": Column((ts // 86400 + 3) % 7, _WEEKDAYS),  # 1970-01-01 was a Thursday
        **{name: Column(user, _strings(users, user_rows, f))
           for f, name in enumerate(("gender", "age", "occupation"), start=1)},
        "zip1": Column(user, _strings(users, user_rows, 4, 1, "?")),
    }
    return Columns(fields, Column(user, uid),
                   (rating >= POSITIVE_RATING_THRESHOLD).astype(np.uint8))

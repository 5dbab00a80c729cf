"""MovieLens-1M ingestion: one event per rating, binarized at rating >= 4.

Reads the standard "::"-delimited ratings/users/movies files and emits one
raw record per rating with nine fields: movie id, first genre, release
year, rating hour-of-day, rating weekday, user gender, age bucket,
occupation, and zip 1-prefix. Timestamps are interpreted as UTC so the
derived hour/weekday are machine-independent; a timestamp outside the
years 1 to 9999 makes its line malformed.
"""

from __future__ import annotations

import re
from pathlib import Path

from .data import CATEGORICAL, NUMERICAL
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

_YEAR_RE = re.compile(r"\((\d{4})\)\s*$")
# UTC seconds of 0001-01-01T00:00:00 and 9999-12-31T23:59:59, the range
# that ``datetime`` represents
_TS_RANGE = (-62_135_596_800, 253_402_300_799)


def _read_delimited(path: Path, n_fields: int, malformed: list[int]):
    """Yield "::"-split rows with exactly n_fields parts; count the rest."""
    with open(path, encoding="latin-1") as fh:
        for line in fh:
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != n_fields:
                malformed[0] += 1
                continue
            yield parts


def ingest_movielens(ratings_path, users_path, movies_path,
                     max_malformed_fraction: float = 0.01) -> list[dict]:
    """Build raw rating-event records from the three MovieLens-1M files.

    Returns records ordered by (user, timestamp, file order), each carrying
    ``__user``/``__ts``/``__label`` plus the nine configured fields. Lines
    that fail to parse are skipped and counted; more than
    ``max_malformed_fraction`` of them aborts the ingest.
    """
    malformed = [0]

    users: dict[str, dict] = {}
    for uid, gender, age, occupation, zipcode in _read_delimited(
            Path(users_path), 5, malformed):
        users[uid] = {
            "gender": gender,
            "age": age,
            "occupation": occupation,
            "zip1": zipcode[:1] if zipcode else "?",
        }

    movies: dict[str, dict] = {}
    for mid, title, genres in _read_delimited(Path(movies_path), 3, malformed):
        year_match = _YEAR_RE.search(title)
        movies[mid] = {
            "movie_id": mid,
            # multi-valued genre strings reduce to the first genre
            "genre": genres.split("|")[0] if genres else "?",
            "release_year": int(year_match.group(1)) if year_match else None,
        }

    records: list[dict] = []
    for uid, mid, rating_s, ts_s in _read_delimited(Path(ratings_path), 4, malformed):
        user = users.get(uid)
        movie = movies.get(mid)
        try:
            rating = int(rating_s)
            ts = int(ts_s)
        except ValueError:
            malformed[0] += 1
            continue
        if (user is None or movie is None or not 1 <= rating <= 5
                or not _TS_RANGE[0] <= ts <= _TS_RANGE[1]):
            malformed[0] += 1
            continue
        rec = {
            "__user": uid,
            "__ts": ts,
            "__label": 1 if rating >= POSITIVE_RATING_THRESHOLD else 0,
            "hour": str(ts // 3600 % 24),
            "weekday": str((ts // 86400 + 3) % 7),  # 1970-01-01 was a Thursday
        }
        rec.update(movie)
        rec.update(user)
        records.append(rec)

    # a ratings line is a record or a malformed line, never both
    lines = len(records) + malformed[0]
    if malformed[0] > max_malformed_fraction * lines:
        raise DataError(f"{malformed[0]} malformed lines out of {lines} "
                        f"exceeds the {max_malformed_fraction:.0%} limit")
    if not records:
        raise DataError("no rating rows could be read")

    records.sort(key=lambda r: (r["__user"], r["__ts"]))
    return records

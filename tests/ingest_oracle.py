"""The per-record raw readers that the columnar ones in ``nhfm.movielens`` and
``nhfm.cli`` replaced, kept as an oracle: one ``dict`` per rating or JSON
line, sorted with one key per record. One change: the malformed-line limit
is taken over every non-empty line of the three MovieLens files, as the
program now takes it, where these readers divided by the ratings lines."""

import json
import re
from pathlib import Path

from nhfm.data import META_KEYS
from nhfm.errors import DataError

_YEAR_RE = re.compile(r"\((\d{4})\)\s*$")
_TS_RANGE = (-62_135_596_800, 253_402_300_799)


def _read_delimited(path, n_fields, counts):
    """Yield "::"-split rows with exactly n_fields parts; count the lines
    and the malformed ones."""
    with open(path, encoding="latin-1") as fh:
        for line in fh:
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            counts["lines"] += 1
            parts = line.split("::")
            if len(parts) != n_fields:
                counts["malformed"] += 1
                continue
            yield parts


def ingest_movielens(ratings_path, users_path, movies_path, max_malformed_fraction=0.01):
    counts = {"lines": 0, "malformed": 0}

    users = {}
    for uid, gender, age, occupation, zipcode in _read_delimited(Path(users_path), 5, counts):
        users[uid] = {"gender": gender, "age": age, "occupation": occupation,
                      "zip1": zipcode[:1] if zipcode else "?"}

    movies = {}
    for mid, title, genres in _read_delimited(Path(movies_path), 3, counts):
        year_match = _YEAR_RE.search(title)
        movies[mid] = {"movie_id": mid,
                       "genre": genres.split("|")[0] if genres else "?",
                       "release_year": int(year_match.group(1)) if year_match else None}

    records = []
    for uid, mid, rating_s, ts_s in _read_delimited(Path(ratings_path), 4, counts):
        user = users.get(uid)
        movie = movies.get(mid)
        try:
            rating = int(rating_s)
            ts = int(ts_s)
        except ValueError:
            counts["malformed"] += 1
            continue
        if (user is None or movie is None or not 1 <= rating <= 5
                or not _TS_RANGE[0] <= ts <= _TS_RANGE[1]):
            counts["malformed"] += 1
            continue
        rec = {"__user": uid, "__ts": ts, "__label": 1 if rating >= 4 else 0,
               "hour": str(ts // 3600 % 24), "weekday": str((ts // 86400 + 3) % 7)}
        rec.update(movie)
        rec.update(user)
        records.append(rec)

    if counts["malformed"] > max_malformed_fraction * counts["lines"]:
        raise DataError(f"{counts['malformed']} malformed lines out of {counts['lines']} "
                        f"exceeds the {max_malformed_fraction:.0%} limit")
    if not records:
        raise DataError("no rating rows could be read")

    records.sort(key=lambda r: (r["__user"], r["__ts"]))
    return records


def ingest_generic(path):
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise DataError(f"{path}:{lineno}: bad record: {exc}") from None
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: a record must be a JSON object")
            for key in META_KEYS:
                if key not in rec:
                    raise DataError(f"{path}:{lineno}: missing {key}")
            if rec["__label"] not in (0, 1):
                raise DataError(f"{path}:{lineno}: __label must be 0 or 1, "
                                f"got {rec['__label']!r}")
            records.append(rec)
    if not records:
        raise DataError(f"{path}: no records")
    try:
        records.sort(key=lambda r: (str(r["__user"]), r["__ts"]))
    except TypeError as exc:
        raise DataError(f"{path}: one user's __ts values cannot be ordered: {exc}") from None
    return records

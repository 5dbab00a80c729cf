"""Seeded input generator for the benchmark.

Writes raw input files only; the program under test receives nothing else.
It imports nothing from ``nhfm``, so every count it records is computed
apart from the code it checks.

    python3 benchmarks/gen.py movielens --seed 1 --users 240 --out DIR
    python3 benchmarks/gen.py fraud --seed 1 --users 600 --out DIR

``movielens`` writes MovieLens-1M-format ``ratings.dat``, ``users.dat`` and
``movies.dat``; ``fraud`` writes generic JSONL records to ``events.jsonl``.
Both write ``truth.json``: the generator's own counts (ratings, positives,
users, distinct tokens of the training fraction, feature count).
``movielens`` adds the AUC of the planted label probability on the valid
windows and sampled windows as the raw fields each real event should decode
to; ``fraud`` adds how many users, numbered from 0, may train a checkpoint
(the rest are scored).

Labels carry a planted signal with a cross-event part, so the sequence
branches have something to learn:

- movielens: logit = -0.3 + movie quality + genre offset + occupation offset
  + 1.0 if the first genre repeats one of the previous three ratings'
  + 0.3 for evening hours. Ratings >= 4 are the positives.
- fraud: positive iff the current event has f0=t0 and an event in the
  window's history has f0=t1 (the ``nhfm.synthetic`` rule), with 10 % of
  labels replaced by fair coin flips.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

import numpy as np

RATIOS = (0.8, 0.1, 0.1)
GENRES = ("Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
          "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
          "Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western")
AGES = ("1", "18", "25", "35", "45", "50", "56")
ML_CATEGORICAL = ("movie_id", "genre", "hour", "weekday", "gender", "age",
                  "occupation", "zip1")
N_SAMPLES = 24


def split_counts(m: int) -> tuple[int, int, int]:
    """Per-user (train, valid, test) counts: earliest 80 % train, then 10 %
    valid, then 10 % test; users with fewer than 3 events all train."""
    if m < 3:
        return m, 0, 0
    n_valid = max(1, int(m * RATIOS[1]))
    n_test = max(1, int(m * RATIOS[2]))
    return m - n_valid - n_test, n_valid, n_test


def split_of(j: int, m: int) -> tuple[str, int]:
    """Split tag and index within the user's part for chronological event j."""
    n_train, n_valid, _ = split_counts(m)
    if j < n_train:
        return "train", j
    if j < n_train + n_valid:
        return "valid", j - n_train
    return "test", j - n_train - n_valid


def rank_auc(scores, labels) -> float:
    """P(pos > neg) + 0.5 P(tie) by sorting; used for the planted oracle."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s))
    sorted_s = s[order]
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and sorted_s[j] == sorted_s[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)
        i = j
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    return float((ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _sample_users(users: list[str], rng: np.random.Generator) -> list[str]:
    return [users[i] for i in rng.choice(len(users), size=min(N_SAMPLES, len(users)),
                                          replace=False)]


# ---------------------------------------------------------------------------
# MovieLens-format streams


def gen_movielens(seed: int, n_users: int, out: Path) -> dict:
    rng = np.random.default_rng([seed, 11])
    n_movies = 4000
    years = rng.integers(1919, 2001, size=n_movies)
    movie_genres = []
    with open(out / "movies.dat", "w", encoding="latin-1") as fh:
        for m in range(n_movies):
            picks = rng.choice(len(GENRES), size=int(rng.integers(1, 4)), replace=False)
            movie_genres.append([GENRES[g] for g in picks])
            fh.write(f"{m + 1}::Movie {m + 1} ({years[m]})::{'|'.join(movie_genres[-1])}\n")
    first_genre = [g[0] for g in movie_genres]
    by_genre: dict[str, list[int]] = {}
    for m, g in enumerate(first_genre):
        by_genre.setdefault(g, []).append(m)

    # stream lengths and occupations cycle through fixed ranges in a seeded
    # order, so every seed has the same window count, padding and class mix
    lengths = rng.permutation(np.resize(np.arange(50, 91), n_users))
    occupations = rng.permutation(np.resize(np.arange(21), n_users))
    user_fields: dict[str, dict] = {}
    with open(out / "users.dat", "w", encoding="latin-1") as fh:
        for u in range(1, n_users + 1):
            gender = "MF"[int(rng.integers(2))]
            age = AGES[int(rng.integers(len(AGES)))]
            occupation = str(occupations[u - 1])
            zipcode = f"{int(rng.integers(100000)):05d}"
            user_fields[str(u)] = {"gender": gender, "age": age,
                                   "occupation": occupation, "zip1": zipcode[:1]}
            fh.write(f"{u}::{gender}::{age}::{occupation}::{zipcode}\n")

    quality = rng.normal(0.0, 0.5, size=n_movies)
    # evenly spaced offsets in a seeded order: the signal's strength is the
    # same for every seed, only which genre or occupation carries it changes
    genre_offset = dict(zip(GENRES, rng.permutation(np.linspace(-1.0, 1.0, len(GENRES)))))
    occupation_offset = rng.permutation(np.linspace(-2.5, 2.5, 21))
    popularity = 1.0 / (np.arange(n_movies) + 20.0)
    popularity /= popularity.sum()

    streams: dict[str, list[dict]] = {}
    with open(out / "ratings.dat", "w", encoding="latin-1") as fh:
        for u in range(1, n_users + 1):
            uid = str(u)
            length = int(lengths[u - 1])
            ts = int(rng.integers(956_703_932, 1_040_000_000))
            stream = []
            for j in range(length):
                if j and rng.random() < 0.3:
                    pool = by_genre[first_genre[stream[-1]["movie"]]]
                    movie = pool[int(rng.integers(len(pool)))]
                elif rng.random() < 0.5:
                    movie = int(rng.choice(n_movies, p=popularity))
                else:
                    movie = int(rng.integers(n_movies))
                ts += int(rng.exponential(3 * 3600)) + 1
                tm = time.gmtime(ts)
                genre = first_genre[movie]
                streak = any(first_genre[e["movie"]] == genre for e in stream[-3:])
                z = (-0.3 + quality[movie] + genre_offset[genre] + 1.0 * streak
                     + occupation_offset[int(user_fields[uid]["occupation"])]
                     + 0.3 * (tm.tm_hour >= 18))
                p = 1.0 / (1.0 + math.exp(-z))
                label = int(rng.random() < p)
                rating = int(rng.integers(4, 6)) if label else int(rng.integers(1, 4))
                fh.write(f"{uid}::{movie + 1}::{rating}::{ts}\n")
                stream.append({"movie": movie, "p": p, "label": label, "fields": {
                    "movie_id": str(movie + 1), "genre": genre,
                    "release_year": int(years[movie]), "hour": str(tm.tm_hour),
                    "weekday": str(tm.tm_wday), **user_fields[uid]}})
            streams[uid] = stream

    # the training fraction of every user, in the program's chronological split
    train_tokens = {f: set() for f in ML_CATEGORICAL}
    train_years = []
    for stream in streams.values():
        for ev in stream[:split_counts(len(stream))[0]]:
            for f in ML_CATEGORICAL:
                train_tokens[f].add(ev["fields"][f])
            train_years.append(ev["fields"]["release_year"])
    lo, hi = min(train_years), max(train_years)

    def expected(fields: dict) -> dict:
        out_fields = {f: (fields[f] if fields[f] in train_tokens[f] else "<OOV>")
                      for f in ML_CATEGORICAL}
        year = 0.0 if hi <= lo else (fields["release_year"] - lo) / (hi - lo)
        out_fields["release_year"] = min(1.0, max(0.0, year))
        return out_fields

    samples = []
    for uid in _sample_users(sorted(streams), rng):
        stream = streams[uid]
        j = int(rng.integers(len(stream)))
        tag, index = split_of(j, len(stream))
        samples.append({"user": uid, "split": tag, "index": index,
                        "label": stream[j]["label"],
                        "events": [expected(e["fields"])
                                   for e in stream[max(0, j - 9):j + 1]]})

    valid = [e for s in streams.values() for j, e in enumerate(s)
             if split_of(j, len(s))[0] == "valid"]
    all_events = [e for s in streams.values() for e in s]
    tokens = {f: len(v) for f, v in train_tokens.items()}
    return {
        "ratings": len(all_events),
        "positives": sum(e["label"] for e in all_events),
        "users": len(streams),
        "tokens": tokens,
        "n_features": sum(n + 1 for n in tokens.values()) + 1,
        "oracle_valid_auc": rank_auc([e["p"] for e in valid],
                                         [e["label"] for e in valid]),
        "samples": samples,
    }


# ---------------------------------------------------------------------------
# fraud-style generic JSONL streams


def gen_fraud(seed: int, n_users: int, out: Path) -> dict:
    rng = np.random.default_rng([seed, 23])
    t_max, n_fields, vocab = 8, 3, 8
    # the first half of the users (by number) may train a checkpoint and the
    # other half is scored; each half cycles through the same lengths
    fit_users = n_users // 2
    lengths = np.concatenate([rng.permutation(np.resize(np.arange(3, 13), half))
                              for half in (fit_users, n_users - fit_users)])
    streams: dict[str, list[dict]] = {}
    with open(out / "events.jsonl", "w", encoding="utf-8") as fh:
        for u in range(n_users):
            uid = f"u{u}"
            length = int(lengths[u])
            tokens = rng.integers(0, vocab, size=(length, n_fields))
            for j in range(1, length):
                if rng.random() < 0.35:
                    tokens[j, 0] = 0
                    tokens[int(rng.integers(max(0, j - (t_max - 1)), j)), 0] = 1
            stream = []
            for j in range(length):
                fires = tokens[j, 0] == 0 and any(
                    tokens[i, 0] == 1 for i in range(max(0, j - (t_max - 1)), j))
                label = int(fires) if rng.random() < 0.9 else int(rng.random() < 0.5)
                rec = {"__user": uid, "__ts": j, "__label": label,
                       **{f"f{k}": f"t{tokens[j, k]}" for k in range(n_fields)}}
                fh.write(json.dumps(rec) + "\n")
                stream.append(rec)
            streams[uid] = stream

    train_tokens = {f"f{k}": set() for k in range(n_fields)}
    for stream in streams.values():
        for rec in stream[:split_counts(len(stream))[0]]:
            for f in train_tokens:
                train_tokens[f].add(rec[f])
    records = [r for s in streams.values() for r in s]
    tokens = {f: len(v) for f, v in train_tokens.items()}
    return {
        "ratings": len(records),
        "positives": sum(r["__label"] for r in records),
        "users": len(streams),
        "fit_users": fit_users,
        "tokens": tokens,
        "n_features": sum(n + 1 for n in tokens.values()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kind", choices=("movielens", "fraud"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--users", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gen = gen_movielens if args.kind == "movielens" else gen_fraud
    truth = gen(args.seed, args.users, out)
    (out / "truth.json").write_text(json.dumps(truth, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

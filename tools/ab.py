"""Paired A/B timing of one benchmark workload in fresh processes.

    python3 tools/ab.py A_DIR B_DIR --workload train_paper --pairs 10
    python3 tools/ab.py A_DIR B_DIR --workload ingest_ml --pairs 10 --rounds 20
    python3 tools/ab.py A_DIR B_DIR --pairs 10 --rounds 12 --json out.json

A_DIR and B_DIR are two checkouts of this repository (for example
``git archive`` copies of a parent commit and of a change). The raw inputs
are generated once with A's ``benchmarks/gen.py`` and copied to one work
directory per tree. For ``train_paper`` each tree then writes its own files
with its ``benchmarks/workloads.py prep``; for ``ingest_ml`` each tree runs
one ingest round. One child per tree then reads those files with that
tree's own reader and hashes the schema text and every decoded
``EventStore`` array, and the run stops unless both trees give the same
SHA-256. So the trees may write different file formats, as long as they
prepare the same data. Each side then reads its own files.

Each pair runs one fresh child per tree, A first in odd pairs and B first
in even ones, with BLAS and OpenMP pinned to one thread and ``PYTHONPATH``
at that tree's ``src``. Each child repeats the workload's hot call
``--rounds`` times and reports, for each call, its times, CPU seconds, minor
page faults (``ru_minflt``) and the process's peak RSS (``ru_maxrss``) after
it, plus a digest of what it made:

- ``train_paper`` calls ``training.train`` for one epoch, with the
  benchmark's model and training config, and times it (``wall_s``); its
  digest covers the trained parameters and Adam moments.
- ``ingest_ml`` times ``cli.prepare_datasets`` on the MovieLens files plus
  the schema and the three ``.nhfmds`` writes (``write_s``), then the three
  reads (``read_s``), as a benchmark round does; its digest is that of the
  read-back stores.

The script prints each pair's per-call medians and B/A ratio for each time,
then the median ratios and the number of pairs in which B was faster. It
changes nothing under ``benchmarks/`` and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

USERS = {"train_paper": 190, "ingest_ml": 50}  # benchmarks/run.py's sizes
TIMES = {"train_paper": ("wall_s",), "ingest_ml": ("write_s", "read_s")}
FIGURES = ("cpu_s", "minflt", "maxrss_mb")
CHILD_TIMEOUT_S = 600

CHILD = r"""
import hashlib, json, resource, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from nhfm import dataset_io, training

work, workload, mode, rounds = Path(sys.argv[2]), sys.argv[3], sys.argv[4], int(sys.argv[5])
SPLITS = {"train_paper": ("train", "valid"), "ingest_ml": ("train", "valid", "test")}[workload]
folder = work / "out" if workload == "ingest_ml" else work


def store_digest(datasets):
    # the schema text and every decoded store array, whatever the file format
    digest = hashlib.sha256((folder / "schema.json").read_bytes())
    for ds in datasets:
        s = ds.store
        for a in (s.idx, s.val, s.count, s.rows, s.label, s.user):
            digest.update(f"{a.dtype.str} {a.shape}".encode())
            digest.update(a.tobytes())
        digest.update(json.dumps([ds.split, *s.users]).encode())
    return digest.hexdigest()


def read_back():
    schema = dataset_io.load_schema(folder / "schema.json")
    return [dataset_io.read_dataset(folder / f"{tag}.nhfmds", schema) for tag in SPLITS]


def ingest():
    # one benchmark round: ingest, encode, split and write, then read back
    folder.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    parts = workloads.preprocess(workloads.PAPER.t_max, kind="movielens",
                                 movielens_dir=str(work))
    dataset_io.save_schema(parts[0].schema, folder / "schema.json")
    for ds in parts:
        dataset_io.write_dataset(ds, folder / f"{ds.split}.nhfmds")
    t1 = time.perf_counter()
    back = read_back()
    t2 = time.perf_counter()
    return {"write_s": t1 - t0, "read_s": t2 - t1}, back


if mode == "digest":
    print(store_digest(ingest()[1] if workload == "ingest_ml" else read_back()))
    sys.exit(0)
if workload == "train_paper":
    train, valid = read_back()
out, digests, made = [], set(), None
for _ in range(rounds):
    made = None
    u0 = resource.getrusage(resource.RUSAGE_SELF)
    if workload == "ingest_ml":
        times, made = ingest()
    else:
        t0 = time.perf_counter()
        made = training.train(train, valid, workloads.PAPER, workloads.PAPER_TRAIN)
        times = {"wall_s": time.perf_counter() - t0}
    u1 = resource.getrusage(resource.RUSAGE_SELF)
    out.append({**times, "cpu_s": u1.ru_utime + u1.ru_stime - u0.ru_utime - u0.ru_stime,
                "minflt": u1.ru_minflt - u0.ru_minflt, "maxrss_mb": u1.ru_maxrss / 1024})
    if workload == "ingest_ml":
        digests.add(store_digest(made)[:16])
    else:
        digest = hashlib.sha256(made.params.flat.tobytes())
        for moment in (made.opt_state.m, made.opt_state.v):
            digest.update(moment.flat.tobytes())
        digests.add(digest.hexdigest()[:16])
print(json.dumps({"rounds": out, "digests": sorted(digests)}))
"""


def pinned_env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_child(tree: Path, inputs: Path, workload: str, mode: str, rounds: int = 0) -> str:
    done = subprocess.run([sys.executable, "-c", CHILD, str(tree / "benchmarks"), str(inputs),
                           workload, mode, str(rounds)], cwd=tree, env=pinned_env(tree),
                          check=True, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return done.stdout.strip().splitlines()[-1]


def prepare(trees: dict[str, Path], work: Path, workload: str, seed: int) -> dict[str, Path]:
    """Generate raw inputs once, let each tree prepare its own files, and
    return each side's work directory once both trees' files decode to the
    same stores and schema."""
    raw = work / "raw"
    subprocess.run([sys.executable, str(trees["A"] / "benchmarks" / "gen.py"), "movielens",
                    "--seed", str(seed), "--users", str(USERS[workload]), "--out", str(raw)],
                   check=True, stdout=subprocess.DEVNULL, env=pinned_env(trees["A"]))
    inputs, digests = {}, {}
    for side, tree in trees.items():
        inputs[side] = work / side
        shutil.copytree(raw, inputs[side])
        if workload == "train_paper":
            subprocess.run([sys.executable, str(tree / "benchmarks" / "workloads.py"), "prep",
                            workload, "--work", str(inputs[side])],
                           check=True, cwd=tree, env=pinned_env(tree))
        digests[side] = run_child(tree, inputs[side], workload, "digest")
    if digests["A"] != digests["B"]:
        raise SystemExit(f"the trees prepare different stores (decoded SHA-256 "
                         f"{digests['A'][:16]} against {digests['B'][:16]}); refusing to compare")
    print(f"both trees decode to the same stores and schema ({digests['A'][:16]})", flush=True)
    return inputs


def medians(run: dict, keys) -> dict:
    return {key: statistics.median(r[key] for r in run["rounds"]) for key in keys}


def describe(m: dict, times) -> str:
    return " ".join([*(f"{key[:-2]} {1e3 * m[key]:7.1f} ms" for key in times),
                     f"cpu {1e3 * m['cpu_s']:7.1f} ms {m['minflt']:7.0f} minflt "
                     f"{m['maxrss_mb']:6.1f} MB"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a_dir", type=Path)
    ap.add_argument("b_dir", type=Path)
    ap.add_argument("--workload", choices=sorted(USERS), default="train_paper")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--rounds", "--epochs", type=int, default=12,
                    help="hot calls per child: training epochs or ingest rounds")
    ap.add_argument("--seed", type=int, default=1, help="gen.py seed of the inputs")
    ap.add_argument("--json", type=Path, help="also write every child's figures here")
    args = ap.parse_args(argv)
    trees = {"A": args.a_dir.resolve(), "B": args.b_dir.resolve()}
    times = TIMES[args.workload]
    keys = (*times, *FIGURES)

    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs = prepare(trees, Path(tmp), args.workload, args.seed)
        for i in range(args.pairs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            runs = {side: json.loads(run_child(trees[side], inputs[side], args.workload,
                                               "time", args.rounds))
                    for side in order}
            per = {side: medians(runs[side], keys) for side in runs}
            ratios = {key: per["B"][key] / per["A"][key] for key in times}
            pairs.append({"first": order[0], "runs": runs, "medians": per, "b_over_a": ratios})
            print(f"pair {i + 1:2d} ({order[0]} first)  A {describe(per['A'], times)}  "
                  f"B {describe(per['B'], times)}  B/A "
                  + " ".join(f"{ratios[key]:.3f}" for key in times), flush=True)

    summary = {key: {side: statistics.median(p["medians"][side][key] for p in pairs)
                     for side in "AB"} for key in keys}
    digests = {side: sorted({d for p in pairs for d in p["runs"][side]["digests"]})
               for side in "AB"}
    print(f"median per call  A {describe({k: v['A'] for k, v in summary.items()}, times)}")
    print(f"median per call  B {describe({k: v['B'] for k, v in summary.items()}, times)}")
    for key in times:
        ratios = [p["b_over_a"][key] for p in pairs]
        print(f"B/A {key}: median {statistics.median(ratios):.3f}, per pair "
              + " ".join(f"{r:.3f}" for r in ratios))
        print(f"B faster in {sum(r < 1 for r in ratios)} of {len(ratios)} pairs ({key})")
    print(f"digests A {' '.join(digests['A'])}  B {' '.join(digests['B'])}  "
          f"({'equal' if digests['A'] == digests['B'] else 'DIFFERENT'})")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "rounds": args.rounds,
                                         "seed": args.seed, "pairs": pairs, "summary": summary,
                                         "digests": digests}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

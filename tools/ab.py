"""Paired A/B timing of one benchmark workload in fresh processes.

    python3 tools/ab.py A_DIR B_DIR --workload train_paper --pairs 10
    python3 tools/ab.py A_DIR B_DIR --pairs 10 --epochs 12 --json out.json

A_DIR and B_DIR are two checkouts of this repository (for example
``git archive`` copies of a parent commit and of a change). The raw inputs
are generated once with A's ``benchmarks/gen.py``; each tree then writes
the workload's own files with its ``benchmarks/workloads.py prep``, and the
run stops if the two trees write different ``.nhfmds`` or ``schema.json``
bytes. Both sides then read A's files.

Each pair runs one fresh child per tree, A first in odd pairs and B first
in even ones, with BLAS and OpenMP pinned to one thread and ``PYTHONPATH``
at that tree's ``src``. A ``train_paper`` child calls ``training.train``
for one epoch, with the benchmark's model and training config, ``--epochs``
times, and reports for each call its wall and CPU seconds, its minor page
faults (``ru_minflt``) and the process's peak RSS (``ru_maxrss``) after it,
plus a digest of the trained parameters and Adam moments. The script prints
each pair's per-epoch medians and B/A wall ratio, then the median ratio and
the number of pairs in which B was faster. It changes nothing under
``benchmarks/`` and is not part of the test suite.
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

USERS = 190  # benchmarks/run.py's train_paper size
FILES = ("schema.json", "train.nhfmds", "valid.nhfmds")
CHILD_TIMEOUT_S = 600

CHILD = r"""
import hashlib, json, resource, sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from nhfm import dataset_io, training

work, epochs = Path(sys.argv[2]), int(sys.argv[3])
schema = dataset_io.load_schema(work / "schema.json")
train, valid = (dataset_io.read_dataset(work / name, schema)
                for name in ("train.nhfmds", "valid.nhfmds"))
out, digests, result = [], set(), None
for _ in range(epochs):
    result = None
    u0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    result = training.train(train, valid, workloads.PAPER, workloads.PAPER_TRAIN)
    t1, u1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    out.append({"wall_s": t1 - t0,
                "cpu_s": u1.ru_utime + u1.ru_stime - u0.ru_utime - u0.ru_stime,
                "minflt": u1.ru_minflt - u0.ru_minflt,
                "maxrss_mb": u1.ru_maxrss / 1024})
    digest = hashlib.sha256(result.params.flat.tobytes())
    for moment in (result.opt_state.m, result.opt_state.v):
        digest.update(moment.flat.tobytes())
    digests.add(digest.hexdigest()[:16])
print(json.dumps({"epochs": out, "digests": sorted(digests)}))
"""


def pinned_env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
                OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def prepare(trees: dict[str, Path], work: Path, seed: int) -> Path:
    """Generate raw inputs once, let each tree write its files, and return
    A's work directory once every file is byte-equal across the trees."""
    raw = work / "raw"
    subprocess.run([sys.executable, str(trees["A"] / "benchmarks" / "gen.py"), "movielens",
                    "--seed", str(seed), "--users", str(USERS), "--out", str(raw)],
                   check=True, stdout=subprocess.DEVNULL, env=pinned_env(trees["A"]))
    for side, tree in trees.items():
        shutil.copytree(raw, work / side)
        subprocess.run([sys.executable, str(tree / "benchmarks" / "workloads.py"), "prep",
                        "train_paper", "--work", str(work / side)],
                       check=True, cwd=tree, env=pinned_env(tree))
    for name in FILES:
        if (work / "A" / name).read_bytes() != (work / "B" / name).read_bytes():
            raise SystemExit(f"the trees write different {name} bytes; refusing to compare")
    return work / "A"


def child(tree: Path, inputs: Path, epochs: int) -> dict:
    done = subprocess.run([sys.executable, "-c", CHILD, str(tree / "benchmarks"), str(inputs),
                           str(epochs)], cwd=tree, env=pinned_env(tree), check=True,
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    return json.loads(done.stdout.strip().splitlines()[-1])


def medians(run: dict) -> dict:
    return {key: statistics.median(e[key] for e in run["epochs"])
            for key in ("wall_s", "cpu_s", "minflt", "maxrss_mb")}


def describe(m: dict) -> str:
    return (f"{1e3 * m['wall_s']:7.1f} ms wall {1e3 * m['cpu_s']:7.1f} ms cpu "
            f"{m['minflt']:7.0f} minflt {m['maxrss_mb']:6.1f} MB")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a_dir", type=Path)
    ap.add_argument("b_dir", type=Path)
    ap.add_argument("--workload", choices=("train_paper",), default="train_paper")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--epochs", type=int, default=12, help="training.train calls per child")
    ap.add_argument("--seed", type=int, default=1, help="gen.py seed of the inputs")
    ap.add_argument("--json", type=Path, help="also write every child's figures here")
    args = ap.parse_args(argv)
    trees = {"A": args.a_dir.resolve(), "B": args.b_dir.resolve()}

    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs = prepare(trees, Path(tmp), args.seed)
        for i in range(args.pairs):
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            runs = {side: child(trees[side], inputs, args.epochs) for side in order}
            per = {side: medians(runs[side]) for side in runs}
            ratio = per["B"]["wall_s"] / per["A"]["wall_s"]
            pairs.append({"first": order[0], "runs": runs, "medians": per, "b_over_a": ratio})
            print(f"pair {i + 1:2d} ({order[0]} first)  A {describe(per['A'])}  "
                  f"B {describe(per['B'])}  B/A {ratio:.3f}", flush=True)

    ratios = [p["b_over_a"] for p in pairs]
    summary = {key: {side: statistics.median(p["medians"][side][key] for p in pairs)
                     for side in "AB"} for key in ("wall_s", "cpu_s", "minflt", "maxrss_mb")}
    digests = {side: sorted({d for p in pairs for d in p["runs"][side]["digests"]})
               for side in "AB"}
    print(f"median per-epoch  A {describe({k: v['A'] for k, v in summary.items()})}")
    print(f"median per-epoch  B {describe({k: v['B'] for k, v in summary.items()})}")
    print(f"B/A wall: median {statistics.median(ratios):.3f}, per pair "
          + " ".join(f"{r:.3f}" for r in ratios))
    print(f"B faster in {sum(r < 1 for r in ratios)} of {len(ratios)} pairs")
    print(f"digests A {' '.join(digests['A'])}  B {' '.join(digests['B'])}  "
          f"({'equal' if digests['A'] == digests['B'] else 'DIFFERENT'})")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "epochs": args.epochs,
                                         "seed": args.seed, "pairs": pairs, "summary": summary,
                                         "digests": digests}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload train_paper --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload ingest_ml --seed 1 --toy

Run from the repository root. Each run works in its own directory under
``.bench_work/`` and removes it at the end. Three processes run one after
another, each with BLAS and OpenMP pinned to one thread:

1. ``gen.py`` writes seeded raw inputs (it does not import ``nhfm``);
2. ``workloads.py prep`` makes the program's own files from them with the
   code under test (the model workloads only);
3. ``workloads.py run`` sets up, runs the workload, checks its outputs and
   reports, so its peak RSS is the workload's own.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer ones
and leaves the spans in ``.bench_out/spans-<workload>-<seed>.jsonl``.
``--toy`` shrinks every input and runs one round with no time bound.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# generator users per workload: (full size, toy size)
USERS = {"train_paper": ("movielens", 190, 30), "score_short": ("fraud", 180, 24),
         "ingest_ml": ("movielens", 50, 8)}
RUN_TIMEOUT_S = 170


def step(args: list[str], env: dict, deadline: float) -> str:
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()),
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"step failed ({done.returncode}): {' '.join(args)}")
    return done.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nhfm benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(USERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if not (ROOT / "src" / "nhfm" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'nhfm'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    kind, users, toy_users = USERS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    toy = ["--toy"] if args.toy else []
    try:
        step([str(HERE / "gen.py"), kind, "--seed", str(args.seed),
              "--users", str(toy_users if args.toy else users), "--out", str(work)],
             env, deadline)
        common = [args.workload, "--work", str(work), *toy]
        step([str(HERE / "workloads.py"), "prep", *common], env, deadline)
        trace = (["--spans", str(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl")]
                 if args.trace else [])
        out = step([str(HERE / "workloads.py"), "run", *common, "--seconds",
                    str(args.seconds), *trace], env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = json.loads(out.strip().splitlines()[-1])
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "problems": result["problems"], "info": result["info"]}),
          file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

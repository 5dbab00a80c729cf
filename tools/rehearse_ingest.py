"""Ingest rehearsal: time ``nhfm preprocess`` on generated MovieLens files.

    python3 tools/rehearse_ingest.py --users 1400
    python3 tools/rehearse_ingest.py --users 14000

Writes MovieLens-format files with ``benchmarks/gen.py`` (seed 1) into a
temporary directory, runs ``nhfm preprocess`` on them in a child process
whose address space is capped at 5 GiB and prints one JSON
line: the child's wall seconds, CPU seconds and peak RSS, the ratings
written, and its exit code. ``--users 14000`` gives about 1M ratings, the
size of ML-1M. Run it from the repository root; it is not part of the
test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 5 * 2**30  # address-space cap of the preprocess child, in bytes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--users", type=int, required=True)
    args = ap.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def cap():  # runs in the child only, before it starts Python
        resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        subprocess.run([sys.executable, str(ROOT / "benchmarks" / "gen.py"), "movielens",
                        "--seed", "1", "--users", str(args.users),
                        "--out", str(work)], check=True, stdout=subprocess.DEVNULL, env=env)
        ratings = json.loads((work / "truth.json").read_text(encoding="utf-8"))["ratings"]
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "nhfm.cli", "preprocess", "--out", str(work / "run"),
             "--set", "dataset.kind=movielens", "--set", f"dataset.movielens_dir={work}"],
            env=env, stdout=subprocess.DEVNULL, preexec_fn=cap)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"users": args.users, "ratings": ratings, "exit": child.returncode,
                      "wall_s": round(wall, 3),
                      "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
                      "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())

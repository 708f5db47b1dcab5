#!/usr/bin/env python3
"""Run the benchmark once per seed and workload, saving each run's output.

    python3 perfbench/sweep.py OUT_DIR [--workloads W,...] [--seeds 1-10]
                               [--seconds S]

Writes OUT_DIR/<workload>/seed<N>.out (the standard output of run.py), the
layout compare.py reads. Runs are untraced (--trace 0), since compare.py
compares end-to-end metrics; make traced runs one at a time with run.py.
--seconds defaults to BENCHMARK.json's run_seconds. Runs are sequential; a
failing run is reported and the sweep continues.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    status = 0
    for workload in args.workloads.split(","):
        out = Path(args.out_dir) / workload
        out.mkdir(parents=True, exist_ok=True)
        for seed in args.seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                   workload, "--seed", str(seed), "--seconds",
                   str(args.seconds), "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               check=False)
            (out / f"seed{seed}.out").write_text(r.stdout)
            last = r.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"{workload} seed {seed}: exit {r.returncode} {last[0]}",
                  flush=True)
            status = status or r.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repository benchmark: build the harness, run one workload, report.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which builds the library
from the repository's sources) into .bench_build/, runs the harness, checks
its outputs and prints, as the last line of standard output, one JSON
object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
(--trace 0) report the end-to-end metrics, traced runs the per-layer ones;
the lines before it give the run record, every check and each metric's
sample count. Traced runs also write the spans as Chrome trace-event JSON
and as per-layer self times under .bench_build/out/.

Exit status: 0 when every output check passed; 1 when a check failed (the
result line is still printed) or the harness did not finish; 2 when the
repository sources or the toolchain are missing (nothing is printed).
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "out"
WORKLOADS = ("train-skew", "train-dense", "serve-mix")
HARNESS_TIMEOUT_S = 170

# The tail of each workload's unit latency: p90 of 100+ training steps, p99
# of thousands of requests — each the highest percentile with at least ten
# samples beyond it at the run sizes the harness enforces. Serving takes the
# p99 of each window of 1000+ consecutive requests and reports the median
# window, so one scheduling hiccup of a shared machine moves one window.
TAIL_PERCENTILE = {"train-skew": 90, "train-dense": 90, "serve-mix": 99}
TAIL_WINDOW = {"serve-mix": 1000}

# Names and units of the metrics come from BENCHMARK.json. An end-to-end
# metric is the median of the harness's samples under its own name or, for
# these, under the raw key given here. A per-layer metric is the median of
# its samples (or its single measured value); a name ending in _p99 is the
# nearest-rank p99.
RAW_KEY = {"p50_ms": "latency_ms", "forward_ms_p50": "forward_ms"}


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the sources the benchmark builds: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in (ROOT / "src", ROOT / "cmake", BENCH_DIR):
        files += [p for p in d.rglob("*") if p.is_file()]
    for p in sorted(files):
        if "__pycache__" in p.parts:
            continue
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, check=False)
    return r.stdout.strip() or "unknown"


def build():
    """Configures once, then builds the harness (incremental)."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                      "perfbench", "-j", jobs])
        for cmd in steps:
            # Build output goes to stderr: stdout ends with the result line.
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               check=False)
            if r.returncode != 0:
                fail("build failed: " + " ".join(cmd), 2)
    return BUILD_DIR / "perfbench"


def reduce_metric(raw, key, how, workload):
    """(value, sample count, note) of one metric from the raw result."""
    if key in raw["values"]:
        if raw["values"][key] is None:  # not finite
            raise KeyError(key)
        return raw["values"][key], 1, ""
    samples = raw["samples"].get(key)
    if not samples or any(v is None for v in samples):
        raise KeyError(key)
    n = len(samples)
    if how == "tail":
        p = TAIL_PERCENTILE[workload]
        window = TAIL_WINDOW.get(workload)
        if window:
            value, k = stats.windowed_percentile(samples, p, window)
            return value, n, (f"p{p} of each of {k} windows, median; "
                              f"{stats.beyond(p, n // k)}+ samples beyond")
    elif how == "p99":
        p = 99
    else:
        return stats.median(samples), n, "median"
    note = f"p{p}, {stats.beyond(p, n)} samples beyond"
    return stats.percentile(samples, p), n, note


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found", 2)
    return json.loads(path.read_text())


def end_to_end(raw, workload, spec):
    out = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        out[name] = (m["unit"],) + reduce_metric(
            raw, RAW_KEY.get(name, name), "median", workload)
    return out


def tail(raw, workload):
    """Printed with the end-to-end metrics but not part of the result: on a
    shared machine the tail spreads too far between runs for any bound."""
    return {"tail_ms": ("ms",) + reduce_metric(raw, "latency_ms", "tail",
                                               workload)}


def per_layer(raw, workload, spec):
    out = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name == "trace.overhead_ms":
            traced = stats.median(raw["samples"]["trace.traced_ms"])
            plain = stats.median(raw["samples"]["trace.untraced_ms"])
            n = len(raw["samples"]["trace.traced_ms"])
            out[name] = (unit, traced - plain, n,
                         f"traced {traced:.4f} - untraced {plain:.4f} (p50)")
            continue
        how = "p99" if name.endswith("_p99") else "median"
        out[name] = (unit,) + reduce_metric(raw, name, how, workload)
    return out


def write_trace(raw, stem):
    spans = raw["spans"]
    with open(OUT_DIR / f"{stem}.trace.json", "w") as f:
        json.dump(stats.chrome_trace(spans), f)
    summary = stats.self_time_summary(spans)
    with open(OUT_DIR / f"{stem}.selftime.json", "w") as f:
        json.dump(summary, f, indent=1, sort_keys=True)
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", action="store_true",
                    help="corrupt one checked output (the check must fail)")
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"repository sources not found under {ROOT}", 2)
    spec = load_spec()
    binary = build()

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = OUT_DIR / f"{stem}.raw.json"
    if raw_path.exists():
        raw_path.unlink()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw_path)]
    if args.perturb:
        cmd.append("--perturb")
    started = time.monotonic()
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, timeout=HARNESS_TIMEOUT_S,
                           check=False)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s", 1)
    if r.returncode != 0 or not raw_path.exists():
        fail(f"harness exited with status {r.returncode}", 1)
    with open(raw_path) as f:
        raw = json.load(f)

    record = dict(raw["record"])
    record.update({"commit": commit(), "source_sha256": source_digest(),
                   "wall_s": round(time.monotonic() - started, 3)})
    print("record " + json.dumps(record, sort_keys=True))
    for c in raw["checks"]:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")

    try:
        metrics = per_layer(raw, args.workload, spec) if args.trace else \
            end_to_end(raw, args.workload, spec)
        shown = dict(metrics)
        if not args.trace:
            shown.update(tail(raw, args.workload))
    except KeyError as e:
        fail(f"harness did not measure {e}", 1)
    for name, (unit, value, n, note) in shown.items():
        kind = "metric" if name in metrics else "reported"
        print(f"{kind} {name} = {value:.6g} {unit} (n={n}{', ' + note if note else ''})")
    if args.trace:
        summary = write_trace(raw, stem)
        print("selftime " + json.dumps(summary, sort_keys=True))
        print(f"trace written to {OUT_DIR / (stem + '.trace.json')}")

    correct = bool(raw["checks"]) and all(c["ok"] for c in raw["checks"])
    result = {
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value, n, note) in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

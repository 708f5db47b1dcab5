#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds one file per run: the standard output of
`perfbench/run.py` (its last line is the result) saved as
<workload>/<anything>.out — perfbench/sweep.py writes exactly that layout.
For every workload x end-to-end metric the tool prints each set's median and
quartiles, each set's spread (inter-quartile distance over the median) and
whether the sets agree: both spreads within the metric's bound from
BENCHMARK.json and the new median not worse than the base median by more
than the bound. Exits 1 when any pair disagrees. Below the table it prints
each set's median machine probe per workload (a fixed loop timed at the
start of every run; see the run record): when the sets disagree and the
probes differ too, the machine changed speed between them. Stdlib only.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_set(directory):
    """{workload: {metric: [values]}} from a directory of run outputs."""
    runs = {}
    for path in sorted(Path(directory).glob("*/*.out")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        result = json.loads(lines[-1])
        per_metric = runs.setdefault(path.parent.name, {})
        for name, m in result["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
    return runs


def load_probes(directory):
    """{workload: [machine_probe_ms_start of each run]}."""
    probes = {}
    for path in sorted(Path(directory).glob("*/*.out")):
        for line in path.read_text().splitlines():
            if line.startswith("record "):
                record = json.loads(line[len("record "):])
                probes.setdefault(path.parent.name, []).append(
                    record["machine_probe_ms_start"])
    return probes


def worse_by(base, new, better):
    """How much worse `new` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base, new, spec):
    """Rows of (workload, metric, base stats, new stats, worse, agree)."""
    rows = []
    for workload in sorted(set(base) | set(new)):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = base.get(workload, {}).get(name)
            b = new.get(workload, {}).get(name)
            if not a or not b:
                rows.append((workload, name, None, None, None, False))
                continue
            sa, sb = stats.spread(a), stats.spread(b)
            worse = worse_by(stats.median(a), stats.median(b), m["better"])
            steady = sa <= bound and sb <= bound
            rows.append((workload, name, (stats.quartiles(a), sa, len(a)),
                         (stats.quartiles(b), sb, len(b)), worse,
                         steady and worse <= bound))
    return rows


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = compare(load_set(sys.argv[1]), load_set(sys.argv[2]), spec)
    print(f"{'workload':12} {'metric':17} {'bound':>5} | {'base q1':>9} "
          f"{'median':>9} {'q3':>9} {'spread':>6} {'n':>3} | {'new q1':>9} "
          f"{'median':>9} {'q3':>9} {'spread':>6} {'n':>3} | {'worse':>6}  verdict")
    ok = True
    for workload, name, a, b, worse, agree in rows:
        ok = ok and agree
        if a is None or b is None:
            print(f"{workload:12} {name:17} missing from one set")
            continue
        cells = []
        for (q1, q2, q3), s, n in (a, b):
            cells.append(f"{q1:9.4g} {q2:9.4g} {q3:9.4g} {s:6.3f} {n:3d}")
        print(f"{workload:12} {name:17} {bounds[name]:5.2f} | {cells[0]} | "
              f"{cells[1]} | {worse:+6.3f}  {'agree' if agree else 'DISAGREE'}")
    probes = [load_probes(d) for d in sys.argv[1:]]
    for workload in sorted(set(probes[0]) & set(probes[1])):
        a, b = (stats.median(p[workload]) for p in probes)
        print(f"{workload:12} machine probe median: base {a:.4g} ms, "
              f"new {b:.4g} ms ({b / a - 1:+.3f})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

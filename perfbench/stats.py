"""Statistics shared by run.py and compare.py.

Stdlib only. Percentiles are nearest-rank: the p-th percentile of n sorted
samples is the value at rank ceil(p/100 * n), so it is always a measured
sample, and `beyond(p, n)` samples lie strictly above that rank.
"""

import math
import statistics


def rank(p, n):
    """1-based nearest rank of the p-th percentile among n samples."""
    if n <= 0:
        raise ValueError("no samples")
    return min(n, max(1, math.ceil(p / 100.0 * n)))


def beyond(p, n):
    """Samples ranked above the p-th percentile of n samples."""
    return n - rank(p, n)


def percentile(values, p):
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def windowed_percentile(values, p, window):
    """Median over consecutive windows of at least `window` samples (a short
    last window joins the one before it) of each window's p-th percentile,
    and the number of windows. One noisy episode of the machine then moves
    one window, not the figure."""
    k = max(1, len(values) // window)
    bounds = [len(values) * i // k for i in range(k + 1)]
    tails = [percentile(values[bounds[i]:bounds[i + 1]], p) for i in range(k)]
    return median(tails), k


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def layer_of(span_name):
    """Spans are named '<layer>.<function>'."""
    return span_name.split(".", 1)[0]


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its direct children. `spans` are [name, parent, run, t0, t1]
    lists (microseconds); returns a list of self times in the same order."""
    covered = [0.0] * len(spans)
    for name, parent, run, t0, t1 in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
    return [(s[4] - s[3]) - covered[i] for i, s in enumerate(spans)]


def self_time_summary(spans):
    """Per-layer self times: totals over the run, and for step-rooted spans
    (run ids >= 1 under a 'bench.' root) the per-step median of each layer's
    self time plus how the self times of a step add up to its wall time."""
    own = self_times(spans)
    total = {}
    for span, t in zip(spans, own):
        layer = layer_of(span[0])
        total[layer] = total.get(layer, 0.0) + t / 1e3

    roots = {i for i, s in enumerate(spans) if s[1] < 0 and s[0].startswith("bench.")}
    per_step = {}   # root index -> {layer: self ms}
    for i, s in enumerate(spans):
        r = i
        while spans[r][1] >= 0:
            r = spans[r][1]
        if r in roots:
            layers = per_step.setdefault(r, {})
            layer = layer_of(s[0])
            layers[layer] = layers.get(layer, 0.0) + own[i] / 1e3
    summary = {"total_self_ms": total}
    if per_step:
        names = sorted({k for v in per_step.values() for k in v})
        summary["step_self_ms_median"] = {
            k: median([v.get(k, 0.0) for v in per_step.values()]) for k in names}
        walls = [(spans[r][4] - spans[r][3]) / 1e3 for r in per_step]
        sums = [sum(v.values()) for v in per_step.values()]
        glue = [v.get("bench", 0.0) for v in per_step.values()]
        summary["steps"] = len(per_step)
        summary["step_wall_ms_median"] = median(walls)
        summary["step_self_sum_ms_median"] = median(sums)
        # Share of a step's wall time spent inside layer calls (the rest is
        # the harness's own glue between them).
        summary["attributed_share_median"] = median(
            [1 - g / w for g, w in zip(glue, walls) if w > 0])
    return summary


def chrome_trace(spans):
    """Chrome trace-event JSON (complete events), one track."""
    events = []
    for name, parent, run, t0, t1 in spans:
        events.append({"name": name, "cat": layer_of(name), "ph": "X",
                       "ts": t0, "dur": t1 - t0, "pid": 1, "tid": 1,
                       "args": {"run": run}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}

#!/usr/bin/env python3
"""Compares benchmark runs of a parent (A) and a change (B).

  python3 benchmark/compare.py A.jsonl B.jsonl

Each file holds one document per line, as `run.sh --out FILE` appends them;
line i of A and line i of B form pair i (run them alternately, see
README.md). Prints one row per (workload, metric):

  improved    the change wins at least 9 of 10 pairs and the medians differ
              by more than the parent's own spread (quartile distance);
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the spread of either side exceeds the bound, and not every run
              of the change beats every run of the parent;
  unchanged   otherwise.

Per-layer metrics have no bound: they are listed with their medians, and
the quality diagnostics are held to fixed absolute tolerances.
Exit status 1 when any row regressed.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Absolute tolerances of the per-layer quality diagnostics (higher is better).
QUALITY_TOLERANCE = {"quality.legal_rate": 0.02, "quality.h2_bits": 0.05}


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def values(docs, workload, section, metric):
    out = []
    for d in docs:
        m = d["workloads"].get(workload, {}).get(section, {}).get(metric)
        if m is not None:
            out.append(m["value"])
    return out


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def spread(v):
    lo, med, hi = quartiles(v)
    return (hi - lo) / abs(med) if med else 0.0


def verdict(a, b, better, bound):
    """Classifies one end-to-end metric by the rules in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    med_a, med_b = statistics.median(a), statistics.median(b)
    lo_a, _, hi_a = quartiles(a)
    worse_by = -sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if max(spread(a), spread(b)) > bound:
        return "improved" if all_better else "unresolved"
    if worse_by > bound:
        return "regressed"
    pairs = min(len(a), len(b))
    if pairs and wins >= 0.9 * pairs and abs(med_b - med_a) > hi_a - lo_a:
        return "improved" if sign * (med_b - med_a) > 0 else "unchanged"
    return "unchanged"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    a, b = load(sys.argv[1]), load(sys.argv[2])
    regressed = False
    print("%-9s %-34s %12s %12s %8s  %s" %
          ("workload", "metric", "A median", "B median", "B/A", "verdict"))
    for w in [x["name"] for x in spec["workloads"]]:
        for m in spec["end_to_end"]:
            va, vb = (values(a, w, "metrics", m["name"]),
                      values(b, w, "metrics", m["name"]))
            if not va or not vb:
                continue
            v = verdict(va, vb, m["better"], m["bound"])
            regressed |= v == "regressed"
            ma, mb = statistics.median(va), statistics.median(vb)
            print("%-9s %-34s %12.4f %12.4f %8.3f  %s" %
                  (w, m["name"], ma, mb, mb / ma if ma else 0.0, v))
        for m in spec["per_layer"]:
            va, vb = (values(a, w, "layers", m["name"]),
                      values(b, w, "layers", m["name"]))
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            v = "layer"
            if m["name"] in QUALITY_TOLERANCE:
                v = ("regressed" if ma - mb > QUALITY_TOLERANCE[m["name"]]
                     else "unchanged")
                regressed |= v == "regressed"
            print("%-9s %-34s %12.4f %12.4f %8.3f  %s" %
                  (w, m["name"], ma, mb, mb / ma if ma else 0.0, v))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

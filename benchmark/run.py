#!/usr/bin/env python3
"""Benchmark runner: builds ppbench, trains its model once, runs workloads.

Run from the repository root (see benchmark/README.md):

  bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
      One run of one workload. The last line of stdout is
      {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
      of BENCHMARK.json, or with --trace 1 its per-layer metrics.
  bash benchmark/run.sh [--seed N] [--trace] [--out F]
      Every workload, each in its own process, as one JSON document: host,
      every metric with its unit, operations attempted and failed. --trace
      adds a traced run per workload (layer metrics, trace overhead). --out
      appends the document as one line to F, for compare.py.
  bash benchmark/run.sh --quick
      Smoke run at tiny sizes that checks every declared metric is reported.

Exit status: 0 when every output check passed, 1 otherwise.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ppbench")
RUN_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 600


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures once, then builds ppbench (a no-op when up to date)."""
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "ppbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "ppbench")


def prepare(binary, quick):
    """Trains the checkpoints once per binary; returns their directory."""
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    work = os.path.join(ROOT, ".bench_build", "work",
                        digest + ("-quick" if quick else ""))
    subprocess.run([binary, "prepare", "--work", work]
                   + (["--quick"] if quick else []),
                   check=True, stdout=sys.stderr, timeout=PREPARE_TIMEOUT_S)
    return work


def run_one(binary, work, workload, seed, seconds, trace, quick=False):
    """One ppbench process; returns its result document."""
    args = [binary, "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--work", work] + (["--quick"] if quick else [])
    p = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        raise RuntimeError("ppbench %s exited with %d" % (workload, p.returncode))
    result = json.loads(lines[-1])
    for failure in result["failures"]:
        log("%s: check failed: %s" % (workload, failure))
    return result


def declared(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def host_block(result):
    host = dict(result["host"])
    host["commit"] = commit()
    return host


def single(spec, binary, work, args):
    result = run_one(binary, work, args.workload, args.seed, args.seconds,
                     args.trace)
    source = result["layers" if args.trace else "e2e"]
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: source[n] for n in declared(spec, args.trace)}}
    print(json.dumps({"host": host_block(result)}))
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def every_workload(spec, binary, work, args):
    doc = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        plain = run_one(binary, work, w, args.seed, args.seconds, False)
        entry = {"attempted": plain["attempted"], "failed": plain["failed"],
                 "metrics": plain["e2e"]}
        ok = ok and plain["correct"]
        if args.trace:
            traced = run_one(binary, work, w, args.seed, args.seconds, True)
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["layers"] = traced["layers"]
            # Throughput lost to tracing, traced run against untraced run.
            traced_rate = traced["e2e"]["throughput"]["value"]
            if traced_rate > 0:
                entry["trace_overhead"] = (
                    plain["e2e"]["throughput"]["value"] / traced_rate - 1.0)
            ok = ok and traced["correct"]
        doc["workloads"][w] = entry
        doc.setdefault("host", host_block(plain))
    text = json.dumps(doc, indent=1)
    print(text)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(doc) + "\n")
    return 0 if ok else 1


def quick(spec, binary):
    """Every workload at tiny sizes, untraced and traced: the output must
    name exactly the metrics BENCHMARK.json declares, and pass its checks."""
    work = prepare(binary, quick=True)
    problems = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (False, True):
            result = run_one(binary, work, w, 1, 0.2, trace, quick=True)
            got = set(result["layers" if trace else "e2e"])
            want = set(declared(spec, trace))
            for name in sorted(want - got):
                problems.append("%s trace=%d: missing %s" % (w, trace, name))
            for name in sorted(got - want):
                problems.append("%s trace=%d: undeclared %s" % (w, trace, name))
            if not result["correct"]:
                problems.append("%s trace=%d: output checks failed" % (w, trace))
    for p in problems:
        log(p)
    print(json.dumps({"quick": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"])
    ap.add_argument("--out")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    args.trace = args.trace == "1"

    try:
        binary = build()
        if args.quick:
            return quick(spec, binary)
        work = prepare(binary, quick=False)
        if args.workload:
            return single(spec, binary, work, args)
        return every_workload(spec, binary, work, args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, KeyError) as e:
        log("benchmark: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())

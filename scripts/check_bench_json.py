#!/usr/bin/env python3
"""Validate PatternPaint bench logs and serve request logs.

Checks two kinds of files:

  * bench logs — stdout captures containing '{"bench": ..., "ms": ...}'
    summary lines (grep '^{"bench"' compatible), plus the acceptance lines
    of bench_expand;
  * wide-event request logs — the serve tier's NDJSON request log (one
    "serve.request" event per completed/rejected request, written by
    src/serve/server.cpp), schema-checked line by line.

Run reports are validated in C++ (obs::validate_run_report, exercised by
obs_test), not here.

Usage:
  check_bench_json.py --selfcheck
  check_bench_json.py --bench-log bench_stdout.txt [...]
  check_bench_json.py --request-log results/requests.ndjson [...]

Exit status 0 when every input validates, 1 otherwise. --selfcheck runs the
built-in fixtures (wired as a ctest so CI exercises the validator without
needing bench results on disk).
"""

import argparse
import json
import sys

# Kernel-bench ISA dimension (src/nn/simd.hpp Isa).
ISAS = ("scalar", "avx2", "avx512")
# Wide-event request-log schema (src/serve/server.cpp request_event).
REQLOG_STR_FIELDS = ("event", "op", "model", "outcome", "code")
REQLOG_NUM_FIELDS = ("ts_ms", "id", "seed", "count", "steps", "eta",
                     "queue_ms", "run_ms", "e2e_ms", "step_batches",
                     "batch_peak", "target_w", "target_h", "windows",
                     "waves")
REQLOG_OUTCOMES = ("ok", "rejected", "timeout", "cancelled", "error")
REQLOG_OPS = ("sample", "inpaint", "expand")
# Expansion-bench acceptance lines (bench_expand). expand_ab proves the
# wavefront schedule is a pure latency optimization: the canvases MUST be
# bitwise identical to the sequential schedule on the same plan, and on
# hosts with >= EXPAND_MIN_CPUS cores and an equally wide pool the
# wavefront must be >= EXPAND_SPEEDUP_MIN x faster. On narrower hosts the
# speedup gate is vacuous (batched windows have no cores to spread over —
# a 1-CPU container measures ~1.0x), mirroring the avx512 capability skip;
# the cpus/threads fields in the line are the evidence the gate consulted.
# expand_1024 is the arbitrary-size acceptance artifact: a streamed canvas
# of at least EXPAND_MIN_PIXELS with its quality counters attached.
EXPAND_AB_REQUIRED = {"sequential_ms", "speedup", "bitwise_identical",
                      "windows", "waves", "drc_pass_rate", "threads", "cpus"}
EXPAND_1024_REQUIRED = {"target_w", "target_h", "windows", "waves",
                        "windows_per_s", "seam_violations", "drc_pass_rate",
                        "threads", "cpus"}
EXPAND_SPEEDUP_MIN = 2.0
EXPAND_MIN_CPUS = 4
EXPAND_MIN_PIXELS = 1024 * 1024


def _num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_bench_line(doc):
    errs = []
    if not isinstance(doc, dict):
        return ["line is not a JSON object"]
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        errs.append("bench must be a non-empty string")
    if not _num(doc.get("ms")) or doc.get("ms", -1) < 0:
        errs.append("ms must be a non-negative number")
    # Optional kernel-bench fields (emit_json_summary overload).
    if "gflops" in doc and (not _num(doc["gflops"]) or doc["gflops"] < 0):
        errs.append("gflops must be a non-negative number")
    if "isa" in doc and doc["isa"] not in ISAS:
        errs.append(f"isa must be one of {list(ISAS)}")
    if doc.get("bench") == "expand_ab":
        missing = EXPAND_AB_REQUIRED - set(doc)
        if missing:
            errs.append(f"expand_ab line missing {sorted(missing)}")
        elif all(_num(doc[k]) for k in EXPAND_AB_REQUIRED):
            if doc["bitwise_identical"] != 1:
                errs.append("expand_ab: wavefront canvas diverged from the "
                            "sequential schedule (bitwise_identical != 1)")
            if not 0 <= doc["drc_pass_rate"] <= 1:
                errs.append("expand_ab: drc_pass_rate must be in [0, 1]")
            if (doc["cpus"] >= EXPAND_MIN_CPUS
                    and doc["threads"] >= EXPAND_MIN_CPUS
                    and doc["speedup"] < EXPAND_SPEEDUP_MIN):
                errs.append(
                    f"expand_ab: wavefront speedup {doc['speedup']:.2f}x "
                    f"below the {EXPAND_SPEEDUP_MIN}x floor on a "
                    f"{doc['cpus']:.0f}-CPU host")
    if doc.get("bench") == "expand_1024":
        missing = EXPAND_1024_REQUIRED - set(doc)
        if missing:
            errs.append(f"expand_1024 line missing {sorted(missing)}")
        elif all(_num(doc[k]) for k in EXPAND_1024_REQUIRED):
            if doc["target_w"] * doc["target_h"] < EXPAND_MIN_PIXELS:
                errs.append("expand_1024: canvas below the 1024x1024 "
                            "acceptance size")
            if doc["windows"] < 1 or doc["waves"] < 1:
                errs.append("expand_1024: windows and waves must be >= 1")
            if not 0 <= doc["drc_pass_rate"] <= 1:
                errs.append("expand_1024: drc_pass_rate must be in [0, 1]")
    for key, v in doc.items():
        if not isinstance(v, (str, int, float)) or isinstance(v, bool):
            errs.append(f"field '{key}' must be a scalar")
    return errs


def validate_request_event(doc):
    """Validates one wide-event request-log line (serve.request schema)."""
    errs = []
    if not isinstance(doc, dict):
        return ["line is not a JSON object"]
    for key in REQLOG_STR_FIELDS:
        if not isinstance(doc.get(key), str) or not doc.get(key):
            errs.append(f"{key} must be a non-empty string")
    for key in REQLOG_NUM_FIELDS:
        if not _num(doc.get(key)):
            errs.append(f"{key} must be a number")
    if isinstance(doc.get("event"), str) and doc["event"] != "serve.request":
        errs.append(f'event must be "serve.request", got "{doc["event"]}"')
    if isinstance(doc.get("op"), str) and doc["op"] not in REQLOG_OPS:
        errs.append(f"op must be one of {list(REQLOG_OPS)}")
    if (isinstance(doc.get("outcome"), str)
            and doc["outcome"] not in REQLOG_OUTCOMES):
        errs.append(f"outcome must be one of {list(REQLOG_OUTCOMES)}")
    if not isinstance(doc.get("joined_running"), bool):
        errs.append("joined_running must be a bool")
    if not isinstance(doc.get("cached"), bool):
        errs.append("cached must be a bool")
    for key in ("queue_ms", "run_ms", "e2e_ms", "step_batches", "batch_peak"):
        if _num(doc.get(key)) and doc[key] < 0:
            errs.append(f"{key} must be non-negative")
    return errs


def check_bench_log(path):
    errs = []
    lines = 0
    try:
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                if not raw.startswith('{"bench"'):
                    continue
                lines += 1
                try:
                    doc = json.loads(raw)
                except json.JSONDecodeError as e:
                    errs.append(f"{path}:{lineno}: {e}")
                    continue
                errs += [f"{path}:{lineno}: {e}" for e in validate_bench_line(doc)]
    except OSError as e:
        return [f"{path}: {e}"]
    if lines == 0:
        errs.append(f"{path}: no '{{\"bench\"' summary lines found")
    return errs


def check_request_log(path):
    errs = []
    lines = 0
    try:
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                if not raw.strip():
                    continue
                lines += 1
                try:
                    doc = json.loads(raw)
                except json.JSONDecodeError as e:
                    errs.append(f"{path}:{lineno}: {e}")
                    continue
                errs += [f"{path}:{lineno}: {e}"
                         for e in validate_request_event(doc)]
    except OSError as e:
        return [f"{path}: {e}"]
    if lines == 0:
        errs.append(f"{path}: request log is empty")
    return errs


def selfcheck():
    good_lines = [
        {"bench": "table2_inpaint_32px", "ms": 74.2},
        {"bench": "x", "ms": 0, "note": "scalar extras are fine"},
        {"bench": "conv_stem_32px_gemm_avx2", "ms": 0.5, "gflops": 12.3,
         "isa": "avx2"},
        {"bench": "conv_stem_32px_gemm_scalar", "ms": 1.5, "gflops": 4.1,
         "isa": "scalar"},
        {"bench": "gemm_mid_32px_avx512", "ms": 0.2, "gflops": 30.1,
         "isa": "avx512"},
        # Wide host: the >= 2x wavefront gate applies and is satisfied.
        {"bench": "expand_ab", "ms": 300.0, "sequential_ms": 900.0,
         "speedup": 3.0, "bitwise_identical": 1, "windows": 529,
         "waves": 45, "drc_pass_rate": 0.8, "threads": 8, "cpus": 8},
        # 1-CPU container: ~1.0x is expected and must PASS (gate vacuous).
        {"bench": "expand_ab", "ms": 620.7, "sequential_ms": 627.3,
         "speedup": 1.01, "bitwise_identical": 1, "windows": 529,
         "waves": 45, "drc_pass_rate": 0.006, "threads": 1, "cpus": 1},
        {"bench": "expand_1024", "ms": 18774.8, "target_w": 1024,
         "target_h": 1024, "windows": 16129, "waves": 253,
         "windows_per_s": 859.0, "seam_violations": 14388,
         "drc_pass_rate": 0.006, "threads": 1, "cpus": 1},
    ]
    bad_lines = [
        {"ms": 1.0},
        {"bench": "x"},
        {"bench": "", "ms": 1.0},
        {"bench": "x", "ms": "fast"},
        {"bench": "x", "ms": -1},
        {"bench": "x", "ms": 1, "extra": {}},
        {"bench": "x", "ms": 1, "gflops": -2.0},
        {"bench": "x", "ms": 1, "gflops": "fast"},
        {"bench": "x", "ms": 1, "isa": "sse9"},
        # Expand lines: a diverged canvas, a wide host below the 2x floor,
        # an undersized acceptance canvas, and missing accounting fields
        # are all failures.
        {"bench": "expand_ab", "ms": 300.0, "sequential_ms": 900.0,
         "speedup": 3.0, "bitwise_identical": 0, "windows": 529,
         "waves": 45, "drc_pass_rate": 0.8, "threads": 8, "cpus": 8},
        {"bench": "expand_ab", "ms": 800.0, "sequential_ms": 960.0,
         "speedup": 1.2, "bitwise_identical": 1, "windows": 529,
         "waves": 45, "drc_pass_rate": 0.8, "threads": 8, "cpus": 8},
        {"bench": "expand_ab", "ms": 300.0, "sequential_ms": 900.0,
         "speedup": 3.0, "bitwise_identical": 1, "windows": 529,
         "waves": 45, "drc_pass_rate": 1.5, "threads": 8, "cpus": 8},
        {"bench": "expand_ab", "ms": 300.0, "speedup": 3.0,
         "bitwise_identical": 1},
        {"bench": "expand_1024", "ms": 5000.0, "target_w": 512,
         "target_h": 512, "windows": 4000, "waves": 127,
         "windows_per_s": 800.0, "seam_violations": 10,
         "drc_pass_rate": 0.5, "threads": 1, "cpus": 1},
        {"bench": "expand_1024", "ms": 5000.0, "target_w": 1024,
         "target_h": 1024, "windows": 16129, "waves": 253},
    ]

    good_events = [
        {"event": "serve.request", "ts_ms": 12.5, "id": 7, "op": "sample",
         "model": "bench", "seed": 7, "count": 1, "steps": 4, "eta": -1.0,
         "outcome": "ok", "code": "none",
         "queue_ms": 0.4, "run_ms": 3.1,
         "e2e_ms": 3.6, "step_batches": 4, "batch_peak": 2,
         "target_w": 0, "target_h": 0, "windows": 0, "waves": 0,
         "joined_running": True, "cached": False},
        {"event": "serve.request", "ts_ms": 14.0, "id": 9, "op": "sample",
         "model": "bench", "seed": 7, "count": 1, "steps": 4, "eta": -1.0,
         "outcome": "ok", "code": "none",
         "queue_ms": 0.0, "run_ms": 0.0,
         "e2e_ms": 0.1, "step_batches": 0, "batch_peak": 0,
         "target_w": 0, "target_h": 0, "windows": 0, "waves": 0,
         "joined_running": False, "cached": True},
        {"event": "serve.request", "ts_ms": 13.0, "id": 8, "op": "inpaint",
         "model": "bench", "seed": 8, "count": 2, "steps": 0, "eta": 0.5,
         "outcome": "rejected", "code": "queue_full",
         "queue_ms": 0.0,
         "run_ms": 0.0, "e2e_ms": 0.0, "step_batches": 0, "batch_peak": 0,
         "target_w": 0, "target_h": 0, "windows": 0, "waves": 0,
         "joined_running": False, "cached": False},
        {"event": "serve.request", "ts_ms": 15.0, "id": 10, "op": "expand",
         "model": "bench", "seed": 11, "count": 1, "steps": 2, "eta": -1.0,
         "outcome": "ok", "code": "none",
         "queue_ms": 0.2, "run_ms": 45.0,
         "e2e_ms": 45.3, "step_batches": 6, "batch_peak": 3,
         "target_w": 48, "target_h": 32, "windows": 15, "waves": 7,
         "joined_running": False, "cached": False},
    ]
    bad_events = [
        {},
        {**good_events[0], "event": "serve.step"},
        {**good_events[0], "op": "train"},
        {**good_events[0], "outcome": "maybe"},
        {**good_events[0], "joined_running": 1},
        {**good_events[0], "cached": 1},
        {**good_events[0], "e2e_ms": "fast"},
        {**good_events[0], "run_ms": -1.0},
        {k: v for k, v in good_events[0].items() if k != "step_batches"},
        {k: v for k, v in good_events[0].items() if k != "windows"},
        {k: v for k, v in good_events[3].items() if k != "target_w"},
        {k: v for k, v in good_events[0].items() if k != "cached"},
    ]

    failures = []
    for doc in good_lines:
        if validate_bench_line(doc):
            failures.append(f"good line rejected: {validate_bench_line(doc)}")
    for i, doc in enumerate(bad_lines):
        if not validate_bench_line(doc):
            failures.append(f"bad line #{i} accepted")
    for doc in good_events:
        if validate_request_event(doc):
            failures.append(
                f"good event rejected: {validate_request_event(doc)}")
    for i, doc in enumerate(bad_events):
        if not validate_request_event(doc):
            failures.append(f"bad event #{i} accepted")

    for msg in failures:
        print(f"selfcheck FAIL: {msg}", file=sys.stderr)
    if not failures:
        print("selfcheck OK")
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench-log", action="append", default=[],
                    help="stdout capture with {\"bench\"...} summary lines")
    ap.add_argument("--request-log", action="append", default=[],
                    help="wide-event NDJSON request log (serve.request lines)")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run built-in fixtures instead of reading files")
    args = ap.parse_args()

    if args.selfcheck:
        return selfcheck()
    if not args.bench_log and not args.request_log:
        ap.error("nothing to check: pass --bench-log, --request-log, "
                 "or --selfcheck")

    errs = []
    for path in args.bench_log:
        errs += check_bench_log(path)
    for path in args.request_log:
        errs += check_request_log(path)
    for e in errs:
        print(f"FAIL: {e}", file=sys.stderr)
    if not errs:
        n = len(args.bench_log) + len(args.request_log)
        print(f"OK: {n} file(s) validated")
    return 0 if not errs else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validate PatternPaint serve request logs.

A request log is the serve tier's wide-event NDJSON log: one
"serve.request" event per completed or rejected request, written by
src/serve/server.cpp. Each line is schema-checked.

Usage:
  check_bench_json.py --selfcheck
  check_bench_json.py --request-log results/requests.ndjson [...]

Exit status 0 when every input validates, 1 otherwise. --selfcheck runs the
built-in fixtures (wired as a ctest so CI exercises the validator without
needing a request log on disk).
"""

import argparse
import json
import sys

# Wide-event request-log schema (src/serve/server.cpp request_event).
REQLOG_STR_FIELDS = ("event", "op", "model", "outcome", "code")
REQLOG_NUM_FIELDS = ("ts_ms", "id", "seed", "count", "steps", "eta",
                     "queue_ms", "run_ms", "e2e_ms", "step_batches",
                     "batch_peak", "target_w", "target_h", "windows",
                     "waves")
REQLOG_OUTCOMES = ("ok", "rejected", "timeout", "cancelled", "error")
REQLOG_OPS = ("sample", "inpaint", "expand")


def _num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


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
    ap.add_argument("--request-log", action="append", default=[],
                    help="wide-event NDJSON request log (serve.request lines)")
    ap.add_argument("--selfcheck", action="store_true",
                    help="run built-in fixtures instead of reading files")
    args = ap.parse_args()

    if args.selfcheck:
        return selfcheck()
    if not args.request_log:
        ap.error("nothing to check: pass --request-log or --selfcheck")

    errs = []
    for path in args.request_log:
        errs += check_request_log(path)
    for e in errs:
        print(f"FAIL: {e}", file=sys.stderr)
    if not errs:
        print(f"OK: {len(args.request_log)} file(s) validated")
    return 0 if not errs else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Builds the ASan/UBSan tree (PP_SANITIZE=ON) and runs the tier-1 test
# label under it. The parallel finish path must stay clean here: no shared
# mutable Rng, merge-after-join only.
#
# Usage: scripts/run_sanitized.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${PP_ASAN_BUILD_DIR:-build-asan}
JOBS=$(nproc 2>/dev/null || echo 4)

cmake -B "$BUILD_DIR" -S . -DPP_SANITIZE=ON
cmake --build "$BUILD_DIR" -j "$JOBS"

# halt_on_error keeps a sanitizer hit from hiding behind a green exit code;
# PP_THREADS unset → full pool width, so the parallel paths actually run.
export ASAN_OPTIONS=${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=0}
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}

# One tier-1 pass pinned to each kernel tier this build can actually run
# on this host (ppaint_cli isas: scalar always, avx2/avx512 when compiled
# in AND supported by cpuid), then one under native dispatch. Every kernel
# set — including the AVX-512 microkernels — gets sanitizer coverage, and
# hosts without the wide tiers skip them cleanly.
for isa in $("$BUILD_DIR"/examples/ppaint_cli isas); do
  echo "=== tier-1 under PP_FORCE_ISA=$isa ==="
  PP_FORCE_ISA="$isa" ctest --test-dir "$BUILD_DIR" -L tier1 \
      --output-on-failure -j "$JOBS" "$@"
done
echo "=== tier-1 under native ISA dispatch ==="
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j "$JOBS" "$@"

# Serve smoke: a real client/server round-trip (fork/exec + NDJSON pipes +
# executor thread + graceful shutdown) under the sanitizers. The tier-1
# label covers serve_test/serve_pipe_smoke; this adds the ppaint_cli
# client path.
echo "=== serve pipe round-trip ==="
"$BUILD_DIR"/examples/ppaint_cli client \
    "spawn:$BUILD_DIR/examples/ppaint_serve" 1 7 > /dev/null
echo "serve round-trip OK"

# Continuous-batching round-trip: a canned NDJSON session with mixed
# per-request sampler schedules (steps 2 / default / 8, mixed eta), plus
# an out-of-domain steps knob and a precision other than fp32 that must
# both come back as structured bad_request — all under the sanitizers,
# where a stale pointer in the latent re-pack would burn.
# The metrics/health ops are sent mid-load (between generation requests)
# so the rolling-window scrape path runs concurrently with the executor.
echo "=== serve continuous-batching round-trip ==="
reqlog=$(mktemp /tmp/pp_reqlog.XXXXXX)
cont_out=$("$BUILD_DIR"/examples/ppaint_serve pipe --request-log "$reqlog" <<'NDJSON'
{"id":1,"op":"load","model":"cb","preset":"sd1","clip":16,"timesteps":40,"sample_steps":4,"base_channels":6,"time_dim":16}
{"id":2,"op":"sample","model":"cb","seed":11,"count":2,"steps":8,"eta":0.8}
{"id":3,"op":"sample","model":"cb","seed":12,"count":1,"steps":2,"eta":0.0}
{"id":7,"op":"metrics"}
{"id":4,"op":"sample","model":"cb","seed":13,"count":1}
{"id":8,"op":"health"}
{"id":5,"op":"sample","model":"cb","seed":14,"steps":1}
{"id":9,"op":"sample","model":"cb","seed":15,"count":1,"steps":2}
{"id":10,"op":"sample","model":"cb","seed":15,"count":1,"steps":2,"precision":"int8"}
{"id":6,"op":"shutdown"}
NDJSON
)
for marker in '"patterns":' '"code":"bad_request"' '"draining":true' \
    '"snapshot":"pp.metrics.v1"' '"rolling":' '"status":' '"accepting":'; do
  if ! grep -qF "$marker" <<<"$cont_out"; then
    echo "continuous round-trip missing $marker:" >&2
    echo "$cont_out" >&2
    exit 1
  fi
done
ok_count=$(grep -cF '"ok":true' <<<"$cont_out")
if [ "$ok_count" -lt 7 ]; then  # load ack + 4 generations + metrics + health
  echo "continuous round-trip: expected >=7 ok responses, got $ok_count:" >&2
  echo "$cont_out" >&2
  exit 1
fi
if ! grep -F '"id":10,' <<<"$cont_out" | grep -qF '"code":"bad_request"'; then
  echo "continuous round-trip: int8 request not refused as bad_request:" >&2
  echo "$cont_out" >&2
  exit 1
fi
# The wide-event request log must account for the 5 generation requests
# that reached admission (4 ok + the bad-steps reject) and schema-validate.
# The int8 line is refused by the parser, so it never reaches the log.
python3 scripts/check_bench_json.py --request-log "$reqlog"
reqlog_lines=$(grep -c . "$reqlog")
if [ "$reqlog_lines" -ne 5 ]; then
  echo "request log: expected 5 lines, got $reqlog_lines:" >&2
  cat "$reqlog" >&2
  exit 1
fi
rm -f "$reqlog"
echo "serve continuous-batching round-trip OK (telemetry scraped mid-load)"

# Expansion round-trip: the serve-side `expand` request type (wavefront
# tiled outpainting) in its own session with its own request log — a small
# ok canvas, an admission reject (target below the clip), and a big canvas
# cancelled mid-expansion (the scheduler aborts between waves; a cancelled
# run must never insert into the generation cache). Under the sanitizers a
# stale WindowWork pointer in the feed/commit path or a canvas
# double-commit would burn.
echo "=== serve expand round-trip ==="
xreqlog=$(mktemp /tmp/pp_xreqlog.XXXXXX)
expand_out=$("$BUILD_DIR"/examples/ppaint_serve pipe --request-log "$xreqlog" <<'NDJSON'
{"id":1,"op":"load","model":"xp","preset":"sd1","clip":16,"timesteps":40,"sample_steps":4,"base_channels":6,"time_dim":16}
{"id":2,"op":"expand","model":"xp","seed":31,"target_w":32,"target_h":32,"steps":2}
{"id":3,"op":"expand","model":"xp","seed":32,"target_w":8,"target_h":8,"steps":2}
{"id":4,"op":"expand","model":"xp","seed":33,"target_w":256,"target_h":256,"steps":2}
{"id":5,"op":"cancel","target":4}
{"id":6,"op":"shutdown"}
NDJSON
)
for marker in '"expand":' '"windows":' '"waves":' '"code":"bad_request"' \
    '"code":"cancelled"'; do
  if ! grep -qF "$marker" <<<"$expand_out"; then
    echo "expand round-trip missing $marker:" >&2
    echo "$expand_out" >&2
    exit 1
  fi
done
# All three expand requests (ok + reject + cancelled) must be in the wide-
# event log with the expand accounting fields, and schema-validate.
python3 scripts/check_bench_json.py --request-log "$xreqlog"
expand_logged=$(grep -cF '"op":"expand"' "$xreqlog")
if [ "$expand_logged" -ne 3 ]; then
  echo "request log: expected 3 expand lines, got $expand_logged:" >&2
  cat "$xreqlog" >&2
  exit 1
fi
if ! grep -qF '"target_w":32' "$xreqlog"; then
  echo "request log: expand target dims not logged:" >&2
  cat "$xreqlog" >&2
  exit 1
fi
rm -f "$xreqlog"
echo "serve expand round-trip OK (ok + bad_request + cancelled)"

# Network-tier round-trip: ppaint_cli spawns ppaint_serve in tcp mode on a
# kernel-assigned port and drives a generation through the epoll loop —
# accept, nonblocking line framing, async response sink, graceful shutdown
# — all under the sanitizers, where a use-after-close on a connection
# buffer or a data race between the loop and an executor thread would burn.
echo "=== serve tcp round-trip ==="
"$BUILD_DIR"/examples/ppaint_cli client \
    "spawntcp:$BUILD_DIR/examples/ppaint_serve" 1 7 > /dev/null
echo "serve tcp round-trip OK"

# Cache determinism over TCP: the same request twice on one connection —
# the second response must be served from the generation cache and be
# byte-identical to the cold one (the cache stores completed responses;
# determinism makes that exact).
echo "=== serve tcp cache determinism ==="
tcp_portfile=$(mktemp /tmp/pp_port.XXXXXX)
rm -f "$tcp_portfile"
"$BUILD_DIR"/examples/ppaint_serve tcp 127.0.0.1:0 \
    --port-file "$tcp_portfile" --cache 32 2>/dev/null &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "$tcp_portfile" ] && break; sleep 0.1; done
tcp_port=$(cat "$tcp_portfile")
python3 - "$tcp_port" <<'PY'
import json, socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
f = s.makefile("rw")
def rpc(obj):
    f.write(json.dumps(obj) + "\n"); f.flush()
    return json.loads(f.readline())
rpc({"id": 1, "op": "load", "model": "d", "preset": "sd1", "clip": 16,
     "timesteps": 40, "sample_steps": 4, "base_channels": 6, "time_dim": 16})
req = {"op": "sample", "model": "d", "seed": 21, "count": 1, "steps": 2}
cold = rpc({**req, "id": 2})
warm = rpc({**req, "id": 3})
assert cold["ok"] and warm["ok"], (cold, warm)
assert not cold["cached"] and warm["cached"], (cold["cached"], warm["cached"])
assert cold["patterns"] == warm["patterns"], "cache hit not byte-identical"
assert cold["legal"] == warm["legal"]
rpc({"id": 4, "op": "shutdown"})
PY
wait "$serve_pid"
rm -f "$tcp_portfile"
echo "serve tcp cache determinism OK"

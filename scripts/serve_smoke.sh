#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the resident experiment server
# (docs/SERVE.md), the CI counterpart of tests/test_serve.cpp:
#
#   1. start mapg_served on an ephemeral port;
#   2. drive a request mix through mapg_client: ping, a cell that computes,
#      the same cell again (hot tier), a sweep, stats, and a cell on a
#      platform no model can be built for (an error reply naming the key,
#      after which the server still answers a ping);
#   3. byte-identity: the server's embedded result JSON for a cell must be
#      identical to an in-process engine run of the same cell
#      (`mapg_client --local=1`), including for concurrent identical
#      requests racing each other;
#   4. clean shutdown on SIGTERM (exit 0 after draining).
#
# Usage: scripts/serve_smoke.sh [build_dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SERVED="$BUILD/tools/mapg_served"
CLIENT="$BUILD/tools/mapg_client"
for bin in "$SERVED" "$CLIENT"; do
  [ -x "$bin" ] || { echo "FATAL: $bin not built"; exit 1; }
done

tmp=$(mktemp -d)
server_pid=""
cleanup() {
  [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

CELL_ARGS=(--workload=mcf-like --policy=mapg
           --instructions=40000 --warmup=8000 --seed=1)

# --- 1. start on an ephemeral port, scrape it from the banner -------------
"$SERVED" --port=0 --jobs=2 > "$tmp/served.log" 2> "$tmp/served.err" &
server_pid=$!
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^listening on .*:\([0-9]*\)$/\1/p' "$tmp/served.log")
  [ -n "$port" ] && break
  kill -0 "$server_pid" 2>/dev/null || { cat "$tmp/served.err"; exit 1; }
  sleep 0.1
done
[ -n "$port" ] || { echo "FATAL: server never announced its port"; exit 1; }
echo "server up on port $port (pid $server_pid)"

C=("$CLIENT" --port="$port")

# --- 2. request mix -------------------------------------------------------
"${C[@]}" ping
"${C[@]}" cell "${CELL_ARGS[@]}" > "$tmp/cell1.json"
grep -q '"tier":"compute"' "$tmp/cell1.json" \
  || { echo "FAIL: first cell did not compute"; cat "$tmp/cell1.json"; exit 1; }
"${C[@]}" cell "${CELL_ARGS[@]}" > "$tmp/cell2.json"
grep -q '"tier":"hot"' "$tmp/cell2.json" \
  || { echo "FAIL: repeat cell missed the hot tier"; cat "$tmp/cell2.json"; exit 1; }
"${C[@]}" sweep --workload=mcf-like,gcc-like --policy=none,mapg --seeds=1 \
  --instructions=40000 --warmup=8000 --seed=1 --summary=1
"${C[@]}" stats > "$tmp/stats.json"
grep -q '"computed"' "$tmp/stats.json" \
  || { echo "FAIL: stats missing serve counters"; cat "$tmp/stats.json"; exit 1; }
if "${C[@]}" cell "${CELL_ARGS[@]}" --dram.channels=0 > "$tmp/bad.json" \
    2> "$tmp/bad.err"; then
  echo "FAIL: a zero-channel cell was answered"; cat "$tmp/bad.json"; exit 1
fi
grep -q 'dram.channels=0' "$tmp/bad.err" \
  || { echo "FAIL: error reply does not name the key"; cat "$tmp/bad.err"; exit 1; }
"${C[@]}" ping
echo "bad platform: error reply, server still serving"

# --- 3. byte-identity vs a local in-process engine run --------------------
"${C[@]}" cell "${CELL_ARGS[@]}" --result-only=1 > "$tmp/from_server.json"
"$CLIENT" cell "${CELL_ARGS[@]}" --local=1 > "$tmp/from_engine.json"
cmp "$tmp/from_server.json" "$tmp/from_engine.json" \
  || { echo "FAIL: server result differs from direct engine run"; exit 1; }
echo "byte-identity: server == direct engine"

# Concurrent identical requests (racing connections) must all return those
# same bytes — the coalescer's contract from the outside.
seed=77
pids=()
for i in 1 2 3 4; do
  "${C[@]}" cell --workload=gcc-like --policy=mapg --instructions=40000 \
    --warmup=8000 --seed=$seed --result-only=1 > "$tmp/race$i.json" &
  pids+=($!)
done
for pid in "${pids[@]}"; do wait "$pid"; done
"$CLIENT" cell --workload=gcc-like --policy=mapg --instructions=40000 \
  --warmup=8000 --seed=$seed --local=1 > "$tmp/race_ref.json"
for i in 1 2 3 4; do
  cmp "$tmp/race$i.json" "$tmp/race_ref.json" \
    || { echo "FAIL: concurrent request $i diverged"; exit 1; }
done
echo "byte-identity: 4 concurrent identical requests == direct engine"

# --- 4. clean SIGTERM -----------------------------------------------------
kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
[ "$rc" -eq 0 ] || { echo "FAIL: SIGTERM exit code $rc"; exit 1; }
grep -q "signal" "$tmp/served.err" \
  || { echo "FAIL: server did not report signal-driven exit"; exit 1; }
echo "clean SIGTERM shutdown"
echo "serve_smoke: OK"

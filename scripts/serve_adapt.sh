#!/bin/sh
# serve_adapt.sh — adaptive-governor A/B gate.
#
# Both runs boot a one-shard wispd with a deliberately mis-sized static
# batch width (1: scalar serving) and replay the same shifting wispload
# mix — a record-op warmup that keeps the governor's telemetry honest
# about a non-RSA phase, then a sustained rsa-decrypt burst.  The only
# difference between the runs is -govern: the static run is stuck at
# width 1, the governed run must observe the decrypt stream and widen
# the batch engine at runtime.  1024-bit keys make the burst
# compute-bound (at 512 bits the HTTP round trip dominates and dilutes
# the batched engine's gain below the gate's threshold).
#
# Asserted: the governed run logs at least one width adaptation, its
# metrics dump shows governor widen ticks and batched RSA serving, both
# runs finish with zero digest mismatches (wispload exits non-zero on
# any), and benchcmp proves the governed run recovers >=15% throughput
# over the mis-sized static run.  The governed record is written to
# $BENCH_JSON (default BENCH_adapt.json) for CI artifacts.  The governed
# run's width-reversal count (a widen after a shrink, or a shrink after a
# widen) is printed for the record; no bound is asserted on it yet.
#
# A fast -govern-tick makes adaptation land within the burst's first
# fraction of a second.
set -eu

BIN="${BIN:-bin}"
BENCH_JSON="${BENCH_JSON:-BENCH_adapt.json}"
TMP="$(mktemp -d)"
WISPD_PID=""

collect_artifacts() {
    if [ -n "${ARTIFACT_DIR:-}" ]; then
        mkdir -p "$ARTIFACT_DIR"
        cp "$TMP"/*.log "$TMP"/*.json "$ARTIFACT_DIR"/ 2>/dev/null || true
    fi
}
trap 'status=$?; [ -n "$WISPD_PID" ] && kill "$WISPD_PID" 2>/dev/null || true; [ "$status" -ne 0 ] && collect_artifacts; rm -rf "$TMP"; exit $status' EXIT INT TERM

# boot_wispd LOGNAME ARGS... — start a daemon, wait for its address file.
boot_wispd() {
    log="$1"; shift
    : >"$TMP/addr"
    "$BIN/wispd" -addr 127.0.0.1:0 -addrfile "$TMP/addr" "$@" >"$TMP/$log" 2>&1 &
    WISPD_PID=$!
    i=0
    while [ ! -s "$TMP/addr" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "serve-adapt: wispd never came up" >&2
            cat "$TMP/$log" >&2
            exit 1
        fi
        sleep 0.1
    done
    ADDR="$(cat "$TMP/addr")"
}

# drain_wispd LOGNAME — SIGTERM, clean exit, drain banner required.
drain_wispd() {
    kill -TERM "$WISPD_PID"
    wait "$WISPD_PID"
    WISPD_PID=""
    grep -q "drained cleanly" "$TMP/$1" || {
        echo "serve-adapt: daemon did not drain cleanly" >&2
        cat "$TMP/$1" >&2
        exit 1
    }
}

# run_mix LOADLOG BENCHOUT — the shared shifting workload: a record-op
# phase (no RSA: an adapted width must not be won here), then the
# sustained decrypt burst both runs are measured on.
run_mix() {
    "$BIN/wispload" -addr "$ADDR" -clients 4 -n 30 -ops record -mix 1k \
        -seed 7 >"$TMP/$1.warm"
    "$BIN/wispload" -addr "$ADDR" -clients 8 -n 300 -ops rsa-decrypt -mix 1k \
        -seed 3 -bench-out "$TMP/$2" >"$TMP/$1"
}

# ---- Run A: static, mis-sized for the decrypt burst ----
boot_wispd wispd_static.log -shards 1 -seed 1 -batch-width 1 \
    -rsabits 1024 -metrics
echo "serve-adapt: static width-1 run on $ADDR"
run_mix load_static.log bench_static.json
drain_wispd wispd_static.log

# ---- Run B: same daemon shape, governed ----
boot_wispd wispd_gov.log -shards 1 -seed 1 -batch-width 1 \
    -rsabits 1024 -govern -govern-tick 25ms -metrics
echo "serve-adapt: governed run on $ADDR (tick 25ms)"
run_mix load_gov.log bench_gov.json
drain_wispd wispd_gov.log

grep -E 'governor: batch width' "$TMP/wispd_gov.log" || true
grep -q 'governor: batch width' "$TMP/wispd_gov.log" || {
    echo "serve-adapt: governor never adapted the batch width" >&2
    cat "$TMP/wispd_gov.log" >&2
    exit 1
}
grep -qE 'wispd_governor_width_widen_total [1-9]' "$TMP/wispd_gov.log" || {
    echo "serve-adapt: no width-widen ticks in the governed metrics dump" >&2
    exit 1
}
grep -qE 'wispd_rsa_ops_batched_total [1-9]' "$TMP/wispd_gov.log" || {
    echo "serve-adapt: governed run never served through the batched engine" >&2
    exit 1
}
reversals="$(sed -n 's/^wispd_governor_width_reversals_total //p' "$TMP/wispd_gov.log")"
echo "serve-adapt: governed run width reversals: ${reversals:-missing}"

"$BIN/benchcmp" -baseline "$TMP/bench_static.json" -current "$TMP/bench_gov.json" \
    -assert-rps-gt -rps-factor 1.15
cp "$TMP/bench_gov.json" "$BENCH_JSON"
echo "serve-adapt: governed run recovers >=15% throughput over the mis-sized static width; record written to $BENCH_JSON"
echo "serve-adapt: ok"

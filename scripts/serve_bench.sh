#!/bin/sh
# serve_bench.sh — two-phase serving benchmark.
#
# Phase 1 boots wispd with cost-aware dispatch and replays a heterogeneous
# ssl+record mix with deadlines through wispload, asserting the dispatch
# invariants: zero payload mismatches (wispload exits non-zero on any) and
# zero sheds issued while a shard sat idle.
#
# Phase 2 is the session-resumption A/B: the same handshake workload runs
# against a fresh daemon twice — resume-ratio 0 and resume-ratio 0.9 —
# and benchcmp asserts the abbreviated-handshake class's p99 beats the
# full-handshake baseline p99, with zero digest mismatches in both runs.
# The resume-on record is written to $BENCH_JSON (default BENCH_serve.json
# in the working directory) for the CI regression gate.
#
# Phase 3 is the batched-RSA A/B: the same rsa-decrypt burst runs against
# a one-shard daemon with -batch-width 1 (scalar) and -batch-width 4
# (lockstep engine fusion), same seeds; benchcmp asserts the batched run
# delivers higher throughput with zero digest mismatches in both runs.
#
# On failure, logs and reports are copied to $ARTIFACT_DIR when set (CI
# uploads them).  Exits non-zero on any violation or unclean drain.
set -eu

BIN="${BIN:-bin}"
BENCH_JSON="${BENCH_JSON:-BENCH_serve.json}"
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
            echo "serve-bench: wispd never came up" >&2
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
        echo "serve-bench: daemon did not drain cleanly" >&2
        cat "$TMP/$1" >&2
        exit 1
    }
}

# ---- Phase 1: heterogeneous mix, dispatch invariants ----
boot_wispd wispd.log -shards 4 -metrics
echo "serve-bench: wispd on $ADDR (4 shards, cost dispatch)"

# Heterogeneous mix: full SSL transactions (one RSA private-key op each)
# interleaved with cheap record ops, every request deadline-bearing, with
# client retries armed.  The service-time spread is the paper's Table 1
# asymmetry; cost-aware dispatch must keep record ops off the loaded
# shards.
"$BIN/wispload" -addr "$ADDR" -clients 6 -n 20 -ops ssl,record \
    -mix 1k,4k,16k -deadline-us 30000000 -retries 3 -json >"$TMP/report.json"

grep -q '"mismatches": 0' "$TMP/report.json" || {
    echo "serve-bench: payload mismatches detected" >&2
    exit 1
}
grep -q '"shed_while_idle": 0' "$TMP/report.json" || {
    echo "serve-bench: requests were shed while a shard sat idle" >&2
    grep -E '"shed|"steals|"redirects' "$TMP/report.json" >&2 || true
    exit 1
}
echo "serve-bench: zero mismatches, zero sheds-with-idle-shards"
grep -E '"(steals|redirects|retries|hedges)":' "$TMP/report.json" | head -4 || true

drain_wispd wispd.log
echo "serve-bench: phase 1 ok"

# ---- Phase 2: session-resumption A/B on the handshake workload ----
# Same seed, same load shape; only the resume ratio differs.  Handshake
# ops isolate the path resumption amortizes (one RSA private-key op per
# full handshake, none per abbreviated one).
boot_wispd wispd_off.log -shards 4 -seed 1 -metrics
echo "serve-bench: resume-off run on $ADDR"
"$BIN/wispload" -addr "$ADDR" -clients 6 -n 30 -ops handshake -mix 1k \
    -resume-ratio 0 -seed 2 -bench-out "$TMP/bench_off.json" >"$TMP/load_off.log"
drain_wispd wispd_off.log

boot_wispd wispd_on.log -shards 4 -seed 1 -metrics
echo "serve-bench: resume-on run on $ADDR (ratio 0.9)"
"$BIN/wispload" -addr "$ADDR" -clients 6 -n 30 -ops handshake -mix 1k \
    -resume-ratio 0.9 -seed 2 -bench-out "$TMP/bench_on.json" >"$TMP/load_on.log"
drain_wispd wispd_on.log

grep -E 'resumption|session cache' "$TMP/load_on.log" || true
"$BIN/benchcmp" -baseline "$TMP/bench_off.json" -current "$TMP/bench_on.json" \
    -assert-p99-lt 'handshake+resumed<handshake'
cp "$TMP/bench_on.json" "$BENCH_JSON"
echo "serve-bench: resumed-handshake p99 beats full-handshake baseline; record written to $BENCH_JSON"
echo "serve-bench: phase 2 ok"

# ---- Phase 3: batched-RSA A/B on a private-key-op burst ----
# One shard so concurrent decrypts queue into same-op groups; only the
# batch width differs between the runs.
boot_wispd wispd_bw1.log -shards 1 -seed 1 -batch-width 1 -batch-gather-us 3000 -metrics
echo "serve-bench: batch-width-1 (scalar) run on $ADDR"
"$BIN/wispload" -addr "$ADDR" -clients 8 -n 40 -ops rsa-decrypt -mix 1k \
    -seed 3 -bench-out "$TMP/bench_bw1.json" >"$TMP/load_bw1.log"
drain_wispd wispd_bw1.log

boot_wispd wispd_bw4.log -shards 1 -seed 1 -batch-width 4 -batch-gather-us 3000 -metrics
echo "serve-bench: batch-width-4 (lockstep) run on $ADDR"
"$BIN/wispload" -addr "$ADDR" -clients 8 -n 40 -ops rsa-decrypt -mix 1k \
    -seed 3 -bench-out "$TMP/bench_bw4.json" >"$TMP/load_bw4.log"
drain_wispd wispd_bw4.log

grep -E 'rsa_ops_(batched|scalar)_total|rsa_batch_width' "$TMP/wispd_bw4.log" || true
grep -qE 'rsa_ops_batched_total [1-9]' "$TMP/wispd_bw4.log" || {
    echo "serve-bench: batch-width-4 run never engaged the batched engine" >&2
    exit 1
}
"$BIN/benchcmp" -baseline "$TMP/bench_bw1.json" -current "$TMP/bench_bw4.json" \
    -assert-rps-gt -rps-factor 1.05
echo "serve-bench: batched dispatch beats scalar throughput by >5% with zero mismatches"
echo "serve-bench: ok"

#!/usr/bin/env bash
# Unit-style test for scripts/check_bench_drift.sh's lane-gating logic,
# driven through its --gate-only hook (no build, no benchmark run): a
# complete BENCH_throughput.json passes with and without --strict, a
# missing *gated* lane WARN-passes by default but fails under --strict,
# and a doctored recall/checksum attestation fails in both modes. The
# open_loop_serving lane rides in a sibling BENCH_load.json, so the
# gate-only hook also reads that file next to the one it is handed.
# The --drift-only hook covers the sequential-QPS baseline: a sibling
# BENCH_throughput.json wins, else the last BENCH_history.jsonl record
# is the baseline when its host fingerprint matches, and a different or
# missing fingerprint (build type and compile flags included) WARNs and
# re-baselines.
#
# Registered in tests/CMakeLists.txt; run directly with
#   tests/check_bench_drift_strict_test.sh
set -u
cd "$(dirname "$0")/.."
SCRIPT=scripts/check_bench_drift.sh

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

fails=0
expect() {
  local want=$1 label=$2
  shift 2
  local got=0
  "$@" >"$tmpdir/out" 2>&1 || got=$?
  if [[ "$want" == pass && "$got" != 0 ]]; then
    echo "FAIL: $label — expected pass, got exit $got" >&2
    sed 's/^/    /' "$tmpdir/out" >&2
    fails=$((fails + 1))
  elif [[ "$want" == fail && "$got" == 0 ]]; then
    echo "FAIL: $label — expected failure, got exit 0" >&2
    sed 's/^/    /' "$tmpdir/out" >&2
    fails=$((fails + 1))
  else
    echo "ok: $label"
  fi
}

# A minimal JSON carrying every gated lane, shaped like the one-lane-
# per-line layout bench_throughput writes (the gates grep that layout).
good=$tmpdir/good.json
cat >"$good" <<'EOF'
{
  "bench": "throughput",
  "workloads": [
    {"name": "knmatch_n8_k10", "sequential_qps": 250.0},
    {"name": "zipfian_repeat", "cold_qps": 240.0, "cached_qps": 2000.0, "cache_speedup": 8.33, "hit_ratio_percent": 88.9},
    {"name": "ingest_under_load", "query_qps": 250.0, "ingest_ops_per_sec": 17.0},
    {"name": "sharded_scatter_gather", "configs": [
      {"shards": 1, "sharded_qps": 95.0, "hedge_rate": 0.99},
      {"shards": 4, "sharded_qps": 80.0, "hedge_rate": 0.99}
    ]},
    {"name": "approx_frontier", "sweep": [
      {"epsilon": 0.00, "approx_qps": 250.0, "recall_ok": true},
      {"epsilon": 0.10, "approx_qps": 4000.0, "recall_ok": true}
    ]},
    {"name": "packed_columns", "flat_qps": 250.0, "packed_qps": 210.0, "checksum_ok": true}
  ]
}
EOF

# The serving lane is gated from the sibling BENCH_load.json (the
# bench_load writer); give the fixture directory a healthy one so the
# complete-file cases exercise that gate too.
cat >"$tmpdir/BENCH_load.json" <<'EOF'
{
  "bench": "load",
  "lanes": [
    {"name": "open_loop_serving", "duration_s": 2.0, "rps_start": 150.0, "rps_end": 300.0, "sent": 300, "ok": 280, "shed": 12, "deadline": 3, "transport_errors": 0, "faults_injected": 20, "p50_ms": 0.5, "p99_ms": 2.5, "p999_ms": 4.0, "shed_rate": 0.04, "torn_frames": 4, "malformed": 5, "mirror_ok": true, "fd_leak_ok": true}
  ]
}
EOF

expect pass "complete file passes" \
  bash "$SCRIPT" --gate-only "$good"
expect pass "complete file passes under --strict" \
  bash "$SCRIPT" --strict --gate-only "$good"

# Gated lane missing: WARN-pass by default, FAIL under --strict.
no_approx=$tmpdir/no_approx.json
grep -v 'approx_frontier\|"epsilon"' "$good" >"$no_approx"
expect pass "missing approx_frontier lane WARN-passes without --strict" \
  bash "$SCRIPT" --gate-only "$no_approx"
grep -q 'WARN \[lane approx_frontier\]' "$tmpdir/out" || {
  echo "FAIL: missing-lane pass did not print the WARN line" >&2
  fails=$((fails + 1))
}
expect fail "missing approx_frontier lane fails under --strict" \
  bash "$SCRIPT" --strict --gate-only "$no_approx"

no_packed=$tmpdir/no_packed.json
grep -v 'packed_columns' "$good" >"$no_packed"
expect pass "missing packed_columns lane WARN-passes without --strict" \
  bash "$SCRIPT" --gate-only "$no_packed"
expect fail "missing packed_columns lane fails under --strict" \
  bash "$SCRIPT" --strict --gate-only "$no_packed"

# Serving lane: a missing sibling BENCH_load.json WARN-passes by
# default and fails under --strict, like the other gated lanes.
mkdir -p "$tmpdir/noserve"
cp "$good" "$tmpdir/noserve/good.json"
expect pass "missing open_loop_serving lane WARN-passes without --strict" \
  bash "$SCRIPT" --gate-only "$tmpdir/noserve/good.json"
grep -q 'WARN \[lane open_loop_serving\]' "$tmpdir/out" || {
  echo "FAIL: missing-serving pass did not print the WARN line" >&2
  fails=$((fails + 1))
}
expect fail "missing open_loop_serving lane fails under --strict" \
  bash "$SCRIPT" --strict --gate-only "$tmpdir/noserve/good.json"

# Doctored serving attestations fail in both modes.
mkdir -p "$tmpdir/badmirror"
cp "$good" "$tmpdir/badmirror/good.json"
sed 's/"mirror_ok": true/"mirror_ok": false/' "$tmpdir/BENCH_load.json" \
  >"$tmpdir/badmirror/BENCH_load.json"
expect fail "serving mirror_ok false fails" \
  bash "$SCRIPT" --gate-only "$tmpdir/badmirror/good.json"
expect fail "serving mirror_ok false fails under --strict" \
  bash "$SCRIPT" --strict --gate-only "$tmpdir/badmirror/good.json"

mkdir -p "$tmpdir/badfd"
cp "$good" "$tmpdir/badfd/good.json"
sed 's/"fd_leak_ok": true/"fd_leak_ok": false/' "$tmpdir/BENCH_load.json" \
  >"$tmpdir/badfd/BENCH_load.json"
expect fail "serving fd_leak_ok false fails" \
  bash "$SCRIPT" --gate-only "$tmpdir/badfd/good.json"

# Broken attestations fail in both modes.
bad_recall=$tmpdir/bad_recall.json
sed 's/"approx_qps": 4000.0, "recall_ok": true/"approx_qps": 4000.0, "recall_ok": false/' \
  "$good" >"$bad_recall"
expect fail "recall_ok false fails" \
  bash "$SCRIPT" --gate-only "$bad_recall"
expect fail "recall_ok false fails under --strict" \
  bash "$SCRIPT" --strict --gate-only "$bad_recall"

bad_checksum=$tmpdir/bad_checksum.json
sed 's/"checksum_ok": true/"checksum_ok": false/' "$good" >"$bad_checksum"
expect fail "packed checksum_ok false fails" \
  bash "$SCRIPT" --gate-only "$bad_checksum"

# Legacy lanes keep their always-fail contract in both modes.
no_zipf=$tmpdir/no_zipf.json
grep -v 'zipfian_repeat' "$good" >"$no_zipf"
expect fail "missing zipfian_repeat fails without --strict" \
  bash "$SCRIPT" --gate-only "$no_zipf"

expect fail "nonexistent file fails" \
  bash "$SCRIPT" --gate-only "$tmpdir/does_not_exist.json"
expect fail "unknown flag fails" \
  bash "$SCRIPT" --no-such-flag

# --- Drift baseline: history fallback and host fingerprints.
fresh_dir=$tmpdir/drift
mkdir -p "$fresh_dir"
fresh=$fresh_dir/fresh.json
cat >"$fresh" <<'EOF'
{
  "workloads": [
    {"name": "knmatch_n8_k10", "sequential_qps": 250.0}
  ]
}
EOF
expect pass "no baseline anywhere skips the drift gate" \
  bash "$SCRIPT" --drift-only "$fresh"
expect fail "no baseline anywhere fails under --strict" \
  bash "$SCRIPT" --strict --drift-only "$fresh"
host=$(bash "$SCRIPT" --drift-only "$fresh" | sed -n 's/^host: //p')
if [[ -z "$host" ]]; then
  echo "FAIL: --drift-only printed no host fingerprint" >&2
  fails=$((fails + 1))
fi

# One history record per line, shaped like the script's own appends.
record() {  # record <host json, or empty for unstamped> <sequential_qps>
  local stamp=""
  [[ -n "$1" ]] && stamp="\"host\": $1, "
  printf '{"timestamp": "t", %s"throughput": {"workloads": [{"name": "knmatch_n8_k10", "sequential_qps": %s}]}}\n' \
    "$stamp" "$2"
}
history=$fresh_dir/BENCH_history.jsonl

{ record "$host" 900.0; record "$host" 255.0; } >"$history"
expect pass "matching last history record is the baseline" \
  bash "$SCRIPT" --strict --drift-only "$fresh"
grep -q 'drift baseline: last .*BENCH_history.jsonl record' "$tmpdir/out" &&
  grep -q 'OK: knmatch_n8_k10 sequential QPS 255.0 -> 250.0' \
    "$tmpdir/out" || {
  echo "FAIL: history baseline was not compared" >&2
  sed 's/^/    /' "$tmpdir/out" >&2
  fails=$((fails + 1))
}

record "$host" 500.0 >>"$history"
expect fail "matching history baseline gates a -50% drop" \
  bash "$SCRIPT" --drift-only "$fresh"

other_host=$(sed 's/"nproc": [0-9]*/"nproc": 999/' <<<"$host")
record "$other_host" 500.0 >>"$history"
expect pass "different fingerprint WARNs and re-baselines" \
  bash "$SCRIPT" --strict --drift-only "$fresh"
grep -q 'WARN \[drift\]' "$tmpdir/out" || {
  echo "FAIL: fingerprint mismatch did not print the WARN line" >&2
  fails=$((fails + 1))
}

# The fingerprint carries the build type and compile flags: a record
# from a Debug build of the same host is not a baseline either.
for field in build_type cxx_flags; do
  grep -q "\"$field\": \"" <<<"$host" || {
    echo "FAIL: host fingerprint lacks $field: $host" >&2
    fails=$((fails + 1))
  }
done
debug_host=$(sed 's/"build_type": "[^"]*"/"build_type": "Debug"/; s/"cxx_flags": "[^"]*"/"cxx_flags": "-g"/' <<<"$host")
record "$debug_host" 500.0 >>"$history"
expect pass "different build type WARNs and re-baselines" \
  bash "$SCRIPT" --strict --drift-only "$fresh"
grep -q 'WARN \[drift\].*"build_type": "Debug"' "$tmpdir/out" || {
  echo "FAIL: build-type mismatch did not print the WARN line" >&2
  fails=$((fails + 1))
}

record "" 500.0 >>"$history"
expect pass "unstamped record WARNs and re-baselines" \
  bash "$SCRIPT" --drift-only "$fresh"
grep -q 'WARN \[drift\].*unstamped' "$tmpdir/out" || {
  echo "FAIL: unstamped record did not print the WARN line" >&2
  fails=$((fails + 1))
}

record "$host" 500.0 >>"$history"
cp "$fresh" "$fresh_dir/BENCH_throughput.json"
expect pass "a local BENCH_throughput.json wins over the history" \
  bash "$SCRIPT" --drift-only "$fresh"

if [[ "$fails" != 0 ]]; then
  echo "$fails case(s) failed" >&2
  exit 1
fi
echo "all check_bench_drift gating cases passed"

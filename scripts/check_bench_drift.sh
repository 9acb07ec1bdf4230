#!/usr/bin/env bash
# Perf-drift gate: builds and runs the observability-overhead benchmark,
# the governance-overhead benchmark, and the batch-throughput benchmark;
# fails if the metrics subsystem's or the governance layer's measured
# overhead on the AD hot path exceeds the budget (2% by default), and
# appends one timestamped line per run to BENCH_history.jsonl so
# successive PRs leave a machine-readable perf trajectory.
#
# Also gates sequential throughput: each workload's sequential QPS must
# stay within QPS_DRIFT_PERCENT (default 10) of a recorded baseline.
# The baseline is the local BENCH_throughput.json snapshot when one
# exists (BENCH_*.json is gitignored, so only a previous run on this
# checkout leaves it), else the last record of the committed
# BENCH_history.jsonl — so a fresh clone is gated too. Every appended
# history record is stamped with the host's fingerprint (nproc, CPU
# model, compiler, build type, compile flags); a history baseline from
# a different fingerprint, or
# from a record that predates the stamp, is not comparable: the gate
# WARNs and re-baselines (the record this run appends becomes the next
# baseline) instead of comparing. An intentional perf change trips the
# gate on purpose — rerun with a wider QPS_DRIFT_PERCENT; the appended
# record becomes the next baseline.
#
# The cached lane gates the zipfian_repeat workload on its own ratio
# (cached_qps / cold_qps >= MIN_CACHE_SPEEDUP, default 5) rather than
# on drift: the ratio is an A/B on the same host seconds apart, so it
# stays meaningful on noisy hosts where absolute QPS wobbles.
#
# The approx_frontier lane gates on recall soundness: the benchmark
# aborts on any per-query bound violation, and the gate additionally
# requires every recorded sweep point to carry recall_ok. The
# packed_columns lane gates on its bit-identity checksum plus its own
# packed_qps drift against the committed baseline.
#
# The open_loop_serving lane (bench_load, recorded in the sibling
# BENCH_load.json) gates on its attestations: mirror_ok (served answers
# bit-identical to direct engine calls) and fd_leak_ok (no fd leaked
# across the faulted load + drain), plus progress (ok > 0).
#
# --strict: a *gated* lane (zipfian_repeat, ingest_under_load,
# sharded_scatter_gather, approx_frontier, packed_columns,
# open_loop_serving) missing from the fresh BENCH_throughput.json /
# BENCH_load.json, or a fresh lane absent from the committed baseline,
# fails the run instead of WARN-passing. Use it once a lane's baseline
# is committed — silence then means the lane silently disappeared, not
# that it is new.
#
# --gate-only <json>: run only the lane gates against an existing
# BENCH_throughput.json (no build, no benchmark run, no history
# append). This is the hook tests/check_bench_drift_strict_test.sh
# exercises the gating logic through.
#
# --drift-only <json>: run only the sequential-QPS drift gate of <json>
# against the baseline found next to it (a sibling BENCH_throughput.json,
# else the last record of a sibling BENCH_history.jsonl), printing this
# host's fingerprint; no build, no benchmark run, no history append.
# The test hook for the baseline fallback and the fingerprint check.
#
# Usage: scripts/check_bench_drift.sh [--strict]  (build dir: build)
#        scripts/check_bench_drift.sh --gate-only BENCH_throughput.json
#        scripts/check_bench_drift.sh --drift-only fresh.json
#        BUILD_DIR=/tmp/b scripts/check_bench_drift.sh
#        OVERHEAD_BUDGET_PERCENT=3 scripts/check_bench_drift.sh
#        QPS_DRIFT_PERCENT=25 scripts/check_bench_drift.sh
#        MIN_CACHE_SPEEDUP=3 scripts/check_bench_drift.sh
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
BUDGET=${OVERHEAD_BUDGET_PERCENT:-2.0}
QPS_DRIFT=${QPS_DRIFT_PERCENT:-10}
MIN_SPEEDUP=${MIN_CACHE_SPEEDUP:-5}

STRICT=0
GATE_ONLY=""
DRIFT_ONLY=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --strict) STRICT=1 ;;
    --gate-only)
      shift
      GATE_ONLY=${1:?--gate-only needs a BENCH_throughput.json path}
      ;;
    --drift-only)
      shift
      DRIFT_ONLY=${1:?--drift-only needs a BENCH_throughput.json path}
      ;;
    *)
      echo "unknown flag: $1" >&2
      echo "usage: $0 [--strict] [--gate-only <json>] [--drift-only <json>]" >&2
      exit 2
      ;;
  esac
  shift
done

# This host's fingerprint as a one-line JSON object: QPS recorded on a
# different core count, CPU, compiler, build type or compile flags is
# not a baseline for this run.
host_json() {
  local cpu compiler="c++" build_type="" flags=""
  cpu=$(grep -m1 '^model name' /proc/cpuinfo 2>/dev/null |
    cut -d: -f2- | sed 's/^ *//; s/"/\\"/g' || true)
  if [[ -f "$BUILD_DIR/CMakeCache.txt" ]]; then
    compiler=$(grep -m1 '^CMAKE_CXX_COMPILER:' "$BUILD_DIR/CMakeCache.txt" |
      cut -d= -f2- || true)
    build_type=$(grep -m1 '^CMAKE_BUILD_TYPE:' "$BUILD_DIR/CMakeCache.txt" |
      cut -d= -f2- || true)
  fi
  compiler=$("${compiler:-c++}" --version 2>/dev/null | head -1 |
    sed 's/"/\\"/g' || true)
  # The library's effective compile flags, as the generator wrote them
  # (the build type's flags included; per-file -O3 overrides are not).
  local flags_file="$BUILD_DIR/src/CMakeFiles/knmatch.dir/flags.make"
  if [[ -f "$flags_file" ]]; then
    flags=$(sed -n 's/^CXX_FLAGS = //p' "$flags_file" | head -1 |
      tr -s ' ' | sed 's/ *$//; s/"/\\"/g' || true)
  fi
  # An empty cached build type means the top-level CMakeLists.txt's
  # default.
  printf '{"nproc": %s, "cpu_model": "%s", "compiler": "%s", "build_type": "%s", "cxx_flags": "%s"}' \
    "$(nproc)" "${cpu:-unknown}" "${compiler:-unknown}" \
    "${build_type:-RelWithDebInfo}" "${flags:-unknown}"
}

# A gated lane missing from the fresh run: WARN by default (the lane may
# be newer than the installed bench binary), FAIL under --strict.
missing_gated_lane() {
  local lane=$1 json=$2
  if [[ "$STRICT" == 1 ]]; then
    echo "FAIL [lane $lane]: gated lane missing from $json (--strict)" >&2
    return 1
  fi
  echo "WARN [lane $lane]: gated lane missing from $json; passing" \
       "(re-run with --strict to fail on missing gated lanes)"
  return 0
}

# --- Lane gates over one BENCH_throughput.json (fresh run or the file
# handed to --gate-only). Legacy lanes keep their always-fail contract;
# the approx/packed lanes route absence through missing_gated_lane.
gate_lanes() {
  local json=$1

  # Result-cache speedup on the zipfian_repeat workload. The lane's
  # cold_qps/cached_qps field names keep it invisible to the
  # sequential-drift gate by construction.
  local speedup
  speedup=$(grep -o '"cache_speedup": [0-9.]*' "$json" |
    head -1 | awk '{print $2}')
  if [[ -z "$speedup" ]]; then
    echo "FAIL [lane zipfian_repeat]: cache_speedup missing from" \
         "$json" >&2
    return 1
  fi
  if awk -v s="$speedup" -v m="$MIN_SPEEDUP" 'BEGIN{exit !(s < m)}'; then
    echo "FAIL [lane zipfian_repeat]: cache speedup ${speedup}x below" \
         "minimum ${MIN_SPEEDUP}x" >&2
    return 1
  fi
  echo "OK: zipfian_repeat cache speedup ${speedup}x (minimum ${MIN_SPEEDUP}x)"

  # The live-ingest lane made progress on both sides: zero throughput
  # on either means the publish/pin protocol stalled.
  local ingest_qps ingest_ops
  ingest_qps=$(grep -o '"name": "ingest_under_load", "query_qps": [0-9.]*' \
    "$json" | awk '{print $NF}')
  ingest_ops=$(grep -o '"ingest_ops_per_sec": [0-9.]*' \
    "$json" | head -1 | awk '{print $2}')
  if [[ -z "$ingest_qps" || -z "$ingest_ops" ]]; then
    echo "FAIL [lane ingest_under_load]: lane missing from $json" >&2
    return 1
  fi
  if awk -v q="$ingest_qps" -v o="$ingest_ops" \
      'BEGIN{exit !(q <= 0 || o <= 0)}'; then
    echo "FAIL [lane ingest_under_load]: no progress under load" \
         "(${ingest_qps} q/s, ${ingest_ops} ingest ops/s)" >&2
    return 1
  fi
  echo "OK: ingest_under_load ${ingest_qps} q/s while ingesting" \
       "${ingest_ops} ops/s"

  # The sharded scatter-gather lane answered at every shard count. The
  # benchmark checksums each router pass against the unsharded engine
  # (the merge is exact by contract), so the gate here is progress. The
  # lane runs with hedging off; its hedging-on twin,
  # sharded_hedging_cost, is recorded, not gated.
  if ! grep -q '"name": "sharded_scatter_gather"' "$json"; then
    echo "FAIL [lane sharded_scatter_gather]: lane missing from $json" >&2
    return 1
  fi
  local shards qps
  while read -r shards qps; do
    if awk -v q="$qps" 'BEGIN{exit !(q <= 0)}'; then
      echo "FAIL [lane sharded_scatter_gather]: no progress at" \
           "S=${shards} (${qps} q/s)" >&2
      return 1
    fi
    echo "OK: sharded_scatter_gather S=${shards} answered at ${qps} q/s"
  done < <(grep -o '"shards": [0-9]*, "sharded_qps": [0-9.]*' "$json" |
    sed 's/"shards": \([0-9]*\), "sharded_qps": \([0-9.]*\)/\1 \2/')

  # The approximate frontier reported sound recall at every epsilon.
  # The benchmark exits nonzero on any measured-recall-below-bound
  # query; recall_ok in the JSON is its per-sweep-point attestation, so
  # a sweep point without it (or a doctored file) fails here.
  if ! grep -q '"name": "approx_frontier"' "$json"; then
    missing_gated_lane approx_frontier "$json" || return 1
  else
    local sweep_points sound_points
    sweep_points=$(grep -o '"epsilon": [0-9.]*, "approx_qps":' "$json" |
      wc -l)
    sound_points=$(grep -o '"recall_ok": true' "$json" | wc -l)
    if [[ "$sweep_points" -eq 0 || \
          "$sweep_points" != "$sound_points" ]]; then
      echo "FAIL [lane approx_frontier]: ${sound_points}/${sweep_points}" \
           "sweep points attest recall_ok in $json" >&2
      return 1
    fi
    echo "OK: approx_frontier all ${sweep_points} sweep points report" \
         "measured recall >= per-query bound"
  fi

  # The packed-columns lane stayed bit-identical to the flat columns.
  if ! grep -q '"name": "packed_columns"' "$json"; then
    missing_gated_lane packed_columns "$json" || return 1
  else
    if ! grep -o '"name": "packed_columns".*}' "$json" |
        grep -q '"checksum_ok": true'; then
      echo "FAIL [lane packed_columns]: checksum attestation missing" \
           "from $json" >&2
      return 1
    fi
    local packed_qps
    packed_qps=$(grep -o '"packed_qps": [0-9.]*' "$json" |
      head -1 | awk '{print $2}')
    if awk -v q="${packed_qps:-0}" 'BEGIN{exit !(q <= 0)}'; then
      echo "FAIL [lane packed_columns]: no progress" \
           "(${packed_qps:-missing} q/s)" >&2
      return 1
    fi
    echo "OK: packed_columns exact over bit-packed blocks at" \
         "${packed_qps} q/s (checksum vs flat columns ok)"
  fi
  return 0
}

# --- Serving-lane gate over a BENCH_load.json (fresh run or the
# sibling of the file handed to --gate-only). The lane's latency
# numbers are recorded, not drift-gated (open-loop percentiles on a
# noisy 1-CPU host swing too hard); the gate is the two attestations
# the benchmark computes and progress.
gate_serving() {
  local json=$1
  if [[ ! -f "$json" ]] ||
      ! grep -q '"name": "open_loop_serving"' "$json"; then
    missing_gated_lane open_loop_serving "$json" || return 1
    return 0
  fi
  local lane
  lane=$(grep -o '"name": "open_loop_serving"[^}]*' "$json")
  if ! grep -q '"mirror_ok": true' <<<"$lane"; then
    echo "FAIL [lane open_loop_serving]: mirror_ok attestation missing" \
         "from $json (served answers not bit-identical to the engine)" >&2
    return 1
  fi
  if ! grep -q '"fd_leak_ok": true' <<<"$lane"; then
    echo "FAIL [lane open_loop_serving]: fd_leak_ok attestation missing" \
         "from $json (connections leaked across the faulted load)" >&2
    return 1
  fi
  local ok_count
  ok_count=$(grep -o '"ok": [0-9]*' <<<"$lane" | head -1 | awk '{print $2}')
  if [[ -z "$ok_count" ]] ||
      awk -v o="$ok_count" 'BEGIN{exit !(o <= 0)}'; then
    echo "FAIL [lane open_loop_serving]: no successful requests" \
         "(ok=${ok_count:-missing}) in $json" >&2
    return 1
  fi
  local p99 shed_rate
  p99=$(grep -o '"p99_ms": [0-9.]*' <<<"$lane" | awk '{print $2}')
  shed_rate=$(grep -o '"shed_rate": [0-9.]*' <<<"$lane" | awk '{print $2}')
  echo "OK: open_loop_serving ${ok_count} answered (p99 ${p99:-?} ms," \
       "shed rate ${shed_rate:-?}), answers mirror the engine, no fd leak"
  return 0
}

# Emits "name sequential_qps" pairs; leans on the exact one-line-per-
# workload layout bench_throughput writes (a history record carries the
# same layout on one line).
sequential_qps() {
  grep -o '"name": "[^"]*", "sequential_qps": [0-9.]*' "$1" |
    sed 's/"name": "\([^"]*\)", "sequential_qps": \([0-9.]*\)/\1 \2/'
}

# Copies the drift baseline for the checkout directory $1 into $2 and
# sets baseline_source: the local BENCH_throughput.json snapshot, else
# the last BENCH_history.jsonl record when its host fingerprint matches
# this host's. A record from another fingerprint (or an unstamped one)
# WARNs and sets rebaselined instead: this run's record replaces it.
pick_baseline() {
  local dir=$1 out=$2
  baseline_source=""
  rebaselined=0
  if [[ -f "$dir/BENCH_throughput.json" ]]; then
    cp "$dir/BENCH_throughput.json" "$out"
    baseline_source="$dir/BENCH_throughput.json"
    return 0
  fi
  local history="$dir/BENCH_history.jsonl"
  if [[ ! -s "$history" ]]; then
    return 0
  fi
  local record recorded_host host
  record=$(tail -n 1 "$history")
  recorded_host=$(grep -o '"host": {[^}]*}' <<<"$record" | head -1 |
    sed 's/^"host": //' || true)
  host=$(host_json)
  if [[ "$recorded_host" != "$host" ]]; then
    echo "WARN [drift]: last $history record was taken on" \
         "${recorded_host:-an unstamped host}, not this host ($host);" \
         "re-baselining instead of comparing"
    rebaselined=1
    return 0
  fi
  printf '%s\n' "$record" >"$out"
  baseline_source="last $history record"
}

# Gates the sequential QPS of the fresh run $1 against the baseline
# copy $2 (empty when pick_baseline found none).
gate_drift() {
  local fresh=$1 baseline_json=$2
  if [[ -n "$baseline_source" ]]; then
    echo "drift baseline: $baseline_source"
    drift_fail=0
    while read -r name base; do
      new=$(sequential_qps "$fresh" |
        awk -v n="$name" '$1 == n {print $2}')
      if [[ -z "$new" ]]; then
        echo "FAIL [lane $name]: workload missing from $fresh" >&2
        drift_fail=1
        continue
      fi
      drift=$(awk -v b="$base" -v n="$new" \
        'BEGIN{printf "%+.1f", (n - b) / b * 100}')
      if awk -v b="$base" -v n="$new" -v t="$QPS_DRIFT" \
          'BEGIN{d = (n - b) / b * 100; if (d < 0) d = -d; exit !(d > t)}'; then
        echo "FAIL [lane $name]: sequential QPS drifted ${drift}%" \
             "(${base} -> ${new}, budget +/-${QPS_DRIFT}%)" >&2
        drift_fail=1
      else
        echo "OK: $name sequential QPS ${base} -> ${new}" \
             "(${drift}%, budget +/-${QPS_DRIFT}%)"
      fi
    done < <(sequential_qps "$baseline_json")
    # A lane in the fresh run but absent from the recorded baseline is a
    # newly added workload, not a regression: record it and pass with a
    # warning — this run's history record becomes its baseline.
    # Under --strict the absence fails instead: with baselines committed,
    # a hole here means the baseline regressed, not that the lane is new.
    while read -r name new; do
      if ! sequential_qps "$baseline_json" |
          awk -v n="$name" '$1 == n {found=1} END{exit !found}'; then
        if [[ "$STRICT" == 1 ]]; then
          echo "FAIL [lane $name]: no recorded baseline (--strict)" >&2
          drift_fail=1
        else
          echo "WARN [lane $name]: no recorded baseline; recording" \
               "${new} q/s as the new baseline and passing"
        fi
      fi
    done < <(sequential_qps "$fresh")

    # packed_columns drifts on its own field name (the lane is exact, so
    # it owes the same +/-10% its flat siblings do, but packed_qps keeps
    # it out of the sequential loop above by construction).
    base_packed=$(grep -o '"packed_qps": [0-9.]*' "$baseline_json" |
      head -1 | awk '{print $2}' || true)
    new_packed=$(grep -o '"packed_qps": [0-9.]*' "$fresh" |
      head -1 | awk '{print $2}' || true)
    if [[ -n "$base_packed" && -n "$new_packed" ]]; then
      drift=$(awk -v b="$base_packed" -v n="$new_packed" \
        'BEGIN{printf "%+.1f", (n - b) / b * 100}')
      if awk -v b="$base_packed" -v n="$new_packed" -v t="$QPS_DRIFT" \
          'BEGIN{d = (n - b) / b * 100; if (d < 0) d = -d; exit !(d > t)}'; then
        echo "FAIL [lane packed_columns]: packed QPS drifted ${drift}%" \
             "(${base_packed} -> ${new_packed}, budget +/-${QPS_DRIFT}%)" >&2
        drift_fail=1
      else
        echo "OK: packed_columns packed QPS ${base_packed} ->" \
             "${new_packed} (${drift}%, budget +/-${QPS_DRIFT}%)"
      fi
    elif [[ -n "$new_packed" ]]; then
      if [[ "$STRICT" == 1 ]]; then
        echo "FAIL [lane packed_columns]: no recorded packed_qps" \
             "baseline (--strict)" >&2
        drift_fail=1
      else
        echo "WARN [lane packed_columns]: no recorded packed_qps" \
             "baseline; recording ${new_packed} q/s and passing"
      fi
    fi
    if [[ "$drift_fail" != 0 ]]; then
      return 1
    fi
  elif [[ "$rebaselined" == 1 ]]; then
    # A different host is not a regression, under --strict too.
    echo "QPS gate re-baselined: this run's history record is the" \
         "next baseline"
  elif [[ "$STRICT" == 1 ]]; then
    echo "FAIL: no recorded drift baseline (--strict)" >&2
    return 1
  else
    echo "no recorded drift baseline; QPS gate skipped"
  fi
  return 0
}

if [[ -n "$DRIFT_ONLY" ]]; then
  if [[ ! -f "$DRIFT_ONLY" ]]; then
    echo "FAIL: --drift-only file $DRIFT_ONLY does not exist" >&2
    exit 1
  fi
  echo "host: $(host_json)"
  baseline_json=$(mktemp)
  trap 'rm -f "$baseline_json"' EXIT
  pick_baseline "$(dirname "$DRIFT_ONLY")" "$baseline_json"
  gate_drift "$DRIFT_ONLY" "$baseline_json"
  exit $?
fi

if [[ -n "$GATE_ONLY" ]]; then
  if [[ ! -f "$GATE_ONLY" ]]; then
    echo "FAIL: --gate-only file $GATE_ONLY does not exist" >&2
    exit 1
  fi
  gate_lanes "$GATE_ONLY"
  gate_serving "$(dirname "$GATE_ONLY")/BENCH_load.json"
  echo "gate-only run over $GATE_ONLY passed"
  exit 0
fi

cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target bench_obs_overhead \
  bench_governance_overhead bench_throughput bench_load -j"$(nproc)"

# --- Gate: observability overhead on the in-memory AD hot path. ---
# The benchmark interleaves the instrumented and kill-switched modes
# per query (see bench/bench_obs_overhead.cc), so its ratio is robust
# to host noise; the budget is the subsystem's documented contract.
overhead_out=$("$BUILD_DIR"/bench/bench_obs_overhead)
printf '%s\n' "$overhead_out"
overhead=$(printf '%s\n' "$overhead_out" |
  awk -F= '/^overhead_enabled_percent=/{print $2}')
if [[ -z "$overhead" ]]; then
  echo "FAIL [lane obs_overhead]: bench_obs_overhead printed no" \
       "overhead_enabled_percent" >&2
  exit 1
fi
if awk -v o="$overhead" -v b="$BUDGET" 'BEGIN{exit !(o > b)}'; then
  echo "FAIL [lane obs_overhead]: metrics overhead ${overhead}%" \
       "exceeds budget ${BUDGET}%" >&2
  exit 1
fi
echo "OK: metrics overhead ${overhead}% within budget ${BUDGET}%"

# --- Gate: governance overhead on the in-memory AD hot path. ---
# Same interleaved A/B methodology (see bench/bench_governance_overhead
# .cc): each query runs ungoverned and under a full never-tripping
# QueryContext microseconds apart, so the ratio isolates the cost of
# the amortized governance checks themselves.
gov_out=$("$BUILD_DIR"/bench/bench_governance_overhead)
printf '%s\n' "$gov_out"
gov_overhead=$(printf '%s\n' "$gov_out" |
  awk -F= '/^overhead_governed_percent=/{print $2}')
if [[ -z "$gov_overhead" ]]; then
  echo "FAIL [lane governance_overhead]: bench_governance_overhead" \
       "printed no overhead_governed_percent" >&2
  exit 1
fi
if awk -v o="$gov_overhead" -v b="$BUDGET" 'BEGIN{exit !(o > b)}'; then
  echo "FAIL [lane governance_overhead]: governance overhead" \
       "${gov_overhead}% exceeds budget ${BUDGET}%" >&2
  exit 1
fi
echo "OK: governance overhead ${gov_overhead}% within budget ${BUDGET}%"

# --- Gate: sequential QPS drift on the batch-throughput workloads. ---
# The run below overwrites BENCH_throughput.json in place, so snapshot
# the baseline first.
baseline_json=$(mktemp)
trap 'rm -f "$baseline_json"' EXIT
pick_baseline . "$baseline_json"

"$BUILD_DIR"/bench/bench_throughput 32 50000 16

gate_drift BENCH_throughput.json "$baseline_json"

gate_lanes BENCH_throughput.json

# --- Gate: the open-loop serving lane. bench_load exits nonzero on a
# mirror mismatch or fd leak; the gate re-reads its attestations so a
# stale or doctored BENCH_load.json cannot pass on exit code alone.
"$BUILD_DIR"/bench/bench_load
gate_serving BENCH_load.json

# The benchmarks drop their JSON in the current directory (the repo
# root). Fold them into one history line.
stamp=$(date -Is)
{
  printf '{"timestamp": "%s", "host": %s, "obs_overhead": ' "$stamp" \
    "$(host_json)"
  tr -d '\n' <BENCH_obs_overhead.json
  printf ', "governance_overhead": '
  tr -d '\n' <BENCH_governance_overhead.json
  printf ', "throughput": '
  tr -d '\n' <BENCH_throughput.json
  printf ', "serving": '
  tr -d '\n' <BENCH_load.json
  printf '}\n'
} >>BENCH_history.jsonl
echo "appended run to BENCH_history.jsonl"

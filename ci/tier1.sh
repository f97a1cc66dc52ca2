#!/usr/bin/env bash
# Tier-1 verification, three times: the default build (SIMD kernels ON,
# runtime dispatch picks the widest variant the host supports), a
# scalar-only build (-DFBF_ENABLE_SIMD=OFF) so the fallback path every
# non-x86/ARM or flag-less toolchain would take stays covered, and an
# ASan+UBSan build (-DFBF_SANITIZE=ON) so memory errors and UB in any
# tested path fail CI instead of lurking. FBF_VALIDATE=1 turns on the
# cross-engine conservation-law checks (src/sim/validate.h) in every run.
#
# After each config's tests, a bench smoke run exercises the harness
# binaries the tests don't link: the cache-ops microbench (one iteration
# per benchmark — this catches flag/registration breakage, not perf) and
# a tiny Table-V sweep that drives the full figure pipeline end to end.
# An obs smoke run then re-drives that sweep with --metrics-out/--trace-out
# and feeds the artifacts to tools/obs_schema_check, which enforces the
# metrics schema, the counter conservation laws, trace-event well-formedness,
# and byte-level determinism of the metrics across two same-seed runs.
# Finally a fault smoke runs a tiny URE x straggler matrix through
# bench_ext_fault_sweep twice per engine and diffs the CSVs: the fault
# stream is a pure function of the seed, so any byte of divergence is a
# determinism regression in the injection layer. An app smoke does the
# same for the online-recovery path (foreground traffic, deadlines, and
# the recovery throttle on both engines, via bench_app_slo), and a write
# smoke for the partial-stripe write path (parity-update planner plus the
# dirty write-back cache, via bench_ext_write_sweep).
#
# The engine smoke then drives the event-core macro bench (bench_engine,
# one rep — wiring coverage, not perf) and re-runs the fault matrix with
# FBF_GLOBAL_EVENT_HEAP=1, which collapses the sharded event queues to a
# single global heap. Sharded and single-heap runs must produce
# byte-identical CSVs and identical deterministic metrics documents: the
# (ts, seq) total order leaves only one correct pop sequence, so any
# divergence is an ordering bug in the shard/merge-frontier layer. The
# same matrix then re-runs with FBF_DOR_LEGACY_LOOP=1 and is diffed
# against the default (coalesced) DOR run: the service-cursor fast path
# must reproduce the seed loop's bytes exactly (DESIGN §14). A second
# legacy diff adds a mid-recovery disk failure, so the escalation and
# per-stripe replan path is held to the same contract.
#
# Once, in the default config, a suite smoke runs the repository
# benchmark's pinned checks (benchsuite/run.py --smoke): every workload at
# 1/50 size must reproduce its pinned metrics digest.
set -euo pipefail
cd "$(dirname "$0")/.."
export FBF_VALIDATE=1

bench_smoke() {
  local build_dir="$1"
  "${build_dir}/bench/bench_micro_cache_ops" \
    --benchmark_min_time=0 --benchmark_repetitions=1 >/dev/null
  "${build_dir}/bench/bench_table5_summary" \
    --errors=8 --workers=4 --sizes-mb=2,8 --p=5 >/dev/null
}

obs_smoke() {
  local build_dir="$1"
  local out="${build_dir}/obs-smoke"
  rm -rf "$out"
  mkdir -p "$out"
  "${build_dir}/bench/bench_table5_summary" \
    --errors=6 --workers=4 --sizes-mb=2,8 --p=5 \
    --metrics-out="${out}/metrics1.json" --trace-out="${out}/trace1.json" \
    >/dev/null
  "${build_dir}/bench/bench_table5_summary" \
    --errors=6 --workers=4 --sizes-mb=2,8 --p=5 \
    --metrics-out="${out}/metrics2.json" >/dev/null
  "${build_dir}/tools/obs_schema_check" "${out}/metrics1.json" \
    --trace="${out}/trace1.json" --compare="${out}/metrics2.json"
}

fault_smoke() {
  local build_dir="$1"
  local out="${build_dir}/fault-smoke"
  rm -rf "$out"
  mkdir -p "$out"
  local engine
  for engine in sor dor; do
    local run
    for run in 1 2; do
      "${build_dir}/bench/bench_ext_fault_sweep" \
        --engine="$engine" --errors=8 --workers=4 --csv \
        --ure-rates=0,0.001 --straggler-factors=1,4 \
        >"${out}/${engine}${run}.csv"
    done
    cmp "${out}/${engine}1.csv" "${out}/${engine}2.csv" || {
      echo "fault sweep (${engine}) is not deterministic" >&2
      exit 1
    }
  done
}

# Online-recovery smoke: bench_app_slo drives foreground traffic plus the
# recovery throttle through both engines twice with the same seed. The
# CSVs must be byte-identical (the app path shares the engines'
# determinism contract) and the exported metrics must pass the schema
# check — including the app.* conservation laws — and match across the
# two runs modulo wall_clock.
app_smoke() {
  local build_dir="$1"
  local out="${build_dir}/app-smoke"
  rm -rf "$out"
  mkdir -p "$out"
  local run
  for run in 1 2; do
    "${build_dir}/bench/bench_app_slo" \
      --errors=8 --workers=4 --csv \
      --app-requests=120 --app-interarrival-ms=3 --app-read-fraction=0.7 \
      --app-deadline-ms=25 --throttles=0,300 \
      --metrics-out="${out}/slo${run}.json" \
      >"${out}/slo${run}.csv"
  done
  cmp "${out}/slo1.csv" "${out}/slo2.csv" || {
    echo "app SLO sweep is not deterministic" >&2
    exit 1
  }
  "${build_dir}/tools/obs_schema_check" "${out}/slo1.json" \
    --compare="${out}/slo2.json"
}

# Write-path smoke: bench_ext_write_sweep drives the parity-update planner
# and the dirty write-back cache through both engines (legacy RMW and
# planned columns per grid point) twice with the same seed. The CSVs must
# be byte-identical, and the exported metrics must pass the schema check —
# including the run.write.* conservation laws (dirty_installed == flushed +
# lost_dirty; disk_writes == spare writes + write-backs + parity updates) —
# and match across the two runs modulo wall_clock.
write_smoke() {
  local build_dir="$1"
  local out="${build_dir}/write-smoke"
  rm -rf "$out"
  mkdir -p "$out"
  local run
  for run in 1 2; do
    "${build_dir}/bench/bench_ext_write_sweep" \
      --errors=8 --workers=4 --csv \
      --write-fracs=0.3,0.7 --app-requests=150 --app-interarrival-ms=2 \
      --write-cache-chunks=16 --write-flush-ms=20 \
      --metrics-out="${out}/write${run}.json" \
      >"${out}/write${run}.csv"
  done
  cmp "${out}/write1.csv" "${out}/write2.csv" || {
    echo "write sweep is not deterministic" >&2
    exit 1
  }
  "${build_dir}/tools/obs_schema_check" "${out}/write1.json" \
    --compare="${out}/write2.json"
}

# Layout smoke: every disk-mapping strategy is driven end to end through
# fbfsim twice with the same seed; the CSVs must be byte-identical (the
# geometry is a pure function of (stripe, cell)) and the declustered
# strategies additionally run over a pool wider than the stripe. The
# metrics export from one strategy run feeds obs_schema_check so the
# conservation laws hold under a wide pool too.
layout_smoke() {
  local build_dir="$1"
  local out="${build_dir}/layout-smoke"
  rm -rf "$out"
  mkdir -p "$out"
  local layout
  for layout in naive rotate tdesign d3; do
    local pool=0
    if [ "$layout" = "tdesign" ] || [ "$layout" = "d3" ]; then
      pool=12
    fi
    local run
    for run in 1 2; do
      # The scheme-gen row is genuine wall time; everything else in the
      # table is deterministic per seed.
      "${build_dir}/examples/fbfsim" \
        --code=tip --p=7 --errors=16 --workers=4 --cache-mb=8 --csv \
        --layout="$layout" --pool-size="$pool" \
        --metrics-out="${out}/${layout}${run}.json" \
        | grep -v "scheme gen wall" >"${out}/${layout}${run}.csv"
    done
    cmp "${out}/${layout}1.csv" "${out}/${layout}2.csv" || {
      echo "layout ${layout} is not deterministic" >&2
      exit 1
    }
    "${build_dir}/tools/obs_schema_check" "${out}/${layout}1.json" \
      --compare="${out}/${layout}2.json"
  done
}

engine_smoke() {
  local build_dir="$1"
  local out="${build_dir}/engine-smoke"
  rm -rf "$out"
  mkdir -p "$out"
  "${build_dir}/bench/bench_engine" \
    --engine=sor,dor --p=5 --errors=64 --workers=8 --reps=1 --csv >/dev/null
  local engine
  for engine in sor dor; do
    "${build_dir}/bench/bench_ext_fault_sweep" \
      --engine="$engine" --errors=8 --workers=4 --csv \
      --ure-rates=0,0.001 --straggler-factors=1,4 \
      --metrics-out="${out}/${engine}_shard.json" \
      >"${out}/${engine}_shard.csv"
    FBF_GLOBAL_EVENT_HEAP=1 "${build_dir}/bench/bench_ext_fault_sweep" \
      --engine="$engine" --errors=8 --workers=4 --csv \
      --ure-rates=0,0.001 --straggler-factors=1,4 \
      --metrics-out="${out}/${engine}_global.json" \
      >"${out}/${engine}_global.csv"
    cmp "${out}/${engine}_shard.csv" "${out}/${engine}_global.csv" || {
      echo "sharded vs global event heap diverge (${engine})" >&2
      exit 1
    }
    "${build_dir}/tools/obs_schema_check" "${out}/${engine}_shard.json" \
      --compare="${out}/${engine}_global.json"
  done
  # The DOR coalesced loop (service cursors + batched cache admission) is
  # byte-identical to the seed's one-event-per-read loop by contract;
  # FBF_DOR_LEGACY_LOOP=1 selects the legacy loop so the contract stays
  # checkable end to end (CSV bytes and exported metrics).
  FBF_DOR_LEGACY_LOOP=1 "${build_dir}/bench/bench_ext_fault_sweep" \
    --engine=dor --errors=8 --workers=4 --csv \
    --ure-rates=0,0.001 --straggler-factors=1,4 \
    --metrics-out="${out}/dor_legacy.json" \
    >"${out}/dor_legacy.csv"
  cmp "${out}/dor_shard.csv" "${out}/dor_legacy.csv" || {
    echo "coalesced vs legacy DOR loop diverge" >&2
    exit 1
  }
  "${build_dir}/tools/obs_schema_check" "${out}/dor_shard.json" \
    --compare="${out}/dor_legacy.json"
  # The same diff with a whole-disk failure landing mid-recovery, so the
  # escalation path (DiskFail -> respare -> per-stripe replan) is diffed
  # too; the exported escalation count proves the leg engaged.
  local fail_flags=(--engine=dor --errors=8 --workers=4 --csv
    --ure-rates=0,0.001 --straggler-factors=1,4 --fault-disk-fail-at-ms=200)
  "${build_dir}/bench/bench_ext_fault_sweep" "${fail_flags[@]}" \
    --metrics-out="${out}/dor_fail.json" >"${out}/dor_fail.csv"
  FBF_DOR_LEGACY_LOOP=1 "${build_dir}/bench/bench_ext_fault_sweep" \
    "${fail_flags[@]}" --metrics-out="${out}/dor_fail_legacy.json" \
    >"${out}/dor_fail_legacy.csv"
  cmp "${out}/dor_fail.csv" "${out}/dor_fail_legacy.csv" || {
    echo "coalesced vs legacy DOR loop diverge under a disk failure" >&2
    exit 1
  }
  "${build_dir}/tools/obs_schema_check" "${out}/dor_fail.json" \
    --compare="${out}/dor_fail_legacy.json"
  python3 - "${out}/dor_fail.json" <<'EOF'
import json, sys
escalated = json.load(open(sys.argv[1]))["counters"].get(
    "run.fault.escalated_stripes", 0)
if escalated <= 0:
    sys.exit("disk-failure leg never escalated a stripe")
EOF
}

# Repository-benchmark smoke: benchsuite/run.py builds bench_suite from
# this checkout and runs every workload once at 1/50 size against its
# pinned digest. run.py exits non-zero only when every rep failed, so the
# verdict is read from the JSON on its last stdout line instead.
suite_smoke() {
  local out="$1/suite-smoke"
  rm -rf "$out"
  local status=0
  python3 benchsuite/run.py --smoke --out "$out" >"${out}.log" || status=$?
  if [ "$status" -ne 0 ] || ! tail -n 1 "${out}.log" | python3 -c '
import json, sys
sys.exit(json.loads(sys.stdin.read()).get("correct") is not True)'; then
    cat "${out}.log" >&2
    echo "benchsuite smoke failed: a workload missed its pinned check" >&2
    exit 1
  fi
}

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j
bench_smoke build
obs_smoke build
fault_smoke build
app_smoke build
write_smoke build
layout_smoke build
engine_smoke build
suite_smoke build

cmake -B build-scalar -S . -DFBF_ENABLE_SIMD=OFF
cmake --build build-scalar -j
ctest --test-dir build-scalar --output-on-failure -j
bench_smoke build-scalar
obs_smoke build-scalar
fault_smoke build-scalar
app_smoke build-scalar
write_smoke build-scalar
layout_smoke build-scalar
engine_smoke build-scalar

cmake -B build-asan -S . -DFBF_SANITIZE=ON
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j
bench_smoke build-asan
obs_smoke build-asan
fault_smoke build-asan
app_smoke build-asan
write_smoke build-asan
layout_smoke build-asan
engine_smoke build-asan

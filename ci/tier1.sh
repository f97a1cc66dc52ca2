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
# per benchmark — this catches flag/registration breakage, not perf), the
# event-core macro bench (bench_engine, one rep — wiring coverage, not
# perf), and a tiny Table-V sweep that drives the full figure pipeline end
# to end.
# An obs smoke run then re-drives that sweep with --metrics-out/--trace-out
# and feeds the artifacts to tools/obs_schema_check, which enforces the
# metrics schema, the counter conservation laws, trace-event well-formedness,
# and byte-level determinism of the metrics across two same-seed runs.
# Finally a fault smoke runs a tiny URE x straggler matrix through
# bench_ext_fault_sweep twice per engine and diffs the CSVs: the fault
# stream is a pure function of the seed, so any byte of divergence is a
# determinism regression in the injection layer. A second pair per engine
# adds a mid-recovery disk failure, so escalation and replans are held to
# the same contract, and each engine's metrics must show an escalated
# stripe. Both engines' exact bytes are pinned by the golden tests
# (tests/integration/golden_metrics_test.cpp). An app smoke does the
# same for the online-recovery path (foreground traffic, deadlines, and
# the recovery throttle on both engines, via bench_app_slo), a write
# smoke for the partial-stripe write path (parity-update planner plus the
# dirty write-back cache, via bench_ext_write_sweep), and a layout smoke
# for every disk-mapping strategy (via fbfsim; the wide pools run both
# engines under app traffic, the write path and the throttle).
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
  "${build_dir}/bench/bench_engine" \
    --engine=sor,dor --p=5 --errors=64 --workers=8 --reps=1 --csv >/dev/null
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
  # A whole-disk failure landing mid-recovery, on each engine: DiskFail ->
  # respare -> escalation replans, diffed the same way; the exported
  # escalation count proves the leg engaged.
  for engine in sor dor; do
    local fail_flags=(--engine="$engine" --errors=8 --workers=4 --csv
      --ure-rates=0,0.001 --straggler-factors=1,4 --fault-disk-fail-at-ms=200)
    local run
    for run in 1 2; do
      "${build_dir}/bench/bench_ext_fault_sweep" "${fail_flags[@]}" \
        --metrics-out="${out}/${engine}_fail${run}.json" \
        >"${out}/${engine}_fail${run}.csv"
    done
    cmp "${out}/${engine}_fail1.csv" "${out}/${engine}_fail2.csv" || {
      echo "fault sweep (${engine}, disk failure) is not deterministic" >&2
      exit 1
    }
    "${build_dir}/tools/obs_schema_check" "${out}/${engine}_fail1.json" \
      --compare="${out}/${engine}_fail2.json"
    python3 - "${out}/${engine}_fail1.json" "$engine" <<'EOF'
import json, sys
escalated = json.load(open(sys.argv[1]))["counters"].get(
    "run.fault.escalated_stripes", 0)
if escalated <= 0:
    sys.exit(sys.argv[2] + " disk-failure leg never escalated a stripe")
EOF
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
# including the write rows of the sim/validate.h law table, whose
# spare_writes row this mixed document leaves to its write gate — and
# match across the two runs modulo wall_clock.
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
# geometry is a pure function of (stripe, cell)). The declustered
# strategies additionally run over a pool wider than the stripe, on both
# engines, with app reads and writes through the write path and the
# recovery throttle, so the foreground's per-stripe records and the
# per-stripe column maps run in every build config. The metrics export of
# each run feeds obs_schema_check so the conservation laws hold under a
# wide pool too.
layout_smoke() {
  local build_dir="$1"
  local out="${build_dir}/layout-smoke"
  rm -rf "$out"
  mkdir -p "$out"
  local layout
  for layout in naive rotate tdesign d3; do
    local pool=0
    local engines=(sor)
    local traffic=()
    if [ "$layout" = "tdesign" ] || [ "$layout" = "d3" ]; then
      pool=12
      engines=(sor dor)
      traffic=(--app-requests=200 --app-read-fraction=0.5
        --app-rewrite-fraction=0.3 --write-cache-chunks=32
        --write-flush-ms=20 --recovery-throttle=500)
    fi
    local engine
    for engine in "${engines[@]}"; do
      local name="${layout}-${engine}"
      local run
      for run in 1 2; do
        # The scheme-gen row is genuine wall time; everything else in the
        # table is deterministic per seed.
        "${build_dir}/examples/fbfsim" --engine="$engine" \
          --code=tip --p=7 --errors=16 --workers=4 --cache-mb=8 --csv \
          --layout="$layout" --pool-size="$pool" "${traffic[@]}" \
          --metrics-out="${out}/${name}${run}.json" \
          | grep -v "scheme gen wall" >"${out}/${name}${run}.csv"
      done
      cmp "${out}/${name}1.csv" "${out}/${name}2.csv" || {
        echo "layout ${layout} (${engine}) is not deterministic" >&2
        exit 1
      }
      "${build_dir}/tools/obs_schema_check" "${out}/${name}1.json" \
        --compare="${out}/${name}2.json"
    done
  done
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

# Builds and tests run one job per core: a bare -j starts every target at
# once, and the compilers alone can then exhaust memory.
cmake -B build -S .
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"
bench_smoke build
obs_smoke build
fault_smoke build
app_smoke build
write_smoke build
layout_smoke build
suite_smoke build

cmake -B build-scalar -S . -DFBF_ENABLE_SIMD=OFF
cmake --build build-scalar -j"$(nproc)"
ctest --test-dir build-scalar --output-on-failure -j"$(nproc)"
bench_smoke build-scalar
obs_smoke build-scalar
fault_smoke build-scalar
app_smoke build-scalar
write_smoke build-scalar
layout_smoke build-scalar

cmake -B build-asan -S . -DFBF_SANITIZE=ON
cmake --build build-asan -j"$(nproc)"
ctest --test-dir build-asan --output-on-failure -j"$(nproc)"
bench_smoke build-asan
obs_smoke build-asan
fault_smoke build-asan
app_smoke build-asan
write_smoke build-asan
layout_smoke build-asan

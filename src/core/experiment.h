// FbfSystem facade: one call from (code, p, policy, cache size, workload)
// to the paper's four metrics. Everything benches and examples need.
#pragma once

#include <string>

#include "cache/policy.h"
#include "codes/builders.h"
#include "recovery/scheme.h"
#include "sim/reconstruction.h"
#include "workload/app_trace.h"
#include "workload/errors.h"

namespace fbf::obs {
class RunObserver;
}  // namespace fbf::obs

namespace fbf::core {

/// Which reconstruction engine drives the run. DOR streams planned reads
/// per disk through one shared buffer and ignores the SOR-only knobs
/// (workers, memoization); both engines verify data when asked and serve
/// foreground app traffic through the shared online-recovery layer.
enum class EngineKind { Sor, Dor };

struct ExperimentConfig {
  codes::CodeId code = codes::CodeId::Tip;
  int p = 7;

  EngineKind engine = EngineKind::Sor;

  cache::PolicyId policy = cache::PolicyId::Fbf;
  recovery::SchemeKind scheme = recovery::SchemeKind::RoundRobin;

  std::size_t cache_bytes = 256ull << 20;
  std::size_t chunk_bytes = 32 * 1024;
  int workers = 128;

  int num_errors = 512;            ///< damaged stripes
  std::uint64_t num_stripes = 1 << 20;
  int error_col = 0;               ///< -1 = random column per error
  double spatial_locality = 0.6;

  /// Disk-mapping strategy. Rotate (RAID-5-style column rotation) by
  /// default so the parity-heavy logical columns (read by every chain in
  /// RTP-style layouts) do not pin one physical disk and hide cache
  /// effects behind a fixed bottleneck. TDesignDecluster/D3 spread each
  /// stripe over a subset of a wider pool (see pool_disks).
  sim::LayoutStrategy layout_strategy = sim::LayoutStrategy::Rotate;

  /// Physical disk pool size; 0 means "exactly the stripe width"
  /// (layout.cols()), the pre-declustering geometry. Values above the
  /// stripe width spread recovery traffic over more spindles.
  int pool_disks = 0;

  /// Distributed (declustered) sparing by default: recovery writes spread
  /// over the array instead of serializing on the failed disk. Ablated in
  /// bench_ablation_sparing.
  sim::SparePlacement spare_placement = sim::SparePlacement::Distributed;

  sim::DiskModelKind disk_model = sim::DiskModelKind::FixedLatency;
  double disk_access_ms = 10.0;    ///< paper's disk access time
  double cache_access_ms = 0.5;    ///< paper's buffer-cache access time
  double xor_ms_per_chunk = 0.05;

  bool memoize_schemes = true;
  bool verify_data = false;

  // Online-recovery extension: foreground traffic intensity (0 = none),
  // mix, per-request response SLO, and how hard the rebuild yields to it.
  int app_requests = 0;
  double app_mean_interarrival_ms = 2.0;
  double app_read_fraction = 0.7;
  double app_deadline_ms = 0.0;  ///< 0 = no deadlines
  /// Fraction of app writes that re-target a recently written chunk
  /// (workload/app_trace.h). 0 keeps traces byte-identical to pre-write
  /// builds.
  double app_rewrite_fraction = 0.0;
  sim::ThrottleConfig recovery_throttle;

  // Partial-stripe write path (sim/foreground.h): a write-back cache of
  // this many chunk-sized lines in front of the parity-update planner.
  // 0 (the default) keeps the legacy synchronous-RMW path and
  // byte-identical output.
  std::size_t write_cache_chunks = 0;
  double write_flush_ms = 50.0;       ///< periodic flush; <= 0 disables
  bool write_retain_favorable = true; ///< FBF-aware dirty retention

  std::uint64_t seed = 42;

  /// Fault injection forwarded to the engine (sim/faults). Disabled by
  /// default, which keeps every experiment byte-identical to its pre-fault
  /// output.
  sim::FaultConfig faults;

  /// Optional run-level observability sink (not owned). Shared across a
  /// sweep: each grid point exports under its own obs_run_label().
  obs::RunObserver* obs = nullptr;

  /// Appended verbatim to obs_run_label() so sweep points that share
  /// (code, p, policy, cache size) — e.g. a fault grid — export under
  /// disjoint registry keys.
  std::string obs_suffix;

  std::string label() const;
};

struct ExperimentResult {
  double hit_ratio = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t disk_reads = 0;
  std::uint64_t disk_writes = 0;
  double avg_response_ms = 0.0;
  double p99_response_ms = 0.0;
  double reconstruction_ms = 0.0;
  double scheme_gen_wall_ms = 0.0;
  std::uint64_t schemes_generated = 0;
  std::uint64_t stripes_recovered = 0;
  std::uint64_t chunks_recovered = 0;
  std::uint64_t total_chunk_requests = 0;
  double app_avg_response_ms = 0.0;
  double app_p99_response_ms = 0.0;   ///< bucket-resolution quantile
  double app_p999_response_ms = 0.0;  ///< bucket-resolution quantile
  std::uint64_t app_degraded_reads = 0;
  std::uint64_t app_degraded_writes = 0;
  std::uint64_t app_served = 0;
  std::uint64_t app_parked_drained = 0;
  std::uint64_t app_deadline_miss = 0;

  /// Per-disk recovery load spread, from the engines' per-disk op counts:
  /// how many pool disks served at least one op, the busiest disk's op
  /// count, and the mean over the whole pool. Declustered layouts widen
  /// disks_active and flatten disk_ops_max toward disk_ops_mean.
  int disks_total = 0;
  int disks_active = 0;
  std::uint64_t disk_ops_max = 0;
  double disk_ops_mean = 0.0;

  /// Fault-injection counters; all-zero when config.faults was disabled.
  sim::FaultStats fault;

  /// Write-path counters (sim/metrics.h). write.enabled is false — and
  /// every planner/dirty counter zero — when write_cache_chunks was 0;
  /// write.spare_writes is live either way (it is the legacy meaning of
  /// disk_writes).
  sim::WritePathStats write;
};

/// The engine fields an experiment sets, for either engine: build a
/// sim::ReconstructionConfig or sim::DorConfig from it and add the
/// engine's own fields. Without an observer the label stays empty, so each
/// engine config keeps its default label (which keys the fault plan).
sim::EngineConfig engine_config(const ExperimentConfig& config);

/// Runs one full reconstruction simulation. Deterministic per config.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Registry label prefix for one grid point, e.g. "run.TIP.p5.LRU.c2097152".
/// Unique per (code, p, policy, cache size) so concurrent sweep runs write
/// disjoint gauge/histogram keys.
std::string obs_run_label(const ExperimentConfig& config);

}  // namespace fbf::core

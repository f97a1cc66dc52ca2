// Metric collection matching the paper's four evaluation metrics plus the
// FBF overhead measurement (Table IV).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "cache/policy.h"
#include "obs/registry.h"
#include "util/stats.h"

namespace fbf::obs {
class RunObserver;
}  // namespace fbf::obs

namespace fbf::sim {

/// Counters from the fault-injection layer (sim/faults/faults.h). All zero
/// — and `enabled` false — on the default no-fault path, where the export
/// and the conservation laws reduce to their pre-fault forms.
struct FaultStats {
  /// True when the run executed with a non-empty fault plan.
  bool enabled = false;

  std::uint64_t sector_errors = 0;      ///< latent-sector-error read failures
  std::uint64_t transient_failures = 0; ///< failed read attempts (pre-retry)
  std::uint64_t retries = 0;            ///< extra read attempts beyond the first
  std::uint64_t dead_disk_reads = 0;    ///< attempts that timed out on a failed disk
  std::uint64_t replans = 0;            ///< stripes re-planned around a new loss
  std::uint64_t gauss_fallbacks = 0;    ///< replans that needed the Gauss solver
  std::uint64_t disk_failures = 0;      ///< whole-disk failures injected
  std::uint64_t escalated_stripes = 0;  ///< stripes added by disk-failure escalation
  /// Chunk-loss events beyond the error trace: a surviving chunk lost to a
  /// URE or disk failure, or a spare copy lost with its disk. Each such
  /// chunk is recovered (again).
  std::uint64_t extra_lost_chunks = 0;
  /// Spare copies invalidated because a later disk failure killed the disk
  /// holding them. Each is also counted in extra_lost_chunks (the chunk is
  /// recovered again).
  std::uint64_t respared = 0;
  std::uint64_t straggler_disks = 0;    ///< disks running with a service multiplier
};

/// Counters from the foreground write path (sim/foreground.h): the parity
/// -update planner, the dirty write-back cache, and the flush machinery.
/// All zero — and `enabled` false — when the write path is off, where the
/// export and the conservation laws reduce to their legacy forms.
struct WritePathStats {
  /// True when the run executed with a write-back cache configured.
  bool enabled = false;

  /// Recovery spare-area writes. Counted on every engine regardless of
  /// `enabled` (it is the legacy meaning of disk_writes), so the write laws
  /// of sim/validate.h bind on the legacy and the write-back path alike.
  std::uint64_t spare_writes = 0;

  std::uint64_t rmw_plans = 0;      ///< writes served read-modify-write
  std::uint64_t rcw_plans = 0;      ///< writes served reconstruct-write
  std::uint64_t direct_plans = 0;   ///< parity-cell overwrites (no chains)
  /// Plans that skipped at least one damaged parity chain (degraded
  /// writes served inline instead of parking).
  std::uint64_t degraded_plans = 0;
  std::uint64_t plan_disk_reads = 0;   ///< planner source reads from disk
  std::uint64_t plan_cache_reads = 0;  ///< planner sources served by cache
  std::uint64_t app_read_hits = 0;     ///< app reads served from the cache
  std::uint64_t parity_updates = 0;    ///< parity chunks rewritten on disk

  // Dirty-line life cycle (conservation laws: the sim/validate.h table).
  std::uint64_t dirty_installed = 0;  ///< clean->dirty transitions
  std::uint64_t flushed = 0;          ///< dirty lines drained for write-back
  std::uint64_t write_backs = 0;      ///< deferred target writes hitting disk
  std::uint64_t lost_dirty = 0;       ///< dirty lines lost with a dead disk
  std::uint64_t evicted_dirty = 0;    ///< dirty lines evicted (write-back)
  std::uint64_t retained_dirty = 0;   ///< favorable lines kept at a flush
  std::uint64_t flush_ticks = 0;      ///< periodic flush events fired
  std::uint64_t write_hits = 0;       ///< write() found the line resident
  std::uint64_t write_misses = 0;     ///< write() allocated the line
};

struct SimMetrics {
  // Metric 1: cache hit ratio during reconstruction.
  cache::CacheStats cache;

  // Metric 2: total disk reads during recovery.
  std::uint64_t disk_reads = 0;
  std::uint64_t disk_writes = 0;
  /// Reads scheduled up front by the DOR streaming plan (each distinct
  /// surviving chunk once, LBA order). Zero under SOR, whose reads are
  /// all demand misses. The sim/validate.h table accounts for every disk
  /// read on both engines.
  std::uint64_t planned_disk_reads = 0;

  // Metric 3: per-request response time (cache lookup -> data ready).
  util::Accumulator response_ms;
  util::Reservoir response_reservoir{4096};

  // Metric 4: total reconstruction time (makespan incl. spare writes).
  double reconstruction_ms = 0.0;

  // Table IV: wall-clock cost of recovery-scheme + priority generation,
  // reported separately from simulated time so runs stay deterministic.
  double scheme_gen_wall_ms = 0.0;
  std::uint64_t schemes_generated = 0;
  std::uint64_t scheme_cache_hits = 0;

  std::uint64_t stripes_recovered = 0;
  std::uint64_t chunks_recovered = 0;
  std::uint64_t total_chunk_requests = 0;

  // Online-recovery extension: foreground application traffic.
  util::Accumulator app_response_ms;
  std::uint64_t app_requests = 0;
  /// Reads that landed on a damaged, not-yet-recovered chunk and had to
  /// wait for reconstruction — the user-visible window-of-vulnerability
  /// cost.
  std::uint64_t app_degraded_reads = 0;
  /// Writes whose target — or a parity cell on a chain through it — was
  /// damaged and not yet recovered: the read-modify-write cannot read its
  /// sources, so the write parks like a degraded read.
  std::uint64_t app_degraded_writes = 0;
  /// Requests served directly at arrival (no parking).
  std::uint64_t app_served = 0;
  /// Parked requests released when their stripe's recovery completed.
  std::uint64_t app_parked_drained = 0;
  /// Requests that completed after arrival + deadline_ms (deadline > 0).
  std::uint64_t app_deadline_miss = 0;
  /// Fault path: app reads whose target was unreadable (URE / dead disk /
  /// retries exhausted) and was rebuilt on the fly from one chain.
  std::uint64_t app_reconstructed_reads = 0;
  /// Full response-time distribution for app requests; the p99/p999 SLO
  /// gauges are derived from its log2 buckets at export time.
  obs::Histogram app_response_hist;
  /// Fault counters for the foreground path. App reads run through their
  /// own FaultInjector (same plan, separate nonce stream and stats), so
  /// rebuild-side conservation laws — and the rebuild fault stream itself
  /// — are untouched by app traffic.
  FaultStats app_fault;

  // Fault-injection accounting (zeroed/disabled unless the run carried a
  // fault plan); see sim/faults/faults.h.
  FaultStats fault;

  // Foreground write path (planner + dirty write-back cache); spare_writes
  // is live on every run, the rest only when the write path is enabled.
  WritePathStats write;

  // Engine-core instrumentation. Deliberately NOT exported by record_run:
  // the metrics JSON must stay byte-identical across event-queue
  // implementations. bench_engine reads these directly, the fault tests
  // assert event_queue_regrowths == 0 to pin the reservation bounds, and
  // pin replan_records_scanned to grow linearly with the trace. Every
  // processed event went through the event queue, except the app
  // arrivals, which both engines stream in beside it: engine_events ==
  // event_queue_pushes + app_requests.
  std::uint64_t engine_events = 0;  ///< events processed by the run loop
  std::uint64_t event_queue_pushes = 0;     ///< queue pushes (each one popped)
  std::uint64_t event_queue_regrowths = 0;  ///< pushes past the reservation
  /// Task and chunk records DOR's fault replanner visited (its per-stripe
  /// index walks plus the index's one lazy build); 0 on fault-free runs.
  std::uint64_t replan_records_scanned = 0;

  // Per-disk load: busy milliseconds and op counts, index = disk id. The
  // failed column's disk carries all spare writes and is usually the
  // bottleneck.
  std::vector<double> disk_busy_ms;
  std::vector<std::uint64_t> disk_ops;

  double hit_ratio() const { return cache.hit_ratio(); }

  std::string summary_line() const;
};

/// Export gate of a `run.*` counter: a run exports a gated group only when it
/// ran the layer behind it, so documents of runs without the layer stay
/// byte-identical to builds that predate it.
enum class CounterGroup : std::uint8_t { Always, App, AppFault, Write, Fault };

/// One `run.*` counter and its SimMetrics field (null for the markers
/// run.count, run.write.runs and run.fault.runs, which count 1 per run). The
/// list of them maps exported names to fields for record_run and for the law
/// table of sim/validate.h.
struct RunCounter {
  std::string_view name;
  CounterGroup group;
  const std::uint64_t* (*field)(const SimMetrics&);

  std::uint64_t value(const SimMetrics& m) const {
    return field == nullptr ? 1 : *field(m);
  }
};

/// Every `run.*` counter record_run exports.
std::span<const RunCounter> run_counters();

/// Exports a finished run's metrics into the observer's registry: integer
/// totals as `run.*` counters (summed across runs), derived ratios/latencies
/// as `label`-prefixed gauges, and the response-time distribution as a
/// merged histogram. `label` must be unique per grid point (see
/// core::obs_run_label) so concurrent sweep runs never race on the same
/// floating-point key — that is what keeps the export byte-deterministic.
/// No-op when `obs` is null; `response_hist` may be null.
void record_run(obs::RunObserver* obs, const std::string& label,
                const SimMetrics& m, const obs::Histogram* response_hist);

}  // namespace fbf::sim

// Online-recovery foreground layer shared by the SOR and DOR engines:
// open-loop application requests contend with reconstruction for the same
// analytic disks while recovery optionally yields under a token-bucket
// throttle (DESIGN.md §13).
//
// Serving rules (the honest degraded-mode model this layer pins down):
//
//  - A read whose target chunk is damaged and not yet recovered *parks*
//    until the owning stripe's recovery completes, then pays one normal
//    access from the spare area (app_degraded_reads).
//  - A write is a read-modify-write: the target plus every parity cell on
//    a chain through it is re-read and rewritten. If the target or any of
//    those parity cells is damaged and unrepaired, the RMW has no valid
//    sources, so the write parks alongside degraded reads
//    (app_degraded_writes) and drains on stripe recovery.
//  - With the write path enabled (WritePathConfig::cache_chunks > 0) the
//    legacy RMW is replaced end to end: each write runs through the
//    parity-update planner (recovery/write_plan.h), which picks RMW or RCW
//    by minimum disk I/O given what the write-back cache already holds,
//    pays the planned source reads and parity updates synchronously, and
//    defers the target's own data write as a dirty cache line. Dirty lines
//    reach disk on eviction, on periodic flush ticks (the engines schedule
//    them), and at the terminal flush; favorable lines — blocks of stripes
//    under repair, dictionary priority 3 — are retained across periodic
//    flushes when retain_favorable is set, so recovery reads keep hitting
//    them. Chains whose parity is damaged are skipped (the rebuild
//    regenerates the parity), which turns the legacy "park on damaged
//    parity" rule into a served degraded write; only a damaged target, or
//    a plan whose sources are damaged and uncached, still parks.
//  - Once a damaged chunk is repaired, *all* its I/O — reads, RMW data
//    and parity accesses — is remapped to the spare location; the original
//    sector is dead and never touched again.
//  - With fault injection active, app reads run through their own
//    FaultInjector (same plan, separate nonce stream and FaultStats):
//    UREs and dead disks apply to foreground reads too, and a hard read
//    failure falls back to a one-level on-the-fly chain reconstruction
//    (or parks, if the stripe is still under repair). Stragglers slow app
//    I/O implicitly via the per-disk service multiplier.
//
// All serving is synchronous against the analytic disk model (submit
// returns the completion time), so the engines only schedule arrival
// events; parked requests are re-served from the stripe-recovery hook.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/policy.h"
#include "codes/layout.h"
#include "sim/array_geometry.h"
#include "sim/disk.h"
#include "sim/faults/faults.h"
#include "sim/key_id_map.h"
#include "sim/metrics.h"
#include "workload/app_trace.h"
#include "workload/errors.h"

namespace fbf::sim {

/// Recovery-throttling policy: rebuild reads yield to user reads by
/// drawing from a token bucket refilled at `rebuild_reads_per_sec`.
/// Disabled (rate 0) by default, which keeps recovery-only runs
/// byte-identical to builds that predate the throttle.
struct ThrottleConfig {
  double rebuild_reads_per_sec = 0.0;  ///< 0 = unthrottled
  int burst = 16;                      ///< bucket depth (allowed burst)

  bool enabled() const { return rebuild_reads_per_sec > 0.0; }
};

/// Foreground write-back cache configuration. Disabled by default
/// (cache_chunks == 0), which keeps every run byte-identical to builds
/// that predate the write path: writes take the legacy synchronous RMW,
/// no flush events are scheduled, and no write metrics are exported.
struct WritePathConfig {
  std::size_t cache_chunks = 0;     ///< write-back cache capacity; 0 = off
  double flush_interval_ms = 50.0;  ///< periodic dirty flush; <= 0 disables
  /// Retain favorable dirty lines (dictionary priority >= 2: their stripe
  /// was under repair at write time) across periodic flushes — the FBF
  /// write-back policy. The terminal flush always drains everything.
  bool retain_favorable = true;
  cache::PolicyId policy = cache::PolicyId::Fbf;
  double cache_access_ms = 0.5;     ///< same controller-RAM cost as reads

  bool enabled() const { return cache_chunks > 0; }
};

/// Deterministic token bucket over simulated time. acquire() must be
/// called with non-decreasing `now` (the event loops pop in time order);
/// it returns the earliest time >= now the next rebuild read may be
/// submitted. When the grant lies in the future the engines *defer* the
/// disk submission to the grant time (SOR: Worker::PendingRead, DOR: a
/// ThrottledSubmit event) instead of future-dating it — a future-dated
/// FCFS reservation would jump ahead of app requests that arrive earlier
/// in simulated time, inverting the priority the throttle exists to give.
class RebuildThrottle {
 public:
  explicit RebuildThrottle(const ThrottleConfig& config);

  double acquire(double now_ms);

 private:
  double interval_ms_;
  double burst_;
  double tokens_;
  double last_ms_ = 0.0;
};

/// Per-run foreground server. Owns the parking state and all app-side
/// metrics; the engines forward arrival events and recovery completions
/// (SOR per stripe pass, DOR per recovered loss) and otherwise never
/// touch the app path.
class ForegroundServer {
 public:
  /// `spare_disk_override(key)` maps a chunk key to the disk its live
  /// spare copy actually landed on under faults (SOR: spared_on_, DOR:
  /// ChunkInfo::spare_disk); return -1 for the geometry's default choice.
  /// Pass nullptr when no fault path is active. `app_injector` may be
  /// null (fault-free); it must be a *separate* injector instance from the
  /// rebuild one so app retries never enter the rebuild conservation laws.
  /// `write_config` enables the planner + write-back path when
  /// write_config.enabled() and the trace is non-empty; otherwise writes
  /// take the legacy synchronous RMW and the server carries no cache.
  ForegroundServer(const codes::Layout& layout, const ArrayGeometry& geometry,
                   std::vector<Disk>& disks,
                   const std::vector<workload::StripeError>& errors,
                   const std::vector<workload::AppRequest>& trace,
                   SimMetrics& metrics, FaultInjector* app_injector,
                   std::function<int(std::uint64_t key)> spare_disk_override,
                   const WritePathConfig& write_config = {});

  /// Handles the arrival of trace[index] at simulated time `now`.
  void on_arrival(std::size_t index, double now);

  /// True when the write-back cache is live for this run (write path
  /// configured AND the trace is non-empty). Engines gate flush-tick
  /// scheduling on this.
  bool write_path_active() const { return write_cache_ != nullptr; }

  /// Periodic flush: drains dirty lines (favorable ones retained when
  /// configured) and submits their write-backs at `now`.
  void on_flush_tick(double now);

  /// A whole-disk failure at `now`: dirty lines whose write-back target
  /// sat on the dead disk are dropped (lost_dirty) — the rebuild will
  /// regenerate those chunks from parity. The cache itself is controller
  /// RAM and survives; only lines with nowhere left to land are lost.
  void on_disk_failed(int disk, double now);

  /// Terminal flush at end of run: every remaining dirty line (favorable
  /// included) is written back at `now`, and the cache-side write counters
  /// are folded into the run metrics. Call before assert_drained().
  void finalize(double now);

  /// Marks `stripe` repaired and releases the requests parked on it, in
  /// arrival order; call when its recovery (the traced losses) completes.
  /// Idempotent per stripe; a no-op for a stripe the trace never lists.
  /// SOR calls it at the end of each stripe pass.
  void on_stripe_recovered(std::uint64_t stripe, double now);

  /// A recovered copy of (stripe, cell) persisted at `now`. The first
  /// persistence of each distinct traced loss counts its stripe down;
  /// the last one calls on_stripe_recovered. Repeat persistences
  /// (respares) and cells the trace does not list (escalation losses)
  /// are ignored. DOR's hook: it has no per-stripe pass to end.
  void on_loss_recovered(std::uint64_t stripe, codes::Cell cell, double now);

  /// True when the error trace lists (stripe, cell) as lost, under any of
  /// the stripe's errors. Stays true after repair: the chunk then lives
  /// at its spare location.
  bool traced_loss(std::uint64_t stripe, codes::Cell cell) const;

  /// True for a traced stripe whose recovery has not completed. A stripe
  /// the trace never lists is never under repair.
  bool stripe_under_repair(std::uint64_t stripe) const;

  /// End-of-run sanity: every parked request must have drained.
  void assert_drained() const;

 private:
  struct Location {
    int disk = 0;
    std::uint64_t lba = 0;
  };
  static constexpr std::uint32_t kNone = 0xffffffffu;
  /// Foreground state of one traced stripe. Its two bitsets, indexed by
  /// cell_index, sit at loss_bits_[id * 2 * words_]: the traced losses,
  /// then the traced losses whose recovered copy has not yet persisted.
  struct StripeRecord {
    std::uint32_t pending = 0;  ///< distinct traced losses not yet persisted
    std::uint32_t parked_head = kNone;  ///< parked_ list, arrival order
    std::uint32_t parked_tail = kNone;
    bool repaired = false;
  };
  struct Parked {
    std::size_t index = 0;
    double arrival_ms = 0.0;
    std::uint32_t next = kNone;
  };

  /// Record id of a traced stripe, or KeyIdMap::kNoId. The last lookup is
  /// memoized: serving one request asks about its stripe many times.
  std::uint32_t record_id(std::uint64_t stripe) const {
    if (stripe != memo_stripe_) {
      memo_stripe_ = stripe;
      memo_id_ = stripe_ids_.find(stripe);
    }
    return memo_id_;
  }
  /// Index into loss_bits_ of the word holding `cell`'s bit in record
  /// `id`'s bitset `set` (0: traced losses, 1: not yet persisted); the
  /// bit's mask goes to `mask`.
  std::size_t loss_word(std::uint32_t id, int set, codes::Cell cell,
                        std::uint64_t& mask) const {
    const auto idx = static_cast<std::size_t>(layout_->cell_index(cell));
    mask = std::uint64_t{1} << (idx & 63);
    return (2 * static_cast<std::size_t>(id) + static_cast<std::size_t>(set)) *
               words_ +
           (idx >> 6);
  }

  /// Physical home of (stripe, cell): the spare copy for damaged chunks
  /// (the original sector is dead), the original location otherwise.
  /// Reads the home disk from a one-stripe column map.
  Location locate(std::uint64_t stripe, codes::Cell cell);
  bool damaged_unrepaired(std::uint64_t stripe, codes::Cell cell) const;
  bool must_park(const workload::AppRequest& req) const;
  void park(std::size_t index, double arrival, bool is_read);
  /// Serves a read starting at `start`; false means the target hard-failed
  /// while its stripe is still under repair (caller parks the request).
  bool serve_read(const workload::AppRequest& req, double start,
                  double arrival);
  /// Serves a write starting at `start`; false means the planner found no
  /// feasible source set (damaged + uncached), so the caller parks. The
  /// legacy path always serves.
  bool serve_write(const workload::AppRequest& req, double start,
                   double arrival);
  /// Planner-driven write (write path active): synchronous source reads
  /// and parity updates, target deferred as a dirty line.
  bool serve_write_planned(const workload::AppRequest& req, double start,
                           double arrival);
  void serve_write_legacy(const workload::AppRequest& req, double start,
                          double arrival);
  /// Submits the deferred data write of one dirty line at `now`.
  void write_back(cache::Key key, double now);
  /// Write-backs for lines the cache evicted since the last drain.
  void drain_evicted(double now);
  /// Dictionary priority for a chunk of `stripe`: favorable (3) while the
  /// stripe is under repair — its blocks feed recovery — else 1.
  int write_priority(std::uint64_t stripe) const {
    return stripe_under_repair(stripe) ? 3 : 1;
  }
  /// Fault fallback: rebuilds the unreadable target from the survivors of
  /// one chain through it (plain reads — a single-level reconstruction).
  double reconstruct_read(const workload::AppRequest& req, double start);
  void finish(double done, double arrival, double deadline_ms);

  const codes::Layout* layout_;
  const ArrayGeometry* geometry_;
  std::vector<Disk>* disks_;
  const std::vector<workload::AppRequest>* trace_;
  SimMetrics* metrics_;
  FaultInjector* injector_;
  std::function<int(std::uint64_t)> spare_disk_override_;

  WritePathConfig write_config_;
  /// Write-back cache; null unless the write path is active. Lives here —
  /// not in the engines — so both engines share one implementation and the
  /// recovery caches stay read-only.
  std::unique_ptr<cache::CachePolicy> write_cache_;
  std::vector<cache::core::DirtyLine> dirty_scratch_;

  /// Traced stripe -> record id, sized once from the error count. Empty
  /// when the run carries no app trace: nothing then consults it.
  KeyIdMap stripe_ids_{0};
  std::vector<StripeRecord> records_;
  std::vector<std::uint64_t> loss_bits_;
  std::size_t words_ = 0;  ///< bitset words per stripe
  std::vector<Parked> parked_;
  std::size_t parked_count_ = 0;
  mutable std::uint64_t memo_stripe_ = ~std::uint64_t{0};
  mutable std::uint32_t memo_id_ = KeyIdMap::kNoId;
  /// Column map of memo_disks_stripe_ (ArrayGeometry::stripe_disks).
  std::vector<int> memo_disks_;
  std::uint64_t memo_disks_stripe_ = ~std::uint64_t{0};
};

}  // namespace fbf::sim

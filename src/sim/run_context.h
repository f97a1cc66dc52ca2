// The spine both reconstruction engines share (paper §III-B). SOR and DOR
// differ only in how they schedule recovery reads: a worker per stripe or
// a reader per disk. Everything else one run() needs is built here, once:
//
//  - EngineConfig: the fields both engine configs carry.
//  - RunContext: one run's state outside the schedule (metrics, disks,
//    fault plan and injectors, foreground server, throttle, flush ticks)
//    plus the per-I/O steps whose counts the conservation laws check
//    (sim/validate.h): a rebuild read, a spare write, a disk failure, and
//    the end-of-run books.
//  - VerifyImages: one stripe's truth and working bytes for verify_data.
//
// The per-I/O members are defined here, inline, because both engines call
// them once per simulated read or write.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/policy.h"
#include "codes/codec.h"
#include "obs/observer.h"
#include "obs/registry.h"
#include "recovery/scheme_cache.h"
#include "sim/array_geometry.h"
#include "sim/disk.h"
#include "sim/faults/faults.h"
#include "sim/foreground.h"
#include "sim/metrics.h"
#include "sim/validate.h"
#include "workload/app_trace.h"
#include "workload/errors.h"

namespace fbf::sim {

/// The configuration both engines take; ReconstructionConfig (SOR) and
/// DorConfig add their own fields to it.
struct EngineConfig {
  recovery::SchemeKind scheme = recovery::SchemeKind::RoundRobin;
  cache::PolicyId policy = cache::PolicyId::Fbf;

  std::size_t cache_bytes = 256ull << 20;
  std::size_t chunk_bytes = 32 * 1024;

  double cache_access_ms = 0.5;   ///< paper's buffer-cache access time
  double xor_ms_per_chunk = 0.05; ///< XOR cost per source chunk folded in

  DiskParams disk;
  std::uint64_t seed = 1;

  /// Fault injection (sim/faults). Disabled by default; when
  /// faults.enabled() is false the engine takes the exact pre-fault code
  /// path and produces byte-identical metrics.
  FaultConfig faults;

  /// Recovery throttling (sim/foreground.h): rebuild read submissions draw
  /// from a token bucket so foreground traffic sees shorter disk queues.
  /// Disabled by default (byte-identical to the unthrottled engine).
  ThrottleConfig throttle;

  /// Foreground write path (sim/foreground.h): parity-update planner +
  /// dirty write-back cache. Disabled by default (byte-identical to the
  /// legacy synchronous-RMW engine).
  WritePathConfig write;

  /// Carry real chunk bytes through the recovery and verify each
  /// reconstructed chunk against the original as it is rebuilt
  /// (integration-test mode; slows the run, uses small verification
  /// chunks).
  bool verify_data = false;
  std::size_t verify_chunk_bytes = 64;

  /// Optional run-level observability sink (not owned). When set, the run
  /// exports counters/gauges/histograms under `obs_label` and emits trace
  /// spans at the observer's trace level. Null keeps the engine on the
  /// zero-cost path.
  obs::RunObserver* observer = nullptr;
  /// Export prefix; the fault plan is keyed by it too. An engine config
  /// built from an EngineConfig whose label is empty takes the engine's
  /// default ("run.sor" or "run.dor").
  std::string obs_label;
};

/// One stripe's bytes for verify_data mode: a ground-truth image and a
/// working image the recovery rebuilds in place, each chunk checked
/// against the truth as soon as it is rebuilt. Both engines seed a
/// stripe's truth the same way, so they verify the same bytes.
class VerifyImages {
 public:
  VerifyImages(const codes::Layout& layout, std::size_t chunk_bytes);

  /// Regenerates `stripe`'s truth image (seed 0x5eed ^ stripe) and resets
  /// the working image to it.
  void reset(std::uint64_t stripe);
  /// Models losing `cell` in the working image.
  void erase(codes::Cell cell) { working_.erase(cell); }
  /// Copies `cell`'s true bytes into the working image (a read that
  /// delivers a correct copy of a chunk the image had lost).
  void restore(codes::Cell cell);
  /// Rebuilds `target` in the working image by folding chain `chain_id`,
  /// then checks it against the truth.
  void fold_chain(int chain_id, codes::Cell target);
  /// Gauss-solves `cells` in the working image, then checks each one.
  void solve_gauss(const std::vector<codes::Cell>& cells);

 private:
  std::uint64_t stripe_ = 0;
  codes::StripeData truth_;
  codes::StripeData working_;
  std::vector<std::span<const std::byte>> fold_srcs_;
};

/// One engine run's state outside the schedule. Built at the start of
/// run() and dropped at its end, so a run never sees the state of an
/// earlier one. Not movable: the foreground server points into it.
class RunContext {
 public:
  /// `disk_seed` is the engine's multiplier from the run seed to each
  /// disk's RNG seed (seed * disk_seed + disk id); only the detailed disk
  /// model draws from it. `spare_disk_override` is the foreground
  /// server's hook to the engine's record of where each spare copy landed
  /// (ForegroundServer's constructor); null when the engine keeps none.
  RunContext(const codes::Layout& layout, const ArrayGeometry& geometry,
             const EngineConfig& config, std::uint64_t disk_seed,
             const std::vector<workload::StripeError>& errors,
             const std::vector<workload::AppRequest>& app_trace,
             std::function<int(std::uint64_t key)> spare_disk_override);

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  SimMetrics metrics;
  /// Engaged iff config.faults.enabled(); a pure function of (seed,
  /// label).
  std::optional<FaultPlan> fault_plan;
  std::vector<Disk> disks;  ///< one per pool disk, stragglers slowed
  /// Rebuild reads go through `injector`; the foreground server's reads
  /// through `app_injector` (engaged only with an app trace), a separate
  /// nonce stream so app retries never enter the rebuild laws.
  std::optional<FaultInjector> injector;
  std::optional<FaultInjector> app_injector;
  ForegroundServer foreground;
  std::optional<RebuildThrottle> throttle;  ///< engaged iff throttled
  /// True when the engine schedules periodic write-back flush ticks.
  bool flush_ticks_on = false;
  /// Per-run scheme memo (paper §III-A); see lookup_scheme.
  recovery::SchemeCache schemes;

  /// The whole-disk failures of the fault plan (none without one).
  std::span<const DiskFailure> disk_failures() const {
    if (!fault_plan.has_value()) {
      return {};
    }
    return fault_plan->disk_failures();
  }

  /// The memoized scheme for `error`, counted as generated (first use of
  /// the error format) or as a scheme-cache hit.
  std::shared_ptr<const recovery::RecoveryScheme> lookup_scheme(
      const recovery::PartialStripeError& error, recovery::SchemeKind kind) {
    const auto before = schemes.misses();
    auto scheme = schemes.get(error, kind);
    if (schemes.misses() > before) {
      ++metrics.schemes_generated;
    } else {
      ++metrics.scheme_cache_hits;
    }
    return scheme;
  }

  struct Read {
    double done_ms = 0.0;  ///< completion of the last attempt
    bool ok = true;        ///< false: the chunk is unreadable
  };
  /// Submits a rebuild read of chunk `key` at `lba` on `disk` at
  /// `submit_t`: through the fault injector when faults are on (every
  /// attempt is a disk submission and counts in disk_reads), else one
  /// plain submission. `original_location` is false for a spare copy,
  /// which is never URE-hit. The caller samples the response time.
  Read rebuild_read(int disk, double submit_t, std::uint64_t lba,
                    std::uint64_t key, bool original_location) {
    Disk& d = disks[static_cast<std::size_t>(disk)];
    Read out;
    if (injector.has_value()) {
      const FaultInjector::ReadOutcome rr =
          injector->read(d, submit_t, lba, key, original_location);
      metrics.disk_reads += static_cast<std::uint64_t>(rr.attempts);
      out.done_ms = rr.done_ms;
      out.ok = rr.ok;
    } else {
      out.done_ms = d.submit_read(submit_t, lba);
      ++metrics.disk_reads;
    }
    if (obs::tracing(observer_, obs::TraceLevel::Fine)) {
      obs::trace_span(observer_, obs::TraceLevel::Fine, obs::kPidDisks,
                      static_cast<std::uint32_t>(disk), "disk_read", "disk",
                      submit_t * 1000.0, (out.done_ms - submit_t) * 1000.0,
                      "stripe", key / cells_per_stripe_);
    }
    return out;
  }

  /// Records one recovery-read response time. Each engine computes it in
  /// its own order of operations, which the goldens pin to the last bit.
  void sample_response(double ms) {
    metrics.response_ms.add(ms);
    metrics.response_reservoir.add(ms);
    if (observer_ != nullptr) {
      response_hist_.add(ms);
    }
  }

  struct SpareWrite {
    int disk = 0;
    double done_ms = 0.0;
  };
  /// Persists one recovered chunk of `stripe` to the spare area at `at`:
  /// to `preferred` (the geometry's spare disk) or, when that disk is
  /// dead, the injector's next live one. Counts the write as a disk write,
  /// a spare write and a recovered chunk.
  SpareWrite spare_write(int preferred, std::uint64_t spare_lba, double at,
                         std::uint64_t stripe) {
    SpareWrite out;
    out.disk = preferred;
    if (injector.has_value()) {
      out.disk = injector->spare_disk(preferred, num_disks(), at);
      if (validation_enabled()) {
        // spare_disk_of is deliberately fault-agnostic; the injector's
        // rerouting is the only thing standing between a recovery write
        // and a dead disk, so pin that here.
        FBF_CHECK(!fault_plan->disk_failed(out.disk, at),
                  "spare write routed to a dead disk");
      }
    }
    out.done_ms =
        disks[static_cast<std::size_t>(out.disk)].submit_write(at, spare_lba);
    ++metrics.disk_writes;
    ++metrics.write.spare_writes;
    ++metrics.chunks_recovered;
    obs::trace_span(observer_, obs::TraceLevel::Phases, obs::kPidDisks,
                    static_cast<std::uint32_t>(out.disk), "spare_write",
                    "disk", at * 1000.0, (out.done_ms - at) * 1000.0,
                    "stripe", stripe);
    return out;
  }

  /// A whole-disk failure of `disk` at `now`: counted, and passed to the
  /// foreground server (dirty lines bound for the disk are lost).
  void disk_failed(int disk, double now) {
    ++metrics.fault.disk_failures;
    foreground.on_disk_failed(disk, now);
  }

  /// The column of `stripe` that `disk` holds, or -1 when it holds none
  /// (a pool wider than a stripe).
  int column_on(std::uint64_t stripe, int disk);

  /// Closes the run's books: the event queue's counters, the foreground's
  /// terminal flush and drain check, per-disk stats, then validate_run
  /// (under FBF_VALIDATE) and the observer export. Call once, after the
  /// engine has filled in its own totals; returns the run's metrics.
  SimMetrics finish(std::uint64_t queue_regrowths, std::uint64_t queue_pushes,
                    double last_event_ms);

 private:
  int num_disks() const { return static_cast<int>(disks.size()); }

  const ArrayGeometry* geometry_;
  const std::vector<workload::StripeError>* errors_;
  obs::RunObserver* observer_;
  std::string obs_label_;
  std::uint64_t cells_per_stripe_;
  obs::Histogram response_hist_;
  std::vector<int> column_map_;  ///< column_on's scratch
};

}  // namespace fbf::sim

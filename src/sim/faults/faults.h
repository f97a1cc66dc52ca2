// Deterministic fault injection for degraded recovery.
//
// A FaultPlan is a pure function of (fault seed, run label): every fault
// decision — which chunks carry latent sector errors, which read attempts
// fail transiently, which disks straggle, which disks die and when — is a
// hash of the plan key and the query, never of simulation state or wall
// clock. Two runs with the same seed, label, and configuration therefore
// inject byte-identical fault streams, which keeps the observability
// determinism contract (DESIGN.md §10) intact under faults.
//
// The FaultInjector is the runtime face the engines use: it owns the one
// piece of sequencing state (the transient-failure nonce, advanced once per
// read attempt in simulated-event order) and the retry/backoff loop, and it
// writes the FaultStats counters the conservation laws read. Fault kinds:
//
//  - Latent sector errors (UREs): a per-chunk predicate on the chunk's
//    *original* location. One attempt, permanent failure; the chunk joins
//    the stripe's lost set and is recovered like any other erasure. Spare
//    copies are never URE-hit, so recovery always terminates.
//  - Transient read failures: per-attempt predicate; the injector retries
//    with a fixed backoff up to max_retries extra attempts, then reports a
//    hard failure (the engines treat it like a URE).
//  - Stragglers: a service-time multiplier on a deterministic subset of
//    disks, applied inside Disk::service_ms.
//  - Whole-disk failures: (time, disk) pairs. From the failure time on,
//    every access to the disk's data region times out (one full service
//    slot, counted as a disk read) and the engines escalate: each traced
//    stripe gains the failed disk's column as new losses, re-planned
//    through peeling with a Gauss fallback while the erasure budget
//    permits, or aborted with a structured EscalationError beyond it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "codes/layout.h"
#include "sim/disk.h"
#include "sim/metrics.h"
#include "util/check.h"

namespace fbf::sim {

/// An injected whole-disk failure: `disk` stops serving at `at_ms`.
struct DiskFailure {
  double at_ms = 0.0;
  int disk = 0;
};

struct FaultConfig {
  /// Probability a surviving chunk's original location carries a latent
  /// sector error (evaluated once per chunk, not per attempt).
  double ure_rate = 0.0;
  /// Per-attempt probability a read fails transiently.
  double transient_rate = 0.0;
  /// Extra read attempts after a transient failure before giving up.
  int max_retries = 3;
  /// Delay between a failed attempt and its retry submission.
  double retry_backoff_ms = 1.0;

  /// Number of straggler disks (chosen deterministically from the plan key)
  /// and the service-time multiplier they run with.
  int stragglers = 0;
  double straggler_factor = 4.0;

  /// Whole-disk failure times. `disk_failure_disks` pins the disk ids;
  /// when shorter than the time list (or empty) the remaining ids are
  /// drawn deterministically from the plan key, all distinct.
  std::vector<double> disk_failure_times_ms;
  std::vector<int> disk_failure_disks;

  /// Fault-plan seed; 0 derives it from the run seed so `--seed` alone
  /// still pins the whole simulation.
  std::uint64_t seed = 0;

  /// True when any fault kind is active. The engines bypass the fault path
  /// entirely — bit-identical to a build without the fault layer — when
  /// this is false.
  bool enabled() const {
    return ure_rate > 0.0 || transient_rate > 0.0 ||
           (stragglers > 0 && straggler_factor != 1.0) ||
           !disk_failure_times_ms.empty();
  }
};

/// Structured diagnostic for an escalation beyond the 3DFT budget: the
/// outstanding lost set of `stripe` is not decodable under the layout.
class EscalationError : public util::CheckError {
 public:
  EscalationError(std::uint64_t stripe, std::vector<codes::Cell> lost,
                  std::vector<int> failed_disks);

  std::uint64_t stripe() const { return stripe_; }
  const std::vector<codes::Cell>& lost_cells() const { return lost_; }
  const std::vector<int>& failed_disks() const { return failed_disks_; }

 private:
  std::uint64_t stripe_;
  std::vector<codes::Cell> lost_;
  std::vector<int> failed_disks_;
};

/// The immutable, replayable fault plan. All predicates are pure.
class FaultPlan {
 public:
  FaultPlan(const FaultConfig& config, std::uint64_t run_seed,
            std::string_view run_label, int num_disks);

  const FaultConfig& config() const { return config_; }
  int num_disks() const { return num_disks_; }

  /// Latent sector error at the chunk's original location?
  bool sector_error(std::uint64_t chunk_key) const;

  /// Does read attempt number `nonce` (a global, monotonically assigned
  /// attempt ordinal) fail transiently?
  bool transient(std::uint64_t nonce) const;

  /// Service-time multiplier for a disk (1.0 for non-stragglers).
  double service_multiplier(int disk) const;
  std::uint64_t straggler_count() const;

  /// Injected whole-disk failures, sorted by time. Disk ids resolved.
  const std::vector<DiskFailure>& disk_failures() const {
    return disk_failures_;
  }

  /// Has `disk` failed at simulated time `now`?
  bool disk_failed(int disk, double now) const;

  /// The disks failed at simulated time `now`, in failure order.
  std::vector<int> failed_disks_at(double now) const;

 private:
  FaultConfig config_;
  int num_disks_;
  std::uint64_t key_;  ///< mixed (seed, label) plan key
  std::uint64_t ure_threshold_ = 0;
  std::uint64_t transient_threshold_ = 0;
  std::vector<double> multipliers_;
  std::vector<DiskFailure> disk_failures_;
};

/// Per-run injector: wraps the plan's predicates with the retry/backoff
/// loop, assigns transient nonces in event order, and maintains the fault
/// counters. One instance per engine run.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, FaultStats& stats)
      : plan_(&plan), stats_(&stats) {
    stats_->enabled = true;
    stats_->straggler_disks = plan.straggler_count();
  }

  const FaultPlan& plan() const { return *plan_; }

  bool disk_failed(int disk, double now) const {
    return plan_->disk_failed(disk, now);
  }

  struct ReadOutcome {
    bool ok = false;
    double done_ms = 0.0;  ///< completion of the final attempt
    int attempts = 0;      ///< disk submissions made (>= 1)
  };

  /// Submits a logical chunk read through the fault model. Every attempt
  /// is a real Disk submission (so per-disk stats and the busy <= makespan
  /// law stay exact); the caller adds `attempts` to metrics.disk_reads.
  /// `original_location` gates the URE predicate: spare-area copies are
  /// never URE-hit. A read on a failed disk costs one timeout slot and
  /// hard-fails; a URE hard-fails after one attempt; transient failures
  /// retry with backoff until the budget runs out.
  ReadOutcome read(Disk& disk, double now, std::uint64_t lba,
                   std::uint64_t chunk_key, bool original_location);

  /// Spare disk skipping failed disks: walks forward through a pool of
  /// `pool_disks` from `preferred` (the geometry's spare_disk_of choice)
  /// until a live disk is found. Deterministic; at most 3 disks can be
  /// dead (a 4th loss aborts earlier), so a live target always exists for
  /// the supported array widths.
  int spare_disk(int preferred, int pool_disks, double now) const;

 private:
  const FaultPlan* plan_;
  FaultStats* stats_;
  std::uint64_t transient_nonce_ = 0;
};

}  // namespace fbf::sim

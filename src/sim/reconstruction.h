// SOR parallel reconstruction engine (paper §III-B, §IV).
//
// Stripe-Oriented Reconstruction: K simulated worker processes each own a
// disjoint share of the damaged stripes and a private partition of the
// buffer cache (cache_bytes / K), exactly as the paper allocates it. Each
// worker walks its stripes' recovery schemes: for every step it requests
// the chain's surviving members through its cache partition (0.5 ms on a
// hit; FCFS disk service on a miss), pays the XOR cost, writes the
// recovered chunk to the spare area asynchronously, and inserts it into
// the cache with its dictionary priority.
//
// The engine is a discrete-event simulation: a min-heap of worker
// ready-times drives execution, and disks are analytic FCFS servers. Runs
// are bit-deterministic for a given configuration and trace; the only
// wall-clock measurement is the scheme-generation overhead reported
// separately for Table IV.
#pragma once

#include <vector>

#include "sim/array_geometry.h"
#include "sim/metrics.h"
#include "sim/run_context.h"
#include "workload/app_trace.h"
#include "workload/errors.h"

namespace fbf::sim {

struct ReconstructionConfig : EngineConfig {
  ReconstructionConfig() : ReconstructionConfig(EngineConfig{}) {}
  /// The shared fields from `shared`, SOR's own at their defaults.
  explicit ReconstructionConfig(const EngineConfig& shared)
      : EngineConfig(shared) {
    if (obs_label.empty()) {
      obs_label = "run.sor";
    }
  }

  int workers = 128;

  /// Memoize schemes per error format (paper §III-A). Disable to measure
  /// the un-amortized overhead for Table IV.
  bool memoize_schemes = true;

  /// Per-worker cache capacity in chunks (>= 1 whenever cache_bytes > 0,
  /// mirroring a controller that always grants a worker one buffer).
  std::size_t per_worker_capacity() const;
};

class ReconstructionEngine {
 public:
  ReconstructionEngine(const codes::Layout& layout,
                       const ArrayGeometry& geometry,
                       const ReconstructionConfig& config);

  /// Simulates recovery of all damaged stripes (plus optional foreground
  /// application traffic) and returns the collected metrics. Every call
  /// starts from a fresh RunContext, scheme memo and worker set, so one
  /// engine gives the same result on every run.
  ///
  /// The foreground path is the shared ForegroundServer (foreground.h):
  /// requests touching damaged, not-yet-recovered chunks — reads of the
  /// target, or writes whose RMW sources include one — park until the
  /// owning stripe's recovery completes, then pay one normal access from
  /// the live (spare) locations. Healthy-chunk requests go straight to
  /// the disks.
  SimMetrics run(const std::vector<workload::StripeError>& errors,
                 const std::vector<workload::AppRequest>& app_trace = {});

 private:
  const codes::Layout* layout_;
  const ArrayGeometry* geometry_;
  ReconstructionConfig config_;
};

}  // namespace fbf::sim

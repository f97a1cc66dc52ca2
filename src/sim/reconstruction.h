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

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/policy.h"
#include "codes/codec.h"
#include "recovery/request_sequence.h"
#include "recovery/scheme_cache.h"
#include "sim/array_geometry.h"
#include "sim/disk.h"
#include "sim/faults/faults.h"
#include "sim/foreground.h"
#include "sim/metrics.h"
#include "workload/app_trace.h"
#include "workload/errors.h"

namespace fbf::obs {
class Histogram;
class RunObserver;
}  // namespace fbf::obs

namespace fbf::sim {

struct ReconstructionConfig {
  recovery::SchemeKind scheme = recovery::SchemeKind::RoundRobin;
  cache::PolicyId policy = cache::PolicyId::Fbf;

  std::size_t cache_bytes = 256ull << 20;
  std::size_t chunk_bytes = 32 * 1024;
  int workers = 128;

  double cache_access_ms = 0.5;   ///< paper's buffer-cache access time
  double xor_ms_per_chunk = 0.05; ///< XOR cost per source chunk folded in

  DiskParams disk;

  /// Memoize schemes per error format (paper §III-A). Disable to measure
  /// the un-amortized overhead for Table IV.
  bool memoize_schemes = true;

  /// Carry real chunk bytes through the recovery and verify each
  /// reconstructed chunk against the original (integration-test mode;
  /// slows the run, uses small verification chunks).
  bool verify_data = false;
  std::size_t verify_chunk_bytes = 64;

  std::uint64_t seed = 1;

  /// Fault injection (sim/faults). Disabled by default; when
  /// faults.enabled() is false the engine takes the exact pre-fault code
  /// path and produces byte-identical metrics.
  FaultConfig faults;

  /// Recovery throttling (sim/foreground.h): rebuild read misses draw
  /// from a token bucket so foreground traffic sees shorter disk queues.
  /// Disabled by default (byte-identical to the unthrottled engine).
  ThrottleConfig throttle;

  /// Foreground write path (sim/foreground.h): parity-update planner +
  /// dirty write-back cache. Disabled by default (byte-identical to the
  /// legacy synchronous-RMW engine).
  WritePathConfig write;

  /// Optional run-level observability sink (not owned). When set, the run
  /// exports counters/gauges/histograms under `obs_label` and emits trace
  /// spans for stripes, disk service, XOR folds, and spare writes at the
  /// observer's trace level. Null keeps the engine on the zero-cost path.
  obs::RunObserver* observer = nullptr;
  std::string obs_label = "run.sor";

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
  /// application traffic) and returns the collected metrics.
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
  struct Worker;

  /// Advances one worker at simulated time `now`; returns the time of its
  /// next event, or nullopt when the worker has finished all stripes.
  std::optional<double> advance(Worker& w, double now, SimMetrics& metrics);

  void start_next_stripe(Worker& w, SimMetrics& metrics, double now);

  /// Invoked when a worker finishes a stripe (releases parked degraded
  /// application reads). Installed by run().
  std::function<void(std::uint64_t stripe, double now)> on_stripe_recovered_;
  /// verify_data mode: regenerates the worker's truth image for its
  /// current stripe and resets the working image to it minus `lost`.
  void load_verify_images(Worker& w, std::span<const codes::Cell> lost);
  /// verify_data mode: rebuilds `step.target` in the working image by
  /// folding its chain, then checks it against the truth image at once.
  void verify_chunk(Worker& w, const recovery::RecoveryStep& step);
  /// Points the worker at the (possibly memoized) request sequence for its
  /// current scheme. Memoization piggybacks on the scheme cache: the ops
  /// list is a pure function of (layout, scheme), so SchemeCache hits skip
  /// the per-stripe rebuild entirely.
  void assign_request_sequence(Worker& w);

  // ---- Fault path (active only when config_.faults.enabled()). ----
  /// Does a live spare copy of the chunk exist?
  bool spared_live(std::uint64_t key, double now) const;
  /// Plans (or re-plans) a stripe around an arbitrary outstanding lost
  /// set: configured scheme for fresh trace errors, peeling + Gauss
  /// fallback otherwise. Throws EscalationError when not decodable.
  void plan_fault_stripe(Worker& w, std::vector<codes::Cell> outstanding,
                         SimMetrics& metrics, bool replan, double now);
  /// A read hard-failed at time `t`: mark the cell lost and re-plan the
  /// stripe. Returns the worker's next event time.
  double handle_read_failure(Worker& w, codes::Cell cell, double t,
                             SimMetrics& metrics);
  /// Submits a rebuild read miss to its disk at `submit_t` (the request
  /// time, or a later throttle grant — see Worker::PendingRead) and returns
  /// the worker's next event time; hard failures escalate through
  /// handle_read_failure. Response time counts from `requested`.
  double finish_rebuild_read(Worker& w, codes::Cell cell, std::uint64_t lba,
                             int disk_id, bool from_spare, double requested,
                             double submit_t, SimMetrics& metrics);
  void verify_gauss_cells(Worker& w);

  const codes::Layout* layout_;
  const ArrayGeometry* geometry_;
  ReconstructionConfig config_;
  std::vector<Disk> disks_;
  std::unique_ptr<recovery::SchemeCache> scheme_cache_;
  /// Memoized request sequences keyed by scheme identity. The entry pins
  /// the scheme so the pointer key can never be reused by a new scheme.
  struct OpsEntry {
    std::shared_ptr<const recovery::RecoveryScheme> scheme;
    std::shared_ptr<const std::vector<recovery::ChunkOp>> ops;
  };
  std::unordered_map<const recovery::RecoveryScheme*, OpsEntry> ops_cache_;
  /// Points at a run()-local histogram while a run is in flight (null
  /// otherwise and whenever config_.observer is null).
  obs::Histogram* response_hist_ = nullptr;
  /// Points at a run()-local token bucket while a throttled run is in
  /// flight (null otherwise); advance() defers rebuild read misses
  /// through it.
  RebuildThrottle* throttle_ = nullptr;

  /// Set iff config_.faults.enabled(); pure function of (seed, label).
  std::optional<FaultPlan> fault_plan_;
  /// Run-scoped fault state, reset by run(). `spared_on_` maps chunk key
  /// -> disk holding its spare copy (presence == recovered at least once);
  /// the deque gives escalation-synthesized errors stable addresses.
  std::unique_ptr<FaultInjector> injector_;
  std::unordered_map<std::uint64_t, int> spared_on_;
  /// Spare copies killed by a later disk failure, queued per stripe for
  /// deterministic re-recovery by that stripe's next escalation pass.
  /// Entries are filtered through spared_live() at pass start, so a cell
  /// re-spared by an interim replan is not recovered twice.
  std::unordered_map<std::uint64_t, std::vector<codes::Cell>>
      respare_pending_;
  std::deque<workload::StripeError> escalation_storage_;
  std::unordered_set<const workload::StripeError*> escalation_errors_;
};

}  // namespace fbf::sim

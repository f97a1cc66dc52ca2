#include "sim/reconstruction.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "obs/observer.h"
#include "recovery/request_sequence.h"
#include "sim/event_queue.h"
#include "util/check.h"

namespace fbf::sim {

using recovery::ChunkOp;
using recovery::OpKind;

std::size_t ReconstructionConfig::per_worker_capacity() const {
  if (cache_bytes == 0) {
    return 0;
  }
  const std::size_t total_chunks = cache_bytes / chunk_bytes;
  return std::max<std::size_t>(
      1, total_chunks / static_cast<std::size_t>(workers));
}

namespace {

/// SOR's disk-seed multiplier (RunContext): DOR's differs, and the
/// detailed disk model's results depend on it.
constexpr std::uint64_t kSorDiskSeed = 0x100000001b3ull;

struct Worker {
  int id = 0;
  std::vector<const workload::StripeError*> assigned;
  std::size_t error_idx = 0;
  std::unique_ptr<cache::CachePolicy> cache;

  bool active = false;  ///< currently mid-stripe
  /// Stripe whose completion actions (metrics, degraded-read release) are
  /// due at this worker's next event time, keeping disk submissions in
  /// simulated-time order.
  bool completion_pending = false;
  /// Fault path: the current pass is an escalation entry (its outstanding
  /// losses count as extra_lost_chunks, not trace losses).
  bool escalation = false;
  /// Fault path: the Gauss solve of the current plan has been verified
  /// (verify_data mode charges it once, at the first Gauss-step write).
  bool gauss_verified = false;
  std::uint64_t stripe = 0;
  /// Column map of `stripe` (ArrayGeometry::stripe_disks), filled once per
  /// pass: reads and spare writes take each cell's home disk from here
  /// instead of unranking a t-design block per cell.
  std::vector<int> disks;
  std::shared_ptr<const recovery::RecoveryScheme> scheme;
  /// Fault path: owns the fault plan when the current pass was re-planned
  /// (scheme then aliases fault_scheme->scheme); null on the baseline path.
  std::shared_ptr<const recovery::FaultScheme> fault_scheme;
  /// Reused across stripes: build_request_sequence refills in place
  /// (fault replans and the unmemoized path).
  std::vector<ChunkOp> ops;
  /// Memoized sequence shared by every stripe with the same scheme; null
  /// while the owned `ops` is active.
  std::shared_ptr<const std::vector<ChunkOp>> ops_shared;
  /// The sequence the worker is executing: &ops or ops_shared.get().
  const std::vector<ChunkOp>* ops_view = &ops;
  std::size_t op_idx = 0;
  int reads_in_step = 0;
  /// Recovered-cell bitmap for the current stripe, packed 64 cells per
  /// word and reused across stripes (cleared, never reallocated).
  std::vector<std::uint64_t> recovered;

  bool is_recovered(std::size_t cell_idx) const {
    return (recovered[cell_idx >> 6] >> (cell_idx & 63)) & 1u;
  }
  void mark_recovered(std::size_t cell_idx) {
    recovered[cell_idx >> 6] |= std::uint64_t{1} << (cell_idx & 63);
  }

  /// The pass's last operation is issued: its completion actions run at
  /// the worker's next event.
  void end_pass() {
    active = false;
    completion_pending = true;
    ++error_idx;
  }

  /// verify_data mode: the current stripe's images, allocated once per
  /// run and reset in place for every stripe.
  std::optional<VerifyImages> verify;

  /// Simulated time the current stripe's first operation ran; feeds the
  /// per-stripe trace span.
  double stripe_start_ms = 0.0;

  /// Throttle deferral: a read miss whose token grant lies in the future
  /// parks here (location resolved at request time); the worker's next
  /// event performs the actual disk submission. Deferring the submission —
  /// rather than future-dating it — keeps the FCFS disks honest: foreground
  /// requests arriving before the grant are served first.
  struct PendingRead {
    codes::Cell cell;
    std::uint64_t key = 0;
    std::uint64_t lba = 0;
    int disk = -1;
    bool from_spare = false;
    double requested_at = 0.0;
  };
  std::optional<PendingRead> pending_read;
};

/// One SOR run: the shared RunContext plus SOR's schedule, a worker per
/// stripe share, each with one leaf of the run's tournament tree.
class SorRun {
 public:
  SorRun(const codes::Layout& layout, const ArrayGeometry& geometry,
         const ReconstructionConfig& config,
         const std::vector<workload::StripeError>& errors,
         const std::vector<workload::AppRequest>& app_trace);

  SimMetrics execute();

 private:
  /// Advances one worker at simulated time `now`; returns the time of its
  /// next event, or nullopt when the worker has finished all stripes.
  std::optional<double> advance(Worker& w, double now);

  void start_next_stripe(Worker& w, double now);

  /// verify_data mode: regenerates the worker's truth image for its
  /// current stripe and resets the working image to it minus `lost`.
  void load_verify_images(Worker& w, std::span<const codes::Cell> lost);
  /// Points the worker at the configured scheme for its current trace
  /// error (memoized unless config_.memoize_schemes is off) and at the
  /// scheme's request sequence.
  void use_configured_scheme(Worker& w, const workload::StripeError& err);
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
                         bool replan, double now);
  /// A read hard-failed at time `t`: mark the cell lost and re-plan the
  /// stripe. Returns the worker's next event time.
  double handle_read_failure(Worker& w, codes::Cell cell, double t);
  /// Submits a rebuild read miss to its disk at `submit_t` (the request
  /// time, or a later throttle grant — see Worker::PendingRead) and returns
  /// the worker's next event time; hard failures escalate through
  /// handle_read_failure. Response time counts from `requested`.
  double finish_rebuild_read(Worker& w, codes::Cell cell, std::uint64_t key,
                             std::uint64_t lba, int disk_id, bool from_spare,
                             double requested, double submit_t);

  const codes::Layout* layout_;
  const ArrayGeometry* geometry_;
  const ReconstructionConfig config_;
  const std::vector<workload::StripeError>* errors_;
  const std::vector<workload::AppRequest>* app_trace_;
  /// Fault path: chunk key -> disk holding its spare copy (presence ==
  /// recovered at least once), across passes and replans. Declared before
  /// ctx_, whose foreground server reads it.
  std::unordered_map<std::uint64_t, int> spared_on_;
  RunContext ctx_;
  /// Memoized request sequences keyed by scheme identity. The entry pins
  /// the scheme so the pointer key can never be reused by a new scheme.
  struct OpsEntry {
    std::shared_ptr<const recovery::RecoveryScheme> scheme;
    std::shared_ptr<const std::vector<ChunkOp>> ops;
  };
  std::unordered_map<const recovery::RecoveryScheme*, OpsEntry> ops_cache_;
  /// Spare copies killed by a later disk failure, queued per stripe for
  /// deterministic re-recovery by that stripe's next escalation pass.
  /// Entries are filtered through spared_live() at pass start, so a cell
  /// re-spared by an interim replan is not recovered twice.
  std::unordered_map<std::uint64_t, std::vector<codes::Cell>>
      respare_pending_;
  /// Escalation-synthesized errors; the deque gives them stable addresses.
  std::deque<workload::StripeError> escalation_storage_;
  std::unordered_set<const workload::StripeError*> escalation_errors_;
};

SorRun::SorRun(const codes::Layout& layout, const ArrayGeometry& geometry,
               const ReconstructionConfig& config,
               const std::vector<workload::StripeError>& errors,
               const std::vector<workload::AppRequest>& app_trace)
    : layout_(&layout),
      geometry_(&geometry),
      config_(config),
      errors_(&errors),
      app_trace_(&app_trace),
      ctx_(layout, geometry, config, kSorDiskSeed, errors, app_trace,
           config.faults.enabled()
               ? std::function<int(std::uint64_t)>([this](std::uint64_t key) {
                   const auto it = spared_on_.find(key);
                   return it == spared_on_.end() ? -1 : it->second;
                 })
               : nullptr) {}

__attribute__((hot)) void SorRun::start_next_stripe(Worker& w, double now) {
  const workload::StripeError& err = *w.assigned[w.error_idx];
  w.stripe = err.stripe;
  geometry_->stripe_disks(w.stripe, w.disks);
  w.op_idx = 0;
  w.reads_in_step = 0;
  const std::size_t words =
      (static_cast<std::size_t>(layout_->num_cells()) + 63) / 64;
  w.recovered.assign(words, 0);  // same size every stripe: no reallocation
  w.active = true;

  if (ctx_.injector.has_value()) {
    w.escalation = escalation_errors_.count(&err) > 0;
    // Cells with a live spare copy (recovered by an earlier pass over this
    // stripe) are already safe; only the rest are outstanding.
    std::vector<codes::Cell> outstanding;
    for (const codes::Cell& c : err.error.cells()) {
      if (!spared_live(geometry_->chunk_key(err.stripe, c), now)) {
        outstanding.push_back(c);
      }
    }
    if (w.escalation) {
      // Dead spare copies queued for this stripe ride along with the
      // escalated column; a cell re-spared by an interim replan is live
      // again and drops out here.
      const auto pend = respare_pending_.find(err.stripe);
      if (pend != respare_pending_.end()) {
        for (const codes::Cell& c : pend->second) {
          if (!spared_live(geometry_->chunk_key(err.stripe, c), now)) {
            outstanding.push_back(c);
          }
        }
        respare_pending_.erase(pend);
        std::sort(outstanding.begin(), outstanding.end());
        outstanding.erase(
            std::unique(outstanding.begin(), outstanding.end()),
            outstanding.end());
      }
      ctx_.metrics.fault.extra_lost_chunks +=
          static_cast<std::uint64_t>(outstanding.size());
    }
    if (outstanding.empty()) {
      w.ops.clear();  // trivial pass: everything already has a live spare
      w.ops_shared.reset();
      w.ops_view = &w.ops;
      w.scheme.reset();
      w.fault_scheme.reset();
      return;
    }
    if (config_.verify_data) {
      load_verify_images(w, outstanding);
    }
    // A fresh, untouched trace error keeps the configured scheme so a run
    // whose faults never fire stays comparable to the baseline; anything
    // else (escalations, partially recovered stripes) is re-planned.
    const bool fresh_trace =
        !w.escalation && outstanding.size() == err.error.cells().size();
    plan_fault_stripe(w, std::move(outstanding), /*replan=*/!fresh_trace,
                      now);
    return;
  }

  const bool trace_gen = obs::tracing(config_.observer, obs::TraceLevel::Fine);
  const double gen_start_us =
      trace_gen ? config_.observer->trace().wall_now_us() : 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  use_configured_scheme(w, err);
  const auto t1 = std::chrono::steady_clock::now();
  ctx_.metrics.scheme_gen_wall_ms +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (trace_gen) {
    obs::trace_span(config_.observer, obs::TraceLevel::Fine, obs::kPidWall,
                    static_cast<std::uint32_t>(w.id), "scheme_gen", "scheme",
                    gen_start_us,
                    config_.observer->trace().wall_now_us() - gen_start_us,
                    "stripe", w.stripe);
  }
  if (config_.verify_data) {
    load_verify_images(w, err.error.cells());
  }
}

void SorRun::load_verify_images(Worker& w,
                                std::span<const codes::Cell> lost) {
  w.verify->reset(w.stripe);
  for (const codes::Cell& c : lost) {
    w.verify->erase(c);
  }
}

void SorRun::use_configured_scheme(Worker& w,
                                   const workload::StripeError& err) {
  if (config_.memoize_schemes) {
    w.scheme = ctx_.lookup_scheme(err.error, config_.scheme);
  } else {
    w.scheme = std::make_shared<const recovery::RecoveryScheme>(
        recovery::generate_scheme(*layout_, err.error, config_.scheme));
    ++ctx_.metrics.schemes_generated;
  }
  assign_request_sequence(w);
}

void SorRun::assign_request_sequence(Worker& w) {
  if (!config_.memoize_schemes) {
    recovery::build_request_sequence(*layout_, *w.scheme, w.ops);
    w.ops_shared.reset();
    w.ops_view = &w.ops;
    return;
  }
  auto [it, fresh] = ops_cache_.try_emplace(w.scheme.get());
  if (fresh) {
    auto ops = std::make_shared<std::vector<ChunkOp>>();
    recovery::build_request_sequence(*layout_, *w.scheme, *ops);
    it->second.scheme = w.scheme;
    it->second.ops = std::move(ops);
  }
  w.ops_shared = it->second.ops;
  w.ops_view = w.ops_shared.get();
}

bool SorRun::spared_live(std::uint64_t key, double now) const {
  const auto it = spared_on_.find(key);
  return it != spared_on_.end() &&
         !ctx_.fault_plan->disk_failed(it->second, now);
}

void SorRun::plan_fault_stripe(Worker& w,
                               std::vector<codes::Cell> outstanding,
                               bool replan, double now) {
  std::sort(outstanding.begin(), outstanding.end());
  outstanding.erase(std::unique(outstanding.begin(), outstanding.end()),
                    outstanding.end());
  if (!codes::erasure_decodable(*layout_, outstanding)) {
    throw EscalationError(w.stripe, std::move(outstanding),
                          ctx_.fault_plan->failed_disks_at(now));
  }
  w.gauss_verified = false;
  const auto t0 = std::chrono::steady_clock::now();
  if (!replan) {
    // Fresh trace error: the configured scheme, memoized like the
    // baseline path.
    w.fault_scheme.reset();
    use_configured_scheme(w, *w.assigned[w.error_idx]);
  } else {
    auto fs = std::make_shared<recovery::FaultScheme>(
        recovery::generate_fault_scheme(*layout_, outstanding));
    ++ctx_.metrics.schemes_generated;
    if (!fs->gauss_cells.empty()) {
      ++ctx_.metrics.fault.gauss_fallbacks;
    }
    // w.scheme aliases the peelable part so the shared WriteSpare path can
    // index steps without knowing a fault plan is active.
    w.scheme = std::shared_ptr<const recovery::RecoveryScheme>(fs, &fs->scheme);
    recovery::build_request_sequence(*layout_, fs->scheme, w.ops);
    recovery::append_gauss_ops(*layout_, *fs, w.ops);
    w.ops_shared.reset();  // replans are stripe-specific, never memoized
    w.ops_view = &w.ops;
    w.fault_scheme = std::move(fs);
  }
  const auto t1 = std::chrono::steady_clock::now();
  ctx_.metrics.scheme_gen_wall_ms +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double SorRun::handle_read_failure(Worker& w, codes::Cell cell, double t) {
  ++ctx_.metrics.fault.replans;
  // Whether the cell was a pristine survivor or a previously recovered
  // chunk whose spare copy died, one more recovery write is now due.
  ++ctx_.metrics.fault.extra_lost_chunks;
  spared_on_.erase(geometry_->chunk_key(w.stripe, cell));
  const auto cidx = static_cast<std::size_t>(layout_->cell_index(cell));
  w.recovered[cidx >> 6] &= ~(std::uint64_t{1} << (cidx & 63));

  // Outstanding = every not-yet-recovered target of the current plan plus
  // the cell that just became unreadable.
  std::vector<codes::Cell> outstanding;
  for (const recovery::RecoveryStep& step : w.scheme->steps) {
    if (!w.is_recovered(
            static_cast<std::size_t>(layout_->cell_index(step.target)))) {
      outstanding.push_back(step.target);
    }
  }
  if (w.fault_scheme != nullptr) {
    for (const codes::Cell& c : w.fault_scheme->gauss_cells) {
      if (!w.is_recovered(
              static_cast<std::size_t>(layout_->cell_index(c)))) {
        outstanding.push_back(c);
      }
    }
  }
  outstanding.push_back(cell);
  if (config_.verify_data) {
    w.verify->erase(cell);
  }
  w.reads_in_step = 0;
  w.op_idx = 0;
  plan_fault_stripe(w, std::move(outstanding), /*replan=*/true, t);
  return t;
}

__attribute__((hot)) double SorRun::finish_rebuild_read(
    Worker& w, codes::Cell cell, std::uint64_t key, std::uint64_t lba,
    int disk_id, bool from_spare, double requested, double submit_t) {
  const RunContext::Read rr =
      ctx_.rebuild_read(disk_id, submit_t, lba, key, !from_spare);
  const double next = rr.done_ms + config_.cache_access_ms;
  ctx_.sample_response(next - requested);
  if (!rr.ok) {
    // The chunk is unreadable: it joins the lost set and the stripe is
    // re-planned around it from time `next` on.
    return handle_read_failure(w, cell, next);
  }
  if (w.op_idx >= w.ops_view->size()) {
    w.end_pass();  // the stripe's last operation finishes at `next`
  }
  return next;
}

std::optional<double> SorRun::advance(Worker& w, double now) {
  if (w.pending_read.has_value()) {
    // A throttled miss whose token grant just came due: submit it now.
    const Worker::PendingRead pr = *w.pending_read;
    w.pending_read.reset();
    return finish_rebuild_read(w, pr.cell, pr.key, pr.lba, pr.disk,
                               pr.from_spare, pr.requested_at, now);
  }
  if (w.completion_pending) {
    w.completion_pending = false;
    ++ctx_.metrics.stripes_recovered;
    // Simulated-time spans use milliseconds-as-microseconds: 1 simulated ms
    // renders as 1 us in the viewer, keeping magnitudes readable.
    obs::trace_span(config_.observer, obs::TraceLevel::Phases, obs::kPidSim,
                    static_cast<std::uint32_t>(w.id), "stripe", "recovery",
                    w.stripe_start_ms * 1000.0,
                    (now - w.stripe_start_ms) * 1000.0, "stripe", w.stripe);
    ctx_.foreground.on_stripe_recovered(w.stripe, now);
  }
  if (!w.active) {
    if (w.error_idx >= w.assigned.size()) {
      return std::nullopt;
    }
    const double detect = w.assigned[w.error_idx]->detect_time_ms;
    if (now < detect) {
      return detect;  // error not yet discovered; sleep until then
    }
    start_next_stripe(w, now);
    w.stripe_start_ms = now;
    if (w.ops_view->empty()) {
      // Fault path: nothing outstanding (all cells already have live
      // spares); complete the pass at the next event.
      w.end_pass();
      return now;
    }
  }

  FBF_CHECK(w.op_idx < w.ops_view->size(),
            "worker advanced past its op list");
  const ChunkOp op = (*w.ops_view)[w.op_idx++];
  double next = now;

  if (op.kind == OpKind::Read) {
    ++ctx_.metrics.total_chunk_requests;
    ++w.reads_in_step;
    const std::uint64_t key = geometry_->chunk_key(w.stripe, op.cell);
    const bool hit = w.cache->request(key, op.priority);
    if (!hit) {
      // Miss: resolve the chunk's live location at request time. On the
      // fault path, previously recovered chunks live wherever their spare
      // write landed (spared_on_ spans passes and replans); otherwise a
      // recovered chunk no longer exists at its original address and is
      // re-read from where the spare write placed it.
      const int home = w.disks[static_cast<std::size_t>(op.cell.col)];
      const std::uint64_t home_lba = geometry_->lba_of(w.stripe, op.cell);
      bool from_spare;
      int disk_id;
      if (ctx_.injector.has_value()) {
        const auto spare_it = spared_on_.find(key);
        from_spare = spare_it != spared_on_.end();
        disk_id = from_spare ? spare_it->second : home;
      } else {
        const auto cell_idx =
            static_cast<std::size_t>(layout_->cell_index(op.cell));
        from_spare = w.is_recovered(cell_idx);
        disk_id = from_spare
                      ? geometry_->spare_disk_from(home, w.stripe, op.cell.row)
                      : home;
      }
      const std::uint64_t lba =
          from_spare ? geometry_->spare_lba_from(home, home_lba) : home_lba;
      if (ctx_.throttle.has_value()) {
        // Rebuild misses yield to foreground traffic: a token grant in the
        // future parks the submission until then (Worker::PendingRead)
        // rather than future-dating it, which would reserve the FCFS disk
        // ahead of app requests arriving in the interim. Hits and spare
        // writes are never throttled; response time counts from `now`.
        const double grant = ctx_.throttle->acquire(now);
        if (grant > now) {
          w.pending_read = Worker::PendingRead{op.cell,  key,        lba,
                                               disk_id,  from_spare, now};
          return grant;
        }
      }
      return finish_rebuild_read(w, op.cell, key, lba, disk_id, from_spare,
                                 now, now);
    }
    next = now + config_.cache_access_ms;
    ctx_.sample_response(next - now);
  } else {  // WriteSpare: XOR the step's sources, then async spare write
    // Gauss-step writes charge the whole solve's sources at the first
    // write (reads_in_step accumulated them); later ones cost nothing.
    const double xor_done =
        now + config_.xor_ms_per_chunk * static_cast<double>(w.reads_in_step);
    w.reads_in_step = 0;
    if (config_.verify_data) {
      if (op.step == recovery::kGaussStep) {
        if (!w.gauss_verified) {
          FBF_CHECK(w.fault_scheme != nullptr,
                    "Gauss-step write without a fault scheme");
          w.verify->solve_gauss(w.fault_scheme->gauss_cells);
          w.gauss_verified = true;
        }
      } else {
        const recovery::RecoveryStep& step =
            w.scheme->steps[static_cast<std::size_t>(op.step)];
        w.verify->fold_chain(step.chain_id, step.target);
      }
    }
    obs::trace_span(config_.observer, obs::TraceLevel::Fine, obs::kPidSim,
                    static_cast<std::uint32_t>(w.id), "xor_fold", "xor",
                    now * 1000.0, (xor_done - now) * 1000.0, "stripe",
                    w.stripe);
    const int home = w.disks[static_cast<std::size_t>(op.cell.col)];
    const RunContext::SpareWrite sw = ctx_.spare_write(
        geometry_->spare_disk_from(home, w.stripe, op.cell.row),
        geometry_->spare_lba_from(home, geometry_->lba_of(w.stripe, op.cell)),
        xor_done, w.stripe);
    // Reconstruction ends when the last spare write persists; track it
    // here so foreground app traffic cannot inflate the makespan.
    ctx_.metrics.reconstruction_ms =
        std::max(ctx_.metrics.reconstruction_ms, sw.done_ms);
    w.mark_recovered(static_cast<std::size_t>(layout_->cell_index(op.cell)));
    const std::uint64_t key = geometry_->chunk_key(w.stripe, op.cell);
    if (ctx_.injector.has_value()) {
      spared_on_[key] = sw.disk;
    }
    // The recovered chunk sits in the buffer; later chains may reuse it.
    w.cache->install(key, op.priority);
    next = sw.done_ms;
  }

  if (w.op_idx >= w.ops_view->size()) {
    w.end_pass();  // the stripe's last operation finishes at `next`
  }
  return next;
}

__attribute__((hot)) SimMetrics SorRun::execute() {
  const std::vector<workload::StripeError>& errors = *errors_;
  const std::vector<workload::AppRequest>& app_trace = *app_trace_;
  const std::span<const DiskFailure> failures = ctx_.disk_failures();
  const bool has_disk_failures = !failures.empty();

  // SOR assignment: stripes dealt round-robin across worker processes. A
  // whole-disk failure escalates a traced stripe by appending a synthetic
  // error to the *owning* worker, keeping per-stripe passes sequential.
  std::vector<Worker> workers(static_cast<std::size_t>(config_.workers));
  const std::size_t capacity = config_.per_worker_capacity();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    workers[i].id = static_cast<int>(i);
    workers[i].cache = cache::make_policy(config_.policy, capacity);
    workers[i].disks.resize(static_cast<std::size_t>(layout_->cols()));
    if (config_.verify_data) {
      workers[i].verify.emplace(*layout_, config_.verify_chunk_bytes);
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> stripe_owner;
  for (std::size_t e = 0; e < errors.size(); ++e) {
    workers[e % workers.size()].assigned.push_back(&errors[e]);
    if (has_disk_failures) {
      stripe_owner.emplace(errors[e].stripe, e % workers.size());
    }
  }

  // Event core (DESIGN §12). A worker has at most one pending event, its
  // next ready time, held in its leaf of a tournament tree. App arrivals
  // and disk failures are known before the run, so each streams in beside
  // the tree in (t, seq) order (event_queue.h), and the flush tick is a
  // single key; each pop takes the earliest of the four. Seqs run as one
  // queue would number them: the workers' first events, the arrivals, the
  // failures, the first flush tick, then one per arm.
  TournamentTree ready(workers.size());
  std::uint64_t seq = 0;
  for (Worker& w : workers) {
    if (!w.assigned.empty()) {
      ready.arm(static_cast<std::size_t>(w.id), EventKey{0.0, seq++});
    }
  }
  PresetStream arrivals(app_trace, &workload::AppRequest::arrival_ms, seq);
  seq += app_trace.size();
  PresetStream failures_due(failures, &DiskFailure::at_ms, seq);
  seq += failures.size();
  const double flush_interval_ms = config_.write.flush_interval_ms;
  EventKey flush = kNoEvent;
  if (ctx_.flush_ticks_on) {
    flush = EventKey{flush_interval_ms, seq++};
  }

  SimMetrics& metrics = ctx_.metrics;
  double makespan = 0.0;
  double last_event_ms = 0.0;
  for (;;) {
    enum class Source { Worker, Arrival, Failure, Flush };
    Source source = Source::Worker;
    EventKey ev = ready.top().key;
    if (earlier(arrivals.head(), ev)) {
      source = Source::Arrival;
      ev = arrivals.head();
    }
    if (earlier(failures_due.head(), ev)) {
      source = Source::Failure;
      ev = failures_due.head();
    }
    if (earlier(flush, ev)) {
      source = Source::Flush;
      ev = flush;
    }
    if (ev.seq == kNoEvent.seq) {
      break;  // every source is drained
    }
    ++metrics.engine_events;
    last_event_ms = std::max(last_event_ms, ev.t);
    if (source == Source::Worker) {
      const std::size_t id = ready.top().source;
      const auto next = advance(workers[id], ev.t);
      if (next.has_value()) {
        ready.arm(id, EventKey{*next, seq++});
      } else {
        ready.clear(id);
        makespan = std::max(makespan, ev.t);
      }
      continue;
    }
    if (source == Source::Arrival) {
      const std::size_t index = arrivals.index();
      arrivals.pop();
      ctx_.foreground.on_arrival(index, ev.t);
      continue;
    }
    if (source == Source::Flush) {
      ctx_.foreground.on_flush_tick(ev.t);
      // Re-arm while other events remain; a tick never keeps itself alive.
      flush = !ready.empty() || !arrivals.empty() || !failures_due.empty()
                  ? EventKey{ev.t + flush_interval_ms, seq++}
                  : kNoEvent;
      continue;
    }
    // Whole-disk failure: every traced stripe gains the failed disk's
    // column as fresh losses, processed as a synthetic error by the
    // stripe's owning worker after its earlier passes.
    const DiskFailure& failure = failures[failures_due.index()];
    failures_due.pop();
    ctx_.disk_failed(failure.disk, ev.t);
    // Spare copies living on the failed disk die with it. Queue each for
    // deterministic re-recovery by its stripe's escalation pass instead
    // of waiting for a later read to trip on the dead disk (DESIGN.md
    // §11's former gap). The entries stay in spared_on_ so in-flight
    // reads keep routing to the honest dead-disk timeout path.
    const auto cells_per_stripe =
        static_cast<std::uint64_t>(layout_->num_cells());
    for (const auto& [key, spare_disk] : spared_on_) {
      if (spare_disk != failure.disk) {
        continue;
      }
      respare_pending_[key / cells_per_stripe].push_back(
          layout_->cell_at(static_cast<int>(key % cells_per_stripe)));
      ++metrics.fault.respared;
    }
    for (const workload::StripeError& traced : errors) {
      const int col = ctx_.column_on(traced.stripe, failure.disk);
      const bool pending = respare_pending_.count(traced.stripe) > 0;
      if (col < 0 && !pending) {
        continue;  // the failed disk holds nothing of this stripe
      }
      // Stripes touched only through dead spare copies (no data column
      // on the failed disk — possible once the pool is wider than a
      // stripe) get an empty synthetic error: the escalation pass then
      // recovers exactly the queued cells.
      escalation_storage_.push_back(workload::StripeError{
          traced.stripe,
          col >= 0 ? recovery::PartialStripeError{col, 0, layout_->rows()}
                   : recovery::PartialStripeError{0, 0, 0},
          ev.t});
      const workload::StripeError* esc = &escalation_storage_.back();
      escalation_errors_.insert(esc);
      const std::size_t owner = stripe_owner.at(traced.stripe);
      workers[owner].assigned.push_back(esc);
      ++metrics.fault.escalated_stripes;
      if (!ready.armed(owner)) {
        ready.arm(owner, EventKey{ev.t, seq++});
      }
    }
  }

  // Spare-area writes may still be draining after the last worker
  // retires; reconstruction_ms already tracks their completions, so the
  // makespan is the later of the last worker event and the last spare
  // write (app traffic drains independently and is not reconstruction).
  metrics.reconstruction_ms = std::max(metrics.reconstruction_ms, makespan);
  for (const Worker& w : workers) {
    metrics.cache.hits += w.cache->stats().hits;
    metrics.cache.misses += w.cache->stats().misses;
    metrics.cache.evictions += w.cache->stats().evictions;
  }
  FBF_CHECK(metrics.cache.misses + metrics.fault.retries ==
                metrics.disk_reads,
            "every cache miss must hit a disk exactly once, plus retries");
  // Every event took one seq; all but the app arrivals were queued. The
  // tree and the streams are sized up front, so none ever regrows.
  return ctx_.finish(0, seq - app_trace.size(), last_event_ms);
}

}  // namespace

ReconstructionEngine::ReconstructionEngine(const codes::Layout& layout,
                                           const ArrayGeometry& geometry,
                                           const ReconstructionConfig& config)
    : layout_(&layout), geometry_(&geometry), config_(config) {
  FBF_CHECK(config_.workers > 0, "need at least one worker");
  FBF_CHECK(config_.chunk_bytes > 0, "chunk size must be positive");
}

SimMetrics ReconstructionEngine::run(
    const std::vector<workload::StripeError>& errors,
    const std::vector<workload::AppRequest>& app_trace) {
  SorRun run(*layout_, *geometry_, config_, errors, app_trace);
  return run.execute();
}

}  // namespace fbf::sim

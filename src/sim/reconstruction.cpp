#include "sim/reconstruction.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "codes/xor_kernels.h"
#include "obs/observer.h"
#include "obs/registry.h"
#include "sim/event_queue.h"
#include "sim/validate.h"
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

struct ReconstructionEngine::Worker {
  int id = 0;
  std::vector<const workload::StripeError*> assigned;
  std::size_t error_idx = 0;
  std::unique_ptr<cache::CachePolicy> cache;

  bool active = false;  ///< currently mid-stripe
  /// Stripe whose completion actions (metrics, degraded-read release) are
  /// due at this worker's next event time, keeping disk submissions in
  /// simulated-time order.
  bool completion_pending = false;
  /// True while an event for this worker sits in the run() heap — lets a
  /// disk-failure escalation wake a retired worker exactly once.
  bool event_pending = false;
  /// Fault path: the current pass is an escalation entry (its outstanding
  /// losses count as extra_lost_chunks, not trace losses).
  bool escalation = false;
  /// Fault path: the Gauss solve of the current plan has been verified
  /// (verify_data mode charges it once, at the first Gauss-step write).
  bool gauss_verified = false;
  std::uint64_t stripe = 0;
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

  // verify_data mode: the current stripe's ground-truth and in-progress
  // images plus the fold's source list, allocated once by run() and
  // refilled in place for every stripe.
  std::optional<codes::StripeData> truth;
  std::optional<codes::StripeData> working;
  std::vector<std::span<const std::byte>> fold_srcs;

  /// Simulated time the current stripe's first operation ran; feeds the
  /// per-stripe trace span.
  double stripe_start_ms = 0.0;

  double finish_ms = 0.0;

  /// Throttle deferral: a read miss whose token grant lies in the future
  /// parks here (location resolved at request time); the worker's next
  /// event performs the actual disk submission. Deferring the submission —
  /// rather than future-dating it — keeps the FCFS disks honest: foreground
  /// requests arriving before the grant are served first.
  struct PendingRead {
    codes::Cell cell;
    std::uint64_t lba = 0;
    int disk = -1;
    bool from_spare = false;
    double requested_at = 0.0;
  };
  std::optional<PendingRead> pending_read;
};

ReconstructionEngine::ReconstructionEngine(const codes::Layout& layout,
                                           const ArrayGeometry& geometry,
                                           const ReconstructionConfig& config)
    : layout_(&layout), geometry_(&geometry), config_(config) {
  FBF_CHECK(config_.workers > 0, "need at least one worker");
  FBF_CHECK(config_.chunk_bytes > 0, "chunk size must be positive");
  if (config_.faults.enabled()) {
    fault_plan_.emplace(config_.faults, config_.seed, config_.obs_label,
                        geometry.num_disks());
  }
  DiskParams dp = config_.disk;
  dp.chunk_bytes = config_.chunk_bytes;
  dp.capacity_chunks = geometry.disk_capacity_chunks();
  disks_.reserve(static_cast<std::size_t>(geometry.num_disks()));
  for (int d = 0; d < geometry.num_disks(); ++d) {
    DiskParams per_disk = dp;
    if (fault_plan_.has_value()) {
      per_disk.service_multiplier = fault_plan_->service_multiplier(d);
    }
    disks_.emplace_back(d, per_disk,
                        config_.seed * 0x100000001b3ull +
                            static_cast<std::uint64_t>(d));
  }
  scheme_cache_ = std::make_unique<recovery::SchemeCache>(layout);
}

__attribute__((hot)) void ReconstructionEngine::start_next_stripe(Worker& w, SimMetrics& metrics,
                                             double now) {
  const workload::StripeError& err = *w.assigned[w.error_idx];
  w.stripe = err.stripe;

  if (injector_ != nullptr) {
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
      metrics.fault.extra_lost_chunks +=
          static_cast<std::uint64_t>(outstanding.size());
    }
    const std::size_t fault_words =
        (static_cast<std::size_t>(layout_->num_cells()) + 63) / 64;
    w.recovered.assign(fault_words, 0);
    w.op_idx = 0;
    w.reads_in_step = 0;
    w.active = true;
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
    plan_fault_stripe(w, std::move(outstanding), metrics,
                      /*replan=*/!fresh_trace, now);
    return;
  }

  const bool trace_gen = obs::tracing(config_.observer, obs::TraceLevel::Fine);
  const double gen_start_us =
      trace_gen ? config_.observer->trace().wall_now_us() : 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  if (config_.memoize_schemes) {
    const auto before_misses = scheme_cache_->misses();
    w.scheme = scheme_cache_->get(err.error, config_.scheme);
    if (scheme_cache_->misses() > before_misses) {
      ++metrics.schemes_generated;
    } else {
      ++metrics.scheme_cache_hits;
    }
  } else {
    w.scheme = std::make_shared<const recovery::RecoveryScheme>(
        recovery::generate_scheme(*layout_, err.error, config_.scheme));
    ++metrics.schemes_generated;
  }
  assign_request_sequence(w);
  const auto t1 = std::chrono::steady_clock::now();
  metrics.scheme_gen_wall_ms +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (trace_gen) {
    obs::trace_span(config_.observer, obs::TraceLevel::Fine, obs::kPidWall,
                    static_cast<std::uint32_t>(w.id), "scheme_gen", "scheme",
                    gen_start_us,
                    config_.observer->trace().wall_now_us() - gen_start_us,
                    "stripe", w.stripe);
  }

  w.op_idx = 0;
  w.reads_in_step = 0;
  const std::size_t words =
      (static_cast<std::size_t>(layout_->num_cells()) + 63) / 64;
  w.recovered.assign(words, 0);  // same size every stripe: no reallocation
  w.active = true;

  if (config_.verify_data) {
    load_verify_images(w, err.error.cells());
  }
}

void ReconstructionEngine::load_verify_images(
    Worker& w, std::span<const codes::Cell> lost) {
  // Seeded by stripe exactly as DOR seeds it, so both engines verify the
  // same images.
  w.truth->fill_random(0x5eedull ^ w.stripe);
  codes::encode(*w.truth);
  *w.working = *w.truth;
  for (const codes::Cell& c : lost) {
    w.working->erase(c);
  }
}

void ReconstructionEngine::verify_chunk(Worker& w,
                                        const recovery::RecoveryStep& step) {
  w.fold_srcs.clear();
  for (const codes::Cell& c : layout_->chain(step.chain_id).cells) {
    if (c != step.target) {
      w.fold_srcs.push_back(w.working->chunk(c));
    }
  }
  const auto out = w.working->chunk(step.target);
  codes::xor_fold(out, w.fold_srcs);
  const auto expected = w.truth->chunk(step.target);
  FBF_CHECK(std::equal(out.begin(), out.end(), expected.begin()),
            "recovered chunk " + codes::to_string(step.target) +
                " does not match the original in stripe " +
                std::to_string(w.stripe));
}

void ReconstructionEngine::assign_request_sequence(Worker& w) {
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

bool ReconstructionEngine::spared_live(std::uint64_t key, double now) const {
  const auto it = spared_on_.find(key);
  return it != spared_on_.end() && !fault_plan_->disk_failed(it->second, now);
}

std::vector<int> ReconstructionEngine::failed_disks_at(double now) const {
  std::vector<int> failed;
  if (fault_plan_.has_value()) {
    for (const DiskFailure& f : fault_plan_->disk_failures()) {
      if (f.at_ms <= now) {
        failed.push_back(f.disk);
      }
    }
  }
  return failed;
}

void ReconstructionEngine::plan_fault_stripe(
    Worker& w, std::vector<codes::Cell> outstanding, SimMetrics& metrics,
    bool replan, double now) {
  std::sort(outstanding.begin(), outstanding.end());
  outstanding.erase(std::unique(outstanding.begin(), outstanding.end()),
                    outstanding.end());
  if (!codes::erasure_decodable(*layout_, outstanding)) {
    throw EscalationError(w.stripe, std::move(outstanding),
                          failed_disks_at(now));
  }
  w.gauss_verified = false;
  const auto t0 = std::chrono::steady_clock::now();
  if (!replan) {
    // Fresh trace error: the configured scheme, memoized like the
    // baseline path.
    const workload::StripeError& err = *w.assigned[w.error_idx];
    w.fault_scheme.reset();
    if (config_.memoize_schemes) {
      const auto before_misses = scheme_cache_->misses();
      w.scheme = scheme_cache_->get(err.error, config_.scheme);
      if (scheme_cache_->misses() > before_misses) {
        ++metrics.schemes_generated;
      } else {
        ++metrics.scheme_cache_hits;
      }
    } else {
      w.scheme = std::make_shared<const recovery::RecoveryScheme>(
          recovery::generate_scheme(*layout_, err.error, config_.scheme));
      ++metrics.schemes_generated;
    }
    assign_request_sequence(w);
  } else {
    auto fs = std::make_shared<recovery::FaultScheme>(
        recovery::generate_fault_scheme(*layout_, outstanding));
    ++metrics.schemes_generated;
    if (!fs->gauss_cells.empty()) {
      ++metrics.fault.gauss_fallbacks;
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
  metrics.scheme_gen_wall_ms +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double ReconstructionEngine::handle_read_failure(Worker& w, codes::Cell cell,
                                                 double t,
                                                 SimMetrics& metrics) {
  ++metrics.fault.replans;
  // Whether the cell was a pristine survivor or a previously recovered
  // chunk whose spare copy died, one more recovery write is now due.
  ++metrics.fault.extra_lost_chunks;
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
    w.working->erase(cell);
  }
  w.reads_in_step = 0;
  w.op_idx = 0;
  plan_fault_stripe(w, std::move(outstanding), metrics, /*replan=*/true, t);
  return t;
}

void ReconstructionEngine::verify_gauss_cells(Worker& w) {
  FBF_CHECK(w.fault_scheme != nullptr,
            "Gauss-step write without a fault scheme");
  const codes::DecodeResult res =
      codes::decode_erasures(*w.working, w.fault_scheme->gauss_cells,
                             codes::DecodeMethod::GaussOnly);
  FBF_CHECK(res.ok, "Gauss fallback could not solve stripe " +
                        std::to_string(w.stripe));
  for (const codes::Cell& c : w.fault_scheme->gauss_cells) {
    const auto out = w.working->chunk(c);
    const auto expected = w.truth->chunk(c);
    FBF_CHECK(std::equal(out.begin(), out.end(), expected.begin()),
              "Gauss-recovered chunk " + codes::to_string(c) +
                  " does not match the original in stripe " +
                  std::to_string(w.stripe));
  }
  w.gauss_verified = true;
}

__attribute__((hot)) double ReconstructionEngine::finish_rebuild_read(
    Worker& w, codes::Cell cell, std::uint64_t lba, int disk_id,
    bool from_spare, double requested, double submit_t, SimMetrics& metrics) {
  Disk& disk = disks_[static_cast<std::size_t>(disk_id)];
  double next;
  if (injector_ != nullptr) {
    // Every attempt is a real disk submission so the per-disk laws stay
    // exact.
    const std::uint64_t key = geometry_->chunk_key(w.stripe, cell);
    const FaultInjector::ReadOutcome rr =
        injector_->read(disk, submit_t, lba, key, !from_spare);
    metrics.disk_reads += static_cast<std::uint64_t>(rr.attempts);
    obs::trace_span(config_.observer, obs::TraceLevel::Fine, obs::kPidDisks,
                    static_cast<std::uint32_t>(disk_id), "disk_read", "disk",
                    submit_t * 1000.0, (rr.done_ms - submit_t) * 1000.0,
                    "stripe", w.stripe);
    next = rr.done_ms + config_.cache_access_ms;
    if (!rr.ok) {
      metrics.response_ms.add(next - requested);
      metrics.response_reservoir.add(next - requested);
      if (response_hist_ != nullptr) {
        response_hist_->add(next - requested);
      }
      // The chunk is unreadable: it joins the lost set and the stripe is
      // re-planned around it from time `next` on.
      return handle_read_failure(w, cell, next, metrics);
    }
  } else {
    const double done = disk.submit_read(submit_t, lba);
    ++metrics.disk_reads;
    obs::trace_span(config_.observer, obs::TraceLevel::Fine, obs::kPidDisks,
                    static_cast<std::uint32_t>(disk_id), "disk_read", "disk",
                    submit_t * 1000.0, (done - submit_t) * 1000.0, "stripe",
                    w.stripe);
    next = done + config_.cache_access_ms;
  }
  metrics.response_ms.add(next - requested);
  metrics.response_reservoir.add(next - requested);
  if (response_hist_ != nullptr) {
    response_hist_->add(next - requested);
  }
  if (w.op_idx >= w.ops_view->size()) {
    // The stripe's last operation finishes at `next`; completion actions
    // run when the worker's next event fires at that time.
    w.active = false;
    w.completion_pending = true;
    ++w.error_idx;
  }
  return next;
}

std::optional<double> ReconstructionEngine::advance(Worker& w, double now,
                                                    SimMetrics& metrics) {
  if (w.pending_read.has_value()) {
    // A throttled miss whose token grant just came due: submit it now.
    const Worker::PendingRead pr = *w.pending_read;
    w.pending_read.reset();
    return finish_rebuild_read(w, pr.cell, pr.lba, pr.disk, pr.from_spare,
                               pr.requested_at, now, metrics);
  }
  if (w.completion_pending) {
    w.completion_pending = false;
    ++metrics.stripes_recovered;
    // Simulated-time spans use milliseconds-as-microseconds: 1 simulated ms
    // renders as 1 us in the viewer, keeping magnitudes readable.
    obs::trace_span(config_.observer, obs::TraceLevel::Phases, obs::kPidSim,
                    static_cast<std::uint32_t>(w.id), "stripe", "recovery",
                    w.stripe_start_ms * 1000.0,
                    (now - w.stripe_start_ms) * 1000.0, "stripe", w.stripe);
    if (on_stripe_recovered_) {
      on_stripe_recovered_(w.stripe, now);
    }
  }
  if (!w.active) {
    if (w.error_idx >= w.assigned.size()) {
      return std::nullopt;
    }
    const double detect = w.assigned[w.error_idx]->detect_time_ms;
    if (now < detect) {
      return detect;  // error not yet discovered; sleep until then
    }
    start_next_stripe(w, metrics, now);
    w.stripe_start_ms = now;
    if (w.ops_view->empty()) {
      // Fault path: nothing outstanding (all cells already have live
      // spares); complete the pass at the next event.
      w.active = false;
      w.completion_pending = true;
      ++w.error_idx;
      return now;
    }
  }

  FBF_CHECK(w.op_idx < w.ops_view->size(),
            "worker advanced past its op list");
  const ChunkOp op = (*w.ops_view)[w.op_idx++];
  double next = now;

  if (op.kind == OpKind::Read) {
    ++metrics.total_chunk_requests;
    ++w.reads_in_step;
    const std::uint64_t key = geometry_->chunk_key(w.stripe, op.cell);
    const bool hit = w.cache->request(key, op.priority);
    if (!hit) {
      // Miss: resolve the chunk's live location at request time. On the
      // fault path, previously recovered chunks live wherever their spare
      // write landed (spared_on_ spans passes and replans); otherwise a
      // recovered chunk no longer exists at its original address and is
      // re-read from where the spare write placed it.
      bool from_spare;
      std::uint64_t lba;
      int disk_id;
      if (injector_ != nullptr) {
        const auto spare_it = spared_on_.find(key);
        from_spare = spare_it != spared_on_.end();
        lba = from_spare ? geometry_->spare_lba_of(w.stripe, op.cell)
                         : geometry_->lba_of(w.stripe, op.cell);
        disk_id = from_spare ? spare_it->second
                             : geometry_->disk_of(w.stripe, op.cell);
      } else {
        const auto cell_idx =
            static_cast<std::size_t>(layout_->cell_index(op.cell));
        from_spare = w.is_recovered(cell_idx);
        lba = from_spare ? geometry_->spare_lba_of(w.stripe, op.cell)
                         : geometry_->lba_of(w.stripe, op.cell);
        disk_id = from_spare ? geometry_->spare_disk_of(w.stripe, op.cell)
                             : geometry_->disk_of(w.stripe, op.cell);
      }
      if (throttle_ != nullptr) {
        // Rebuild misses yield to foreground traffic: a token grant in the
        // future parks the submission until then (Worker::PendingRead)
        // rather than future-dating it, which would reserve the FCFS disk
        // ahead of app requests arriving in the interim. Hits and spare
        // writes are never throttled; response time counts from `now`.
        const double grant = throttle_->acquire(now);
        if (grant > now) {
          w.pending_read =
              Worker::PendingRead{op.cell, lba, disk_id, from_spare, now};
          return grant;
        }
      }
      return finish_rebuild_read(w, op.cell, lba, disk_id, from_spare, now,
                                 now, metrics);
    }
    next = now + config_.cache_access_ms;
    metrics.response_ms.add(next - now);
    metrics.response_reservoir.add(next - now);
    if (response_hist_ != nullptr) {
      response_hist_->add(next - now);
    }
  } else {  // WriteSpare: XOR the step's sources, then async spare write
    // Gauss-step writes charge the whole solve's sources at the first
    // write (reads_in_step accumulated them); later ones cost nothing.
    const double xor_done =
        now + config_.xor_ms_per_chunk * static_cast<double>(w.reads_in_step);
    w.reads_in_step = 0;
    if (config_.verify_data) {
      if (op.step == recovery::kGaussStep) {
        if (!w.gauss_verified) {
          verify_gauss_cells(w);
        }
      } else {
        verify_chunk(w, w.scheme->steps[static_cast<std::size_t>(op.step)]);
      }
    }
    obs::trace_span(config_.observer, obs::TraceLevel::Fine, obs::kPidSim,
                    static_cast<std::uint32_t>(w.id), "xor_fold", "xor",
                    now * 1000.0, (xor_done - now) * 1000.0, "stripe",
                    w.stripe);
    // With disk failures in play the geometry's spare target may be dead;
    // the injector redirects to the next live disk.
    const int spare_disk =
        injector_ != nullptr
            ? injector_->spare_disk(*geometry_, w.stripe, op.cell, xor_done)
            : geometry_->spare_disk_of(w.stripe, op.cell);
    if (injector_ != nullptr && validation_enabled()) {
      // spare_disk_of is deliberately fault-agnostic; the injector's
      // rerouting is the only thing standing between a recovery write and
      // a dead disk, so pin that here.
      FBF_CHECK(!fault_plan_->disk_failed(spare_disk, xor_done),
                "spare write routed to a dead disk");
    }
    Disk& disk = disks_[static_cast<std::size_t>(spare_disk)];
    const double write_done = disk.submit_write(
        xor_done, geometry_->spare_lba_of(w.stripe, op.cell));
    ++metrics.disk_writes;
    ++metrics.write.spare_writes;
    ++metrics.chunks_recovered;
    obs::trace_span(config_.observer, obs::TraceLevel::Phases, obs::kPidDisks,
                    static_cast<std::uint32_t>(spare_disk), "spare_write",
                    "disk", xor_done * 1000.0, (write_done - xor_done) * 1000.0,
                    "stripe", w.stripe);
    // Reconstruction ends when the last spare write persists; track it
    // here so foreground app traffic cannot inflate the makespan.
    metrics.reconstruction_ms =
        std::max(metrics.reconstruction_ms, write_done);
    w.mark_recovered(static_cast<std::size_t>(layout_->cell_index(op.cell)));
    if (injector_ != nullptr) {
      spared_on_[geometry_->chunk_key(w.stripe, op.cell)] = spare_disk;
    }
    // The recovered chunk sits in the buffer; later chains may reuse it.
    w.cache->install(geometry_->chunk_key(w.stripe, op.cell), op.priority);
    next = write_done;
  }

  if (w.op_idx >= w.ops_view->size()) {
    // The stripe's last operation finishes at `next`; completion actions
    // run when the worker's next event fires at that time.
    w.active = false;
    w.completion_pending = true;
    ++w.error_idx;
  }
  return next;
}

__attribute__((hot)) SimMetrics ReconstructionEngine::run(
    const std::vector<workload::StripeError>& errors,
    const std::vector<workload::AppRequest>& app_trace) {
  SimMetrics metrics;
  obs::Histogram response_hist;
  response_hist_ = config_.observer != nullptr ? &response_hist : nullptr;

  // Run-scoped fault state. The guard also covers the EscalationError
  // unwind path: the injector references run-local FaultStats and must not
  // outlive this frame.
  struct RunStateGuard {
    ReconstructionEngine* engine;
    ~RunStateGuard() {
      engine->injector_.reset();
      engine->response_hist_ = nullptr;
      engine->throttle_ = nullptr;
    }
  } run_guard{this};
  spared_on_.clear();
  respare_pending_.clear();
  escalation_storage_.clear();
  escalation_errors_.clear();
  if (fault_plan_.has_value()) {
    injector_ = std::make_unique<FaultInjector>(*fault_plan_, metrics.fault);
  }
  const bool has_disk_failures =
      fault_plan_.has_value() && !fault_plan_->disk_failures().empty();

  // SOR assignment: stripes dealt round-robin across worker processes. A
  // whole-disk failure escalates a traced stripe by appending a synthetic
  // error to the *owning* worker, keeping per-stripe passes sequential.
  std::vector<Worker> workers(static_cast<std::size_t>(config_.workers));
  const std::size_t capacity = config_.per_worker_capacity();
  for (std::size_t i = 0; i < workers.size(); ++i) {
    workers[i].id = static_cast<int>(i);
    workers[i].cache = cache::make_policy(config_.policy, capacity);
    if (config_.verify_data) {
      workers[i].truth.emplace(*layout_, config_.verify_chunk_bytes);
      workers[i].working.emplace(*layout_, config_.verify_chunk_bytes);
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> stripe_owner;
  for (std::size_t e = 0; e < errors.size(); ++e) {
    workers[e % workers.size()].assigned.push_back(&errors[e]);
    if (has_disk_failures) {
      stripe_owner.emplace(errors[e].stripe, e % workers.size());
    }
  }

  // Foreground path: the shared online-recovery server (foreground.h)
  // owns parking, remap, RMW, deadline accounting, and app-side fault
  // injection. The app injector is a separate instance over the same
  // plan, so app retries never perturb the rebuild fault stream or the
  // rebuild conservation laws.
  std::optional<FaultInjector> app_injector;
  if (fault_plan_.has_value() && !app_trace.empty()) {
    app_injector.emplace(*fault_plan_, metrics.app_fault);
  }
  ForegroundServer foreground(
      *layout_, *geometry_, disks_, errors, app_trace, metrics,
      app_injector.has_value() ? &*app_injector : nullptr,
      fault_plan_.has_value()
          ? std::function<int(std::uint64_t)>([this](std::uint64_t key) {
              const auto it = spared_on_.find(key);
              return it == spared_on_.end() ? -1 : it->second;
            })
          : nullptr,
      config_.write);
  on_stripe_recovered_ = [&](std::uint64_t stripe, double now) {
    foreground.on_stripe_recovered(stripe, now);
  };
  std::optional<RebuildThrottle> run_throttle;
  if (config_.throttle.enabled()) {
    run_throttle.emplace(config_.throttle);
    throttle_ = &*run_throttle;
  }

  // Event core over worker ready-times and app-request arrivals.
  struct Event {
    double t;
    int worker;       // >= 0: worker id; < 0: app request ~(worker)
    std::uint64_t seq;  // tie-break for determinism
    bool operator>(const Event& other) const {
      return t > other.t || (t == other.t && seq > other.seq);
    }
  };
  // Disk-failure events use ids at the bottom of the int range, below the
  // ~i encoding of any realistic app trace; the periodic flush tick takes
  // the next id above them.
  constexpr int kFailBase = std::numeric_limits<int>::min();
  int num_disk_failures = 0;
  if (has_disk_failures) {
    num_disk_failures = static_cast<int>(fault_plan_->disk_failures().size());
  }
  const bool flush_ticks_on =
      foreground.write_path_active() && config_.write.flush_interval_ms > 0.0;
  const int kFlushId = kFailBase + num_disk_failures;
  FBF_CHECK(app_trace.size() <=
                static_cast<std::size_t>(std::numeric_limits<int>::max()) -
                    static_cast<std::size_t>(num_disk_failures) - 1,
            "app trace too large to coexist with disk-failure events");
  // Workers fold onto 16 shards (event_pending caps each worker at a
  // single entry, so a shard holds at most ceil(workers/16) events) plus
  // a bulk shard for app arrivals and disk failures. Sixteen keeps the
  // tournament shallow and the shard mask a single AND while the
  // per-shard heaps stay small enough that a future-dated push rarely
  // displaces a head — the shard partition is order-irrelevant
  // (event_queue.h), so this is purely a constant-factor dial. The
  // reserves are exact upper bounds, so a regrowth count of zero is an
  // invariant the tests pin, not a tuning accident.
  constexpr std::size_t kWorkerShardMask = 15;  // 16 shards: a mask, not a div
  constexpr std::size_t kBulkShard = kWorkerShardMask + 1;
  ShardedEventQueue<Event> queue(kBulkShard + 1);
  for (std::size_t s = 0; s < workers.size(); ++s) {
    queue.reserve(s & kWorkerShardMask, 1);
  }
  // One extra bulk slot for the flush tick: at most one is in flight (each
  // tick pops before arming the next).
  queue.reserve(kBulkShard, app_trace.size() +
                                static_cast<std::size_t>(num_disk_failures) +
                                (flush_ticks_on ? 1 : 0));
  const auto push_event = [&queue](Event ev) {
    queue.push(ev.worker >= 0
                   ? static_cast<std::size_t>(ev.worker) & kWorkerShardMask
                   : kBulkShard,
               ev);
  };
  std::uint64_t seq = 0;
  for (Worker& w : workers) {
    if (!w.assigned.empty()) {
      push_event(Event{0.0, w.id, seq++});
      w.event_pending = true;
    }
  }
  for (std::size_t i = 0; i < app_trace.size(); ++i) {
    push_event(Event{app_trace[i].arrival_ms, ~static_cast<int>(i), seq++});
  }
  if (has_disk_failures) {
    for (int k = 0; k < num_disk_failures; ++k) {
      push_event(
          Event{fault_plan_->disk_failures()[static_cast<std::size_t>(k)].at_ms,
                kFailBase + k, seq++});
    }
  }
  if (flush_ticks_on) {
    push_event(Event{config_.write.flush_interval_ms, kFlushId, seq++});
  }

  double makespan = 0.0;
  double last_event_ms = 0.0;
  while (!queue.empty()) {
    const Event ev = queue.pop();
    ++metrics.engine_events;
    last_event_ms = std::max(last_event_ms, ev.t);
    if (ev.worker == kFlushId && flush_ticks_on) {
      foreground.on_flush_tick(ev.t);
      // Re-arm while other events remain; a tick never keeps itself alive.
      if (!queue.empty()) {
        push_event(
            Event{ev.t + config_.write.flush_interval_ms, kFlushId, seq++});
      }
      continue;
    }
    if (ev.worker < kFailBase + num_disk_failures) {
      // Whole-disk failure: every traced stripe gains the failed disk's
      // column as fresh losses, processed as a synthetic error by the
      // stripe's owning worker after its earlier passes.
      const DiskFailure& failure = fault_plan_->disk_failures()
          [static_cast<std::size_t>(ev.worker - kFailBase)];
      ++metrics.fault.disk_failures;
      foreground.on_disk_failed(failure.disk, ev.t);
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
        int col = -1;
        for (int c = 0; c < layout_->cols(); ++c) {
          if (geometry_->disk_of(traced.stripe,
                                 codes::Cell{0, static_cast<std::int16_t>(
                                                    c)}) == failure.disk) {
            col = c;
            break;
          }
        }
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
        Worker& owner =
            workers[stripe_owner.at(traced.stripe)];
        owner.assigned.push_back(esc);
        ++metrics.fault.escalated_stripes;
        if (!owner.event_pending) {
          push_event(Event{ev.t, owner.id, seq++});
          owner.event_pending = true;
        }
      }
      continue;
    }
    if (ev.worker < 0) {
      foreground.on_arrival(static_cast<std::size_t>(~ev.worker), ev.t);
      continue;
    }
    Worker& w = workers[static_cast<std::size_t>(ev.worker)];
    const auto next = advance(w, ev.t, metrics);
    if (next.has_value()) {
      push_event(Event{*next, w.id, seq++});
    } else {
      w.event_pending = false;
      w.finish_ms = ev.t;
      makespan = std::max(makespan, ev.t);
    }
  }
  metrics.event_queue_regrowths = queue.regrowths();
  // Terminal flush: remaining dirty lines reach disk at the time of the
  // last event (app write-backs drain like app traffic — they do not
  // extend the reconstruction makespan).
  foreground.finalize(last_event_ms);
  foreground.assert_drained();

  // Spare-area writes may still be draining after the last worker
  // retires; reconstruction_ms already tracks their completions, so the
  // makespan is the later of the last worker event and the last spare
  // write (app traffic drains independently and is not reconstruction).
  for (const Disk& d : disks_) {
    metrics.disk_busy_ms.push_back(d.stats().busy_ms);
    metrics.disk_ops.push_back(d.stats().reads + d.stats().writes);
  }
  metrics.reconstruction_ms = std::max(metrics.reconstruction_ms, makespan);

  for (const Worker& w : workers) {
    metrics.cache.hits += w.cache->stats().hits;
    metrics.cache.misses += w.cache->stats().misses;
    metrics.cache.evictions += w.cache->stats().evictions;
  }
  FBF_CHECK(metrics.cache.misses + metrics.fault.retries ==
                metrics.disk_reads,
            "every cache miss must hit a disk exactly once, plus retries");
  if (validation_enabled()) {
    validate_run(metrics, errors);
  }
  record_run(config_.observer, config_.obs_label, metrics, response_hist_);
  return metrics;
}

}  // namespace fbf::sim

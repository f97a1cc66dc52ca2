// bench_suite — runs one benchmark workload and prints its raw
// measurements as one JSON line (run.py turns them into the reported
// metrics; README.md in this directory defines every name).
//
// The workload's shape arrives as flags spelled like fbfsim's and is held
// in a core::ExperimentConfig, so inputs derive from --seed exactly as
// core::run_experiment derives them (app seed = seed ^ 0xa99, fault plan
// keyed by --fault-seed, or by the run seed when that is 0, and the
// engine's default label). The engines are
// driven directly instead of through run_experiment so that set-up and
// run() are timed apart.
//
// One rep = set-up (layout + geometry, error trace, app trace, engine
// constructor), run(), then a check outside the timed window:
// sim::validate_run plus an FNV-1a64 digest of the metrics document
// sim::record_run produces. Timed reps run with no observer. Traced reps
// (--traced) attach an in-memory observer — the DOR loop reports its
// planning phase through it — and replay each layer's public functions
// over the rep's own inputs:
//
//   replay.recovery    generate_scheme per distinct error format, then
//                      SchemeCache::get + build_request_sequence per stripe
//   replay.cache       SOR only: each worker's op stream through a fresh
//                      make_policy cache (DOR's stream depends on event
//                      timing, so it cannot be replayed from outside)
//   replay.codes       verify_data runs only: encode + batched chain folds
//                      at verify_chunk_bytes
//   replay.write_plan  plan_partial_stripe_write per app write against the
//                      trace's damage to that stripe, nothing cached
//
// Every rep records spans (name, id, parent, wall start/end) around the
// calls it makes; run.py computes self times and writes the Chrome trace.
// Each timed rep is followed by bench_ref, a fresh process that times the
// reference kernel run.py scales host times by.
//
// Flags: the fbfsim shape flags (--engine --code --p --policy --scheme
// --cache-mb --workers --errors --error-col --layout --pool-size --verify
// --app-* --recovery-throttle* --write-* --fault-*) plus
//   --name=W        workload name (span root, digest label)
//   --seed=N        workload seed                                   (42)
//   --seconds=S     keep starting reps until S wall seconds passed   (10)
//   --min-reps=N    measured reps at least                           (3)
//   --warmup=N      unmeasured reps first                            (1)
//   --traced        follow every measured rep with a traced rep
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/policy.h"
#include "codes/builders.h"
#include "codes/codec.h"
#include "core/app_flags.h"
#include "core/experiment.h"
#include "core/fault_flags.h"
#include "obs/json.h"
#include "obs/observer.h"
#include "recovery/request_sequence.h"
#include "recovery/scheme_cache.h"
#include "recovery/write_plan.h"
#include "sim/array_geometry.h"
#include "sim/dor_engine.h"
#include "sim/reconstruction.h"
#include "sim/validate.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/rng.h"
#include "workload/app_trace.h"
#include "workload/errors.h"

namespace {

using namespace fbf;
using Clock = std::chrono::steady_clock;

/// Damaged stripes the codes replay covers, taken from the front of the
/// trace. Its per-call costs depend on the layout and the error format, not
/// on how many stripes follow, so a prefix measures them without letting
/// the replay dominate a traced rep.
constexpr std::size_t kCodesStripes = 8192;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spans of one rep, kept in memory. Single-threaded: a span's parent is
/// whichever span was open when it started.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0.0;
    double end_us = 0.0;
  };

  explicit Spans(Clock::time_point epoch) : epoch_(epoch) {}

  /// RAII span: opened by the constructor, closed by the destructor.
  class Scope {
   public:
    Scope(Spans& spans, std::string name) : spans_(&spans) {
      const int parent = spans.open_.empty() ? -1 : spans.open_.back();
      id_ = static_cast<int>(spans.spans_.size());
      spans.spans_.push_back(Span{std::move(name), parent, spans.now_us(), 0});
      spans.open_.push_back(id_);
    }
    ~Scope() {
      spans_->spans_[static_cast<std::size_t>(id_)].end_us = spans_->now_us();
      spans_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int id_ = 0;
  };

  const std::vector<Span>& all() const { return spans_; }

  /// Duration of the first span called `name`, in seconds (0 if absent).
  double seconds(const std::string& name) const {
    for (const Span& s : spans_) {
      if (s.name == name) {
        return (s.end_us - s.start_us) * 1e-6;
      }
    }
    return 0.0;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

using Layers = std::map<std::string, double>;

/// Scheme generation (not memoized, once per distinct error format) and
/// the memoized per-stripe lookup the engines perform.
Layers replay_recovery(const codes::Layout& layout,
                       const std::vector<workload::StripeError>& errors,
                       recovery::SchemeKind kind) {
  std::vector<recovery::PartialStripeError> formats;
  formats.reserve(errors.size());
  for (const workload::StripeError& e : errors) {
    formats.push_back(e.error);
  }
  std::sort(formats.begin(), formats.end());
  formats.erase(std::unique(formats.begin(), formats.end()), formats.end());

  std::uint64_t steps = 0;
  const auto g0 = Clock::now();
  for (const recovery::PartialStripeError& f : formats) {
    steps += recovery::generate_scheme(layout, f, kind).steps.size();
  }
  const auto g1 = Clock::now();

  recovery::SchemeCache schemes(layout);
  std::uint64_t compulsory_reads = 0;
  for (const workload::StripeError& e : errors) {
    compulsory_reads += static_cast<std::uint64_t>(
        schemes.get(e.error, kind)->distinct_reads());
  }
  std::vector<recovery::ChunkOp> ops;
  std::uint64_t op_count = 0;
  const auto l0 = Clock::now();
  for (const workload::StripeError& e : errors) {
    recovery::build_request_sequence(layout, *schemes.get(e.error, kind), ops);
    op_count += ops.size();
  }
  const auto l1 = Clock::now();

  return {
      {"recovery.replay.formats", static_cast<double>(formats.size())},
      {"recovery.replay.scheme_steps", static_cast<double>(steps)},
      {"recovery.replay.generate_us_per_format",
       1e6 * seconds_between(g0, g1) / static_cast<double>(formats.size())},
      {"recovery.replay.ops", static_cast<double>(op_count)},
      {"recovery.replay.lookup_ns_per_stripe",
       1e9 * seconds_between(l0, l1) / static_cast<double>(errors.size())},
      {"recovery.replay.compulsory_reads",
       static_cast<double>(compulsory_reads)},
  };
}

/// Feeds the SOR recovery op stream through fresh policy instances, one
/// per worker with stripes dealt round-robin as the engine deals them.
/// Read ops are request(), WriteSpare ops install(). Only the cache calls
/// are timed.
Layers replay_cache(const codes::Layout& layout,
                    const sim::ArrayGeometry& geometry,
                    const std::vector<workload::StripeError>& errors,
                    recovery::SchemeKind kind, cache::PolicyId policy,
                    std::size_t workers, std::size_t capacity,
                    cache::CacheStats& stats) {
  recovery::SchemeCache schemes(layout);
  std::unordered_map<const recovery::RecoveryScheme*,
                     std::vector<recovery::ChunkOp>>
      ops_by_scheme;
  std::vector<cache::Key> keys;
  std::vector<std::uint8_t> priorities;
  std::vector<bool> is_read;
  double seconds = 0.0;
  std::uint64_t accesses = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    keys.clear();
    priorities.clear();
    is_read.clear();
    for (std::size_t e = w; e < errors.size(); e += workers) {
      const auto scheme = schemes.get(errors[e].error, kind);
      auto [it, fresh] = ops_by_scheme.try_emplace(scheme.get());
      if (fresh) {
        recovery::build_request_sequence(layout, *scheme, it->second);
      }
      for (const recovery::ChunkOp& op : it->second) {
        keys.push_back(geometry.chunk_key(errors[e].stripe, op.cell));
        priorities.push_back(op.priority);
        is_read.push_back(op.kind == recovery::OpKind::Read);
      }
    }
    const auto cache = cache::make_policy(policy, capacity);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (is_read[i]) {
        cache->request(keys[i], priorities[i]);
      } else {
        cache->install(keys[i], priorities[i]);
      }
    }
    seconds += seconds_between(t0, Clock::now());
    accesses += keys.size();
    stats.hits += cache->stats().hits;
    stats.misses += cache->stats().misses;
    stats.evictions += cache->stats().evictions;
  }
  return {
      {"cache.replay.accesses", static_cast<double>(accesses)},
      {"cache.replay.ns_per_access",
       1e9 * seconds / static_cast<double>(std::max<std::uint64_t>(accesses, 1))},
      {"cache.replay.hits", static_cast<double>(stats.hits)},
      {"cache.replay.misses", static_cast<double>(stats.misses)},
      {"cache.replay.evictions", static_cast<double>(stats.evictions)},
  };
}

/// The SOR verify path's byte work for the first kCodesStripes damaged
/// stripes: fill and encode a ground-truth stripe, erase the lost cells,
/// refold them chain by chain through one FoldBatch, and compare against
/// the truth.
Layers replay_codes(const codes::Layout& layout,
                    const std::vector<workload::StripeError>& errors,
                    recovery::SchemeKind kind, std::size_t chunk_bytes) {
  recovery::SchemeCache schemes(layout);
  std::vector<std::span<const std::byte>> srcs;
  double encode_s = 0.0;
  double fold_s = 0.0;
  std::uint64_t fold_calls = 0;
  std::uint64_t bytes_folded = 0;
  const std::size_t n = std::min(errors.size(), kCodesStripes);
  for (std::size_t i = 0; i < n; ++i) {
    const workload::StripeError& e = errors[i];
    const auto scheme = schemes.get(e.error, kind);
    util::Rng rng(0x5eedull ^ e.stripe);
    codes::StripeData truth(layout, chunk_bytes);
    truth.fill_random(rng);
    const auto e0 = Clock::now();
    codes::encode(truth);
    encode_s += seconds_between(e0, Clock::now());
    codes::StripeData working(truth);
    for (const codes::Cell& c : e.error.cells()) {
      working.erase(c);
    }
    const auto f0 = Clock::now();
    {
      codes::FoldBatch batch;
      for (const recovery::RecoveryStep& step : scheme->steps) {
        srcs.clear();
        for (const codes::Cell& c : layout.chain(step.chain_id).cells) {
          if (c != step.target) {
            srcs.push_back(working.chunk(c));
          }
        }
        batch.add(working.chunk(step.target), srcs);
        ++fold_calls;
        bytes_folded += srcs.size() * chunk_bytes;
      }
    }
    fold_s += seconds_between(f0, Clock::now());
    for (const recovery::RecoveryStep& step : scheme->steps) {
      const auto got = working.chunk(step.target);
      const auto want = truth.chunk(step.target);
      FBF_CHECK(std::equal(got.begin(), got.end(), want.begin()),
                "codes replay rebuilt " + codes::to_string(step.target) +
                    " wrongly in stripe " + std::to_string(e.stripe));
    }
  }
  return {
      {"codes.replay.encode_s", encode_s},
      {"codes.replay.fold_s", fold_s},
      {"codes.replay.fold_calls", static_cast<double>(fold_calls)},
      {"codes.replay.bytes_folded", static_cast<double>(bytes_folded)},
      {"codes.replay.ns_per_fold_call",
       1e9 * fold_s /
           static_cast<double>(std::max<std::uint64_t>(fold_calls, 1))},
  };
}

/// Plans every app write against the trace's damage to its stripe (none
/// when the stripe is intact), with nothing cached. Writes to a damaged
/// cell park in the engine instead of planning, so they are skipped.
Layers replay_write_plan(const codes::Layout& layout,
                         const std::vector<workload::StripeError>& errors,
                         const std::vector<workload::AppRequest>& app) {
  std::unordered_map<std::uint64_t, const recovery::PartialStripeError*>
      damage;
  for (const workload::StripeError& e : errors) {
    damage.emplace(e.stripe, &e.error);
  }
  std::vector<bool> lost(static_cast<std::size_t>(layout.num_cells()));
  const recovery::CellPredicate cached = [](codes::Cell) { return false; };
  const recovery::CellPredicate damaged = [&](codes::Cell c) {
    return static_cast<bool>(lost[static_cast<std::size_t>(layout.cell_index(c))]);
  };
  std::uint64_t plans = 0;
  std::uint64_t io = 0;
  double seconds = 0.0;
  for (const workload::AppRequest& r : app) {
    if (r.is_read) {
      continue;
    }
    std::fill(lost.begin(), lost.end(), false);
    const auto it = damage.find(r.stripe);
    if (it != damage.end()) {
      for (const codes::Cell& c : it->second->cells()) {
        lost[static_cast<std::size_t>(layout.cell_index(c))] = true;
      }
    }
    if (damaged(r.cell)) {
      continue;
    }
    const auto t0 = Clock::now();
    io += static_cast<std::uint64_t>(
        recovery::plan_partial_stripe_write(layout, r.cell, cached, damaged)
            .io_count());
    seconds += seconds_between(t0, Clock::now());
    ++plans;
  }
  return {
      {"recovery.replay.write_plans", static_cast<double>(plans)},
      {"recovery.replay.write_plan_io", static_cast<double>(io)},
      {"recovery.replay.write_plan_us",
       1e6 * seconds / static_cast<double>(std::max<std::uint64_t>(plans, 1))},
  };
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Per-layer values a traced rep reads off the engine's own SimMetrics.
Layers engine_layers(const sim::SimMetrics& m) {
  const sim::WritePathStats& w = m.write;
  return {
      {"sim.events", static_cast<double>(m.engine_events)},
      {"sim.queue_regrowths", static_cast<double>(m.event_queue_regrowths)},
      {"sim.disk_reads", static_cast<double>(m.disk_reads)},
      {"sim.planned_reads", static_cast<double>(m.planned_disk_reads)},
      {"sim.fault.retries", static_cast<double>(m.fault.retries)},
      {"sim.fault.replans", static_cast<double>(m.fault.replans)},
      {"sim.fault.gauss_fallbacks", static_cast<double>(m.fault.gauss_fallbacks)},
      {"sim.fault.escalated_stripes",
       static_cast<double>(m.fault.escalated_stripes)},
      {"sim.fault.dead_disk_reads", static_cast<double>(m.fault.dead_disk_reads)},
      {"sim.app.requests", static_cast<double>(m.app_requests)},
      {"sim.app.parked", static_cast<double>(m.app_parked_drained)},
      {"sim.app.deadline_miss_frac", ratio(m.app_deadline_miss, m.app_requests)},
      {"recovery.schemes_generated", static_cast<double>(m.schemes_generated)},
      {"recovery.scheme_hits", static_cast<double>(m.scheme_cache_hits)},
      {"recovery.write.plans",
       static_cast<double>(w.rmw_plans + w.rcw_plans + w.direct_plans)},
      {"recovery.write.plan_disk_reads", static_cast<double>(w.plan_disk_reads)},
      {"recovery.write.degraded_plans", static_cast<double>(w.degraded_plans)},
      {"cache.accesses", static_cast<double>(m.cache.accesses())},
      {"cache.hit_ratio", m.hit_ratio()},
      {"cache.evictions", static_cast<double>(m.cache.evictions)},
      {"cache.write.dirty_installed", static_cast<double>(w.dirty_installed)},
      {"cache.write.flushed", static_cast<double>(w.flushed)},
      {"cache.write.evicted_dirty", static_cast<double>(w.evicted_dirty)},
      {"cache.write.hit_ratio",
       ratio(w.write_hits, w.write_hits + w.write_misses)},
  };
}

/// Runs the reference kernel (bench_ref.cpp) in a fresh process and returns
/// the seconds it took. The host this runs on shares its cores and memory
/// with other tenants, and its speed drifts by 20% over minutes; the
/// kernel's time drifts with it, so run.py scales the timed metrics by it.
double reference_kernel_s(const std::string& ref_exe) {
  FBF_CHECK(ref_exe.find('\'') == std::string::npos,
            "cannot quote the reference kernel's path " + ref_exe);
  FILE* pipe = popen(("'" + ref_exe + "'").c_str(), "r");
  FBF_CHECK(pipe != nullptr, "cannot start " + ref_exe);
  double seconds = 0.0;
  const int got = std::fscanf(pipe, "%lf", &seconds);
  const int status = pclose(pipe);
  FBF_CHECK(got == 1 && status == 0 && seconds > 0.0,
            ref_exe + " did not report a time");
  return seconds;
}

enum class RepKind { Warmup, Timed, Traced };

const char* to_string(RepKind k) {
  switch (k) {
    case RepKind::Warmup:
      return "warmup";
    case RepKind::Timed:
      return "timed";
    case RepKind::Traced:
      return "traced";
  }
  return "?";
}

struct Rep {
  RepKind kind = RepKind::Timed;
  bool ok = false;
  std::string error;
  std::uint64_t digest = 0;
  std::uint64_t stripes = 0;
  Spans spans;
  Layers layers;
  /// Deterministic simulated results (identical across reps of one seed;
  /// the digest pins them).
  Layers sim;
  /// The reference kernel's time right after this rep (timed reps only).
  double ref_s = 0.0;
};

/// The engine under test. Neither engine is copyable or shares a base, so
/// exactly one optional is engaged.
struct Engine {
  std::optional<sim::ReconstructionEngine> sor;
  std::optional<sim::DorEngine> dor;

  sim::SimMetrics run(const std::vector<workload::StripeError>& errors,
                      const std::vector<workload::AppRequest>& app) {
    return sor.has_value() ? sor->run(errors, app) : dor->run(errors, app);
  }
};

/// ExperimentConfig -> engine config, field for field as
/// core::run_experiment translates it (the observer and its label stay
/// unset: the fault plan is keyed by the engine's default label).
sim::WritePathConfig write_config(const core::ExperimentConfig& c) {
  sim::WritePathConfig w;
  w.cache_chunks = c.write_cache_chunks;
  w.flush_interval_ms = c.write_flush_ms;
  w.retain_favorable = c.write_retain_favorable;
  w.policy = c.policy;
  w.cache_access_ms = c.cache_access_ms;
  return w;
}

sim::ReconstructionConfig sor_config(const core::ExperimentConfig& c) {
  sim::ReconstructionConfig rc;
  rc.scheme = c.scheme;
  rc.policy = c.policy;
  rc.cache_bytes = c.cache_bytes;
  rc.chunk_bytes = c.chunk_bytes;
  rc.workers = c.workers;
  rc.cache_access_ms = c.cache_access_ms;
  rc.xor_ms_per_chunk = c.xor_ms_per_chunk;
  rc.disk.kind = c.disk_model;
  rc.disk.read_ms = c.disk_access_ms;
  rc.disk.write_ms = c.disk_access_ms;
  rc.memoize_schemes = c.memoize_schemes;
  rc.verify_data = c.verify_data;
  rc.seed = c.seed;
  rc.faults = c.faults;
  rc.throttle = c.recovery_throttle;
  rc.write = write_config(c);
  return rc;
}

sim::DorConfig dor_config(const core::ExperimentConfig& c) {
  FBF_CHECK(!c.verify_data, "the DOR engine does not support data verification");
  sim::DorConfig dc;
  dc.scheme = c.scheme;
  dc.policy = c.policy;
  dc.cache_bytes = c.cache_bytes;
  dc.chunk_bytes = c.chunk_bytes;
  dc.cache_access_ms = c.cache_access_ms;
  dc.xor_ms_per_chunk = c.xor_ms_per_chunk;
  dc.disk.kind = c.disk_model;
  dc.disk.read_ms = c.disk_access_ms;
  dc.disk.write_ms = c.disk_access_ms;
  dc.seed = c.seed;
  dc.faults = c.faults;
  dc.throttle = c.recovery_throttle;
  dc.write = write_config(c);
  return dc;
}

void run_rep(const core::ExperimentConfig& cfg, const std::string& name,
             Rep& rep) {
  const bool traced = rep.kind == RepKind::Traced;
  const bool is_dor = cfg.engine == core::EngineKind::Dor;
  Spans::Scope root(rep.spans, "workload:" + name);

  std::optional<codes::Layout> layout;
  std::optional<sim::ArrayGeometry> geometry;
  std::vector<workload::StripeError> errors;
  std::vector<workload::AppRequest> app;
  Engine engine;
  sim::ReconstructionConfig rc;
  sim::DorConfig dc;
  obs::RunObserver observer;  // attached to traced reps only
  {
    Spans::Scope setup(rep.spans, "setup");
    {
      Spans::Scope s(rep.spans, "sim.geometry");
      layout.emplace(codes::make_layout(cfg.code, cfg.p));
      geometry.emplace(*layout, cfg.num_stripes, cfg.layout_strategy,
                       cfg.pool_disks, cfg.spare_placement);
    }
    {
      Spans::Scope s(rep.spans, "workload.error_trace");
      workload::ErrorTraceConfig tc;
      tc.num_stripes = cfg.num_stripes;
      tc.num_errors = cfg.num_errors;
      tc.target_col = cfg.error_col;
      tc.spatial_locality = cfg.spatial_locality;
      tc.seed = cfg.seed;
      errors = workload::generate_error_trace(*layout, tc);
    }
    if (cfg.app_requests > 0) {
      Spans::Scope s(rep.spans, "workload.app_trace");
      workload::AppTraceConfig ac;
      ac.num_stripes = cfg.num_stripes;
      ac.num_requests = cfg.app_requests;
      ac.mean_interarrival_ms = cfg.app_mean_interarrival_ms;
      ac.read_fraction = cfg.app_read_fraction;
      ac.deadline_ms = cfg.app_deadline_ms;
      ac.rewrite_fraction = cfg.app_rewrite_fraction;
      ac.seed = cfg.seed ^ 0xa99ull;
      app = workload::generate_app_trace(*layout, ac);
    }
    Spans::Scope s(rep.spans, "sim.engine_ctor");
    if (is_dor) {
      dc = dor_config(cfg);
      if (traced) {
        dc.observer = &observer;
      }
      engine.dor.emplace(*layout, *geometry, dc);
    } else {
      rc = sor_config(cfg);
      if (traced) {
        rc.observer = &observer;
      }
      engine.sor.emplace(*layout, *geometry, rc);
    }
  }

  sim::SimMetrics m;
  {
    Spans::Scope s(rep.spans, "sim.run");
    m = engine.run(errors, app);
  }
  rep.stripes = m.stripes_recovered;

  {
    Spans::Scope check(rep.spans, "check");
    {
      Spans::Scope s(rep.spans, "sim.validate");
      sim::validate_run(m, errors);
    }
    Spans::Scope s(rep.spans, "obs.record_run");
    obs::RunObserver digest_obs;
    sim::record_run(&digest_obs, "run." + name, m, nullptr);
    rep.digest = fnv1a64(digest_obs.metrics_json(/*include_wall=*/false));
  }
  rep.sim = {
      {"recon_s", m.reconstruction_ms / 1000.0},
      {"hit_ratio", m.hit_ratio()},
      {"disk_reads", static_cast<double>(m.disk_reads)},
      {"resp_ms", m.response_ms.mean()},
      // The tail latency the array's users wait on: app requests where the
      // workload has app traffic, otherwise recovery reads (the engine's
      // seeded 4096-sample reservoir).
      {"p99_ms", m.app_requests > 0 ? m.app_response_hist.percentile(0.99)
                                    : m.response_reservoir.percentile(0.99)},
  };
  if (!traced) {
    return;
  }

  Layers& L = rep.layers;
  L = engine_layers(m);
  const double run_s = rep.spans.seconds("sim.run");
  const double dor_plan_s =
      is_dor ? observer.wall("phase.dor_plan_ms") / 1000.0 : 0.0;
  L["sim.run_s"] = run_s;
  L["sim.dor.plan_s"] = dor_plan_s;
  L["sim.dor.loop_s"] = is_dor ? run_s - dor_plan_s : 0.0;
  L["recovery.scheme_gen_s"] = m.scheme_gen_wall_ms / 1000.0;
  L["sim.events_per_s"] = static_cast<double>(m.engine_events) / run_s;
  L["sim.geometry_s"] = rep.spans.seconds("sim.geometry");
  L["sim.engine_ctor_s"] = rep.spans.seconds("sim.engine_ctor");
  L["workload.error_trace_s"] = rep.spans.seconds("workload.error_trace");
  L["workload.app_trace_s"] = rep.spans.seconds("workload.app_trace");

  {
    Spans::Scope s(rep.spans, "replay.recovery");
    L.merge(replay_recovery(*layout, errors, cfg.scheme));
  }
  // Reads beyond one per distinct surviving chunk of each damaged stripe:
  // evicted-then-refetched chunks plus fault retries and escalation work.
  const double compulsory = L["recovery.replay.compulsory_reads"];
  L["sim.rereads"] =
      std::max(0.0, static_cast<double>(m.disk_reads) - compulsory);
  L["sim.reread_frac"] =
      m.disk_reads == 0 ? 0.0
                        : L["sim.rereads"] / static_cast<double>(m.disk_reads);
  if (!is_dor) {
    Spans::Scope s(rep.spans, "replay.cache");
    cache::CacheStats replayed;
    L.merge(replay_cache(*layout, *geometry, errors, cfg.scheme, cfg.policy,
                         static_cast<std::size_t>(cfg.workers),
                         rc.per_worker_capacity(), replayed));
    // Without faults a SOR worker's cache sees exactly the replayed stream
    // (foreground traffic uses its own write cache), so the counters must
    // agree to the access.
    if (!cfg.faults.enabled()) {
      FBF_CHECK(replayed.hits == m.cache.hits &&
                    replayed.misses == m.cache.misses &&
                    replayed.evictions == m.cache.evictions,
                "cache replay diverged from the engine: replay " +
                    std::to_string(replayed.hits) + "/" +
                    std::to_string(replayed.misses) + " hits/misses, engine " +
                    std::to_string(m.cache.hits) + "/" +
                    std::to_string(m.cache.misses));
    }
  }
  if (cfg.verify_data) {
    Spans::Scope s(rep.spans, "replay.codes");
    L.merge(replay_codes(*layout, errors, cfg.scheme, rc.verify_chunk_bytes));
  }
  if (!app.empty()) {
    Spans::Scope s(rep.spans, "replay.write_plan");
    L.merge(replay_write_plan(*layout, errors, app));
  }
}

void write_layers(std::ostream& out, const Layers& layers) {
  out << "{";
  bool first = true;
  for (const auto& [k, v] : layers) {
    out << (first ? "" : ",") << "\"" << obs::json::escape(k)
        << "\":" << obs::json::number(v);
    first = false;
  }
  out << "}";
}

void write_rep(std::ostream& out, const Rep& rep) {
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(rep.digest));
  out << "{\"kind\":\"" << to_string(rep.kind) << "\",\"ok\":"
      << (rep.ok ? "true" : "false") << ",\"error\":\""
      << obs::json::escape(rep.error) << "\",\"digest\":\""
      << (rep.ok ? digest : "") << "\",\"stripes\":" << rep.stripes
      << ",\"ref_s\":" << obs::json::number(rep.ref_s) << ",\"sim\":";
  write_layers(out, rep.sim);
  out << ",\"layers\":";
  write_layers(out, rep.layers);
  out << ",\"spans\":[";
  const auto& spans = rep.spans.all();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Spans::Span& s = spans[i];
    out << (i ? "," : "") << "[\"" << obs::json::escape(s.name) << "\","
        << s.parent << "," << obs::json::number(s.start_us) << ","
        << obs::json::number(s.end_us) << "]";
  }
  out << "]}";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Flags flags(argc, argv);
  std::vector<std::string_view> known{
      "name",    "seed",   "seconds", "min-reps",  "warmup",   "traced",
      "engine",  "code",   "p",       "policy",    "scheme",   "cache-mb",
      "workers", "errors", "error-col", "layout",  "pool-size", "verify"};
  for (const auto& names : {core::fault_flag_names(), core::app_flag_names()}) {
    known.insert(known.end(), names.begin(), names.end());
  }
  flags.check_known(known);

  const std::string name = flags.get_string("name", "adhoc");
  core::ExperimentConfig cfg;
  const std::string engine = flags.get_string("engine", "sor");
  FBF_CHECK(engine == "sor" || engine == "dor",
            "--engine must be \"sor\" or \"dor\", got \"" + engine + "\"");
  cfg.engine = engine == "dor" ? core::EngineKind::Dor : core::EngineKind::Sor;
  cfg.code = codes::code_from_string(flags.get_string("code", "tip"));
  cfg.p = static_cast<int>(flags.get_int("p", 11));
  cfg.policy = cache::policy_from_string(flags.get_string("policy", "fbf"));
  cfg.scheme =
      recovery::scheme_from_string(flags.get_string("scheme", "round-robin"));
  cfg.cache_bytes = static_cast<std::size_t>(flags.get_int("cache-mb", 64))
                    << 20;
  cfg.workers = static_cast<int>(flags.get_int("workers", 128));
  cfg.num_errors = static_cast<int>(flags.get_int("errors", 400));
  cfg.error_col = static_cast<int>(flags.get_int("error-col", 0));
  const std::string layout_name = flags.get_string("layout", "rotate");
  FBF_CHECK(sim::layout_strategy_from_string(layout_name, cfg.layout_strategy),
            "--layout must be naive|rotate|tdesign|d3, got \"" + layout_name +
                "\"");
  cfg.pool_disks = static_cast<int>(flags.get_int("pool-size", 0));
  cfg.verify_data = flags.get_bool("verify", false);
  core::apply_app_flags(core::parse_app_flags(flags), cfg);
  cfg.faults = core::parse_fault_flags(flags);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));

  const double seconds = flags.get_double("seconds", 10.0);
  const int min_reps = static_cast<int>(flags.get_int("min-reps", 3));
  const int warmup = static_cast<int>(flags.get_int("warmup", 1));
  const bool traced = flags.get_bool("traced", false);
  FBF_CHECK(seconds >= 0.0 && min_reps >= 1 && warmup >= 0,
            "--seconds, --min-reps and --warmup must be non-negative "
            "(min-reps at least 1)");

  // bench_ref is built beside this binary.
  const std::string ref_exe =
      (std::filesystem::path(argv[0]).parent_path() / "bench_ref").string();

  const auto epoch = Clock::now();
  std::vector<Rep> reps;
  // High-water RSS after the first rep: what one simulation in a fresh
  // process needs. Later reps only add allocator fragmentation, which would
  // make the figure depend on how many reps fit in --seconds.
  double peak_rss_mb = 0.0;
  const auto run_one = [&](RepKind kind) {
    reps.push_back(Rep{kind, false, "", 0, 0, Spans(epoch), {}, {}, 0.0});
    Rep& rep = reps.back();
    try {
      run_rep(cfg, name, rep);
      rep.ok = true;
    } catch (const std::exception& e) {
      rep.error = e.what();
    }
    if (reps.size() == 1) {
      rusage usage{};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  };
  for (int i = 0; i < warmup; ++i) {
    run_one(RepKind::Warmup);
  }
  const auto start = Clock::now();
  for (int measured = 0;
       measured < min_reps || seconds_between(start, Clock::now()) < seconds;
       ++measured) {
    run_one(RepKind::Timed);
    reps.back().ref_s = reference_kernel_s(ref_exe);
    if (traced) {
      run_one(RepKind::Traced);
    }
  }

  std::cout << "{\"workload\":\"" << obs::json::escape(name)
            << "\",\"seed\":" << cfg.seed << ",\"run_id\":\"" << std::hex
            << (static_cast<std::uint64_t>(
                    epoch.time_since_epoch().count()) ^
                (static_cast<std::uint64_t>(getpid()) << 48))
            << std::dec << "\",\"peak_rss_mb\":"
            << obs::json::number(peak_rss_mb) << ",\"reps\":[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::cout << (i ? "," : "");
    write_rep(std::cout, reps[i]);
  }
  std::cout << "]}" << std::endl;
  return 0;
}

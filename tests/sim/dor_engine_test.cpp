#include "sim/dor_engine.h"

#include <gtest/gtest.h>

#include <string>

#include "codes/builders.h"
#include "recovery/scheme.h"
#include "recovery/scheme_cache.h"
#include "util/check.h"

namespace fbf::sim {
namespace {

DorConfig small_config() {
  DorConfig c;
  c.cache_bytes = 64 * 32 * 1024;  // 64 chunks, shared buffer
  c.chunk_bytes = 32 * 1024;
  c.seed = 11;
  return c;
}

std::vector<workload::StripeError> make_trace(const codes::Layout& l,
                                              int n_errors,
                                              std::uint64_t seed = 5) {
  workload::ErrorTraceConfig cfg;
  cfg.num_stripes = 10000;
  cfg.num_errors = n_errors;
  cfg.target_col = 0;
  cfg.seed = seed;
  return workload::generate_error_trace(l, cfg);
}

TEST(DorEngine, RecoversEveryChunk) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 30);
  std::uint64_t expected = 0;
  for (const auto& e : errors) {
    expected += static_cast<std::uint64_t>(e.error.num_chunks);
  }
  DorEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(errors);
  EXPECT_EQ(m.chunks_recovered, expected);
  EXPECT_EQ(m.disk_writes, expected);
  EXPECT_EQ(m.stripes_recovered, errors.size());
  EXPECT_GT(m.reconstruction_ms, 0.0);
}

TEST(DorEngine, EventQueueReservationsAreExact) {
  // Faultless DOR issues exactly one in-flight read per disk shard and one
  // spare write per planned task, so the reserves are exact and regrowth
  // must be structurally zero.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  DorEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(make_trace(l, 30));
  EXPECT_GT(m.engine_events, 0u);
  EXPECT_EQ(m.event_queue_regrowths, 0u);
}

TEST(DorEngine, AllCodesAllSchemesComplete) {
  for (codes::CodeId id : codes::kAllCodes) {
    const codes::Layout l = codes::make_layout(id, 5);
    const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
    for (recovery::SchemeKind kind :
         {recovery::SchemeKind::HorizontalFirst,
          recovery::SchemeKind::RoundRobin,
          recovery::SchemeKind::GreedyMinIO}) {
      auto cfg = small_config();
      cfg.scheme = kind;
      DorEngine engine(l, g, cfg);
      const SimMetrics m = engine.run(make_trace(l, 12));
      EXPECT_EQ(m.stripes_recovered, 12u) << l.name();
    }
  }
}

TEST(DorEngine, AmpleBufferFetchesEachDistinctChunkOnce) {
  // With a buffer larger than the whole working set, planned reads cover
  // every distinct chunk exactly once and every consumption hits.
  const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 20);
  // Distinct fetch count from the schemes themselves.
  recovery::SchemeCache schemes(l);
  std::uint64_t distinct = 0;
  for (const auto& e : errors) {
    distinct += static_cast<std::uint64_t>(
        schemes.get(e.error, recovery::SchemeKind::RoundRobin)
            ->distinct_reads());
  }
  auto cfg = small_config();
  cfg.cache_bytes = (1u << 16) * cfg.chunk_bytes;
  DorEngine engine(l, g, cfg);
  const SimMetrics m = engine.run(errors);
  EXPECT_EQ(m.disk_reads, distinct);
  EXPECT_EQ(m.cache.misses, 0u);  // no consumption ever missed
  EXPECT_GT(m.cache.hits, 0u);
}

TEST(DorEngine, TightBufferForcesRereads) {
  const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 11);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 30);
  auto tight = small_config();
  tight.cache_bytes = 8 * tight.chunk_bytes;
  DorEngine a(l, g, tight);
  const SimMetrics small = a.run(errors);
  auto ample = small_config();
  ample.cache_bytes = (1u << 16) * ample.chunk_bytes;
  DorEngine b(l, g, ample);
  const SimMetrics big = b.run(errors);
  EXPECT_GT(small.disk_reads, big.disk_reads);
  EXPECT_GT(small.cache.misses, 0u);
}

TEST(DorEngine, FbfBeatsLruUnderModeratePressure) {
  // Buffer ~10% of the distinct working set: the regime where FBF's
  // priority pinning pays off under DOR too. (At *extreme* pressure the
  // effect inverts: Queue2/Queue3 fill with pinned chunks from many
  // in-flight stripes and the one-shot majority thrashes harder than
  // under LRU — bench_ablation_dor_sor shows that crossover.)
  const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 11);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 60);
  auto cfg = small_config();
  cfg.cache_bytes = 256 * cfg.chunk_bytes;
  cfg.policy = cache::PolicyId::Fbf;
  DorEngine fbf_engine(l, g, cfg);
  const SimMetrics fbf = fbf_engine.run(errors);
  cfg.policy = cache::PolicyId::Lru;
  DorEngine lru_engine(l, g, cfg);
  const SimMetrics lru = lru_engine.run(errors);
  EXPECT_LE(fbf.disk_reads, lru.disk_reads);
  EXPECT_GE(fbf.cache.hit_ratio(), lru.cache.hit_ratio());
}

TEST(DorEngine, DeterministicAcrossRuns) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Star, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 25);
  DorEngine a(l, g, small_config());
  DorEngine b(l, g, small_config());
  const SimMetrics ma = a.run(errors);
  const SimMetrics mb = b.run(errors);
  EXPECT_EQ(ma.disk_reads, mb.disk_reads);
  EXPECT_EQ(ma.cache.hits, mb.cache.hits);
  EXPECT_DOUBLE_EQ(ma.reconstruction_ms, mb.reconstruction_ms);
}

TEST(DorEngine, AppTrafficIsServedAndMeasured) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  workload::AppTraceConfig app_cfg;
  app_cfg.num_stripes = 10000;
  app_cfg.num_requests = 200;
  app_cfg.read_fraction = 0.6;
  app_cfg.mean_interarrival_ms = 0.5;
  const auto apps = workload::generate_app_trace(l, app_cfg);
  DorEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(make_trace(l, 20), apps);
  EXPECT_EQ(m.app_requests, 200u);
  EXPECT_EQ(m.app_requests, m.app_served + m.app_parked_drained);
  EXPECT_EQ(m.app_parked_drained,
            m.app_degraded_reads + m.app_degraded_writes);
  EXPECT_GT(m.app_response_ms.mean(), 0.0);
  EXPECT_EQ(m.event_queue_regrowths, 0u);  // arrivals fit the bulk shard
}

TEST(DorEngine, DegradedRequestsParkUntilRecovery) {
  // DOR's repaired signal is the last traced loss of a stripe reaching its
  // persisted spare copy: one read and one write aimed at damaged chunks
  // must park on that signal and drain afterwards.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 10);
  std::vector<workload::AppRequest> apps;
  workload::AppRequest read;
  read.stripe = errors[0].stripe;
  read.cell = errors[0].error.cells().front();
  read.is_read = true;
  read.arrival_ms = 0.0;
  apps.push_back(read);
  workload::AppRequest write;
  write.stripe = errors[1].stripe;
  write.cell = errors[1].error.cells().front();
  write.is_read = false;
  write.arrival_ms = 0.0;
  apps.push_back(write);
  DorEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(errors, apps);
  EXPECT_EQ(m.app_requests, 2u);
  EXPECT_EQ(m.app_degraded_reads, 1u);
  EXPECT_EQ(m.app_degraded_writes, 1u);
  EXPECT_EQ(m.app_parked_drained, 2u);
  EXPECT_EQ(m.app_served, 0u);
  EXPECT_EQ(m.app_response_ms.count(), 2u);
  // Both waited for their stripes' recovery, far beyond one disk trip.
  EXPECT_GT(m.app_response_ms.min(), 15.0);
}

TEST(DorEngine, AppRequestAfterRecoveryIsNotDegraded) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 5);
  workload::AppRequest late;
  late.stripe = errors[0].stripe;
  late.cell = errors[0].error.cells().front();
  late.is_read = false;  // RMW against the repaired (spare) location
  late.arrival_ms = 1e7;
  DorEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(errors, {late});
  EXPECT_EQ(m.app_degraded_reads, 0u);
  EXPECT_EQ(m.app_degraded_writes, 0u);
  EXPECT_EQ(m.app_served, 1u);
}

TEST(DorEngine, SameSeedAppRunsAreByteIdentical) {
  const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 25);
  workload::AppTraceConfig app_cfg;
  app_cfg.num_stripes = 10000;
  app_cfg.num_requests = 400;
  app_cfg.read_fraction = 0.6;
  app_cfg.deadline_ms = 30.0;
  app_cfg.mean_interarrival_ms = 0.4;
  const auto apps = workload::generate_app_trace(l, app_cfg);
  auto cfg = small_config();
  cfg.throttle.rebuild_reads_per_sec = 800.0;
  DorEngine a(l, g, cfg);
  DorEngine b(l, g, cfg);
  const SimMetrics ma = a.run(errors, apps);
  const SimMetrics mb = b.run(errors, apps);
  EXPECT_EQ(ma.disk_reads, mb.disk_reads);
  EXPECT_EQ(ma.app_served, mb.app_served);
  EXPECT_EQ(ma.app_parked_drained, mb.app_parked_drained);
  EXPECT_EQ(ma.app_deadline_miss, mb.app_deadline_miss);
  EXPECT_DOUBLE_EQ(ma.reconstruction_ms, mb.reconstruction_ms);
  EXPECT_DOUBLE_EQ(ma.app_response_ms.mean(), mb.app_response_ms.mean());
  EXPECT_EQ(ma.app_response_hist.count(), mb.app_response_hist.count());
}

TEST(DorEngine, ThrottleSlowsRebuildWithoutLosingWork) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 30);
  DorEngine free_engine(l, g, small_config());
  const SimMetrics unthrottled = free_engine.run(errors);
  auto cfg = small_config();
  cfg.throttle.rebuild_reads_per_sec = 100.0;
  cfg.throttle.burst = 1;
  DorEngine slow_engine(l, g, cfg);
  const SimMetrics throttled = slow_engine.run(errors);
  EXPECT_GT(throttled.reconstruction_ms, unthrottled.reconstruction_ms);
  EXPECT_EQ(throttled.stripes_recovered, unthrottled.stripes_recovered);
  EXPECT_EQ(throttled.chunks_recovered, unthrottled.chunks_recovered);
  // Deferred submissions keep the one-in-flight-per-reader shard bound.
  EXPECT_EQ(throttled.event_queue_regrowths, 0u);
}

// ---------------------------------------------------------------------------
// Coalesced-vs-legacy identity (DESIGN §14). DorConfig::legacy_loop selects
// the seed's one-event-per-read loop; the service-cursor fast path must
// reproduce its SimMetrics exactly — including engine_events, because
// elided events still count — under every feature in combination.
// ---------------------------------------------------------------------------

void expect_metrics_identical(const SimMetrics& fast, const SimMetrics& legacy,
                              const std::string& context) {
  EXPECT_EQ(fast.engine_events, legacy.engine_events) << context;
  EXPECT_EQ(fast.disk_reads, legacy.disk_reads) << context;
  EXPECT_EQ(fast.disk_writes, legacy.disk_writes) << context;
  EXPECT_EQ(fast.planned_disk_reads, legacy.planned_disk_reads) << context;
  EXPECT_EQ(fast.stripes_recovered, legacy.stripes_recovered) << context;
  EXPECT_EQ(fast.chunks_recovered, legacy.chunks_recovered) << context;
  EXPECT_EQ(fast.total_chunk_requests, legacy.total_chunk_requests) << context;
  EXPECT_EQ(fast.cache.hits, legacy.cache.hits) << context;
  EXPECT_EQ(fast.cache.misses, legacy.cache.misses) << context;
  EXPECT_EQ(fast.cache.evictions, legacy.cache.evictions) << context;
  EXPECT_DOUBLE_EQ(fast.reconstruction_ms, legacy.reconstruction_ms)
      << context;
  EXPECT_DOUBLE_EQ(fast.response_ms.mean(), legacy.response_ms.mean())
      << context;
  EXPECT_DOUBLE_EQ(fast.response_ms.max(), legacy.response_ms.max())
      << context;
  EXPECT_EQ(fast.response_ms.count(), legacy.response_ms.count()) << context;
  EXPECT_EQ(fast.app_requests, legacy.app_requests) << context;
  EXPECT_EQ(fast.app_served, legacy.app_served) << context;
  EXPECT_EQ(fast.app_parked_drained, legacy.app_parked_drained) << context;
  EXPECT_EQ(fast.app_degraded_reads, legacy.app_degraded_reads) << context;
  EXPECT_EQ(fast.app_degraded_writes, legacy.app_degraded_writes) << context;
  EXPECT_EQ(fast.app_deadline_miss, legacy.app_deadline_miss) << context;
  EXPECT_DOUBLE_EQ(fast.app_response_ms.mean(), legacy.app_response_ms.mean())
      << context;
  EXPECT_EQ(fast.fault.sector_errors, legacy.fault.sector_errors) << context;
  EXPECT_EQ(fast.fault.retries, legacy.fault.retries) << context;
  EXPECT_EQ(fast.fault.replans, legacy.fault.replans) << context;
  EXPECT_EQ(fast.fault.gauss_fallbacks, legacy.fault.gauss_fallbacks)
      << context;
  EXPECT_EQ(fast.fault.disk_failures, legacy.fault.disk_failures) << context;
  EXPECT_EQ(fast.fault.escalated_stripes, legacy.fault.escalated_stripes)
      << context;
  EXPECT_EQ(fast.fault.extra_lost_chunks, legacy.fault.extra_lost_chunks)
      << context;
  ASSERT_EQ(fast.disk_busy_ms.size(), legacy.disk_busy_ms.size()) << context;
  for (std::size_t d = 0; d < fast.disk_busy_ms.size(); ++d) {
    EXPECT_DOUBLE_EQ(fast.disk_busy_ms[d], legacy.disk_busy_ms[d])
        << context << " disk " << d;
    EXPECT_EQ(fast.disk_ops[d], legacy.disk_ops[d]) << context << " disk "
                                                    << d;
  }
}

TEST(DorCoalescing, MatchesLegacyLoopOnPlainRecovery) {
  for (codes::CodeId id :
       {codes::CodeId::Tip, codes::CodeId::TripleStar}) {
    const codes::Layout l = codes::make_layout(id, 7);
    const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
    const auto errors = make_trace(l, 40);
    auto fast_cfg = small_config();
    fast_cfg.legacy_loop = false;
    auto legacy_cfg = small_config();
    legacy_cfg.legacy_loop = true;
    DorEngine fast(l, g, fast_cfg);
    DorEngine legacy(l, g, legacy_cfg);
    expect_metrics_identical(fast.run(errors), legacy.run(errors), l.name());
  }
}

TEST(DorCoalescing, MatchesLegacyLoopUnderCombinedStress) {
  // Everything at once: UREs + transients + stragglers + a mid-recovery
  // disk failure (escalation and Gauss fallbacks), foreground app traffic
  // with deadlines, and rebuild throttling. Any event the fast path
  // elides, reorders, or double-counts diverges here.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 30);
  workload::AppTraceConfig app_cfg;
  app_cfg.num_stripes = 10000;
  app_cfg.num_requests = 300;
  app_cfg.read_fraction = 0.6;
  app_cfg.deadline_ms = 30.0;
  app_cfg.mean_interarrival_ms = 0.4;
  const auto apps = workload::generate_app_trace(l, app_cfg);
  auto cfg = small_config();
  cfg.faults.ure_rate = 0.03;
  cfg.faults.transient_rate = 0.01;
  cfg.faults.stragglers = 2;
  cfg.faults.straggler_factor = 3.0;
  cfg.faults.disk_failure_times_ms = {200.0};
  cfg.throttle.rebuild_reads_per_sec = 800.0;
  auto legacy_cfg = cfg;
  legacy_cfg.legacy_loop = true;
  cfg.legacy_loop = false;
  DorEngine fast(l, g, cfg);
  DorEngine legacy(l, g, legacy_cfg);
  const SimMetrics mf = fast.run(errors, apps);
  const SimMetrics ml = legacy.run(errors, apps);
  EXPECT_GT(mf.fault.replans, 0u);  // the stress actually engaged
  expect_metrics_identical(mf, ml, "combined stress");
}

TEST(DorCoalescing, MatchesLegacyLoopOnFaultDorShape) {
  // The repository benchmark's fault_dor shape, scaled down: STAR p=7 under
  // UREs, transients, two 4x stragglers and one whole-disk failure landing
  // mid-recovery. The failure replans every traced stripe, so this is the
  // per-stripe replan index's main diff against the legacy loop's
  // whole-arena scans.
  const codes::Layout l = codes::make_layout(codes::CodeId::Star, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const auto errors = make_trace(l, 200, seed);
    auto cfg = small_config();
    cfg.cache_bytes = 32ull << 20;
    cfg.seed = seed;
    cfg.faults.ure_rate = 5e-4;
    cfg.faults.transient_rate = 1e-3;
    cfg.faults.stragglers = 2;
    cfg.faults.straggler_factor = 4.0;
    cfg.faults.disk_failure_times_ms = {2000.0};
    auto legacy_cfg = cfg;
    legacy_cfg.legacy_loop = true;
    DorEngine fast(l, g, cfg);
    DorEngine legacy(l, g, legacy_cfg);
    const SimMetrics mf = fast.run(errors);
    const SimMetrics ml = legacy.run(errors);
    const std::string context = "fault_dor shape, seed " + std::to_string(seed);
    // The failure landed mid-recovery and escalated, and UREs replanned.
    EXPECT_EQ(mf.fault.disk_failures, 1u) << context;
    EXPECT_GT(mf.fault.escalated_stripes, 0u) << context;
    EXPECT_GT(mf.fault.respared, 0u) << context;
    EXPECT_GT(mf.fault.replans, 0u) << context;
    EXPECT_GT(mf.reconstruction_ms, 2000.0) << context;
    EXPECT_GT(mf.replan_records_scanned, 0u) << context;
    expect_metrics_identical(mf, ml, context);
  }
}

TEST(DorCoalescing, MatchesLegacyLoopOnNonAdjacentStripeRevisits) {
  // A caller-supplied trace may name a stripe again after other stripes:
  // each visit mints that stripe's tasks, and any chunks it has not seen
  // yet, in a new id range, so a replan has to gather the stripe from
  // several ranges. Every stripe here is visited four times, so any replan
  // the URE rate forces lands on a multi-range stripe.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  std::vector<workload::StripeError> errors;
  for (int visit = 0; visit < 4; ++visit) {
    for (std::uint64_t stripe : {11u, 523u, 4099u}) {
      workload::StripeError e;
      e.stripe = stripe;
      e.error.col = 0;
      e.error.first_row = visit;
      e.error.num_chunks = 1;
      errors.push_back(e);
    }
  }
  auto cfg = small_config();
  cfg.faults.ure_rate = 0.05;
  cfg.faults.transient_rate = 0.01;
  auto legacy_cfg = cfg;
  legacy_cfg.legacy_loop = true;
  DorEngine fast(l, g, cfg);
  DorEngine legacy(l, g, legacy_cfg);
  const SimMetrics mf = fast.run(errors);
  const SimMetrics ml = legacy.run(errors);
  EXPECT_GT(mf.fault.replans, 0u);  // some revisited stripe was replanned
  expect_metrics_identical(mf, ml, "non-adjacent revisits");
}

TEST(DorCoalescing, VerifyDataChecksEveryRecoveredChunk) {
  // verify_data carries real bytes through the coalesced loop and
  // FBF_CHECKs each recovered chunk against ground truth (single-dispatch
  // chain folds + Gauss solves). A pass is the assertion.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  auto cfg = small_config();
  cfg.verify_data = true;
  DorEngine engine(l, g, cfg);
  const SimMetrics m = engine.run(make_trace(l, 25));
  EXPECT_EQ(m.stripes_recovered, 25u);
}

TEST(DorCoalescing, VerifyDataCoversFaultReplans) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  auto cfg = small_config();
  cfg.verify_data = true;
  cfg.faults.ure_rate = 0.05;
  cfg.faults.transient_rate = 0.01;
  DorEngine engine(l, g, cfg);
  const SimMetrics m = engine.run(make_trace(l, 20));
  EXPECT_EQ(m.stripes_recovered, 20u);
  EXPECT_GT(m.fault.replans, 0u);
}

TEST(DorCoalescing, VerifyDataRejectsLegacyLoop) {
  // The legacy loop predates data verification; the combination is a
  // configuration error, not a silent fallback.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  auto cfg = small_config();
  cfg.verify_data = true;
  cfg.legacy_loop = true;
  DorEngine engine(l, g, cfg);
  EXPECT_THROW(engine.run(make_trace(l, 2)), util::CheckError);
}

TEST(DorEngine, EmptyTraceIsNoop) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 100);
  DorEngine engine(l, g, small_config());
  const SimMetrics m = engine.run({});
  EXPECT_EQ(m.disk_reads, 0u);
  EXPECT_DOUBLE_EQ(m.reconstruction_ms, 0.0);
}

}  // namespace
}  // namespace fbf::sim

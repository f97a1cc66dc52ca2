// Cross-engine conservation laws (sim/validate.h): both engines must
// satisfy the same accounting identities on every run, and validation
// must reject metrics that break them.
#include "sim/validate.h"

#include <gtest/gtest.h>

#include "codes/builders.h"
#include "sim/dor_engine.h"
#include "sim/reconstruction.h"
#include "util/check.h"
#include "workload/app_trace.h"

namespace fbf::sim {
namespace {

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

SimMetrics run_sor(const codes::Layout& l, const ArrayGeometry& g,
                   const std::vector<workload::StripeError>& errors,
                   cache::PolicyId policy, std::size_t cache_chunks) {
  ReconstructionConfig cfg;
  cfg.workers = 4;
  cfg.chunk_bytes = 32 * 1024;
  cfg.cache_bytes = cache_chunks * cfg.chunk_bytes;
  cfg.policy = policy;
  cfg.seed = 11;
  ReconstructionEngine engine(l, g, cfg);
  return engine.run(errors);
}

SimMetrics run_dor(const codes::Layout& l, const ArrayGeometry& g,
                   const std::vector<workload::StripeError>& errors,
                   cache::PolicyId policy, std::size_t cache_chunks) {
  DorConfig cfg;
  cfg.chunk_bytes = 32 * 1024;
  cfg.cache_bytes = cache_chunks * cfg.chunk_bytes;
  cfg.policy = policy;
  cfg.seed = 11;
  DorEngine engine(l, g, cfg);
  return engine.run(errors);
}

TEST(Invariants, SorSatisfiesConservationLaws) {
  for (cache::PolicyId policy :
       {cache::PolicyId::Fbf, cache::PolicyId::Lru, cache::PolicyId::Arc}) {
    const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
    const ArrayGeometry g(l, 10000);
    const auto errors = make_trace(l, 40);
    const SimMetrics m = run_sor(l, g, errors, policy, 64);
    EXPECT_NO_THROW(validate_run(m, errors));
    EXPECT_EQ(m.planned_disk_reads, 0u);  // SOR reads are all demand misses
  }
}

TEST(Invariants, DorSatisfiesConservationLaws) {
  for (cache::PolicyId policy :
       {cache::PolicyId::Fbf, cache::PolicyId::TwoQ, cache::PolicyId::Lfu}) {
    const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 7);
    const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
    const auto errors = make_trace(l, 30);
    const SimMetrics m = run_dor(l, g, errors, policy, 16);
    EXPECT_NO_THROW(validate_run(m, errors));
    // The streaming plan fetches each distinct surviving chunk once; every
    // extra read is a consumption miss.
    EXPECT_GT(m.planned_disk_reads, 0u);
    EXPECT_EQ(m.disk_reads, m.planned_disk_reads + m.cache.misses);
  }
}

TEST(Invariants, HoldAcrossAllCodesAndSchemes) {
  for (codes::CodeId id : codes::kAllCodes) {
    const codes::Layout l = codes::make_layout(id, 5);
    const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
    const auto errors = make_trace(l, 12);
    for (recovery::SchemeKind kind : {recovery::SchemeKind::HorizontalFirst,
                                      recovery::SchemeKind::RoundRobin,
                                      recovery::SchemeKind::GreedyMinIO}) {
      {
        ReconstructionConfig cfg;
        cfg.workers = 2;
        cfg.chunk_bytes = 32 * 1024;
        cfg.cache_bytes = 32 * cfg.chunk_bytes;
        cfg.scheme = kind;
        ReconstructionEngine engine(l, g, cfg);
        const SimMetrics m = engine.run(errors);
        EXPECT_NO_THROW(validate_run(m, errors)) << l.name();
      }
      {
        DorConfig cfg;
        cfg.chunk_bytes = 32 * 1024;
        cfg.cache_bytes = 32 * cfg.chunk_bytes;
        cfg.scheme = kind;
        DorEngine engine(l, g, cfg);
        const SimMetrics m = engine.run(errors);
        EXPECT_NO_THROW(validate_run(m, errors)) << l.name();
      }
    }
  }
}

TEST(Invariants, SorWithAppTrafficStillValidates) {
  // Foreground ops land on the disks but are metered separately; the
  // per-disk cross-checks relax, the recovery identities must still hold.
  const codes::Layout l = codes::make_layout(codes::CodeId::Star, 7);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 20);
  workload::AppTraceConfig app_cfg;
  app_cfg.num_stripes = 10000;
  app_cfg.num_requests = 500;
  const auto app = workload::generate_app_trace(l, app_cfg);
  ReconstructionConfig cfg;
  cfg.workers = 4;
  cfg.chunk_bytes = 32 * 1024;
  cfg.cache_bytes = 64 * cfg.chunk_bytes;
  ReconstructionEngine engine(l, g, cfg);
  const SimMetrics m = engine.run(errors, app);
  ASSERT_EQ(m.app_requests, 500u);
  EXPECT_NO_THROW(validate_run(m, errors));
}

TEST(Invariants, ValidateRejectsCorruptedMetrics) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 15);
  const SimMetrics good = run_sor(l, g, errors, cache::PolicyId::Fbf, 32);
  ASSERT_NO_THROW(validate_run(good, errors));

  SimMetrics m = good;
  m.disk_reads += 1;  // a read no miss accounts for
  EXPECT_THROW(validate_metrics(m), util::CheckError);

  m = good;
  m.cache.hits += 1;  // a consumption out of thin air
  EXPECT_THROW(validate_metrics(m), util::CheckError);

  m = good;
  m.disk_writes += 1;  // a spare write with no recovered chunk
  EXPECT_THROW(validate_metrics(m), util::CheckError);

  m = good;
  m.reconstruction_ms = 0.0;  // disks busy past the claimed makespan
  EXPECT_THROW(validate_metrics(m), util::CheckError);

  m = good;
  m.stripes_recovered -= 1;  // a damaged stripe left unrecovered
  EXPECT_THROW(validate_run(m, errors), util::CheckError);

  m = good;
  m.chunks_recovered += 1;  // more rebuilt chunks than the trace lost
  EXPECT_THROW(validate_run(m, errors), util::CheckError);
}

TEST(Invariants, DorTerminatesWithBufferSmallerThanChain) {
  // Regression: before attempt_completion consumed the freshly delivered
  // member first, these configurations livelocked — every completion
  // round's miss-inserts evicted the fresh chunk before its turn (LFU
  // keeps high-frequency keys over fresh freq-1 arrivals even at 16
  // chunks), so the same member set was re-read forever.
  const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 10);
  for (cache::PolicyId policy :
       {cache::PolicyId::Lfu, cache::PolicyId::TwoQ, cache::PolicyId::Fbf,
        cache::PolicyId::Lru}) {
    const SimMetrics m = run_dor(l, g, errors, policy, 1);
    EXPECT_NO_THROW(validate_run(m, errors));
    EXPECT_EQ(m.stripes_recovered, errors.size());
  }
}

TEST(Invariants, DorRejectsZeroCapacityBuffer) {
  // A zero-chunk buffer livelocks DOR (every consumption misses and
  // re-enqueues forever), so the constructor must refuse it.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 100);
  DorConfig cfg;
  cfg.chunk_bytes = 32 * 1024;
  cfg.cache_bytes = cfg.chunk_bytes - 1;  // rounds down to zero chunks
  EXPECT_THROW(DorEngine(l, g, cfg), util::CheckError);
}

TEST(Invariants, DorDiskReadsMonotoneUnderShrinkingBuffer) {
  // Shrinking the shared buffer can only force more re-reads, never fewer,
  // and consumption hit ratio can only fall.
  const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 30);
  std::uint64_t prev_reads = 0;
  double prev_hit_ratio = 1.0;
  bool first = true;
  for (std::size_t chunks : {4096u, 256u, 64u, 16u, 4u, 1u}) {
    const SimMetrics m = run_dor(l, g, errors, cache::PolicyId::Fbf, chunks);
    EXPECT_NO_THROW(validate_run(m, errors)) << "buffer " << chunks;
    if (!first) {
      EXPECT_GE(m.disk_reads, prev_reads) << "buffer " << chunks;
      EXPECT_LE(m.cache.hit_ratio(), prev_hit_ratio) << "buffer " << chunks;
    }
    first = false;
    prev_reads = m.disk_reads;
    prev_hit_ratio = m.cache.hit_ratio();
  }
}

TEST(Invariants, SorDiskReadsMonotoneUnderShrinkingCache) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Star, 7);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 40);
  std::uint64_t prev_reads = 0;
  bool first = true;
  for (std::size_t chunks : {4096u, 512u, 64u, 8u, 0u}) {
    const SimMetrics m = run_sor(l, g, errors, cache::PolicyId::Fbf, chunks);
    EXPECT_NO_THROW(validate_run(m, errors)) << "cache " << chunks;
    if (!first) {
      EXPECT_GE(m.disk_reads, prev_reads) << "cache " << chunks;
    }
    first = false;
    prev_reads = m.disk_reads;
  }
}

TEST(Invariants, ProcessedEventsWereQueuedOrStreamed) {
  // Each event a run loop processes went through the event queue (one push,
  // one pop), except DOR's app arrivals, which stream in beside its event
  // window. Checked on runs with faults, app traffic, a throttle and the
  // write path.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, /*rotate_columns=*/true,
                        SparePlacement::Distributed);
  const auto errors = make_trace(l, 30);
  workload::AppTraceConfig ac;
  ac.num_stripes = 10000;
  ac.num_requests = 300;
  ac.read_fraction = 0.5;
  ac.rewrite_fraction = 0.3;
  ac.mean_interarrival_ms = 0.5;
  const auto apps = workload::generate_app_trace(l, ac);
  FaultConfig faults;
  faults.ure_rate = 0.01;
  faults.stragglers = 2;
  faults.straggler_factor = 3.0;
  faults.disk_failure_times_ms = {150.0};
  ThrottleConfig throttle;
  throttle.rebuild_reads_per_sec = 800.0;
  WritePathConfig write;
  write.cache_chunks = 32;
  write.flush_interval_ms = 25.0;

  ReconstructionConfig sc;
  sc.workers = 4;
  sc.cache_bytes = 64 * 32 * 1024;
  sc.seed = 11;
  sc.faults = faults;
  sc.throttle = throttle;
  sc.write = write;
  const SimMetrics sor = ReconstructionEngine(l, g, sc).run(errors, apps);
  EXPECT_GT(sor.fault.escalated_stripes, 0u);
  EXPECT_GT(sor.write.flush_ticks, 0u);
  EXPECT_EQ(sor.engine_events, sor.event_queue_pushes);

  DorConfig dc;
  dc.cache_bytes = 64 * 32 * 1024;
  dc.seed = 11;
  dc.faults = faults;
  dc.throttle = throttle;
  dc.write = write;
  const SimMetrics dor = DorEngine(l, g, dc).run(errors, apps);
  EXPECT_GT(dor.fault.escalated_stripes, 0u);
  EXPECT_GT(dor.write.flush_ticks, 0u);
  EXPECT_EQ(dor.app_requests, apps.size());
  EXPECT_EQ(dor.engine_events, dor.event_queue_pushes + dor.app_requests);
}

}  // namespace
}  // namespace fbf::sim

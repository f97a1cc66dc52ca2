#include "sim/reconstruction.h"

#include <gtest/gtest.h>

#include "codes/builders.h"

namespace fbf::sim {
namespace {

ReconstructionConfig small_config() {
  ReconstructionConfig c;
  c.workers = 4;
  c.cache_bytes = 64 * 32 * 1024;  // 64 chunks total, 16 per worker
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

TEST(ReconstructionConfigTest, PerWorkerCapacity) {
  ReconstructionConfig c;
  c.chunk_bytes = 32 * 1024;
  c.workers = 128;
  c.cache_bytes = 256ull << 20;  // 8192 chunks
  EXPECT_EQ(c.per_worker_capacity(), 64u);
  c.cache_bytes = 2ull << 20;  // 64 chunks across 128 workers -> clamp to 1
  EXPECT_EQ(c.per_worker_capacity(), 1u);
  c.cache_bytes = 0;
  EXPECT_EQ(c.per_worker_capacity(), 0u);
}

TEST(Reconstruction, RecoversEveryStripeAndChunk) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 40);
  std::uint64_t expected_chunks = 0;
  for (const auto& e : errors) {
    expected_chunks += static_cast<std::uint64_t>(e.error.num_chunks);
  }
  ReconstructionEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(errors);
  EXPECT_EQ(m.stripes_recovered, errors.size());
  EXPECT_EQ(m.chunks_recovered, expected_chunks);
  EXPECT_EQ(m.disk_writes, expected_chunks);
  EXPECT_GT(m.reconstruction_ms, 0.0);
}

TEST(Reconstruction, MissesEqualDiskReads) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Star, 5);
  const ArrayGeometry g(l, 10000);
  ReconstructionEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(make_trace(l, 30));
  EXPECT_EQ(m.cache.misses, m.disk_reads);
  EXPECT_EQ(m.cache.hits + m.cache.misses, m.total_chunk_requests);
}

TEST(Reconstruction, DataVerificationModePasses) {
  // Carry real bytes through every scheme step and compare to ground
  // truth — if the simulator ever XORed the wrong chunks this throws.
  for (codes::CodeId id : codes::kAllCodes) {
    const codes::Layout l = codes::make_layout(id, 5);
    const ArrayGeometry g(l, 10000);
    auto cfg = small_config();
    cfg.verify_data = true;
    ReconstructionEngine engine(l, g, cfg);
    const SimMetrics m = engine.run(make_trace(l, 12));
    EXPECT_EQ(m.stripes_recovered, 12u) << l.name();
  }
}

TEST(Reconstruction, DeterministicAcrossRuns) {
  const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 7);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 25);
  ReconstructionEngine a(l, g, small_config());
  ReconstructionEngine b(l, g, small_config());
  const SimMetrics ma = a.run(errors);
  const SimMetrics mb = b.run(errors);
  EXPECT_EQ(ma.cache.hits, mb.cache.hits);
  EXPECT_EQ(ma.disk_reads, mb.disk_reads);
  EXPECT_DOUBLE_EQ(ma.reconstruction_ms, mb.reconstruction_ms);
  EXPECT_DOUBLE_EQ(ma.response_ms.mean(), mb.response_ms.mean());
}

TEST(Reconstruction, ResponseTimeBetweenCacheAndLoadedDisk) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000);
  auto cfg = small_config();
  ReconstructionEngine engine(l, g, cfg);
  const SimMetrics m = engine.run(make_trace(l, 20));
  EXPECT_GE(m.response_ms.min(), cfg.cache_access_ms);
  // A miss costs at least one full disk access.
  EXPECT_GE(m.response_ms.max(), cfg.disk.read_ms);
}

TEST(Reconstruction, BiggerCacheNeverIncreasesDiskReads) {
  const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 11);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 60);
  std::uint64_t prev_reads = ~0ull;
  for (std::size_t chunks : {4u, 16u, 64u, 256u}) {
    auto cfg = small_config();
    cfg.policy = cache::PolicyId::Fbf;
    cfg.cache_bytes = chunks * cfg.chunk_bytes * 4;  // 4 workers
    ReconstructionEngine engine(l, g, cfg);
    const SimMetrics m = engine.run(errors);
    EXPECT_LE(m.disk_reads, prev_reads);
    prev_reads = m.disk_reads;
  }
}

TEST(Reconstruction, SchemeMemoizationReducesGenerations) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 50);
  auto memo = small_config();
  ReconstructionEngine a(l, g, memo);
  const SimMetrics with_memo = a.run(errors);
  auto no_memo = small_config();
  no_memo.memoize_schemes = false;
  ReconstructionEngine b(l, g, no_memo);
  const SimMetrics without = b.run(errors);
  EXPECT_EQ(without.schemes_generated, errors.size());
  EXPECT_LT(with_memo.schemes_generated, without.schemes_generated);
  EXPECT_EQ(with_memo.schemes_generated + with_memo.scheme_cache_hits,
            errors.size());
  // Memoization must not change simulated behaviour.
  EXPECT_EQ(with_memo.disk_reads, without.disk_reads);
  EXPECT_DOUBLE_EQ(with_memo.reconstruction_ms, without.reconstruction_ms);
}

TEST(Reconstruction, DelayedDetectionPushesCompletionOut) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000);
  workload::ErrorTraceConfig cfg;
  cfg.num_stripes = 10000;
  cfg.num_errors = 5;
  cfg.mean_interarrival_ms = 10000.0;
  cfg.seed = 3;
  const auto errors = workload::generate_error_trace(l, cfg);
  ReconstructionEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(errors);
  EXPECT_GE(m.reconstruction_ms, errors.back().detect_time_ms);
  EXPECT_EQ(m.stripes_recovered, errors.size());
}

TEST(Reconstruction, AppTrafficIsServedAndMeasured) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000);
  workload::AppTraceConfig app_cfg;
  app_cfg.num_stripes = 10000;
  app_cfg.num_requests = 200;
  app_cfg.mean_interarrival_ms = 0.5;
  const auto apps = workload::generate_app_trace(l, app_cfg);
  ReconstructionEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(make_trace(l, 20), apps);
  EXPECT_EQ(m.app_requests, 200u);
  EXPECT_GT(m.app_response_ms.mean(), 0.0);
}

TEST(Reconstruction, ContentionSlowsAppTraffic) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000);
  workload::AppTraceConfig app_cfg;
  app_cfg.num_stripes = 10000;
  app_cfg.num_requests = 300;
  app_cfg.mean_interarrival_ms = 0.3;
  const auto apps = workload::generate_app_trace(l, app_cfg);
  ReconstructionEngine idle(l, g, small_config());
  const double idle_ms = idle.run({}, apps).app_response_ms.mean();
  ReconstructionEngine busy(l, g, small_config());
  const double busy_ms =
      busy.run(make_trace(l, 60), apps).app_response_ms.mean();
  EXPECT_GT(busy_ms, idle_ms);
}

TEST(Reconstruction, DegradedReadsParkUntilRecovery) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 10);
  // Aim one app read directly at a damaged chunk and one at a healthy one.
  std::vector<workload::AppRequest> apps;
  workload::AppRequest degraded;
  degraded.stripe = errors[0].stripe;
  degraded.cell = errors[0].error.cells().front();
  degraded.is_read = true;
  degraded.arrival_ms = 0.0;
  apps.push_back(degraded);
  workload::AppRequest healthy;
  healthy.stripe = errors[0].stripe + 1 == 10000 ? 0 : errors[0].stripe + 1;
  healthy.cell = codes::Cell{0, 0};
  healthy.is_read = true;
  healthy.arrival_ms = 0.0;
  // Keep the healthy stripe genuinely healthy.
  for (const auto& e : errors) {
    ASSERT_NE(e.stripe, healthy.stripe);
  }
  apps.push_back(healthy);
  ReconstructionEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(errors, apps);
  EXPECT_EQ(m.app_requests, 2u);
  EXPECT_EQ(m.app_degraded_reads, 1u);
  EXPECT_EQ(m.app_response_ms.count(), 2u);
  // The degraded read waited for its stripe's reconstruction — several
  // chain fetches, far beyond the healthy read's single ~10 ms disk trip.
  EXPECT_GT(m.app_response_ms.max(), 30.0);
  EXPECT_LT(m.app_response_ms.min(), 15.0);
}

TEST(Reconstruction, AppReadAfterRecoveryIsNotDegraded) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 5);
  std::vector<workload::AppRequest> apps;
  workload::AppRequest late;
  late.stripe = errors[0].stripe;
  late.cell = errors[0].error.cells().front();
  late.is_read = true;
  late.arrival_ms = 1e7;  // long after reconstruction finishes
  apps.push_back(late);
  ReconstructionEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(errors, apps);
  EXPECT_EQ(m.app_degraded_reads, 0u);
  EXPECT_LT(m.app_response_ms.max(), 50.0);
}

TEST(Reconstruction, DegradedWritesParkUntilRecovery) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 10);
  // One write aimed at a damaged chunk (RMW cannot read its target), one
  // at a healthy stripe.
  std::vector<workload::AppRequest> apps;
  workload::AppRequest degraded;
  degraded.stripe = errors[0].stripe;
  degraded.cell = errors[0].error.cells().front();
  degraded.is_read = false;
  degraded.arrival_ms = 0.0;
  apps.push_back(degraded);
  workload::AppRequest healthy;
  healthy.stripe = errors[0].stripe + 1 == 10000 ? 0 : errors[0].stripe + 1;
  healthy.cell = codes::Cell{0, 0};
  healthy.is_read = false;
  healthy.arrival_ms = 0.0;
  for (const auto& e : errors) {
    ASSERT_NE(e.stripe, healthy.stripe);
  }
  apps.push_back(healthy);
  ReconstructionEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(errors, apps);
  EXPECT_EQ(m.app_requests, 2u);
  EXPECT_EQ(m.app_degraded_writes, 1u);
  EXPECT_EQ(m.app_degraded_reads, 0u);
  EXPECT_EQ(m.app_served, 1u);
  EXPECT_EQ(m.app_parked_drained, 1u);
  EXPECT_EQ(m.app_response_ms.count(), 2u);
  // The parked write waited out its stripe's reconstruction.
  EXPECT_GT(m.app_response_ms.max(), 30.0);
}

TEST(Reconstruction, DamagedParityParksTheWrite) {
  // A write whose RMW parity sources are damaged has no valid sources even
  // though its own target is healthy: it must park until the stripe is
  // repaired (DESIGN.md §13's damaged-parity rule).
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000);
  const codes::Chain& chain = l.chain(0);
  const codes::Cell parity = chain.parity_cell;
  codes::Cell data{-1, -1};
  for (const codes::Cell& c : chain.cells) {
    if (l.kind(c) == codes::CellKind::Data) {
      data = c;
      break;
    }
  }
  ASSERT_NE(data.col, -1);
  // Hand-craft the trace: the chain's parity chunk is the only loss.
  workload::StripeError err;
  err.stripe = 42;
  err.error.col = parity.col;
  err.error.first_row = parity.row;
  err.error.num_chunks = 1;
  err.detect_time_ms = 0.0;
  workload::AppRequest write;
  write.stripe = err.stripe;
  write.cell = data;
  write.is_read = false;
  write.arrival_ms = 0.0;
  ReconstructionEngine engine(l, g, small_config());
  const SimMetrics m = engine.run({err}, {write});
  EXPECT_EQ(m.app_requests, 1u);
  EXPECT_EQ(m.app_degraded_writes, 1u);
  EXPECT_EQ(m.app_served, 0u);
  EXPECT_EQ(m.app_parked_drained, 1u);
  // Conservation law the validator enforces on every run.
  EXPECT_EQ(m.app_requests, m.app_served + m.app_parked_drained);
}

TEST(Reconstruction, WriteAfterRecoveryHitsSpareLocation) {
  // Once a damaged chunk is repaired its live copy is in the spare area:
  // a later RMW must touch the spare disk, never the dead original sector.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 10000, false, SparePlacement::Distributed);
  const auto errors = make_trace(l, 10);
  const std::uint64_t stripe = errors[0].stripe;
  const codes::Cell cell = errors[0].error.cells().front();
  const int original = g.disk_of(stripe, cell);
  const int spare = g.spare_disk_of(stripe, cell);
  ASSERT_NE(original, spare);  // Distributed placement spreads spares
  workload::AppRequest write;
  write.stripe = stripe;
  write.cell = cell;
  write.is_read = false;
  write.arrival_ms = 1e7;  // long after reconstruction finishes
  ReconstructionEngine base_engine(l, g, small_config());
  const SimMetrics base = base_engine.run(errors);
  ReconstructionEngine engine(l, g, small_config());
  const SimMetrics m = engine.run(errors, {write});
  EXPECT_EQ(m.app_degraded_writes, 0u);
  EXPECT_EQ(m.app_served, 1u);
  // RMW = read+write of the target plus read+write of each chain parity.
  const auto chains = l.chains_containing(cell);
  std::uint64_t total_delta = 0;
  for (std::size_t d = 0; d < m.disk_ops.size(); ++d) {
    total_delta += m.disk_ops[d] - base.disk_ops[d];
  }
  EXPECT_EQ(total_delta, 2u * (1u + chains.size()));
  // The target's two ops landed on the spare disk; the original sector's
  // disk sees traffic only if it also hosts one of the parity cells.
  std::uint64_t original_delta =
      m.disk_ops[static_cast<std::size_t>(original)] -
      base.disk_ops[static_cast<std::size_t>(original)];
  for (const int chain_id : chains) {
    if (g.disk_of(stripe, l.chain(chain_id).parity_cell) == original) {
      original_delta -= 2;
    }
  }
  EXPECT_EQ(original_delta, 0u);
  EXPECT_GE(m.disk_ops[static_cast<std::size_t>(spare)] -
                base.disk_ops[static_cast<std::size_t>(spare)],
            2u);
}

TEST(Reconstruction, SameSeedAppRunsAreByteIdentical) {
  const codes::Layout l = codes::make_layout(codes::CodeId::TripleStar, 7);
  const ArrayGeometry g(l, 10000);
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
  ReconstructionEngine a(l, g, cfg);
  ReconstructionEngine b(l, g, cfg);
  const SimMetrics ma = a.run(errors, apps);
  const SimMetrics mb = b.run(errors, apps);
  EXPECT_EQ(ma.disk_reads, mb.disk_reads);
  EXPECT_EQ(ma.app_served, mb.app_served);
  EXPECT_EQ(ma.app_parked_drained, mb.app_parked_drained);
  EXPECT_EQ(ma.app_deadline_miss, mb.app_deadline_miss);
  EXPECT_DOUBLE_EQ(ma.reconstruction_ms, mb.reconstruction_ms);
  EXPECT_DOUBLE_EQ(ma.app_response_ms.mean(), mb.app_response_ms.mean());
  EXPECT_DOUBLE_EQ(ma.app_response_ms.max(), mb.app_response_ms.max());
  EXPECT_EQ(ma.app_response_hist.count(), mb.app_response_hist.count());
}

TEST(Reconstruction, ThrottleSlowsRebuildWithoutLosingWork) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000);
  const auto errors = make_trace(l, 40);
  ReconstructionEngine free_engine(l, g, small_config());
  const SimMetrics unthrottled = free_engine.run(errors);
  auto cfg = small_config();
  cfg.throttle.rebuild_reads_per_sec = 100.0;
  cfg.throttle.burst = 1;
  ReconstructionEngine slow_engine(l, g, cfg);
  const SimMetrics throttled = slow_engine.run(errors);
  EXPECT_GT(throttled.reconstruction_ms, unthrottled.reconstruction_ms);
  EXPECT_EQ(throttled.stripes_recovered, unthrottled.stripes_recovered);
  EXPECT_EQ(throttled.chunks_recovered, unthrottled.chunks_recovered);
  // The throttle reorders submissions in time, never the demand pattern.
  EXPECT_EQ(throttled.disk_reads, unthrottled.disk_reads);
}

TEST(Reconstruction, SingleWorkerStillCompletes) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Star, 5);
  const ArrayGeometry g(l, 10000);
  auto cfg = small_config();
  cfg.workers = 1;
  ReconstructionEngine engine(l, g, cfg);
  const SimMetrics m = engine.run(make_trace(l, 10));
  EXPECT_EQ(m.stripes_recovered, 10u);
}

TEST(Reconstruction, EmptyTraceIsNoop) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 5);
  const ArrayGeometry g(l, 100);
  ReconstructionEngine engine(l, g, small_config());
  const SimMetrics m = engine.run({});
  EXPECT_EQ(m.stripes_recovered, 0u);
  EXPECT_EQ(m.total_chunk_requests, 0u);
  EXPECT_DOUBLE_EQ(m.reconstruction_ms, 0.0);
}

}  // namespace
}  // namespace fbf::sim

// Partial-stripe write path, end to end through both engines: the
// parity-update planner serves degraded writes inline instead of parking
// them, the dirty write-back cache flushes on eviction, on the periodic
// tick, and at termination, and the new accounting obeys its conservation
// laws under faults and throttling. tests/integration pins the DOR write
// path's bytes in golden files.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codes/builders.h"
#include "sim/dor_engine.h"
#include "sim/reconstruction.h"
#include "sim/validate.h"
#include "workload/app_trace.h"
#include "workload/errors.h"

namespace fbf::sim {
namespace {

std::vector<workload::StripeError> make_trace(const codes::Layout& l,
                                              int n_errors, int target_col,
                                              std::uint64_t seed = 5) {
  workload::ErrorTraceConfig cfg;
  cfg.num_stripes = 10000;
  cfg.num_errors = n_errors;
  cfg.target_col = target_col;
  cfg.seed = seed;
  return workload::generate_error_trace(l, cfg);
}

std::vector<workload::AppRequest> make_apps(const codes::Layout& l,
                                            int n, double read_fraction,
                                            double rewrite = 0.0,
                                            std::uint64_t seed = 7) {
  workload::AppTraceConfig cfg;
  cfg.num_stripes = 10000;
  cfg.num_requests = n;
  cfg.read_fraction = read_fraction;
  cfg.mean_interarrival_ms = 0.5;
  cfg.rewrite_fraction = rewrite;
  cfg.seed = seed;
  return workload::generate_app_trace(l, cfg);
}

WritePathConfig write_on(std::size_t chunks = 32,
                         double flush_ms = 25.0) {
  WritePathConfig w;
  w.cache_chunks = chunks;
  w.flush_interval_ms = flush_ms;
  return w;
}

ReconstructionConfig sor_config() {
  ReconstructionConfig c;
  c.workers = 8;
  c.cache_bytes = 64 * 32 * 1024;
  c.chunk_bytes = 32 * 1024;
  c.seed = 11;
  return c;
}

DorConfig dor_config() {
  DorConfig c;
  c.cache_bytes = 64 * 32 * 1024;
  c.chunk_bytes = 32 * 1024;
  c.seed = 11;
  return c;
}

/// The conservation-law table (sim::laws()), write rows included,
/// checked on every test run whether or not FBF_VALIDATE is exported in
/// the environment: validate_metrics throws on a broken row.
void expect_write_laws(const SimMetrics& m, const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_NO_THROW(validate_metrics(m));
}

TEST(WritePath, ConfigDefaultsToDisabled) {
  EXPECT_FALSE(WritePathConfig{}.enabled());
  EXPECT_TRUE(write_on().enabled());
}

TEST(WritePath, DisabledRunsExportNoWriteCounters) {
  // A write-free run must not flip the export gate: the pre-PR golden
  // files (tests/golden) pin the exact bytes; this pins the gate itself.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  ReconstructionEngine engine(l, g, sor_config());
  const SimMetrics m =
      engine.run(make_trace(l, 10, 0), make_apps(l, 50, 0.5));
  EXPECT_FALSE(m.write.enabled);
  EXPECT_EQ(m.write.rmw_plans, 0u);
  EXPECT_EQ(m.write.dirty_installed, 0u);
  EXPECT_EQ(m.write.spare_writes, m.chunks_recovered);  // live either way
  expect_write_laws(m, "disabled");
}

TEST(WritePath, SorServesWritesThroughPlannerAndFlushes) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  auto cfg = sor_config();
  cfg.write = write_on();
  ReconstructionEngine engine(l, g, cfg);
  const SimMetrics m =
      engine.run(make_trace(l, 10, 0), make_apps(l, 200, 0.4, 0.4));
  EXPECT_TRUE(m.write.enabled);
  EXPECT_GT(m.write.rmw_plans + m.write.rcw_plans + m.write.direct_plans, 0u);
  EXPECT_GT(m.write.parity_updates, 0u);
  EXPECT_GT(m.write.dirty_installed, 0u);
  EXPECT_GT(m.write.write_backs, 0u);
  EXPECT_GT(m.write.flush_ticks, 0u);
  EXPECT_GT(m.write.write_hits, 0u);  // the rewrite fraction gets reuse
  EXPECT_EQ(m.write.lost_dirty, 0u);  // no disk failures in this run
  expect_write_laws(m, "sor planner");
}

TEST(WritePath, DorBothLoopsServeWritesAndAgree) {
  // DOR arms flush ticks and drains write-backs between its reads; the
  // golden GoldenMetrics.DorLoopWritePath pins this run's bytes.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  auto cfg = dor_config();
  cfg.write = write_on();
  DorEngine engine(l, g, cfg);
  const SimMetrics m =
      engine.run(make_trace(l, 20, -1), make_apps(l, 300, 0.5, 0.3));
  EXPECT_GT(m.write.write_backs, 0u);
  EXPECT_GT(m.write.flush_ticks, 0u);
  expect_write_laws(m, "dor");
}

TEST(WritePath, DamagedParityWriteIsServedInlineNotParked) {
  // Legacy rule: a write whose chain parity is damaged parks until the
  // stripe recovers. The planner replaces the park with a degraded plan
  // (the damaged parity is simply skipped; the delta propagates when the
  // parity is rebuilt), so the same trace must serve strictly more writes
  // at arrival. Writes aimed at damaged *data* targets still park.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 24, -1, 9);
  std::vector<workload::AppRequest> apps;
  int parity_damaged = 0;
  for (const workload::StripeError& e : errors) {
    const codes::Cell damaged = e.error.cells().front();
    if (l.kind(damaged) == codes::CellKind::Data) {
      continue;
    }
    // The chain this cell is the parity *of* (it may also be a member of
    // chains in other directions, which do not trigger the park rule).
    int owning_chain = -1;
    for (int chain_id : l.chains_containing(damaged)) {
      if (l.chain(chain_id).parity_cell == damaged) {
        owning_chain = chain_id;
        break;
      }
    }
    if (owning_chain < 0) {
      continue;
    }
    // A healthy data cell in the damaged parity's chain.
    for (const codes::Cell& c : l.chain(owning_chain).cells) {
      if (!(c == damaged) && l.kind(c) == codes::CellKind::Data) {
        workload::AppRequest r;
        r.stripe = e.stripe;
        r.cell = c;
        r.is_read = false;
        r.arrival_ms = 0.05 * static_cast<double>(++parity_damaged);
        apps.push_back(r);
        break;
      }
    }
  }
  ASSERT_GT(parity_damaged, 0) << "trace produced no damaged parity cells";

  auto legacy_cfg = sor_config();
  ReconstructionEngine legacy(l, g, legacy_cfg);
  const SimMetrics lm = legacy.run(errors, apps);
  EXPECT_EQ(lm.app_parked_drained, static_cast<std::uint64_t>(parity_damaged))
      << "every parity-damaged write should park on the legacy path";

  auto cfg = sor_config();
  cfg.write = write_on();
  ReconstructionEngine planned(l, g, cfg);
  const SimMetrics pm = planned.run(errors, apps);
  EXPECT_EQ(pm.app_parked_drained, 0u)
      << "the planner must serve parity-damaged writes inline";
  EXPECT_EQ(pm.write.degraded_plans,
            static_cast<std::uint64_t>(parity_damaged));
  EXPECT_EQ(pm.app_served, pm.app_requests);
  expect_write_laws(pm, "degraded inline");
}

TEST(WritePath, EvictionPressureTriggersWriteBacks) {
  // A two-line write cache under a write-heavy stream: almost every write
  // evicts a dirty victim, which must surface as an evicted-dirty drain
  // (flushed == write_backs) rather than silent loss.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  auto cfg = sor_config();
  cfg.write = write_on(/*chunks=*/2, /*flush_ms=*/0.0);  // no ticks
  ReconstructionEngine engine(l, g, cfg);
  const SimMetrics m =
      engine.run(make_trace(l, 8, 0), make_apps(l, 250, 0.2));
  EXPECT_EQ(m.write.flush_ticks, 0u);
  EXPECT_GT(m.write.evicted_dirty, 0u);
  EXPECT_GE(m.write.flushed, m.write.evicted_dirty);
  expect_write_laws(m, "eviction pressure");
}

TEST(WritePath, DiskFailureLosesDirtyLinesBoundForIt) {
  // Dirty lines live in controller RAM and survive a disk failure, except
  // those whose write-back *target* died: they have nowhere to flush and
  // are dropped as lost_dirty. Ticks are off and the cache is large, so
  // lines stay dirty long enough for the failure to catch them.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  auto cfg = dor_config();
  cfg.write = write_on(/*chunks=*/256, /*flush_ms=*/0.0);
  cfg.faults.disk_failure_times_ms = {60.0};
  DorEngine engine(l, g, cfg);
  const SimMetrics m =
      engine.run(make_trace(l, 20, 0), make_apps(l, 400, 0.3));
  EXPECT_GT(m.write.lost_dirty, 0u);
  EXPECT_GT(m.write.flushed, 0u);
  expect_write_laws(m, "disk failure");
}

TEST(WritePath, LawsHoldUnderCombinedFaultAndThrottleStress) {
  // Faults (UREs, transients, a mid-run disk failure), throttling, flush
  // ticks, and eviction pressure at once, on both engines: the write
  // accounting must stay conserved through replans and escalations.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  // Errors pinned to one column: a random multi-column trace plus the
  // whole-disk failure below can escalate past the 3DFT erasure budget.
  const auto errors = make_trace(l, 16, 0);
  const auto apps = make_apps(l, 300, 0.5, 0.3);
  FaultConfig faults;
  faults.ure_rate = 0.03;
  faults.transient_rate = 0.01;
  faults.disk_failure_times_ms = {150.0};
  ThrottleConfig throttle;
  throttle.rebuild_reads_per_sec = 800.0;

  auto sor = sor_config();
  sor.write = write_on(/*chunks=*/8, /*flush_ms=*/10.0);
  sor.faults = faults;
  sor.throttle = throttle;
  ReconstructionEngine se(l, g, sor);
  const SimMetrics sm = se.run(errors, apps);
  EXPECT_GT(sm.write.write_backs, 0u);
  expect_write_laws(sm, "sor stress");

  auto dor = dor_config();
  dor.write = write_on(/*chunks=*/8, /*flush_ms=*/10.0);
  dor.faults = faults;
  dor.throttle = throttle;
  DorEngine de(l, g, dor);
  const SimMetrics dm = de.run(errors, apps);
  EXPECT_GT(dm.write.write_backs, 0u);
  expect_write_laws(dm, "dor stress");
}

TEST(WritePath, FavorableRetentionHoldsDirtyLinesAcrossTicks) {
  // retain_favorable keeps priority>=2 lines dirty across periodic
  // flushes; with it off every tick drains the whole dirty set. The
  // retained counter separates the two behaviors on the same trace.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, true, SparePlacement::Distributed);
  const auto errors = make_trace(l, 24, 0);
  // Writes aimed at cells of damaged stripes stamp priority 3 (stripe
  // under repair), so retention has favorable lines to hold.
  std::vector<workload::AppRequest> apps = make_apps(l, 150, 0.5);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    workload::AppRequest r;
    r.stripe = errors[i].stripe;
    for (const codes::Cell& c : l.chain(0).cells) {
      if (l.kind(c) == codes::CellKind::Data &&
          !(c == errors[i].error.cells().front())) {
        r.cell = c;
        break;
      }
    }
    r.is_read = false;
    r.arrival_ms = 0.1 * static_cast<double>(i + 1);
    apps.push_back(r);
  }
  SimMetrics m[2];
  for (const bool retain : {false, true}) {
    auto cfg = sor_config();
    cfg.write = write_on(/*chunks=*/64, /*flush_ms=*/5.0);
    cfg.write.retain_favorable = retain;
    ReconstructionEngine engine(l, g, cfg);
    m[retain ? 1 : 0] = engine.run(errors, apps);
    expect_write_laws(m[retain ? 1 : 0],
                      retain ? "retain on" : "retain off");
  }
  EXPECT_EQ(m[0].write.retained_dirty, 0u);
  EXPECT_GT(m[1].write.retained_dirty, 0u);
}

}  // namespace
}  // namespace fbf::sim

// Differential fuzz of the deterministic fault layer: the fault stream is
// a pure function of (seed, run label), so replaying the same plan must
// reproduce every fault counter and the whole deterministic metrics
// document, in both engines. Also pins the escalation contract: an extra
// whole-disk failure inside the 3DFT budget escalates partial recovery to
// full recovery and still recovers everything; a fault load beyond the
// budget aborts with a structured EscalationError.
#include <gtest/gtest.h>

#include <string>

#include "codes/builders.h"
#include "core/experiment.h"
#include "obs/observer.h"
#include "sim/dor_engine.h"
#include "sim/faults/faults.h"
#include "sim/reconstruction.h"

namespace fbf::sim {
namespace {

void expect_same_fault_stats(const FaultStats& a, const FaultStats& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.sector_errors, b.sector_errors);
  EXPECT_EQ(a.transient_failures, b.transient_failures);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.dead_disk_reads, b.dead_disk_reads);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.gauss_fallbacks, b.gauss_fallbacks);
  EXPECT_EQ(a.disk_failures, b.disk_failures);
  EXPECT_EQ(a.escalated_stripes, b.escalated_stripes);
  EXPECT_EQ(a.extra_lost_chunks, b.extra_lost_chunks);
  EXPECT_EQ(a.respared, b.respared);
  EXPECT_EQ(a.straggler_disks, b.straggler_disks);
}

core::ExperimentConfig faulty_config(core::EngineKind engine) {
  core::ExperimentConfig c;
  c.code = codes::CodeId::Tip;
  c.p = 7;
  c.engine = engine;
  c.workers = 8;
  c.num_errors = 40;
  c.num_stripes = 50000;
  c.cache_bytes = 8ull << 20;
  c.seed = 2024;
  c.faults.ure_rate = 0.03;
  c.faults.transient_rate = 0.01;
  c.faults.stragglers = 2;
  c.faults.straggler_factor = 3.0;
  return c;
}

struct RunCapture {
  core::ExperimentResult result;
  std::string metrics;  ///< deterministic document (no wall block)
};

RunCapture capture(const core::ExperimentConfig& base) {
  obs::RunObserver observer;
  core::ExperimentConfig cfg = base;
  cfg.obs = &observer;
  RunCapture rc;
  rc.result = core::run_experiment(cfg);
  rc.metrics = observer.metrics_json(/*include_wall=*/false);
  return rc;
}

TEST(FaultConfig, DefaultIsDisabled) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  FaultConfig ure;
  ure.ure_rate = 1e-4;
  EXPECT_TRUE(ure.enabled());
  FaultConfig transient;
  transient.transient_rate = 1e-3;
  EXPECT_TRUE(transient.enabled());
  FaultConfig stragglers;
  stragglers.stragglers = 2;
  EXPECT_TRUE(stragglers.enabled());
  stragglers.straggler_factor = 1.0;  // a 1x straggler is not a fault
  EXPECT_FALSE(stragglers.enabled());
  FaultConfig failures;
  failures.disk_failure_times_ms = {100.0};
  EXPECT_TRUE(failures.enabled());
}

TEST(FaultPlan, PureFunctionOfSeedAndLabel) {
  FaultConfig fc;
  fc.ure_rate = 0.5;
  fc.transient_rate = 0.5;
  fc.stragglers = 3;
  fc.disk_failure_times_ms = {100.0, 200.0};
  const FaultPlan a(fc, 99, "run.x", 10);
  const FaultPlan b(fc, 99, "run.x", 10);
  const FaultPlan other(fc, 99, "run.y", 10);
  ASSERT_EQ(a.disk_failures().size(), 2u);
  int label_differences = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(a.sector_error(key), b.sector_error(key));
    EXPECT_EQ(a.transient(key), b.transient(key));
    label_differences += a.sector_error(key) != other.sector_error(key);
  }
  for (int d = 0; d < 10; ++d) {
    EXPECT_EQ(a.service_multiplier(d), b.service_multiplier(d));
    EXPECT_EQ(a.disk_failed(d, 150.0), b.disk_failed(d, 150.0));
  }
  EXPECT_EQ(a.straggler_count(), 3u);
  // Different labels draw different streams (2^-1000 false-positive odds).
  EXPECT_GT(label_differences, 0);
}

class FaultReplay : public ::testing::TestWithParam<core::EngineKind> {};

TEST_P(FaultReplay, SameSeedReplaysByteIdentically) {
  const core::ExperimentConfig cfg = faulty_config(GetParam());
  const RunCapture a = capture(cfg);
  const RunCapture b = capture(cfg);

  // The injected load must be visible, or this test vacuously passes.
  EXPECT_GT(a.result.fault.sector_errors, 0u);
  EXPECT_GT(a.result.fault.retries, 0u);
  EXPECT_EQ(a.result.fault.straggler_disks, 2u);

  expect_same_fault_stats(a.result.fault, b.result.fault);
  EXPECT_EQ(a.result.disk_reads, b.result.disk_reads);
  EXPECT_EQ(a.result.cache_hits, b.result.cache_hits);
  EXPECT_EQ(a.result.chunks_recovered, b.result.chunks_recovered);
  EXPECT_DOUBLE_EQ(a.result.reconstruction_ms, b.result.reconstruction_ms);
  EXPECT_EQ(a.metrics, b.metrics);

  // Fault-aware conservation: every extra loss was recovered on top of the
  // trace, and every retry is a real disk read (SOR plans no reads up
  // front, so its reads are exactly misses + retries; DOR adds its
  // streaming plan on top).
  EXPECT_EQ(a.result.stripes_recovered,
            40u + a.result.fault.escalated_stripes);
  if (GetParam() == core::EngineKind::Sor) {
    EXPECT_EQ(a.result.disk_reads,
              a.result.cache_misses + a.result.fault.retries);
  } else {
    EXPECT_GE(a.result.disk_reads,
              a.result.cache_misses + a.result.fault.retries);
  }
  EXPECT_GE(a.result.chunks_recovered, a.result.fault.extra_lost_chunks);
}

TEST_P(FaultReplay, DisabledFaultsMatchBaselineByteForByte) {
  core::ExperimentConfig cfg = faulty_config(GetParam());
  cfg.faults = FaultConfig{};  // disabled: exact pre-fault code path
  core::ExperimentConfig baseline = cfg;
  const RunCapture a = capture(cfg);
  const RunCapture b = capture(baseline);
  EXPECT_FALSE(a.result.fault.enabled);
  EXPECT_EQ(a.metrics, b.metrics);
  // No run.fault.* keys leak into the fault-free document.
  EXPECT_EQ(a.metrics.find("run.fault."), std::string::npos);
}

TEST_P(FaultReplay, MidRecoveryDiskFailureEscalatesAndRecovers) {
  core::ExperimentConfig cfg = faulty_config(GetParam());
  cfg.faults = FaultConfig{};
  cfg.faults.disk_failure_times_ms = {200.0};
  const RunCapture a = capture(cfg);
  EXPECT_EQ(a.result.fault.disk_failures, 1u);
  EXPECT_GT(a.result.fault.escalated_stripes, 0u);
  EXPECT_GT(a.result.fault.extra_lost_chunks, 0u);
  // Escalated stripes are recovered in full on top of the traced ones.
  EXPECT_EQ(a.result.stripes_recovered,
            40u + a.result.fault.escalated_stripes);
  // Replays deterministically, like every other fault kind.
  const RunCapture b = capture(cfg);
  expect_same_fault_stats(a.result.fault, b.result.fault);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST_P(FaultReplay, LaterFailureInvalidatesSpareCopies) {
  // The DESIGN.md §11 gap: spare copies written after the first failure
  // can sit on the disk the second failure kills. They must be invalidated
  // and re-recovered — never silently read back from a dead disk — and
  // every invalidation is visible in run.fault.respared.
  core::ExperimentConfig cfg = faulty_config(GetParam());
  cfg.faults = FaultConfig{};
  cfg.faults.disk_failure_times_ms = {100.0, 400.0};
  const RunCapture a = capture(cfg);
  EXPECT_EQ(a.result.fault.disk_failures, 2u);
  EXPECT_GT(a.result.fault.respared, 0u);
  // Conservation law: each respared chunk re-enters escalation, so it is
  // also an extra lost chunk and is recovered again on top of the trace.
  EXPECT_LE(a.result.fault.respared, a.result.fault.extra_lost_chunks);
  EXPECT_EQ(a.result.stripes_recovered,
            40u + a.result.fault.escalated_stripes);
  // Replays deterministically, like every other fault kind.
  const RunCapture b = capture(cfg);
  expect_same_fault_stats(a.result.fault, b.result.fault);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST_P(FaultReplay, BeyondBudgetAbortsWithStructuredDiagnostic) {
  core::ExperimentConfig cfg = faulty_config(GetParam());
  cfg.faults = FaultConfig{};
  // Three whole-disk failures on top of traced column errors: some stripe
  // ends up with four lost columns, beyond any 3DFT's erasure budget.
  cfg.faults.disk_failure_times_ms = {100.0, 200.0, 300.0};
  try {
    core::run_experiment(cfg);
    FAIL() << "expected EscalationError";
  } catch (const EscalationError& e) {
    EXPECT_EQ(e.failed_disks().size(), 3u);
    EXPECT_GT(e.lost_cells().size(), 3u);
    EXPECT_NE(std::string(e.what()).find("not decodable"),
              std::string::npos);
  }
}

TEST(FaultEventQueue, ReservationsHoldUnderFaultLoad) {
  // The sharded event queues reserve for the fault path up front (disk
  // failures, escalation targets, a replan slab); a regrowth under this
  // URE + transient + straggler + disk-failure load means a bound is
  // wrong. Direct engine runs, because the regrowth counter is engine
  // instrumentation that the experiment layer deliberately never exports.
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 50000, true, SparePlacement::Distributed);
  workload::ErrorTraceConfig tc;
  tc.num_stripes = 50000;
  tc.num_errors = 40;
  tc.target_col = 0;
  tc.seed = 5;
  const auto errors = workload::generate_error_trace(l, tc);
  FaultConfig faults;
  faults.ure_rate = 0.03;
  faults.transient_rate = 0.01;
  faults.stragglers = 2;
  faults.straggler_factor = 3.0;
  faults.disk_failure_times_ms = {200.0};

  ReconstructionConfig sor;
  sor.workers = 8;
  sor.cache_bytes = 8ull << 20;
  sor.seed = 2024;
  sor.faults = faults;
  ReconstructionEngine sor_engine(l, g, sor);
  const SimMetrics sm = sor_engine.run(errors);
  EXPECT_GT(sm.fault.replans, 0u);
  EXPECT_GT(sm.engine_events, 0u);
  EXPECT_EQ(sm.event_queue_regrowths, 0u);

  DorConfig dor;
  dor.cache_bytes = 8ull << 20;
  dor.seed = 2024;
  dor.faults = faults;
  DorEngine dor_engine(l, g, dor);
  const SimMetrics dm = dor_engine.run(errors);
  EXPECT_GT(dm.fault.replans, 0u);
  EXPECT_GT(dm.engine_events, 0u);
  EXPECT_EQ(dm.event_queue_regrowths, 0u);
}

TEST(FaultReplanCost, RecordsScannedGrowLinearlyWithTrace) {
  // A mid-recovery disk failure replans every traced stripe. Each replan
  // walks only its own stripe's task and chunk records (DESIGN.md §11,
  // "Replan cost"), so 4x the errors may cost about 4x the visits; one
  // scan of the whole task and chunk arenas per replan would cost ~16x.
  // The counter is deterministic, so this pins the bound with no clock.
  const codes::Layout l = codes::make_layout(codes::CodeId::Star, 7);
  const ArrayGeometry g(l, 50000, true, SparePlacement::Distributed);
  auto records_scanned = [&](int num_errors) {
    workload::ErrorTraceConfig tc;
    tc.num_stripes = 50000;
    tc.num_errors = num_errors;
    tc.target_col = 0;
    tc.seed = 5;
    DorConfig dor;
    dor.cache_bytes = 8ull << 20;
    dor.seed = 2024;
    dor.faults.disk_failure_times_ms = {200.0};
    DorEngine engine(l, g, dor);
    const SimMetrics m = engine.run(workload::generate_error_trace(l, tc));
    EXPECT_EQ(m.fault.disk_failures, 1u);
    EXPECT_GT(m.fault.respared, 0u);  // spare copies predate the failure
    EXPECT_EQ(m.fault.escalated_stripes,
              static_cast<std::uint64_t>(num_errors));
    return m.replan_records_scanned;
  };
  const std::uint64_t small = records_scanned(100);
  const std::uint64_t large = records_scanned(400);
  EXPECT_GT(small, 0u);
  EXPECT_LE(large, 5 * small) << "small " << small << ", large " << large;
}

INSTANTIATE_TEST_SUITE_P(BothEngines, FaultReplay,
                         ::testing::Values(core::EngineKind::Sor,
                                           core::EngineKind::Dor),
                         [](const ::testing::TestParamInfo<core::EngineKind>&
                                info) {
                           return info.param == core::EngineKind::Sor
                                      ? "Sor"
                                      : "Dor";
                         });

}  // namespace
}  // namespace fbf::sim

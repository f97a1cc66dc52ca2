// Whole-system tests through the core facade: run_experiment wires codes,
// recovery, workload, cache and simulator together.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/check.h"

#include "core/experiment.h"
#include "core/sweep.h"

namespace fbf::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig c;
  c.code = codes::CodeId::Tip;
  c.p = 7;
  c.workers = 8;
  c.num_errors = 40;
  c.num_stripes = 50000;
  c.cache_bytes = 8ull << 20;
  c.seed = 2024;
  return c;
}

TEST(EndToEnd, RunsAndRecoversEverything) {
  const ExperimentResult r = run_experiment(small_config());
  EXPECT_EQ(r.stripes_recovered, 40u);
  EXPECT_GT(r.chunks_recovered, 40u);  // avg (p-1)/2 > 1 chunk per stripe
  EXPECT_GT(r.total_chunk_requests, r.chunks_recovered);
  EXPECT_EQ(r.cache_hits + r.cache_misses, r.total_chunk_requests);
  EXPECT_GT(r.reconstruction_ms, 0.0);
  EXPECT_GT(r.avg_response_ms, 0.0);
}

TEST(EndToEnd, VerifyDataModeAllCodes) {
  for (codes::CodeId id : codes::kAllCodes) {
    for (int p : {5, 7}) {
      auto cfg = small_config();
      cfg.code = id;
      cfg.p = p;
      cfg.num_errors = 15;
      cfg.verify_data = true;  // throws on any wrong reconstruction
      const ExperimentResult r = run_experiment(cfg);
      EXPECT_EQ(r.stripes_recovered, 15u)
          << codes::to_string(id) << " p=" << p;
    }
  }
}

/// Every deterministic ExperimentResult field (all but the scheme-gen wall
/// time), rendered so one EXPECT_EQ compares them all.
std::string deterministic_fields(const ExperimentResult& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.hit_ratio << ' ' << r.cache_hits << ' ' << r.cache_misses << ' '
      << r.disk_reads << ' ' << r.disk_writes << ' ' << r.avg_response_ms
      << ' ' << r.p99_response_ms << ' ' << r.reconstruction_ms << ' '
      << r.schemes_generated << ' ' << r.stripes_recovered << ' '
      << r.chunks_recovered << ' ' << r.total_chunk_requests << ' '
      << r.app_avg_response_ms << ' ' << r.app_p99_response_ms << ' '
      << r.app_p999_response_ms << ' ' << r.app_degraded_reads << ' '
      << r.app_degraded_writes << ' ' << r.app_served << ' '
      << r.app_parked_drained << ' ' << r.app_deadline_miss << ' '
      << r.disks_total << ' ' << r.disks_active << ' ' << r.disk_ops_max
      << ' ' << r.disk_ops_mean << ' ' << r.write.spare_writes;
  const sim::FaultStats& f = r.fault;
  out << " fault " << f.sector_errors << ' ' << f.transient_failures << ' '
      << f.retries << ' ' << f.dead_disk_reads << ' ' << f.replans << ' '
      << f.gauss_fallbacks << ' ' << f.disk_failures << ' '
      << f.escalated_stripes << ' ' << f.extra_lost_chunks << ' '
      << f.respared << ' ' << f.straggler_disks;
  return out.str();
}

TEST(EndToEnd, DorVerifyDataLeavesResultsUnchanged) {
  // DOR byte-verifies every recovered chunk, through UREs, replans and a
  // mid-recovery disk failure, without moving any simulated result.
  auto cfg = small_config();
  cfg.engine = EngineKind::Dor;
  cfg.num_errors = 20;
  cfg.faults.ure_rate = 1e-3;
  cfg.faults.transient_rate = 1e-3;
  cfg.faults.disk_failure_times_ms = {200.0};
  const ExperimentResult plain = run_experiment(cfg);
  cfg.verify_data = true;  // throws on any wrong reconstruction
  const ExperimentResult verified = run_experiment(cfg);
  EXPECT_GT(verified.fault.escalated_stripes, 0u);
  EXPECT_EQ(deterministic_fields(verified), deterministic_fields(plain));
}

TEST(EndToEnd, AllPoliciesRunAllSchemes) {
  for (cache::PolicyId policy : cache::kPaperPolicies) {
    for (recovery::SchemeKind scheme :
         {recovery::SchemeKind::HorizontalFirst,
          recovery::SchemeKind::RoundRobin,
          recovery::SchemeKind::GreedyMinIO}) {
      auto cfg = small_config();
      cfg.policy = policy;
      cfg.scheme = scheme;
      cfg.num_errors = 15;
      const ExperimentResult r = run_experiment(cfg);
      EXPECT_EQ(r.stripes_recovered, 15u);
      EXPECT_GE(r.hit_ratio, 0.0);
      EXPECT_LE(r.hit_ratio, 1.0);
    }
  }
}

TEST(EndToEnd, DeterministicResults) {
  const ExperimentResult a = run_experiment(small_config());
  const ExperimentResult b = run_experiment(small_config());
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_DOUBLE_EQ(a.reconstruction_ms, b.reconstruction_ms);
  EXPECT_DOUBLE_EQ(a.avg_response_ms, b.avg_response_ms);
}

TEST(EndToEnd, LabelDescribesConfig) {
  const std::string label = small_config().label();
  EXPECT_NE(label.find("TIP"), std::string::npos);
  EXPECT_NE(label.find("p=7"), std::string::npos);
  EXPECT_NE(label.find("8MB"), std::string::npos);
}

TEST(Sweep, GridIsCompleteAndOrdered) {
  auto cfg = small_config();
  cfg.num_errors = 10;
  const std::vector<std::size_t> sizes{1ull << 20, 4ull << 20};
  const std::vector<cache::PolicyId> policies{cache::PolicyId::Lru,
                                              cache::PolicyId::Fbf};
  const auto points = run_sweep(cfg, sizes, policies, 2);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].cache_bytes, sizes[0]);
  EXPECT_EQ(points[0].policy, cache::PolicyId::Lru);
  EXPECT_EQ(points[3].cache_bytes, sizes[1]);
  EXPECT_EQ(points[3].policy, cache::PolicyId::Fbf);
  for (const auto& p : points) {
    EXPECT_EQ(p.result.stripes_recovered, 10u);
  }
  EXPECT_EQ(&find_point(points, sizes[1], cache::PolicyId::Fbf), &points[3]);
  EXPECT_THROW(find_point(points, 123, cache::PolicyId::Lru),
               util::CheckError);
}

TEST(Sweep, ParallelMatchesSerial) {
  auto cfg = small_config();
  cfg.num_errors = 10;
  const std::vector<std::size_t> sizes{2ull << 20, 8ull << 20};
  const std::vector<cache::PolicyId> policies{cache::PolicyId::Lru,
                                              cache::PolicyId::Fbf};
  const auto serial = run_sweep(cfg, sizes, policies, 1);
  const auto parallel = run_sweep(cfg, sizes, policies, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].result.cache_hits, parallel[i].result.cache_hits);
    EXPECT_DOUBLE_EQ(serial[i].result.reconstruction_ms,
                     parallel[i].result.reconstruction_ms);
  }
}

TEST(Sweep, DefaultCacheSizesSpanPaperAxis) {
  const auto sizes = default_cache_sizes();
  EXPECT_EQ(sizes.front(), 2ull << 20);
  EXPECT_EQ(sizes.back(), 2048ull << 20);
  for (std::size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], sizes[i - 1] * 2);
  }
  EXPECT_GE(small_cache_sizes().size(), 4u);
}

TEST(Sweep, MaxImprovementArithmetic) {
  // Construct a synthetic grid to pin the formula.
  std::vector<SweepPoint> points;
  auto add = [&points](std::size_t size, cache::PolicyId pol, double hr,
                       double reads) {
    SweepPoint p;
    p.cache_bytes = size;
    p.policy = pol;
    p.result.hit_ratio = hr;
    p.result.disk_reads = static_cast<std::uint64_t>(reads);
    points.push_back(p);
  };
  add(1, cache::PolicyId::Lru, 0.10, 1000);
  add(1, cache::PolicyId::Fbf, 0.25, 800);
  add(2, cache::PolicyId::Lru, 0.40, 500);
  add(2, cache::PolicyId::Fbf, 0.44, 490);
  const double hr_gain = max_improvement(
      points, {1, 2}, cache::PolicyId::Lru,
      [](const ExperimentResult& r) { return r.hit_ratio; },
      /*higher_is_better=*/true);
  EXPECT_NEAR(hr_gain, 1.5, 1e-9);  // 0.25/0.10 - 1
  const double read_gain = max_improvement(
      points, {1, 2}, cache::PolicyId::Lru,
      [](const ExperimentResult& r) {
        return static_cast<double>(r.disk_reads);
      },
      /*higher_is_better=*/false);
  EXPECT_NEAR(read_gain, 0.2, 1e-9);  // 1 - 800/1000
}

TEST(Sweep, MaxImprovementMinBaseContract) {
  std::vector<SweepPoint> points;
  auto add = [&points](std::size_t size, cache::PolicyId pol, double hr) {
    SweepPoint p;
    p.cache_bytes = size;
    p.policy = pol;
    p.result.hit_ratio = hr;
    points.push_back(p);
  };
  // Size 1: near-zero baseline would inflate the ratio to 9x.
  add(1, cache::PolicyId::Lru, 0.001);
  add(1, cache::PolicyId::Fbf, 0.010);
  // Size 2: healthy baseline, modest 25% gain.
  add(2, cache::PolicyId::Lru, 0.40);
  add(2, cache::PolicyId::Fbf, 0.50);
  // Size 3: zero baseline must always be skipped, even at min_base = 0.
  add(3, cache::PolicyId::Lru, 0.0);
  add(3, cache::PolicyId::Fbf, 0.30);
  const auto hit_ratio = [](const ExperimentResult& r) { return r.hit_ratio; };

  // min_base filters the near-zero point, leaving only the honest gain.
  EXPECT_NEAR(max_improvement(points, {1, 2, 3}, cache::PolicyId::Lru,
                              hit_ratio, /*higher_is_better=*/true,
                              /*min_base=*/0.01),
              0.25, 1e-9);
  // The default min_base of 0 keeps the near-zero point (9x) but still
  // rejects the exactly-zero denominator at size 3.
  EXPECT_NEAR(max_improvement(points, {1, 2, 3}, cache::PolicyId::Lru,
                              hit_ratio, /*higher_is_better=*/true),
              9.0, 1e-9);
  // A negative min_base would re-admit zero denominators; it is rejected.
  EXPECT_THROW(max_improvement(points, {1, 2}, cache::PolicyId::Lru,
                               hit_ratio, /*higher_is_better=*/true,
                               /*min_base=*/-1.0),
               util::CheckError);
}

}  // namespace
}  // namespace fbf::core

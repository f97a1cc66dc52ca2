#include "sim/foreground.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "codes/builders.h"
#include "sim/dor_engine.h"
#include "sim/reconstruction.h"
#include "util/check.h"

namespace fbf::sim {
namespace {

codes::Cell cell(int r, int c) {
  return codes::Cell{static_cast<std::int16_t>(r), static_cast<std::int16_t>(c)};
}

workload::StripeError lost_rows(std::uint64_t stripe, int col, int first_row,
                                int rows) {
  workload::StripeError e;
  e.stripe = stripe;
  e.error.col = col;
  e.error.first_row = first_row;
  e.error.num_chunks = rows;
  return e;
}

workload::AppRequest request(std::uint64_t stripe, codes::Cell c,
                             bool is_read, double arrival_ms) {
  workload::AppRequest r;
  r.stripe = stripe;
  r.cell = c;
  r.is_read = is_read;
  r.arrival_ms = arrival_ms;
  return r;
}

/// A fault-free ForegroundServer over a TIP p=7 rotate array, driven by
/// hand: the test plays the engine, delivering arrivals and recoveries.
struct Harness {
  Harness(std::vector<workload::StripeError> errs,
          std::vector<workload::AppRequest> reqs)
      : errors(std::move(errs)), trace(std::move(reqs)) {
    for (int d = 0; d < geometry.num_disks(); ++d) {
      disks.emplace_back(d, DiskParams{}, 1);
    }
  }

  /// Delivers every trace request, in trace order, at its arrival time.
  void arrive_all() {
    for (std::size_t i = 0; i < trace.size(); ++i) {
      server.on_arrival(i, trace[i].arrival_ms);
    }
  }

  codes::Layout layout = codes::make_layout(codes::CodeId::Tip, 7);
  ArrayGeometry geometry{layout, 1000, /*rotate_columns=*/true,
                         SparePlacement::Distributed};
  std::vector<Disk> disks;
  std::vector<workload::StripeError> errors;
  std::vector<workload::AppRequest> trace;
  SimMetrics metrics;
  ForegroundServer server{layout,  geometry, disks,   errors,
                          trace,   metrics,  nullptr, nullptr};
};

TEST(ForegroundServer, TracedLossCoversEveryErrorOfARepeatedStripe) {
  Harness h({lost_rows(11, 0, 0, 2), lost_rows(11, 0, 1, 2),
             lost_rows(40, 2, 3, 1)},
            {request(500, cell(0, 0), true, 1.0)});
  for (int r = 0; r < 3; ++r) {
    EXPECT_TRUE(h.server.traced_loss(11, cell(r, 0))) << "row " << r;
  }
  EXPECT_FALSE(h.server.traced_loss(11, cell(3, 0)));
  EXPECT_FALSE(h.server.traced_loss(11, cell(0, 1)));
  EXPECT_TRUE(h.server.traced_loss(40, cell(3, 2)));
  EXPECT_FALSE(h.server.traced_loss(40, cell(3, 0)));
  EXPECT_TRUE(h.server.stripe_under_repair(11));
  EXPECT_TRUE(h.server.stripe_under_repair(40));
}

TEST(ForegroundServer, UntracedStripeIsNeverUnderRepair) {
  Harness h({lost_rows(11, 0, 0, 2)},
            {request(12, cell(0, 0), true, 1.0),
             request(12, cell(1, 3), false, 2.0)});
  // Recovery hooks for a stripe the trace never lists are no-ops.
  h.server.on_loss_recovered(12, cell(0, 0), 0.5);
  h.server.on_stripe_recovered(12, 0.5);
  EXPECT_FALSE(h.server.stripe_under_repair(12));
  for (int i = 0; i < h.layout.num_cells(); ++i) {
    EXPECT_FALSE(h.server.traced_loss(12, h.layout.cell_at(i)));
  }
  EXPECT_TRUE(h.server.stripe_under_repair(11));
  // Its requests are served at arrival, never parked.
  h.arrive_all();
  EXPECT_EQ(h.metrics.app_served, 2u);
  EXPECT_EQ(h.metrics.app_degraded_reads + h.metrics.app_degraded_writes, 0u);
  EXPECT_NO_THROW(h.server.assert_drained());
}

TEST(ForegroundServer, StripeRecoveryDrainsEachParkedRequestOnce) {
  Harness h({lost_rows(11, 0, 0, 2)},
            {request(11, cell(0, 0), true, 0.1),
             request(11, cell(1, 0), true, 0.2),
             request(11, cell(0, 0), false, 0.3),  // write to a lost chunk
             request(11, cell(2, 0), true, 0.4),   // healthy cell
             request(12, cell(0, 0), true, 0.5)});
  h.arrive_all();
  EXPECT_EQ(h.metrics.app_degraded_reads, 2u);
  EXPECT_EQ(h.metrics.app_degraded_writes, 1u);
  EXPECT_EQ(h.metrics.app_served, 2u);
  EXPECT_THROW(h.server.assert_drained(), util::CheckError);

  h.server.on_stripe_recovered(11, 5.0);
  EXPECT_FALSE(h.server.stripe_under_repair(11));
  EXPECT_EQ(h.metrics.app_parked_drained, 3u);
  EXPECT_EQ(h.metrics.app_response_ms.count(), 5u);
  EXPECT_NO_THROW(h.server.assert_drained());

  // Idempotent: a second completion drains nothing again.
  h.server.on_stripe_recovered(11, 6.0);
  EXPECT_EQ(h.metrics.app_parked_drained, 3u);
  EXPECT_EQ(h.metrics.app_response_ms.count(), 5u);

  // After repair a request on a lost chunk is served from its spare copy.
  h.server.on_arrival(0, 7.0);
  EXPECT_EQ(h.metrics.app_served, 3u);
  EXPECT_EQ(h.metrics.app_degraded_reads, 2u);
  EXPECT_TRUE(h.server.traced_loss(11, cell(0, 0)));  // still remapped
}

TEST(ForegroundServer, LastDistinctTracedLossRecoversTheStripe) {
  // Rows {0,1} and {1,2} overlap in row 1: three distinct losses.
  Harness h({lost_rows(11, 0, 0, 2), lost_rows(11, 0, 1, 2)},
            {request(11, cell(2, 0), true, 0.1)});
  h.arrive_all();
  ASSERT_EQ(h.metrics.app_degraded_reads, 1u);
  h.server.on_loss_recovered(11, cell(1, 0), 1.0);
  h.server.on_loss_recovered(11, cell(1, 0), 1.5);  // a respare: no count
  h.server.on_loss_recovered(11, cell(4, 0), 1.6);  // not a traced loss
  h.server.on_loss_recovered(11, cell(0, 0), 2.0);
  EXPECT_TRUE(h.server.stripe_under_repair(11));
  EXPECT_EQ(h.metrics.app_parked_drained, 0u);
  h.server.on_loss_recovered(11, cell(2, 0), 3.0);
  EXPECT_FALSE(h.server.stripe_under_repair(11));
  EXPECT_EQ(h.metrics.app_parked_drained, 1u);
  h.server.on_loss_recovered(11, cell(2, 0), 4.0);
  EXPECT_EQ(h.metrics.app_parked_drained, 1u);
  EXPECT_NO_THROW(h.server.assert_drained());
}

// A caller-supplied trace may list a stripe twice with overlapping cells.
// The stripe is repaired once each distinct traced loss has persisted, so
// its parked reads drain on both engines however many errors list it.
TEST(ForegroundServer, OverlappingTraceErrorsDrainOnBothEngines) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const ArrayGeometry g(l, 10000, /*rotate_columns=*/true,
                        SparePlacement::Distributed);
  const std::vector<workload::StripeError> errors{lost_rows(11, 0, 0, 2),
                                                  lost_rows(11, 0, 1, 2)};
  std::vector<workload::AppRequest> apps;
  for (int r = 0; r < 3; ++r) {
    apps.push_back(request(11, cell(r, 0), true, 0.1 * (r + 1)));
  }
  for (const bool dor : {false, true}) {
    SimMetrics m;
    if (dor) {
      DorConfig cfg;
      cfg.cache_bytes = 64 * 32 * 1024;
      cfg.chunk_bytes = 32 * 1024;
      cfg.seed = 11;
      ASSERT_NO_THROW(m = DorEngine(l, g, cfg).run(errors, apps));
    } else {
      ReconstructionConfig cfg;
      cfg.workers = 8;
      cfg.cache_bytes = 64 * 32 * 1024;
      cfg.chunk_bytes = 32 * 1024;
      cfg.seed = 11;
      ASSERT_NO_THROW(m = ReconstructionEngine(l, g, cfg).run(errors, apps));
    }
    const std::string engine = dor ? "dor" : "sor";
    EXPECT_EQ(m.app_degraded_reads, 3u) << engine;
    EXPECT_EQ(m.app_parked_drained, 3u) << engine;
    EXPECT_EQ(m.app_response_ms.count(), 3u) << engine;
  }
}

ThrottleConfig rate(double per_sec, int burst = 16) {
  ThrottleConfig c;
  c.rebuild_reads_per_sec = per_sec;
  c.burst = burst;
  return c;
}

TEST(ThrottleConfig, DisabledByDefault) {
  EXPECT_FALSE(ThrottleConfig{}.enabled());
  EXPECT_TRUE(rate(100.0).enabled());
}

TEST(RebuildThrottle, RejectsDegenerateConfigs) {
  EXPECT_THROW(RebuildThrottle(rate(0.0)), util::CheckError);
  EXPECT_THROW(RebuildThrottle(rate(100.0, 0)), util::CheckError);
}

TEST(RebuildThrottle, GrantsSpaceOutAtTheConfiguredInterval) {
  // 1000 reads/s with burst 1: one grant per millisecond, back to back.
  RebuildThrottle t(rate(1000.0, 1));
  EXPECT_DOUBLE_EQ(t.acquire(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.acquire(0.0), 1.0);
  EXPECT_DOUBLE_EQ(t.acquire(0.0), 2.0);
  EXPECT_DOUBLE_EQ(t.acquire(0.0), 3.0);
}

TEST(RebuildThrottle, BurstDepthAllowsImmediateGrants) {
  RebuildThrottle t(rate(1000.0, 4));
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(t.acquire(0.0), 0.0) << i;
  }
  EXPECT_DOUBLE_EQ(t.acquire(0.0), 1.0);  // bucket drained
}

TEST(RebuildThrottle, ElapsedTimeRefillsTheBucket) {
  RebuildThrottle t(rate(1000.0, 1));
  EXPECT_DOUBLE_EQ(t.acquire(0.0), 0.0);
  // 10 ms of idle time mints tokens (capped at the burst of 1), so the
  // next request at t=10 goes straight through.
  EXPECT_DOUBLE_EQ(t.acquire(10.0), 10.0);
  // A fractional refill pushes the grant to when the full token exists.
  EXPECT_DOUBLE_EQ(t.acquire(10.5), 11.0);
}

TEST(RebuildThrottle, RefillNeverOvershootsBurst) {
  RebuildThrottle t(rate(1000.0, 2));
  EXPECT_DOUBLE_EQ(t.acquire(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.acquire(0.0), 0.0);
  // A long idle gap refills to exactly `burst` tokens, not more: two
  // immediate grants, then the interval reasserts itself.
  EXPECT_DOUBLE_EQ(t.acquire(100.0), 100.0);
  EXPECT_DOUBLE_EQ(t.acquire(100.0), 100.0);
  EXPECT_DOUBLE_EQ(t.acquire(100.0), 101.0);
}

TEST(RebuildThrottle, DeferredGrantsKeepFutureAccounting) {
  // After a future-dated grant, `last_ms_` sits at the grant time; calls
  // from earlier `now` values must queue behind it, never double-mint.
  RebuildThrottle t(rate(100.0, 1));  // 10 ms interval
  EXPECT_DOUBLE_EQ(t.acquire(0.0), 0.0);
  EXPECT_DOUBLE_EQ(t.acquire(0.0), 10.0);
  EXPECT_DOUBLE_EQ(t.acquire(5.0), 20.0);  // now < last: no refill
  EXPECT_DOUBLE_EQ(t.acquire(20.0), 30.0);
}

}  // namespace
}  // namespace fbf::sim

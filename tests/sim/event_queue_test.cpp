// Ordering-equivalence tests for the event queues. The engines key events
// by (t, seq) with unique seq — a strict total order — so the sharded
// queue (SOR) and the sorted event window (DOR) must each pop the exact
// sequence a single global heap would; the randomized tests here drive
// them against a std::priority_queue through mixed push/pop streams, and
// the edge tests pin the one-shard, empty-shard, lookahead and
// reservation-accounting behavior the engines rely on.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "util/rng.h"

namespace fbf::sim {
namespace {

struct Event {
  double t = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t shard = 0;  ///< payload: which shard it was pushed to
  bool operator>(const Event& o) const {
    return t > o.t || (t == o.t && seq > o.seq);
  }
};

using ReferenceHeap =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

TEST(ShardedEventQueue, StartsEmpty) {
  ShardedEventQueue<Event> q(4);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.regrowths(), 0u);
}

TEST(ShardedEventQueue, SingleShardIsAPlainMinHeap) {
  ShardedEventQueue<Event> q(1);
  std::uint64_t seq = 0;
  for (double t : {5.0, 1.0, 3.0, 2.0, 4.0}) {
    q.push(0, Event{t, seq++, 0});
  }
  for (double expect : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    EXPECT_DOUBLE_EQ(q.pop().t, expect);
  }
  EXPECT_TRUE(q.empty());
}

TEST(ShardedEventQueue, OnlyOneShardPopulated) {
  // Empty shards must never win the tournament, whichever leaf holds the
  // events (exercises both children of every internal node).
  for (std::size_t populated = 0; populated < 5; ++populated) {
    ShardedEventQueue<Event> q(5);
    std::uint64_t seq = 0;
    for (double t : {9.0, 7.0, 8.0}) {
      q.push(populated, Event{t, seq++, 0});
    }
    EXPECT_DOUBLE_EQ(q.pop().t, 7.0);
    EXPECT_DOUBLE_EQ(q.pop().t, 8.0);
    EXPECT_DOUBLE_EQ(q.pop().t, 9.0);
    EXPECT_TRUE(q.empty());
  }
}

TEST(ShardedEventQueue, TimeTiesBreakBySequence) {
  ShardedEventQueue<Event> q(3);
  q.push(2, Event{1.0, 5, 2});
  q.push(0, Event{1.0, 3, 0});
  q.push(1, Event{1.0, 4, 1});
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_EQ(q.pop().seq, 4u);
  EXPECT_EQ(q.pop().seq, 5u);
}

TEST(ShardedEventQueue, NonPowerOfTwoShardCounts) {
  // The tournament pads leaves to a power of two; the padding leaves must
  // stay inert for every shard count.
  for (std::size_t shards : {1u, 2u, 3u, 5u, 6u, 7u, 9u, 17u}) {
    ShardedEventQueue<Event> q(shards);
    util::Rng rng(0xabcdu + shards);
    ReferenceHeap ref;
    std::uint64_t seq = 0;
    for (int i = 0; i < 200; ++i) {
      const Event ev{rng.uniform_real(0.0, 100.0), seq++,
                     static_cast<std::uint32_t>(
                         rng.uniform_int(0, static_cast<std::int64_t>(shards) -
                                                1))};
      q.push(ev.shard, ev);
      ref.push(ev);
    }
    while (!ref.empty()) {
      const Event got = q.pop();
      EXPECT_DOUBLE_EQ(got.t, ref.top().t);
      EXPECT_EQ(got.seq, ref.top().seq);
      ref.pop();
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(ShardedEventQueue, RandomizedMixedStreamMatchesGlobalHeap) {
  // Interleaved pushes and pops with skewed shard choice (the engines'
  // real shape: a few hot shards, many idle), compared pop-for-pop
  // against a single global heap.
  util::Rng rng(20260808);
  for (int round = 0; round < 20; ++round) {
    const std::size_t shards =
        static_cast<std::size_t>(rng.uniform_int(1, 12));
    ShardedEventQueue<Event> q(shards);
    ReferenceHeap ref;
    std::uint64_t seq = 0;
    for (int step = 0; step < 2000; ++step) {
      if (ref.empty() || rng.bernoulli(0.55)) {
        // Squaring skews the choice toward shard 0.
        const double u = rng.uniform01();
        const auto shard = static_cast<std::uint32_t>(
            u * u * static_cast<double>(shards));
        const Event ev{rng.uniform_real(0.0, 10.0), seq++, shard};
        q.push(shard, ev);
        ref.push(ev);
      } else {
        const Event got = q.pop();
        ASSERT_DOUBLE_EQ(got.t, ref.top().t);
        ASSERT_EQ(got.seq, ref.top().seq);
        ref.pop();
      }
      ASSERT_EQ(q.size(), ref.size());
    }
    while (!ref.empty()) {
      ASSERT_EQ(q.pop().seq, ref.top().seq);
      ref.pop();
    }
  }
}

TEST(ShardedEventQueue, ReserveIsAdditiveAndPreventsRegrowth) {
  ShardedEventQueue<Event> q(2);
  q.reserve(0, 3);
  q.reserve(0, 2);  // additive: shard 0 now holds 5 without regrowth
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) {
    q.push(0, Event{static_cast<double>(i), seq++, 0});
  }
  EXPECT_EQ(q.regrowths(), 0u);
  // The 6th push on shard 0 breaches the reservation.
  q.push(0, Event{9.0, seq++, 0});
  EXPECT_EQ(q.regrowths(), 1u);
  // An unreserved shard counts its very first push.
  q.push(1, Event{9.0, seq++, 1});
  EXPECT_EQ(q.regrowths(), 2u);
}

TEST(ShardedEventQueue, PopAfterDrainAndRefill) {
  ShardedEventQueue<Event> q(3);
  std::uint64_t seq = 0;
  q.push(1, Event{2.0, seq++, 1});
  EXPECT_DOUBLE_EQ(q.pop().t, 2.0);
  EXPECT_TRUE(q.empty());
  q.push(2, Event{1.0, seq++, 2});
  q.push(0, Event{0.5, seq++, 0});
  EXPECT_DOUBLE_EQ(q.pop().t, 0.5);
  EXPECT_DOUBLE_EQ(q.pop().t, 1.0);
  EXPECT_TRUE(q.empty());
}

TEST(ShardedEventQueue, ShardOutOfRangeIsChecked) {
  ShardedEventQueue<Event> q(2);
  EXPECT_THROW(q.push(2, Event{}), util::CheckError);
  EXPECT_THROW(q.pop(), util::CheckError);  // empty queue
}

/// The reference heap's pending events in pop order.
std::vector<Event> pop_order(ReferenceHeap ref) {
  std::vector<Event> out;
  while (!ref.empty()) {
    out.push_back(ref.top());
    ref.pop();
  }
  return out;
}

TEST(EventWindow, StartsEmpty) {
  EventWindow<Event> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.pushes(), 0u);
  EXPECT_EQ(q.regrowths(), 0u);
}

TEST(EventWindow, TimeTiesBreakBySequence) {
  // A push lands after every pending event of its time with a lower seq
  // and before every later one, wherever it enters.
  EventWindow<Event> q;
  q.push(Event{2.0, 4, 0});
  q.push(Event{1.0, 5, 0});
  q.push(Event{2.0, 1, 0});  // ahead of the seq-4 event of the same time
  q.push(Event{1.0, 6, 0});
  q.push(Event{3.0, 0, 0});
  const std::vector<std::pair<double, std::uint64_t>> want = {
      {1.0, 5}, {1.0, 6}, {2.0, 1}, {2.0, 4}, {3.0, 0}};
  for (const auto& [t, seq] : want) {
    const Event got = q.pop();
    EXPECT_DOUBLE_EQ(got.t, t);
    EXPECT_EQ(got.seq, seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventWindow, RandomizedMixedStreamMatchesGlobalHeap) {
  // Timestamps come from a coarse grid, so most pushes tie with pending
  // events (the lockstep shape of fixed-latency disks); a few are far in
  // the future and wait out many reclaims; every round drains the window
  // completely and refills it. Occupancy swings between empty and a few
  // hundred events, so pops cross the reclaim threshold in both
  // directions. Checked pop for pop, with ahead() against the reference's
  // pending order along the way.
  util::Rng rng(20261018);
  EventWindow<Event> q;
  ReferenceHeap ref;
  std::uint64_t seq = 0;
  double now = 0.0;
  for (int round = 0; round < 30; ++round) {
    const double push_p = rng.uniform_real(0.3, 0.8);
    for (int step = 0; step < 3000; ++step) {
      if (ref.empty() || rng.bernoulli(push_p)) {
        double t = now + static_cast<double>(rng.uniform_int(0, 6));
        if (rng.bernoulli(0.02)) {
          t = now + 1e6;  // far future
        }
        const Event ev{t, seq++, 0};
        q.push(ev);
        ref.push(ev);
      } else {
        const Event got = q.pop();
        ASSERT_DOUBLE_EQ(got.t, ref.top().t) << "round " << round;
        ASSERT_EQ(got.seq, ref.top().seq) << "round " << round;
        now = got.t;  // simulated time never goes backwards
        ref.pop();
      }
      ASSERT_EQ(q.size(), ref.size());
      if (step % 97 == 0) {
        const std::vector<Event> order = pop_order(ref);
        for (std::size_t k = 0; k < order.size(); ++k) {
          ASSERT_EQ(q.ahead(k).seq, order[k].seq) << "k " << k;
        }
      }
    }
    while (!ref.empty()) {  // drain, then refill next round
      ASSERT_EQ(q.pop().seq, ref.top().seq);
      now = ref.top().t;
      ref.pop();
    }
    ASSERT_TRUE(q.empty());
  }
  EXPECT_EQ(q.pushes(), seq);
}

TEST(EventWindow, AheadReturnsTheKthNextPop) {
  util::Rng rng(0xa4ead);
  EventWindow<Event> q;
  std::uint64_t seq = 0;
  for (int i = 0; i < 64; ++i) {
    q.push(Event{static_cast<double>(rng.uniform_int(0, 9)), seq++, 0});
  }
  std::vector<std::uint64_t> seen;
  for (std::size_t k = 0; k < q.size(); ++k) {
    seen.push_back(q.ahead(k).seq);
  }
  EXPECT_EQ(q.size(), 64u);  // looking ahead consumes nothing
  for (const std::uint64_t want : seen) {
    EXPECT_EQ(q.pop().seq, want);
  }
}

TEST(EventWindow, ReserveIsAdditiveAndCountsRegrowths) {
  EventWindow<Event> q;
  q.reserve(3);
  q.reserve(2);  // additive: the window now holds 5 without regrowth
  std::uint64_t seq = 0;
  for (int i = 0; i < 5; ++i) {
    q.push(Event{static_cast<double>(i), seq++, 0});
  }
  EXPECT_EQ(q.regrowths(), 0u);
  // A full window with a spent prefix reclaims it instead of growing.
  EXPECT_DOUBLE_EQ(q.pop().t, 0.0);
  q.push(Event{9.0, seq++, 0});
  EXPECT_EQ(q.regrowths(), 0u);
  // Five live events fill the reservation: the next push breaches it.
  q.push(Event{9.5, seq++, 0});
  EXPECT_EQ(q.regrowths(), 1u);
  EXPECT_EQ(q.pushes(), 7u);
  for (double want : {1.0, 2.0, 3.0, 4.0, 9.0, 9.5}) {
    EXPECT_DOUBLE_EQ(q.pop().t, want);
  }
  // An unreserved window counts its very first push.
  EventWindow<Event> bare;
  bare.push(Event{1.0, 0, 0});
  EXPECT_EQ(bare.regrowths(), 1u);
}

TEST(EventWindow, SteadyStateStaysInsideItsReservation) {
  // A long run whose occupancy never exceeds the reservation never
  // regrows: the spent prefix is reclaimed as the window slides, however
  // many events pass through it.
  EventWindow<Event> q;
  q.reserve(8);
  std::uint64_t seq = 0;
  double now = 0.0;
  for (int i = 0; i < 8; ++i) {
    q.push(Event{now + 10.0, seq++, 0});
  }
  util::Rng rng(0x5eadu);
  for (int i = 0; i < 100000; ++i) {
    now = q.pop().t;
    const double t = now + static_cast<double>(rng.uniform_int(1, 20));
    q.push(Event{t, seq++, 0});
  }
  EXPECT_EQ(q.size(), 8u);
  EXPECT_EQ(q.regrowths(), 0u);
}

TEST(EventWindow, PopAndAheadPastTheEndAreChecked) {
  EventWindow<Event> q;
  EXPECT_THROW(q.pop(), util::CheckError);
  EXPECT_THROW(q.ahead(0), util::CheckError);
  q.push(Event{1.0, 0, 0});
  EXPECT_THROW(q.ahead(1), util::CheckError);
  q.pop();
  EXPECT_THROW(q.pop(), util::CheckError);  // drained window too
}

}  // namespace
}  // namespace fbf::sim

// Ordering-equivalence tests for the event queues. The engines key events
// by (t, seq) with unique seq — a strict total order — so SOR's tournament
// tree, the preset streams beside the queues and DOR's sorted event window
// must each pop the exact sequence a single global heap would; the
// randomized tests here drive them against a std::priority_queue through
// mixed update and pop streams, and the edge tests pin the padding-leaf,
// lookahead and reservation-accounting behavior the engines rely on.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <queue>
#include <vector>

#include "util/rng.h"

namespace fbf::sim {
namespace {

struct Event {
  double t = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t source = 0;  ///< payload: the tree leaf or stream item
  bool operator>(const Event& o) const {
    return t > o.t || (t == o.t && seq > o.seq);
  }
};

using ReferenceHeap =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

/// The tree's top as an Event; source carries the winning leaf.
Event top_of(const TournamentTree& tree) {
  const TournamentTree::Entry& top = tree.top();
  return Event{top.key.t, top.key.seq, top.source};
}

TEST(TournamentTree, StartsEmpty) {
  TournamentTree tree(4);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.top().key.seq, kNoEvent.seq);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_FALSE(tree.armed(s));
  }
}

TEST(TournamentTree, TimeTiesBreakBySequence) {
  TournamentTree tree(3);
  tree.arm(2, EventKey{1.0, 5});
  tree.arm(0, EventKey{1.0, 3});
  tree.arm(1, EventKey{1.0, 4});
  for (const std::uint32_t want : {0u, 1u, 2u}) {
    EXPECT_EQ(tree.top().source, want);
    EXPECT_EQ(tree.top().key.seq, 3u + want);
    tree.clear(want);
  }
  EXPECT_TRUE(tree.empty());
}

TEST(TournamentTree, PaddingLeavesNeverWin) {
  // The tree pads its leaves to a power of two; the padding leaves must
  // stay inert for every source count, and every source must be able to
  // win. Each round arms every source, then pops each one in order.
  for (std::size_t sources = 1; sources <= 17; ++sources) {
    TournamentTree tree(sources);
    util::Rng rng(0xabcdu + sources);
    ReferenceHeap ref;
    std::uint64_t seq = 0;
    for (std::size_t s = 0; s < sources; ++s) {
      const Event ev{rng.uniform_real(0.0, 100.0), seq++,
                     static_cast<std::uint32_t>(s)};
      tree.arm(s, EventKey{ev.t, ev.seq});
      ref.push(ev);
    }
    while (!ref.empty()) {
      const Event got = top_of(tree);
      ASSERT_LT(got.source, sources) << "sources " << sources;
      EXPECT_DOUBLE_EQ(got.t, ref.top().t);
      EXPECT_EQ(got.seq, ref.top().seq);
      EXPECT_EQ(got.source, ref.top().source);
      tree.clear(got.source);
      ref.pop();
    }
    EXPECT_TRUE(tree.empty()) << "sources " << sources;
  }
}

TEST(TournamentTree, OnlyOneSourceArmed) {
  // A lone armed leaf wins from any position (both children of every
  // internal node, and the last leaf before the padding).
  for (std::size_t armed = 0; armed < 5; ++armed) {
    TournamentTree tree(5);
    tree.arm(armed, EventKey{7.0, 0});
    EXPECT_EQ(tree.top().source, armed);
    EXPECT_DOUBLE_EQ(tree.top().key.t, 7.0);
    for (std::size_t s = 0; s < 5; ++s) {
      EXPECT_EQ(tree.armed(s), s == armed);
    }
    tree.arm(armed, EventKey{9.0, 1});  // re-armed after its pop
    EXPECT_EQ(tree.top().source, armed);
    EXPECT_DOUBLE_EQ(tree.top().key.t, 9.0);
    tree.clear(armed);
    EXPECT_TRUE(tree.empty());
  }
}

TEST(TournamentTree, DrainAndRefill) {
  TournamentTree tree(3);
  std::uint64_t seq = 0;
  tree.arm(1, EventKey{2.0, seq++});
  EXPECT_EQ(tree.top().source, 1u);
  tree.clear(1);
  EXPECT_TRUE(tree.empty());
  tree.arm(2, EventKey{1.0, seq++});
  tree.arm(0, EventKey{0.5, seq++});
  EXPECT_EQ(tree.top().source, 0u);
  tree.clear(0);
  EXPECT_EQ(tree.top().source, 2u);
  tree.clear(2);
  EXPECT_TRUE(tree.empty());
}

TEST(TournamentTree, SourceOutOfRangeIsChecked) {
  EXPECT_THROW(TournamentTree(0), util::CheckError);
  TournamentTree tree(3);  // four leaves: leaf 3 is padding
  EXPECT_THROW(tree.arm(3, EventKey{1.0, 0}), util::CheckError);
  EXPECT_THROW(tree.clear(3), util::CheckError);
  EXPECT_THROW((void)tree.armed(3), util::CheckError);
  EXPECT_TRUE(tree.empty());  // a refused update leaves the tree alone
}

TEST(TournamentTree, RandomizedUpdatesMatchGlobalHeap) {
  // SOR's shapes, checked pop for pop against a global heap that keeps
  // one live key per source (superseded entries are skipped as stale):
  // the top source is re-armed later or cleared, as a worker is after its
  // step; and a source that is not the top is armed or re-keyed at the
  // current time, as a disk failure arms a retired worker, or cleared.
  // Times come from a coarse grid, so ties are common.
  util::Rng rng(20261020);
  for (int round = 0; round < 20; ++round) {
    const auto sources = static_cast<std::size_t>(rng.uniform_int(1, 17));
    TournamentTree tree(sources);
    ReferenceHeap ref;
    std::vector<std::optional<std::uint64_t>> live(sources);
    std::uint64_t seq = 0;
    double now = 0.0;
    const auto arm = [&](std::size_t s, double t) {
      const Event ev{t, seq++, static_cast<std::uint32_t>(s)};
      tree.arm(s, EventKey{ev.t, ev.seq});
      ref.push(ev);
      live[s] = ev.seq;
    };
    const auto ref_top = [&]() -> std::optional<Event> {
      while (!ref.empty() && live[ref.top().source] != ref.top().seq) {
        ref.pop();  // stale: its source was re-keyed or cleared
      }
      return ref.empty() ? std::nullopt : std::optional<Event>(ref.top());
    };
    for (std::size_t s = 0; s < sources; ++s) {
      arm(s, static_cast<double>(rng.uniform_int(0, 4)));
    }
    for (int step = 0; step < 3000; ++step) {
      const std::optional<Event> want = ref_top();
      if (!want.has_value()) {
        ASSERT_TRUE(tree.empty()) << "round " << round;
        arm(static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(sources) - 1)),
            now);
        continue;
      }
      const Event got = top_of(tree);
      ASSERT_DOUBLE_EQ(got.t, want->t) << "round " << round;
      ASSERT_EQ(got.seq, want->seq) << "round " << round;
      ASSERT_EQ(got.source, want->source) << "round " << round;
      now = got.t;
      const double u = rng.uniform01();
      if (u < 0.7) {
        arm(got.source, now + static_cast<double>(rng.uniform_int(0, 6)));
      } else if (u < 0.8) {
        tree.clear(got.source);
        live[got.source].reset();
      } else {
        const auto other = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(sources) - 1));
        if (u < 0.95) {
          arm(other, now);  // may re-key an armed source
        } else {
          tree.clear(other);
          live[other].reset();
        }
      }
      for (std::size_t s = 0; s < sources; ++s) {
        ASSERT_EQ(tree.armed(s), live[s].has_value());
      }
    }
  }
}

TEST(PresetStream, YieldsItemsInTimeThenIndexOrder) {
  // Items listed out of time order, with ties: each pops with seq
  // seq0 + its index, tied items in index order, then the stream reads
  // kNoEvent.
  struct Item {
    double at_ms;
  };
  const std::vector<Item> items = {{3.0}, {1.0}, {3.0}, {0.0}, {1.0}, {2.5}};
  PresetStream stream(items, &Item::at_ms, 100);
  const std::vector<std::size_t> order = {3, 1, 4, 5, 0, 2};
  for (const std::size_t i : order) {
    ASSERT_FALSE(stream.empty());
    EXPECT_DOUBLE_EQ(stream.head().t, items[i].at_ms);
    EXPECT_EQ(stream.head().seq, 100u + i);
    EXPECT_EQ(stream.index(), i);
    stream.pop();
  }
  EXPECT_TRUE(stream.empty());
  EXPECT_EQ(stream.head().seq, kNoEvent.seq);
}

TEST(PresetStream, DrainedStreamIsChecked) {
  const PresetStream none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.head().seq, kNoEvent.seq);
  EXPECT_THROW((void)none.index(), util::CheckError);
  struct Item {
    double at_ms;
  };
  const std::vector<Item> one = {{4.0}};
  PresetStream stream(one, &Item::at_ms, 0);
  stream.pop();
  EXPECT_THROW(stream.pop(), util::CheckError);
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

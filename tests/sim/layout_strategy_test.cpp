// Structural guarantees of the pluggable disk-mapping strategies
// (DESIGN.md §15): injective addressing over pools wider than a stripe,
// balance of the declustered layouts, the t-design's uniform pairwise
// overlap, Naive's byte-compatibility with the pre-strategy mapping, and
// collision-freedom of the distributed spare regions (the spare-LBA
// aliasing regression).
#include "sim/array_geometry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "codes/builders.h"
#include "util/check.h"

namespace fbf::sim {
namespace {

using codes::Cell;

Cell cell(int r, int c) {
  return Cell{static_cast<std::int16_t>(r), static_cast<std::int16_t>(c)};
}

std::uint64_t binom_u64(int n, int k) {
  if (k < 0 || k > n) return 0;
  std::uint64_t r = 1;
  for (int i = 0; i < k; ++i) {
    r = r * static_cast<std::uint64_t>(n - i) /
        static_cast<std::uint64_t>(i + 1);
  }
  return r;
}

/// The set of pool disks stripe `s` occupies.
std::set<int> stripe_disks(const ArrayGeometry& g, std::uint64_t s) {
  std::set<int> disks;
  for (int c = 0; c < g.layout().cols(); ++c) {
    disks.insert(g.disk_of(s, cell(0, c)));
  }
  return disks;
}

TEST(LayoutStrategy, NamesRoundTrip) {
  for (LayoutStrategy s :
       {LayoutStrategy::Naive, LayoutStrategy::Rotate,
        LayoutStrategy::TDesignDecluster, LayoutStrategy::D3}) {
    LayoutStrategy parsed{};
    EXPECT_TRUE(layout_strategy_from_string(to_string(s), parsed));
    EXPECT_EQ(parsed, s);
  }
  LayoutStrategy parsed = LayoutStrategy::Rotate;
  EXPECT_FALSE(layout_strategy_from_string("raid5", parsed));
  EXPECT_EQ(parsed, LayoutStrategy::Rotate);  // untouched on failure
}

TEST(LayoutStrategy, ConstructorGuards) {
  const codes::Layout l = codes::make_star(5);  // 8 columns
  // Pool narrower than the stripe cannot place all columns.
  EXPECT_THROW(ArrayGeometry(l, 10, LayoutStrategy::Rotate, l.cols() - 1),
               util::CheckError);
  // Naive is the identity map; a wider pool would leave disks unaddressed.
  EXPECT_THROW(ArrayGeometry(l, 10, LayoutStrategy::Naive, l.cols() + 1),
               util::CheckError);
  // The t-design Pascal table is u64; pools past 64 disks would overflow.
  EXPECT_THROW(ArrayGeometry(l, 10, LayoutStrategy::TDesignDecluster, 65),
               util::CheckError);
  // In-range pools construct for every strategy.
  for (LayoutStrategy s : {LayoutStrategy::Rotate,
                           LayoutStrategy::TDesignDecluster,
                           LayoutStrategy::D3}) {
    const ArrayGeometry g(l, 10, s, l.cols() + 4);
    EXPECT_EQ(g.num_disks(), l.cols() + 4);
    EXPECT_EQ(g.strategy(), s);
  }
}

TEST(LayoutStrategy, NaiveMatchesLegacyIdentityMapping) {
  const codes::Layout l = codes::make_star(7);
  const ArrayGeometry legacy(l, 500, /*rotate_columns=*/false,
                             SparePlacement::SameDisk);
  const ArrayGeometry naive(l, 500, LayoutStrategy::Naive, /*pool_disks=*/0,
                            SparePlacement::SameDisk);
  ASSERT_EQ(naive.num_disks(), legacy.num_disks());
  for (std::uint64_t s : {0ull, 3ull, 499ull}) {
    for (int ci = 0; ci < l.num_cells(); ++ci) {
      const Cell c = l.cell_at(ci);
      EXPECT_EQ(naive.disk_of(s, c), legacy.disk_of(s, c));
      EXPECT_EQ(naive.disk_of(s, c), c.col);  // pre-strategy identity
      EXPECT_EQ(naive.lba_of(s, c), legacy.lba_of(s, c));
      EXPECT_EQ(naive.spare_lba_of(s, c), legacy.spare_lba_of(s, c));
      EXPECT_EQ(naive.chunk_key(s, c), legacy.chunk_key(s, c));
    }
  }
}

TEST(LayoutStrategy, AddressingIsInjectiveAcrossWidePool) {
  const codes::Layout l = codes::make_rtp(7);  // 8 columns
  const std::uint64_t stripes = 1000;
  for (LayoutStrategy s : {LayoutStrategy::Rotate,
                           LayoutStrategy::TDesignDecluster,
                           LayoutStrategy::D3}) {
    for (int pool : {l.cols(), l.cols() + 1, l.cols() + 5}) {
      const ArrayGeometry g(l, stripes, s, pool, SparePlacement::Distributed);
      std::set<std::pair<int, std::uint64_t>> addresses;
      for (std::uint64_t stripe = 0; stripe < stripes; ++stripe) {
        std::set<int> disks;
        for (int ci = 0; ci < l.num_cells(); ++ci) {
          const Cell c = l.cell_at(ci);
          const int disk = g.disk_of(stripe, c);
          ASSERT_GE(disk, 0);
          ASSERT_LT(disk, pool);
          disks.insert(disk);
          ASSERT_TRUE(addresses.insert({disk, g.lba_of(stripe, c)}).second)
              << to_string(s) << " pool=" << pool << " stripe=" << stripe;
        }
        // A stripe's columns must land on pairwise-distinct disks, or a
        // single disk failure costs two chunks of the same stripe.
        ASSERT_EQ(static_cast<int>(disks.size()), l.cols())
            << to_string(s) << " pool=" << pool << " stripe=" << stripe;
      }
    }
  }
}

TEST(LayoutStrategy, TDesignFullSweepIsPerfectlyBalanced) {
  const codes::Layout l = codes::make_rtp(3);  // 4 columns — keeps C(n,k) small
  const int k = l.cols();
  const int n = k + 3;  // pool of 7
  const std::uint64_t blocks = binom_u64(n, k);  // C(7,4) = 35
  const ArrayGeometry g(l, blocks, LayoutStrategy::TDesignDecluster, n);

  std::map<int, std::uint64_t> per_disk;
  std::map<std::pair<int, int>, std::uint64_t> per_pair;
  std::set<std::set<int>> seen_blocks;
  for (std::uint64_t stripe = 0; stripe < blocks; ++stripe) {
    const std::set<int> disks = stripe_disks(g, stripe);
    ASSERT_EQ(static_cast<int>(disks.size()), k);
    // Every k-subset of the pool appears exactly once per design sweep.
    EXPECT_TRUE(seen_blocks.insert(disks).second);
    for (int d : disks) ++per_disk[d];
    for (int a : disks) {
      for (int b : disks) {
        if (a < b) ++per_pair[{a, b}];
      }
    }
  }
  EXPECT_EQ(seen_blocks.size(), blocks);
  // Replication: every disk carries exactly C(n-1, k-1) blocks.
  const std::uint64_t r = binom_u64(n - 1, k - 1);
  ASSERT_EQ(static_cast<int>(per_disk.size()), n);
  for (const auto& [disk, count] : per_disk) {
    EXPECT_EQ(count, r) << "disk " << disk;
  }
  // Pairwise overlap: every disk pair co-occurs in exactly C(n-2, k-2)
  // blocks — the uniform-rebuild-overlap property declustering is for.
  const std::uint64_t lambda = binom_u64(n - 2, k - 2);
  ASSERT_EQ(per_pair.size(),
            static_cast<std::size_t>(binom_u64(n, 2)));
  for (const auto& [pair, count] : per_pair) {
    EXPECT_EQ(count, lambda)
        << "pair (" << pair.first << ", " << pair.second << ")";
  }
}

TEST(LayoutStrategy, D3FullRoundIsPerfectlyBalanced) {
  const codes::Layout l = codes::make_star(5);  // 8 columns
  const int n = l.cols() + 4;                   // pool of 12
  // One full cycle: n offsets per round times one round per unit.
  std::vector<std::uint64_t> units;
  for (std::uint64_t m = 1; m < static_cast<std::uint64_t>(n); ++m) {
    if (std::gcd(m, static_cast<std::uint64_t>(n)) == 1) units.push_back(m);
  }
  const std::uint64_t cycle = static_cast<std::uint64_t>(n) * units.size();
  const ArrayGeometry g(l, cycle, LayoutStrategy::D3, n);

  std::map<int, std::uint64_t> per_disk;
  for (std::uint64_t stripe = 0; stripe < cycle; ++stripe) {
    for (int d : stripe_disks(g, stripe)) ++per_disk[d];
  }
  // Each n-stripe round places every column on every disk exactly once,
  // so the full cycle is perfectly balanced: cols * cycle / n per disk.
  const std::uint64_t expect =
      static_cast<std::uint64_t>(l.cols()) * cycle /
      static_cast<std::uint64_t>(n);
  ASSERT_EQ(static_cast<int>(per_disk.size()), n);
  for (const auto& [disk, count] : per_disk) {
    EXPECT_EQ(count, expect) << "disk " << disk;
  }
}

TEST(LayoutStrategy, PrefixBalanceWithinOneChunkPerRound) {
  // Truncated prefixes (arbitrary stripe counts) stay balanced to within
  // one stripe's worth of chunks per disk for the declustered strategies.
  const codes::Layout l = codes::make_rtp(5);  // 6 columns
  const int n = l.cols() + 4;                  // pool of 10
  for (LayoutStrategy s :
       {LayoutStrategy::TDesignDecluster, LayoutStrategy::D3}) {
    const std::uint64_t stripes = 5000;
    const ArrayGeometry g(l, stripes, s, n);
    std::vector<std::uint64_t> per_disk(static_cast<std::size_t>(n), 0);
    for (std::uint64_t stripe = 0; stripe < stripes; ++stripe) {
      for (int d : stripe_disks(g, stripe)) {
        ++per_disk[static_cast<std::size_t>(d)];
      }
    }
    const auto [lo, hi] = std::minmax_element(per_disk.begin(),
                                              per_disk.end());
    // Long-run drift bound: each design sweep / D3 cycle is perfectly
    // balanced, so imbalance comes only from the final partial period.
    const double mean =
        static_cast<double>(stripes) * l.cols() / static_cast<double>(n);
    EXPECT_LT(static_cast<double>(*hi - *lo), 0.05 * mean) << to_string(s);
  }
}

TEST(LayoutStrategy, DistributedSpareAddressesAreCollisionFree) {
  // The spare-LBA aliasing regression: under Distributed placement two
  // chunks from different home disks can share a spare disk; their spare
  // (disk, LBA) pairs must still be distinct — and distinct from every
  // data address.
  const codes::Layout l = codes::make_rtp(5);  // 6 columns
  const std::uint64_t stripes = 600;
  for (LayoutStrategy s : {LayoutStrategy::Rotate,
                           LayoutStrategy::TDesignDecluster,
                           LayoutStrategy::D3}) {
    const ArrayGeometry g(l, stripes, s, l.cols() + 3,
                          SparePlacement::Distributed);
    std::set<std::pair<int, std::uint64_t>> addresses;
    for (std::uint64_t stripe = 0; stripe < stripes; ++stripe) {
      for (int ci = 0; ci < l.num_cells(); ++ci) {
        const Cell c = l.cell_at(ci);
        ASSERT_TRUE(
            addresses.insert({g.disk_of(stripe, c), g.lba_of(stripe, c)})
                .second);
        const int spare_disk = g.spare_disk_of(stripe, c);
        const std::uint64_t spare_lba = g.spare_lba_of(stripe, c);
        ASSERT_GE(spare_lba, g.disk_capacity_chunks());
        ASSERT_TRUE(addresses.insert({spare_disk, spare_lba}).second)
            << to_string(s) << " stripe=" << stripe << " cell "
            << codes::to_string(c) << " aliases another spare copy";
      }
    }
  }
}

TEST(LayoutStrategy, SpareDiskAvoidsHomeAndCoversPool) {
  const codes::Layout l = codes::make_rtp(5);
  const int pool = l.cols() + 3;
  const ArrayGeometry g(l, 2000, LayoutStrategy::Rotate, pool,
                        SparePlacement::Distributed);
  std::set<int> spare_targets;
  for (std::uint64_t stripe = 0; stripe < 2000; ++stripe) {
    for (int ci = 0; ci < l.num_cells(); ++ci) {
      const Cell c = l.cell_at(ci);
      const int spare = g.spare_disk_of(stripe, c);
      ASSERT_GE(spare, 0);
      ASSERT_LT(spare, pool);
      // Spare never lands on the home disk (that disk just failed).
      ASSERT_NE(spare, g.disk_of(stripe, c));
      spare_targets.insert(spare);
    }
  }
  // Declustered sparing spreads rewrite load over the whole pool.
  EXPECT_EQ(static_cast<int>(spare_targets.size()), pool);
}

/// Colex rank of a sorted k-subset: the sum of C(members[i], i + 1).
std::uint64_t colex_rank(const std::vector<int>& sorted) {
  std::uint64_t rank = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    rank += binom_u64(sorted[i], static_cast<int>(i) + 1);
  }
  return rank;
}

TEST(LayoutStrategy, StripeDisksMatchesDiskOfPerColumn) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const int k = l.cols();
  const std::uint64_t stripes = std::uint64_t{1} << 41;
  std::vector<std::pair<LayoutStrategy, int>> shapes{
      {LayoutStrategy::Naive, k},       {LayoutStrategy::Rotate, k},
      {LayoutStrategy::Rotate, k + 5},  {LayoutStrategy::D3, k + 4},
      {LayoutStrategy::D3, k + 13}};
  for (int pool : {k, k + 1, 12, 24, 33, 64}) {
    shapes.emplace_back(LayoutStrategy::TDesignDecluster, pool);
  }
  std::vector<int> map(static_cast<std::size_t>(k));
  for (const auto& [strategy, pool] : shapes) {
    const ArrayGeometry g(l, stripes, strategy, pool);
    const std::uint64_t blocks = binom_u64(pool, k);
    std::vector<std::uint64_t> probes{0, 1, 7, 1000};
    if (strategy == LayoutStrategy::TDesignDecluster) {
      // Both sides of the first design sweeps' boundaries.
      for (std::uint64_t sweep : {1u, 2u, 3u}) {
        probes.push_back(sweep * blocks - 1);
        probes.push_back(sweep * blocks);
      }
    }
    for (std::uint64_t near : {std::uint64_t{1} << 40,
                               (std::uint64_t{1} << 40) + 12345}) {
      probes.push_back(near - 1);
      probes.push_back(near);
    }
    for (const std::uint64_t s : probes) {
      g.stripe_disks(s, map);
      const std::string context = std::string(to_string(strategy)) +
                                  " pool=" + std::to_string(pool) +
                                  " stripe=" + std::to_string(s);
      for (int c = 0; c < k; ++c) {
        for (int r : {0, l.rows() - 1}) {
          ASSERT_EQ(map[static_cast<std::size_t>(c)], g.disk_of(s, cell(r, c)))
              << context << " col " << c;
        }
      }
      if (strategy == LayoutStrategy::TDesignDecluster) {
        // Independent of the unrank: the block is the k-subset whose colex
        // rank is the stripe's position in its sweep, rotated by the
        // stripe.
        std::vector<int> sorted = map;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(colex_rank(sorted), s % blocks) << context;
        for (int c = 0; c < k; ++c) {
          ASSERT_EQ(map[static_cast<std::size_t>(c)],
                    sorted[(static_cast<std::uint64_t>(c) + s) %
                           static_cast<std::uint64_t>(k)])
              << context << " col " << c;
        }
      }
    }
  }
  const ArrayGeometry g(l, 10, LayoutStrategy::Rotate, k);
  std::vector<int> short_map(static_cast<std::size_t>(k - 1));
  EXPECT_THROW(g.stripe_disks(0, short_map), util::CheckError);
}

TEST(LayoutStrategy, SpareDiskFromHomeMatchesSpareDiskOf) {
  const codes::Layout l = codes::make_layout(codes::CodeId::Tip, 7);
  const int k = l.cols();
  for (SparePlacement spare :
       {SparePlacement::SameDisk, SparePlacement::Distributed}) {
    for (const auto& [strategy, pool] :
         std::vector<std::pair<LayoutStrategy, int>>{
             {LayoutStrategy::Naive, k},
             {LayoutStrategy::Rotate, k + 3},
             {LayoutStrategy::TDesignDecluster, 24},
             {LayoutStrategy::D3, 12}}) {
      const ArrayGeometry g(l, 5000, strategy, pool, spare);
      for (std::uint64_t s : {0u, 1u, 17u, 4999u}) {
        for (int ci = 0; ci < l.num_cells(); ++ci) {
          const Cell c = l.cell_at(ci);
          const int home = g.disk_of(s, c);
          const int from_home = g.spare_disk_from(home, s, c.row);
          ASSERT_EQ(from_home, g.spare_disk_of(s, c))
              << to_string(strategy) << " stripe=" << s;
          if (spare == SparePlacement::SameDisk) {
            ASSERT_EQ(from_home, home);
          } else {
            ASSERT_NE(from_home, home);
          }
          ASSERT_EQ(g.spare_lba_from(home, g.lba_of(s, c)),
                    g.spare_lba_of(s, c));
        }
      }
    }
  }
}

}  // namespace
}  // namespace fbf::sim

#include "sim/array_geometry.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace fbf::sim {

const char* to_string(LayoutStrategy s) {
  switch (s) {
    case LayoutStrategy::Naive:
      return "naive";
    case LayoutStrategy::Rotate:
      return "rotate";
    case LayoutStrategy::TDesignDecluster:
      return "tdesign";
    case LayoutStrategy::D3:
      return "d3";
  }
  return "naive";
}

bool layout_strategy_from_string(const std::string& name,
                                 LayoutStrategy& out) {
  if (name == "naive") {
    out = LayoutStrategy::Naive;
  } else if (name == "rotate") {
    out = LayoutStrategy::Rotate;
  } else if (name == "tdesign") {
    out = LayoutStrategy::TDesignDecluster;
  } else if (name == "d3") {
    out = LayoutStrategy::D3;
  } else {
    return false;
  }
  return true;
}

ArrayGeometry::ArrayGeometry(const codes::Layout& layout,
                             std::uint64_t num_stripes,
                             LayoutStrategy strategy, int pool_disks,
                             SparePlacement spare)
    : layout_(&layout),
      num_stripes_(num_stripes),
      strategy_(strategy),
      pool_disks_(pool_disks == 0 ? layout.cols() : pool_disks),
      spare_(spare) {
  FBF_CHECK(num_stripes_ > 0, "array needs at least one stripe");
  FBF_CHECK(pool_disks_ >= layout_->cols(),
            "disk pool narrower than a stripe");
  if (strategy_ == LayoutStrategy::Naive) {
    FBF_CHECK(pool_disks_ == layout_->cols(),
              "naive layout cannot use a pool wider than the stripe");
  }
  if (strategy_ == LayoutStrategy::TDesignDecluster) {
    // The colex rank of a k-subset of an n-set must fit in a u64; n <= 64
    // guarantees it (C(64, 32) ~ 1.83e18 < 2^64).
    FBF_CHECK(pool_disks_ <= 64, "t-design pools are limited to 64 disks");
    const int n = pool_disks_;
    const int k = layout_->cols();
    binom_.assign(static_cast<std::size_t>(n + 1) *
                      static_cast<std::size_t>(k + 1),
                  0);
    for (int i = 0; i <= n; ++i) {
      for (int j = 0; j <= std::min(i, k); ++j) {
        if (j == 0 || j == i) {
          binom_[static_cast<std::size_t>(i) *
                     static_cast<std::size_t>(k + 1) +
                 static_cast<std::size_t>(j)] = 1;
        } else {
          binom_[static_cast<std::size_t>(i) *
                     static_cast<std::size_t>(k + 1) +
                 static_cast<std::size_t>(j)] =
              binom(i - 1, j - 1) + binom(i - 1, j);
        }
      }
    }
    tdesign_blocks_ = binom(n, k);
  }
  if (strategy_ == LayoutStrategy::D3) {
    const auto n = static_cast<std::uint64_t>(pool_disks_);
    for (std::uint64_t m = 1; m < n; ++m) {
      if (std::gcd(m, n) == 1) {
        d3_units_.push_back(m);
      }
    }
    if (d3_units_.empty()) {
      d3_units_.push_back(1);  // pool of one disk: identity only
    }
  }
}

void ArrayGeometry::tdesign_block(std::uint64_t stripe,
                                  std::span<int> members) const {
  // Colex-unrank the block (k-subset of the pool) for this stripe. Walk
  // candidate members from the top: the largest member m of the rank-r
  // block in colex order satisfies binom(m, j) <= r for the current
  // position j, consuming binom(m, j) from the rank.
  std::uint64_t rank = stripe % tdesign_blocks_;
  int j = layout_->cols();
  for (int v = pool_disks_ - 1; j > 0; --v) {
    FBF_CHECK(v >= 0, "t-design unrank ran out of candidates");
    if (binom(v, j) <= rank) {
      rank -= binom(v, j);
      members[static_cast<std::size_t>(--j)] = v;
    }
  }
}

int ArrayGeometry::tdesign_disk_of(std::uint64_t stripe, int col) const {
  int block[64];  // cols <= pool <= 64
  tdesign_block(stripe,
                std::span<int>(block, static_cast<std::size_t>(layout_->cols())));
  // Rotate the stripe's columns through the block so each member disk
  // serves each column role equally often across the design sweep.
  const auto k = static_cast<std::uint64_t>(layout_->cols());
  return block[(static_cast<std::uint64_t>(col) + stripe) % k];
}

void ArrayGeometry::stripe_disks(std::uint64_t stripe,
                                 std::span<int> out) const {
  const int cols = layout_->cols();
  FBF_CHECK(out.size() == static_cast<std::size_t>(cols),
            "column map must hold one disk per column");
  if (strategy_ != LayoutStrategy::TDesignDecluster) {
    for (int c = 0; c < cols; ++c) {
      out[static_cast<std::size_t>(c)] =
          disk_of(stripe, codes::Cell{0, static_cast<std::int16_t>(c)});
    }
    return;
  }
  int block[64];  // cols <= pool <= 64
  tdesign_block(stripe, std::span<int>(block, out.size()));
  const auto k = static_cast<std::uint64_t>(cols);
  const std::uint64_t shift = stripe % k;
  for (std::uint64_t c = 0; c < k; ++c) {
    out[c] = block[(c + shift) % k];
  }
}

}  // namespace fbf::sim

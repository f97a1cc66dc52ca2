// Address mapping from stripe-local cells to disks and chunk LBAs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "codes/layout.h"

namespace fbf::sim {

/// Where recovered chunks are rewritten.
enum class SparePlacement : std::uint8_t {
  /// Sector remapping: the spare region of the disk that held the chunk.
  /// All recovery writes then land on the failed disk, which becomes the
  /// reconstruction bottleneck regardless of cache policy.
  SameDisk,
  /// Distributed (declustered) sparing: spare space is spread over the
  /// whole array and each recovered chunk goes to a rotating peer disk —
  /// standard practice in modern arrays (GPFS declustered RAID, DDP).
  Distributed,
};

/// How a stripe's columns are placed onto the physical disk pool.
enum class LayoutStrategy : std::uint8_t {
  /// Identity: column c of every stripe lives on disk c. Requires
  /// pool == layout.cols(); reproduces the pre-strategy mapping exactly.
  Naive,
  /// RAID-5 style rotation: disk = (col + stripe) % pool. With
  /// pool == layout.cols() this is the historical `rotate_columns` path.
  Rotate,
  /// Parity declustering via a t-design: stripe s picks the k-subset of
  /// the pool with colexicographic rank s % C(n, k) (the full design),
  /// then rotates its columns within that block. Over one design sweep
  /// every disk carries exactly C(n-1, k-1) blocks and every disk pair
  /// co-occurs in exactly C(n-2, k-2) blocks — uniform rebuild overlap.
  TDesignDecluster,
  /// D3 deterministic distribution: stripes advance an offset through the
  /// pool and each round applies an orthogonal permutation (multiplier
  /// coprime to n), disk = (offset + col * unit) % pool. Perfectly
  /// balanced on every full n-stripe round.
  D3,
};

/// Short lowercase name ("naive", "rotate", "tdesign", "d3").
const char* to_string(LayoutStrategy s);

/// Parses a strategy name as printed by to_string. Returns false (and
/// leaves `out` untouched) on an unknown name.
bool layout_strategy_from_string(const std::string& name,
                                 LayoutStrategy& out);

/// Maps (stripe, cell) to (disk, LBA) and to the global chunk key used by
/// the buffer cache. The disk pool may be wider than a stripe
/// (pool_disks >= layout.cols()); the LayoutStrategy decides which pool
/// disks a stripe's columns occupy.
class ArrayGeometry {
 public:
  /// `pool_disks == 0` means "exactly layout.cols()" (no declustering).
  ArrayGeometry(const codes::Layout& layout, std::uint64_t num_stripes,
                LayoutStrategy strategy, int pool_disks,
                SparePlacement spare = SparePlacement::SameDisk);

  /// Legacy two-state constructor kept for existing call sites:
  /// rotate_columns=false is Naive, true is Rotate, pool == layout.cols().
  ArrayGeometry(const codes::Layout& layout, std::uint64_t num_stripes,
                bool rotate_columns = false,
                SparePlacement spare = SparePlacement::SameDisk)
      : ArrayGeometry(layout, num_stripes,
                      rotate_columns ? LayoutStrategy::Rotate
                                     : LayoutStrategy::Naive,
                      /*pool_disks=*/0, spare) {}

  const codes::Layout& layout() const { return *layout_; }
  std::uint64_t num_stripes() const { return num_stripes_; }
  int num_disks() const { return pool_disks_; }
  LayoutStrategy strategy() const { return strategy_; }
  SparePlacement spare_placement() const { return spare_; }

  // The mapping accessors are defined inline: the simulators call them
  // once per planned read, re-read, and spare write, where an opaque
  // cross-TU call costs as much as the address arithmetic itself. The
  // t-design unranking is the exception (an O(pool) loop) and stays out
  // of line.

  int disk_of(std::uint64_t stripe, codes::Cell c) const {
    FBF_CHECK(layout_->in_bounds(c), "cell out of bounds");
    switch (strategy_) {
      case LayoutStrategy::Naive:
        return c.col;
      case LayoutStrategy::Rotate:
        return static_cast<int>(
            (static_cast<std::uint64_t>(c.col) + stripe) %
            static_cast<std::uint64_t>(pool_disks_));
      case LayoutStrategy::D3: {
        const auto n = static_cast<std::uint64_t>(pool_disks_);
        const std::uint64_t round = stripe / n;
        const std::uint64_t offset = stripe % n;
        const std::uint64_t unit =
            d3_units_[static_cast<std::size_t>(round % d3_units_.size())];
        return static_cast<int>(
            (offset + static_cast<std::uint64_t>(c.col) * unit) % n);
      }
      case LayoutStrategy::TDesignDecluster:
        return tdesign_disk_of(stripe, c.col);
    }
    return c.col;  // unreachable
  }

  /// Column map of one stripe: out[col] = disk_of(stripe, {row, col}) for
  /// every column (a column's cells share one disk). `out` must hold
  /// exactly layout().cols() entries. Under TDesignDecluster one colex
  /// unrank yields the whole block, where disk_of unranks per call, so
  /// callers that touch many cells of a stripe fill this map once.
  void stripe_disks(std::uint64_t stripe, std::span<int> out) const;

  /// Disk holding the spare copy of a recovered chunk (== disk_of under
  /// SameDisk placement). Deliberately fault-agnostic: live routing
  /// around failed disks is the FaultInjector's job, and the engines
  /// assert (under FBF_VALIDATE) that no spare write reaches a dead disk.
  int spare_disk_of(std::uint64_t stripe, codes::Cell c) const {
    return spare_disk_from(disk_of(stripe, c), stripe, c.row);
  }

  /// spare_disk_of for callers that already hold the cell's home disk
  /// (a column map from stripe_disks, or a cached chunk record).
  int spare_disk_from(int home_disk, std::uint64_t stripe, int row) const {
    if (spare_ == SparePlacement::SameDisk) {
      return home_disk;
    }
    // Declustered sparing: rotate the spare target over the other pool
    // disks so recovery writes spread across the array.
    const auto n = static_cast<std::uint64_t>(pool_disks_);
    const std::uint64_t offset =
        1 + (stripe + static_cast<std::uint64_t>(row)) % (n - 1);
    return static_cast<int>((static_cast<std::uint64_t>(home_disk) + offset) %
                            n);
  }

  /// Chunk LBA of a cell inside the data region of its disk.
  std::uint64_t lba_of(std::uint64_t stripe, codes::Cell c) const {
    FBF_CHECK(stripe < num_stripes_, "stripe out of range");
    return stripe * static_cast<std::uint64_t>(layout_->rows()) +
           static_cast<std::uint64_t>(c.row);
  }

  /// LBA in the spare region (beyond the data region) where a recovered
  /// chunk is rewritten. Under SameDisk this is sector remapping on the
  /// home disk. Under Distributed sparing the spare disk reserves one
  /// region per *home* disk: chunks rerouted from different homes can
  /// share a spare disk, and keying the region by home disk keeps their
  /// (disk, LBA) pairs collision-free — a single shared region would
  /// alias chunks that agree on (stripe, row) but not on home.
  std::uint64_t spare_lba_of(std::uint64_t stripe, codes::Cell c) const {
    return spare_lba_from(disk_of(stripe, c), lba_of(stripe, c));
  }

  /// spare_lba_of for callers that already hold the home disk and data
  /// LBA (DOR's 64-byte chunk records, SOR's per-stripe column map).
  std::uint64_t spare_lba_from(int home_disk, std::uint64_t lba) const {
    if (spare_ == SparePlacement::SameDisk) {
      return disk_capacity_chunks() + lba;
    }
    return disk_capacity_chunks() *
               (1 + static_cast<std::uint64_t>(home_disk)) +
           lba;
  }

  /// Global cache key of a chunk.
  std::uint64_t chunk_key(std::uint64_t stripe, codes::Cell c) const {
    return stripe * static_cast<std::uint64_t>(layout_->num_cells()) +
           static_cast<std::uint64_t>(layout_->cell_index(c));
  }

  /// Chunks a disk's data region holds (for detailed-model seek bounds).
  std::uint64_t disk_capacity_chunks() const {
    return num_stripes_ * static_cast<std::uint64_t>(layout_->rows());
  }

 private:
  int tdesign_disk_of(std::uint64_t stripe, int col) const;
  /// Block members of a t-design stripe in colex order, smallest first:
  /// members[j] for j in [0, cols).
  void tdesign_block(std::uint64_t stripe, std::span<int> members) const;
  std::uint64_t binom(int n, int k) const {
    return binom_[static_cast<std::size_t>(n) *
                      static_cast<std::size_t>(layout_->cols() + 1) +
                  static_cast<std::size_t>(k)];
  }

  const codes::Layout* layout_;
  std::uint64_t num_stripes_;
  LayoutStrategy strategy_;
  int pool_disks_;
  SparePlacement spare_;
  /// Pascal table binom_[n * (k_max+1) + k] = C(n, k), n <= pool,
  /// k <= layout.cols(). Only filled for TDesignDecluster.
  std::vector<std::uint64_t> binom_;
  std::uint64_t tdesign_blocks_ = 0;  ///< C(pool, cols)
  /// Multipliers coprime to the pool size, cycled per D3 round. Only
  /// filled for D3.
  std::vector<std::uint64_t> d3_units_;
};

}  // namespace fbf::sim

// Chunk-level encode / verify / erasure-decode for any Layout.
//
// Encoding walks Layout::encode_order() and folds each chain into its parity
// cell with the dispatched XOR kernels (codes/xor_kernels.h), one fold per
// chain in program order. Decoding is two-phase: peeling (repeatedly solve
// chains with a single erased member — the path real recovery schemes use),
// then a generic GF(2) Gaussian pass over the remaining unknowns.
// mds3_check is the symbolic oracle used by tests to prove triple-erasure
// tolerance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "codes/layout.h"
#include "codes/xor_kernels.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace fbf::codes {

/// Owns the chunk buffers of one stripe.
///
/// Alignment contract: every chunk starts on a kAlignment (64-byte)
/// boundary — the buffer is over-aligned and the per-chunk stride is padded
/// up to kAlignment — so the vector XOR kernels start aligned and only the
/// final sub-vector tail of odd chunk sizes takes the byte loop.
class StripeData {
 public:
  static constexpr std::size_t kAlignment = 64;

  StripeData(const Layout& layout, std::size_t chunk_size);

  std::size_t chunk_size() const { return chunk_size_; }
  std::span<std::byte> chunk(Cell c);
  std::span<const std::byte> chunk(Cell c) const;

  /// Fills every data cell from one SplitMix64 stream started at `seed`,
  /// a word at a time in cell-index order (a chunk's sub-word tail takes
  /// the low-order bytes of one more word, in host byte order). Parity
  /// cells are untouched. The bytes are a pure function of (layout, chunk
  /// size, seed), so a stripe's truth image is rebuilt from its seed alone.
  void fill_random(std::uint64_t seed);
  /// Same, seeded with one draw from `rng`.
  void fill_random(util::Rng& rng) { fill_random(rng.next_u64()); }

  /// Zeroes one chunk (models losing it).
  void erase(Cell c);

  const Layout& layout() const { return *layout_; }

 private:
  const Layout* layout_;
  std::size_t chunk_size_;
  std::size_t stride_;  ///< chunk_size_ rounded up to kAlignment
  std::vector<std::byte, util::AlignedAllocator<std::byte, kAlignment>>
      bytes_;
};

/// Computes every parity cell. Requires data cells to be populated.
void encode(StripeData& stripe);

/// True iff every chain XORs to zero.
bool verify(const StripeData& stripe);

struct DecodeResult {
  bool ok = false;
  int peeled = 0;             ///< erasures recovered by peeling
  int gaussian_solved = 0;    ///< erasures needing the Gaussian fallback
};

/// Symbolic peeling plan for an erasure pattern: the (target, chain) steps
/// a peeling pass executes in order, plus the erased cells peeling cannot
/// reach (they need the Gaussian fallback). Pure function of the layout and
/// the pattern — the recovery planner uses it to re-plan chains around
/// mid-recovery losses without touching chunk data.
struct PeelPlan {
  struct Step {
    Cell target;
    int chain_id = -1;
  };
  std::vector<Step> steps;
  /// Unreachable erased cells, in layout cell-index order.
  std::vector<Cell> gauss_cells;
};

PeelPlan plan_peeling(const Layout& layout, const std::vector<Cell>& erased);

enum class DecodeMethod : std::uint8_t {
  PeelThenGauss,  ///< peel what a chain pass can, Gauss for the rest
  GaussOnly,      ///< generic GF(2) solve of the whole pattern (oracle path)
};

/// Recovers the given erased cells in-place. The caller must have zeroed or
/// otherwise invalidated them; their prior contents are ignored.
DecodeResult decode_erasures(StripeData& stripe,
                             const std::vector<Cell>& erased,
                             DecodeMethod method = DecodeMethod::PeelThenGauss);

/// Symbolic decodability of an erasure pattern: the chain-incidence matrix
/// restricted to the erased cells has full column rank.
bool erasure_decodable(const Layout& layout, const std::vector<Cell>& erased);

/// Exhaustive check that every erasure of up to three full columns is
/// decodable.
bool mds3_check(const Layout& layout);

}  // namespace fbf::codes

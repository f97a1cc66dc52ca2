#include "codes/codec.h"

#include <algorithm>
#include <cstring>

#include "util/bitmat.h"
#include "util/check.h"

namespace fbf::codes {

namespace {

using SrcList = std::vector<std::span<const std::byte>>;

/// Collects the chunks of `ch`'s members except `skip` into `srcs`.
void collect_chain(const StripeData& stripe, const Chain& ch, Cell skip,
                   SrcList& srcs) {
  srcs.clear();
  for (const Cell& c : ch.cells) {
    if (c != skip) {
      srcs.push_back(stripe.chunk(c));
    }
  }
}

}  // namespace

StripeData::StripeData(const Layout& layout, std::size_t chunk_size)
    : layout_(&layout),
      chunk_size_(chunk_size),
      stride_((chunk_size + kAlignment - 1) & ~(kAlignment - 1)),
      bytes_(static_cast<std::size_t>(layout.num_cells()) * stride_,
             std::byte{0}) {
  FBF_CHECK(chunk_size_ > 0, "chunk size must be positive");
}

std::span<std::byte> StripeData::chunk(Cell c) {
  const auto idx = static_cast<std::size_t>(layout_->cell_index(c));
  return {bytes_.data() + idx * stride_, chunk_size_};
}

std::span<const std::byte> StripeData::chunk(Cell c) const {
  const auto idx = static_cast<std::size_t>(layout_->cell_index(c));
  return {bytes_.data() + idx * stride_, chunk_size_};
}

void StripeData::fill_random(std::uint64_t seed) {
  std::uint64_t state = seed;
  const auto next = [&state] {  // one SplitMix64 step
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < layout_->num_cells(); ++i) {
    const Cell c = layout_->cell_at(i);
    if (layout_->kind(c) != CellKind::Data) {
      continue;
    }
    std::byte* out = chunk(c).data();
    std::size_t b = 0;
    for (; b + 8 <= chunk_size_; b += 8) {
      const std::uint64_t word = next();
      std::memcpy(out + b, &word, 8);
    }
    if (b < chunk_size_) {
      const std::uint64_t word = next();
      std::memcpy(out + b, &word, chunk_size_ - b);
    }
  }
}

void StripeData::erase(Cell c) {
  auto span = chunk(c);
  std::fill(span.begin(), span.end(), std::byte{0});
}

void encode(StripeData& stripe) {
  const Layout& layout = stripe.layout();
  SrcList srcs;
  // encode_order is a dependency order (adjuster parities feed later
  // chains), so folding each chain as it comes reads only final sources.
  for (int id : layout.encode_order()) {
    const Chain& ch = layout.chain(id);
    collect_chain(stripe, ch, ch.parity_cell, srcs);
    xor_fold(stripe.chunk(ch.parity_cell), srcs);
  }
}

bool verify(const StripeData& stripe) {
  const Layout& layout = stripe.layout();
  std::vector<std::byte> acc(stripe.chunk_size());
  SrcList srcs;
  for (const Chain& ch : layout.chains()) {
    srcs.clear();
    for (const Cell& c : ch.cells) {
      srcs.push_back(stripe.chunk(c));
    }
    xor_fold(acc, srcs);
    if (std::any_of(acc.begin(), acc.end(),
                    [](std::byte b) { return b != std::byte{0}; })) {
      return false;
    }
  }
  return true;
}

namespace {

/// One GF(2) equation over the remaining unknowns: xor(unknowns) == rhs.
struct Equation {
  std::vector<int> unknowns;       // indices into the erased-cell list
  std::vector<std::byte> rhs;
};

}  // namespace

PeelPlan plan_peeling(const Layout& layout, const std::vector<Cell>& erased) {
  PeelPlan plan;
  std::vector<bool> is_erased(static_cast<std::size_t>(layout.num_cells()),
                              false);
  for (const Cell& c : erased) {
    is_erased[static_cast<std::size_t>(layout.cell_index(c))] = true;
  }
  int remaining = static_cast<int>(erased.size());

  // Track per-chain erased-member counts and keep a worklist of chains
  // with exactly one erased member.
  const auto& chains = layout.chains();
  std::vector<int> erased_in_chain(chains.size(), 0);
  for (const Chain& ch : chains) {
    for (const Cell& c : ch.cells) {
      if (is_erased[static_cast<std::size_t>(layout.cell_index(c))]) {
        ++erased_in_chain[static_cast<std::size_t>(ch.id)];
      }
    }
  }
  std::vector<int> worklist;
  for (const Chain& ch : chains) {
    if (erased_in_chain[static_cast<std::size_t>(ch.id)] == 1) {
      worklist.push_back(ch.id);
    }
  }
  while (!worklist.empty() && remaining > 0) {
    const int id = worklist.back();
    worklist.pop_back();
    if (erased_in_chain[static_cast<std::size_t>(id)] != 1) {
      continue;  // stale entry
    }
    const Chain& ch = chains[static_cast<std::size_t>(id)];
    Cell target{};
    bool found = false;
    for (const Cell& c : ch.cells) {
      if (is_erased[static_cast<std::size_t>(layout.cell_index(c))]) {
        target = c;
        found = true;
        break;
      }
    }
    FBF_CHECK(found, "chain bookkeeping inconsistent during peeling");
    plan.steps.push_back(PeelPlan::Step{target, id});
    is_erased[static_cast<std::size_t>(layout.cell_index(target))] = false;
    --remaining;
    for (int other : layout.chains_containing(target)) {
      if (--erased_in_chain[static_cast<std::size_t>(other)] == 1) {
        worklist.push_back(other);
      }
    }
  }
  for (int i = 0; i < layout.num_cells(); ++i) {
    if (is_erased[static_cast<std::size_t>(i)]) {
      plan.gauss_cells.push_back(layout.cell_at(i));
    }
  }
  return plan;
}

DecodeResult decode_erasures(StripeData& stripe,
                             const std::vector<Cell>& erased,
                             DecodeMethod method) {
  const Layout& layout = stripe.layout();
  DecodeResult result;
  SrcList srcs;

  // Phase 1: peeling (skipped by GaussOnly, the oracle path tests compare
  // against). The symbolic plan decides targets/chains; this executes it.
  std::vector<Cell> unknown_cells;
  if (method == DecodeMethod::PeelThenGauss) {
    const PeelPlan plan = plan_peeling(layout, erased);
    // Plan order is a dependency order: a step's chain only consumes
    // targets of earlier steps.
    for (const PeelPlan::Step& step : plan.steps) {
      const Chain& ch = layout.chain(step.chain_id);
      collect_chain(stripe, ch, step.target, srcs);
      xor_fold(stripe.chunk(step.target), srcs);
      ++result.peeled;
    }
    unknown_cells = plan.gauss_cells;
  } else {
    unknown_cells = erased;
    std::sort(unknown_cells.begin(), unknown_cells.end(),
              [&](const Cell& a, const Cell& b) {
                return layout.cell_index(a) < layout.cell_index(b);
              });
  }

  if (unknown_cells.empty()) {
    result.ok = true;
    return result;
  }

  // Phase 2: Gaussian elimination over the leftover unknowns.
  std::vector<int> unknown_of_cell(
      static_cast<std::size_t>(layout.num_cells()), -1);
  for (std::size_t i = 0; i < unknown_cells.size(); ++i) {
    unknown_of_cell[static_cast<std::size_t>(
        layout.cell_index(unknown_cells[i]))] = static_cast<int>(i);
  }

  // Every equation's rhs folds the chain's known stripe chunks.
  std::vector<Equation> eqs;
  for (const Chain& ch : layout.chains()) {
    const bool involved = std::any_of(
        ch.cells.begin(), ch.cells.end(), [&](const Cell& c) {
          return unknown_of_cell[static_cast<std::size_t>(
                     layout.cell_index(c))] >= 0;
        });
    if (!involved) {
      continue;
    }
    Equation eq;
    eq.rhs.resize(stripe.chunk_size());
    srcs.clear();
    for (const Cell& c : ch.cells) {
      const int u =
          unknown_of_cell[static_cast<std::size_t>(layout.cell_index(c))];
      if (u >= 0) {
        eq.unknowns.push_back(u);
      } else {
        srcs.push_back(stripe.chunk(c));
      }
    }
    std::sort(eq.unknowns.begin(), eq.unknowns.end());
    xor_fold(eq.rhs, srcs);
    eqs.push_back(std::move(eq));
  }

  // Forward elimination with partial "pivot by unknown id".
  const int n_unknowns = static_cast<int>(unknown_cells.size());
  std::vector<int> pivot_eq(static_cast<std::size_t>(n_unknowns), -1);
  auto fold_equation = [](Equation& dst, const Equation& src) {
    std::vector<int> merged;
    merged.reserve(dst.unknowns.size() + src.unknowns.size());
    std::set_symmetric_difference(dst.unknowns.begin(), dst.unknowns.end(),
                                  src.unknowns.begin(), src.unknowns.end(),
                                  std::back_inserter(merged));
    dst.unknowns = std::move(merged);
    xor_into(dst.rhs, src.rhs);
  };
  for (std::size_t e = 0; e < eqs.size(); ++e) {
    // Reduce against existing pivots until the equation leads with a free
    // unknown or vanishes.
    for (;;) {
      if (eqs[e].unknowns.empty()) {
        break;
      }
      const int lead = eqs[e].unknowns.front();
      const int pe = pivot_eq[static_cast<std::size_t>(lead)];
      if (pe < 0) {
        pivot_eq[static_cast<std::size_t>(lead)] = static_cast<int>(e);
        break;
      }
      fold_equation(eqs[e], eqs[static_cast<std::size_t>(pe)]);
    }
  }
  for (int u = 0; u < n_unknowns; ++u) {
    if (pivot_eq[static_cast<std::size_t>(u)] < 0) {
      result.ok = false;  // rank deficient: pattern not decodable
      return result;
    }
  }
  // Back substitution, highest unknown first.
  for (int u = n_unknowns - 1; u >= 0; --u) {
    Equation& eq = eqs[static_cast<std::size_t>(
        pivot_eq[static_cast<std::size_t>(u)])];
    // Every unknown after the lead has already been solved; fold it in.
    std::vector<std::byte> value = eq.rhs;
    srcs.clear();
    for (std::size_t i = 1; i < eq.unknowns.size(); ++i) {
      const Cell solved = unknown_cells[static_cast<std::size_t>(
          eq.unknowns[i])];
      srcs.push_back(stripe.chunk(solved));
    }
    xor_fold_into(value, srcs);
    auto out = stripe.chunk(unknown_cells[static_cast<std::size_t>(u)]);
    std::copy(value.begin(), value.end(), out.begin());
    ++result.gaussian_solved;
  }
  result.ok = true;
  return result;
}

bool erasure_decodable(const Layout& layout,
                       const std::vector<Cell>& erased) {
  std::vector<int> unknown_of_cell(
      static_cast<std::size_t>(layout.num_cells()), -1);
  for (std::size_t i = 0; i < erased.size(); ++i) {
    unknown_of_cell[static_cast<std::size_t>(layout.cell_index(erased[i]))] =
        static_cast<int>(i);
  }
  util::BitMatrix m(layout.chains().size(), erased.size());
  for (const Chain& ch : layout.chains()) {
    for (const Cell& c : ch.cells) {
      const int u =
          unknown_of_cell[static_cast<std::size_t>(layout.cell_index(c))];
      if (u >= 0) {
        m.flip(static_cast<std::size_t>(ch.id), static_cast<std::size_t>(u));
      }
    }
  }
  return m.full_column_rank();
}

bool mds3_check(const Layout& layout) {
  const int n = layout.cols();
  for (int a = 0; a < n; ++a) {
    for (int b = a; b < n; ++b) {
      for (int c = b; c < n; ++c) {
        std::vector<Cell> erased;
        std::vector<int> cols{a};
        if (b != a) {
          cols.push_back(b);
        }
        if (c != b && c != a) {
          cols.push_back(c);
        }
        for (int col : cols) {
          const auto cells = layout.column_cells(col);
          erased.insert(erased.end(), cells.begin(), cells.end());
        }
        if (!erasure_decodable(layout, erased)) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace fbf::codes

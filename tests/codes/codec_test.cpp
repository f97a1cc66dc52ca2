#include "codes/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "codes/builders.h"
#include "util/check.h"

namespace fbf::codes {
namespace {

Cell cell(int r, int c) {
  return Cell{static_cast<std::int16_t>(r), static_cast<std::int16_t>(c)};
}

StripeData encoded_stripe(const Layout& l, std::size_t chunk = 32,
                          std::uint64_t seed = 1) {
  StripeData s(l, chunk);
  util::Rng rng(seed);
  s.fill_random(rng);
  encode(s);
  return s;
}

/// Reference SplitMix64 step, written out independently of the codec's.
std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool same_bytes(const StripeData& a, const StripeData& b) {
  const Layout& l = a.layout();
  for (int i = 0; i < l.num_cells(); ++i) {
    const auto x = a.chunk(l.cell_at(i));
    const auto y = b.chunk(l.cell_at(i));
    if (!std::equal(x.begin(), x.end(), y.begin(), y.end())) {
      return false;
    }
  }
  return true;
}

bool all_zero(std::span<const std::byte> bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

TEST(XorInto, BasicAndSizeMismatch) {
  std::vector<std::byte> a{std::byte{0x0f}, std::byte{0xf0}, std::byte{0xaa}};
  const std::vector<std::byte> b{std::byte{0xff}, std::byte{0xf0},
                                 std::byte{0x55}};
  xor_into(a, b);
  EXPECT_EQ(a[0], std::byte{0xf0});
  EXPECT_EQ(a[1], std::byte{0x00});
  EXPECT_EQ(a[2], std::byte{0xff});
  std::vector<std::byte> small(2);
  EXPECT_THROW(xor_into(small, b), util::CheckError);
}

TEST(XorInto, SelfInverse) {
  util::Rng rng(3);
  std::vector<std::byte> a(100);
  std::vector<std::byte> b(100);
  rng.fill_bytes(a);
  rng.fill_bytes(b);
  const auto orig = a;
  xor_into(a, b);
  xor_into(a, b);
  EXPECT_EQ(a, orig);
}

TEST(XorInto, HandlesNonWordSizes) {
  for (std::size_t n : {1u, 7u, 8u, 9u, 15u, 17u}) {
    std::vector<std::byte> a(n, std::byte{0x3c});
    const std::vector<std::byte> b(n, std::byte{0xc3});
    xor_into(a, b);
    for (std::byte v : a) {
      EXPECT_EQ(v, std::byte{0xff});
    }
  }
}

TEST(StripeData, ZeroInitialized) {
  const Layout l = make_rtp(5);
  StripeData s(l, 16);
  for (int i = 0; i < l.num_cells(); ++i) {
    for (std::byte b : s.chunk(l.cell_at(i))) {
      EXPECT_EQ(b, std::byte{0});
    }
  }
}

TEST(StripeData, RejectsZeroChunkSize) {
  const Layout l = make_rtp(5);
  EXPECT_THROW(StripeData(l, 0), util::CheckError);
}

// The engines rebuild a stripe's truth image from its seed alone, so the
// generator must be a pure function of the seed.
TEST(StripeData, FillRandomIsAPureFunctionOfTheSeed) {
  const Layout l = make_star(7);
  StripeData a(l, 64);
  StripeData b(l, 64);
  StripeData c(l, 64);
  a.fill_random(0x5eedull ^ 45886);
  b.fill_random(0x5eedull ^ 45886);
  c.fill_random(0x5eedull ^ 45887);
  EXPECT_TRUE(same_bytes(a, b));
  EXPECT_FALSE(same_bytes(a, c));
  // Refilling a used image in place gives a fresh image's bytes.
  c.fill_random(0x5eedull ^ 45886);
  EXPECT_TRUE(same_bytes(a, c));
  // The Rng overload seeds the stream with one draw.
  util::Rng r1(9);
  util::Rng r2(9);
  a.fill_random(r1);
  b.fill_random(r2.next_u64());
  EXPECT_TRUE(same_bytes(a, b));
}

TEST(StripeData, FillRandomLeavesParityZeroUntilEncode) {
  for (CodeId id : kAllCodes) {
    const Layout l = make_layout(id, 5);
    StripeData s(l, 40);
    s.fill_random(7);
    for (int i = 0; i < l.num_cells(); ++i) {
      const Cell c = l.cell_at(i);
      EXPECT_EQ(all_zero(s.chunk(c)), l.kind(c) == CellKind::Parity)
          << l.name() << " " << to_string(c);
    }
    encode(s);
    EXPECT_TRUE(verify(s)) << l.name();
  }
}

// The stream runs a word at a time through the data cells in cell-index
// order, and a chunk's sub-word tail takes the leading bytes of one more
// word, so odd chunk sizes are filled to the last byte.
TEST(StripeData, FillRandomFillsOddChunkTails) {
  const Layout l = make_layout(CodeId::Tip, 5);
  for (std::size_t chunk : {1u, 7u, 65u}) {
    StripeData s(l, chunk);
    s.fill_random(42);
    std::uint64_t state = 42;
    bool tail_bytes_set = false;
    for (int i = 0; i < l.num_cells(); ++i) {
      const Cell c = l.cell_at(i);
      if (l.kind(c) != CellKind::Data) {
        continue;
      }
      std::vector<std::byte> want(chunk);
      for (std::size_t b = 0; b < chunk; b += 8) {
        const std::uint64_t word = splitmix64_next(state);
        std::memcpy(want.data() + b, &word, std::min<std::size_t>(8, chunk - b));
      }
      const auto got = s.chunk(c);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
          << "chunk=" << chunk << " " << to_string(c);
      tail_bytes_set |= !all_zero(got.last(chunk % 8));
    }
    EXPECT_TRUE(tail_bytes_set) << "chunk=" << chunk;
    encode(s);
    EXPECT_TRUE(verify(s)) << "chunk=" << chunk;
  }
}

TEST(Codec, EncodeMakesAllChainsVerify) {
  for (int p : {5, 7, 11}) {
    for (CodeId id : kAllCodes) {
      const Layout l = make_layout(id, p);
      const StripeData s = encoded_stripe(l);
      EXPECT_TRUE(verify(s)) << l.name();
    }
  }
}

TEST(Codec, AllZeroStripeVerifies) {
  const Layout l = make_star(5);
  StripeData s(l, 8);
  encode(s);
  EXPECT_TRUE(verify(s));
}

TEST(Codec, CorruptionBreaksVerification) {
  const Layout l = make_star(5);
  StripeData s = encoded_stripe(l);
  auto span = s.chunk(cell(0, 0));
  span[0] ^= std::byte{1};
  EXPECT_FALSE(verify(s));
}

TEST(Codec, DecodeSingleErasedDataCell) {
  const Layout l = make_rtp(7);
  StripeData s = encoded_stripe(l);
  const StripeData original = s;
  const std::vector<Cell> erased{cell(2, 3)};
  s.erase(erased[0]);
  const DecodeResult r = decode_erasures(s, erased);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.peeled, 1);
  EXPECT_EQ(r.gaussian_solved, 0);
  const auto got = s.chunk(erased[0]);
  const auto want = original.chunk(erased[0]);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
}

TEST(Codec, DecodeSingleErasedParityCell) {
  const Layout l = make_star(5);
  StripeData s = encoded_stripe(l);
  const StripeData original = s;
  const Cell parity = cell(0, l.p());  // horizontal parity column
  ASSERT_EQ(l.kind(parity), CellKind::Parity);
  s.erase(parity);
  EXPECT_TRUE(decode_erasures(s, {parity}).ok);
  const auto got = s.chunk(parity);
  const auto want = original.chunk(parity);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
}

TEST(Codec, DecodeFullTripleColumnErasure) {
  for (CodeId id : kAllCodes) {
    const Layout l = make_layout(id, 7);
    StripeData s = encoded_stripe(l, 24, 99);
    const StripeData original = s;
    std::vector<Cell> erased;
    for (int col : {0, 3, l.cols() - 1}) {
      for (const Cell& c : l.column_cells(col)) {
        erased.push_back(c);
        s.erase(c);
      }
    }
    const DecodeResult r = decode_erasures(s, erased);
    EXPECT_TRUE(r.ok) << l.name();
    for (const Cell& c : erased) {
      const auto got = s.chunk(c);
      const auto want = original.chunk(c);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
          << l.name() << " " << to_string(c);
    }
  }
}

TEST(Codec, DecodePartialStripePatterns) {
  // Every contiguous single-column error the workload generator can emit.
  const Layout l = make_layout(CodeId::Tip, 7);
  for (int col = 0; col < l.cols(); ++col) {
    for (int len = 1; len <= l.rows(); ++len) {
      for (int start = 0; start + len <= l.rows(); ++start) {
        StripeData s = encoded_stripe(l, 16, 7);
        const StripeData original = s;
        std::vector<Cell> erased;
        for (int r = start; r < start + len; ++r) {
          erased.push_back(cell(r, col));
          s.erase(erased.back());
        }
        ASSERT_TRUE(decode_erasures(s, erased).ok)
            << "col=" << col << " start=" << start << " len=" << len;
        for (const Cell& c : erased) {
          const auto got = s.chunk(c);
          const auto want = original.chunk(c);
          ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
        }
      }
    }
  }
}

TEST(Codec, ErasureDecodableMatchesDecode) {
  const Layout l = make_star(5);
  std::vector<Cell> erased;
  for (int col : {0, 1, 2}) {
    for (const Cell& c : l.column_cells(col)) {
      erased.push_back(c);
    }
  }
  EXPECT_TRUE(erasure_decodable(l, erased));
  // Four erased columns exceed the code's distance.
  for (const Cell& c : l.column_cells(3)) {
    erased.push_back(c);
  }
  EXPECT_FALSE(erasure_decodable(l, erased));
}

TEST(Codec, QuadColumnErasureFailsGracefully) {
  const Layout l = make_rtp(5);
  StripeData s = encoded_stripe(l);
  std::vector<Cell> erased;
  for (int col : {0, 1, 2, 3}) {
    for (const Cell& c : l.column_cells(col)) {
      erased.push_back(c);
      s.erase(c);
    }
  }
  EXPECT_FALSE(decode_erasures(s, erased).ok);
}

}  // namespace
}  // namespace fbf::codes

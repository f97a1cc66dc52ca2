#include "codes/xor_kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "codes/builders.h"
#include "codes/codec.h"
#include "util/check.h"
#include "util/rng.h"

namespace fbf::codes {
namespace {

/// Restores the default dispatch decision after each test so the order the
/// suite runs in cannot leak a forced kernel into unrelated tests.
class XorKernelsTest : public ::testing::Test {
 protected:
  void TearDown() override { set_xor_kernel(saved_); }
  XorKernel saved_ = active_xor_kernel();
};

TEST_F(XorKernelsTest, SupportedAlwaysContainsScalarAndActive) {
  const auto& kernels = supported_xor_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), XorKernel::Scalar);
  EXPECT_NE(std::find(kernels.begin(), kernels.end(), active_xor_kernel()),
            kernels.end());
}

TEST_F(XorKernelsTest, SetRejectsUnsupportedAndKeepsDispatch) {
  const auto& kernels = supported_xor_kernels();
  const XorKernel before = active_xor_kernel();
  for (XorKernel k : {XorKernel::Avx2, XorKernel::Avx512, XorKernel::Neon}) {
    if (std::find(kernels.begin(), kernels.end(), k) == kernels.end()) {
      EXPECT_FALSE(set_xor_kernel(k));
      EXPECT_EQ(active_xor_kernel(), before);
    }
  }
  EXPECT_TRUE(set_xor_kernel(XorKernel::Scalar));
  EXPECT_EQ(active_xor_kernel(), XorKernel::Scalar);
}

TEST_F(XorKernelsTest, XorIntoRejectsSizeMismatch) {
  std::vector<std::byte> a(8);
  std::vector<std::byte> b(7);
  EXPECT_THROW(xor_into(a, b), util::CheckError);
  EXPECT_THROW(xor_fold(a, std::vector<std::span<const std::byte>>{b}),
               util::CheckError);
}

// Every dispatched variant against the portable reference, across odd sizes
// (0..257 covers each kernel's wide loop, narrow loop, and byte tail; up to
// 300 adds ragged sizes past two wide iterations), misaligned base offsets,
// and 1..8 sources — for both fold semantics.
TEST_F(XorKernelsTest, DifferentialAgainstScalarReference) {
  constexpr std::size_t kMaxSize = 300;
  constexpr std::size_t kGuard = 64;
  const std::size_t offsets[] = {0, 1, 3, 7, 31, 63};
  util::Rng rng(0xd1ffu);

  // One oversized pool per role; each case carves misaligned windows.
  std::vector<std::byte> dst_pool(kMaxSize + 2 * kGuard + 64);
  std::vector<std::vector<std::byte>> src_pools(8);
  for (auto& p : src_pools) {
    p.resize(kMaxSize + 64);
  }

  for (XorKernel kernel : supported_xor_kernels()) {
    SCOPED_TRACE(std::string(to_string(kernel)));
    for (std::size_t size = 0; size <= kMaxSize; ++size) {
      for (std::size_t offset : offsets) {
        for (std::size_t nsrcs = 1; nsrcs <= 8; ++nsrcs) {
          for (bool accumulate : {false, true}) {
            rng.fill_bytes(dst_pool);
            std::vector<std::span<const std::byte>> srcs;
            std::vector<const std::byte*> raw;
            for (std::size_t s = 0; s < nsrcs; ++s) {
              rng.fill_bytes(src_pools[s]);
              // Stagger source offsets so dst/src alignments differ.
              const std::size_t so = (offset + s) % 64;
              srcs.push_back({src_pools[s].data() + so, size});
              raw.push_back(src_pools[s].data() + so);
            }
            std::vector<std::byte> expected(
                dst_pool.begin() + static_cast<std::ptrdiff_t>(kGuard +
                                                               offset),
                dst_pool.begin() + static_cast<std::ptrdiff_t>(kGuard +
                                                               offset + size));
            detail::xor_fold_scalar(expected.data(), raw.data(), nsrcs, size,
                                    accumulate);

            const std::vector<std::byte> before = dst_pool;
            ASSERT_TRUE(set_xor_kernel(kernel));
            std::span<std::byte> dst{dst_pool.data() + kGuard + offset, size};
            if (accumulate) {
              xor_fold_into(dst, srcs);
            } else {
              xor_fold(dst, srcs);
            }

            ASSERT_TRUE(std::equal(dst.begin(), dst.end(), expected.begin()))
                << "size=" << size << " offset=" << offset
                << " nsrcs=" << nsrcs << " accumulate=" << accumulate;
            // Guard bytes on both flanks of the window must be untouched.
            for (std::size_t g = 0; g < kGuard + offset; ++g) {
              ASSERT_EQ(dst_pool[g], before[g]) << "leading guard at " << g;
            }
            for (std::size_t g = kGuard + offset + size; g < dst_pool.size();
                 ++g) {
              ASSERT_EQ(dst_pool[g], before[g]) << "trailing guard at " << g;
            }
          }
        }
      }
    }
  }
}

TEST_F(XorKernelsTest, XorIntoMatchesSingleSourceFold) {
  util::Rng rng(0xabcdu);
  for (XorKernel kernel : supported_xor_kernels()) {
    ASSERT_TRUE(set_xor_kernel(kernel));
    for (std::size_t size : {0u, 1u, 63u, 64u, 257u, 4096u}) {
      std::vector<std::byte> a(size);
      std::vector<std::byte> b(size);
      rng.fill_bytes(a);
      rng.fill_bytes(b);
      std::vector<std::byte> expected = a;
      const std::byte* src = b.data();
      detail::xor_fold_scalar(expected.data(), &src, 1, size, true);
      xor_into(a, b);
      EXPECT_EQ(a, expected) << to_string(kernel) << " size=" << size;
    }
  }
}

TEST_F(XorKernelsTest, EmptySourceListZeroesOrPreservesDst) {
  std::vector<std::byte> dst(100, std::byte{0x5a});
  const std::vector<std::span<const std::byte>> none;
  xor_fold_into(dst, none);  // dst ^= nothing
  EXPECT_TRUE(std::all_of(dst.begin(), dst.end(),
                          [](std::byte b) { return b == std::byte{0x5a}; }));
  xor_fold(dst, none);  // dst = empty fold = zero
  EXPECT_TRUE(std::all_of(dst.begin(), dst.end(),
                          [](std::byte b) { return b == std::byte{0}; }));
}

// encode -> erase -> decode_erasures -> verify must round-trip
// byte-identically under every kernel variant: the stripe bytes a variant
// produces must equal the scalar build's bytes chunk for chunk.
TEST_F(XorKernelsTest, DecodeRoundTripBitIdenticalAcrossKernels) {
  for (CodeId code : {CodeId::Tip, CodeId::Star}) {
    const Layout l = make_layout(code, 7);
    // Odd chunk size: every fold exercises the sub-vector tail.
    constexpr std::size_t kChunk = 1000;

    // Reference run entirely on the scalar kernel.
    ASSERT_TRUE(set_xor_kernel(XorKernel::Scalar));
    util::Rng rng(0x5eedu);
    StripeData reference(l, kChunk);
    reference.fill_random(rng);
    encode(reference);
    ASSERT_TRUE(verify(reference));

    std::vector<Cell> erased;
    for (int col : {0, 2, 5}) {
      const auto cells = l.column_cells(col);
      erased.insert(erased.end(), cells.begin(), cells.end());
    }

    for (XorKernel kernel : supported_xor_kernels()) {
      SCOPED_TRACE(std::string(to_string(kernel)));
      ASSERT_TRUE(set_xor_kernel(kernel));
      util::Rng rng2(0x5eedu);
      StripeData s(l, kChunk);
      s.fill_random(rng2);
      encode(s);
      ASSERT_TRUE(verify(s));
      for (const Cell& c : erased) {
        s.erase(c);
      }
      const DecodeResult res = decode_erasures(s, erased);
      ASSERT_TRUE(res.ok);
      ASSERT_TRUE(verify(s));
      for (int i = 0; i < l.num_cells(); ++i) {
        const Cell c = l.cell_at(i);
        const auto got = s.chunk(c);
        const auto want = reference.chunk(c);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin()))
            << "chunk " << to_string(c) << " differs";
      }
    }
  }
}

// The FoldBatch adapter folds eagerly, so a dependency chain lands on the
// same bytes as immediate sequential folds: RAW (a later fold reads an
// earlier fold's destination), WAW, and WAR all see program order.
TEST_F(XorKernelsTest, FoldBatchPreservesDependencyChains) {
  util::Rng rng(0xdeb7u);
  constexpr std::size_t kSize = 129;
  std::vector<std::byte> a(kSize);
  std::vector<std::byte> b(kSize);
  std::vector<std::byte> c(kSize);
  std::vector<std::byte> d(kSize);
  rng.fill_bytes(a);
  rng.fill_bytes(b);
  rng.fill_bytes(c);
  rng.fill_bytes(d);

  // Reference: immediate folds in program order.
  auto run_sequential = [&](std::vector<std::byte> va, std::vector<std::byte> vb,
                            std::vector<std::byte> vc,
                            std::vector<std::byte> vd) {
    xor_fold(vb, std::vector<std::span<const std::byte>>{va});       // b = a
    xor_fold(vc, std::vector<std::span<const std::byte>>{vb, va});   // RAW on b
    xor_fold_into(va, std::vector<std::span<const std::byte>>{vd});  // WAR on a
    xor_fold(vd, std::vector<std::span<const std::byte>>{vc});       // RAW on c
    return std::vector<std::vector<std::byte>>{va, vb, vc, vd};
  };
  const auto expected = run_sequential(a, b, c, d);

  FoldBatch batch;
  batch.add(b, std::vector<std::span<const std::byte>>{a});
  batch.add(c, std::vector<std::span<const std::byte>>{b, a});
  batch.add(a, std::vector<std::span<const std::byte>>{d}, /*accumulate=*/true);
  batch.add(d, std::vector<std::span<const std::byte>>{c});
  EXPECT_EQ(a, expected[0]);
  EXPECT_EQ(b, expected[1]);
  EXPECT_EQ(c, expected[2]);
  EXPECT_EQ(d, expected[3]);
}

TEST_F(XorKernelsTest, FoldBatchIndependentJobsCoalesceAndDestructorFlushes) {
  util::Rng rng(0x70a1u);
  constexpr std::size_t kSize = 77;
  std::vector<std::byte> s1(kSize);
  std::vector<std::byte> s2(kSize);
  rng.fill_bytes(s1);
  rng.fill_bytes(s2);
  std::vector<std::byte> d1(kSize, std::byte{0xff});
  std::vector<std::byte> d2(kSize, std::byte{0xff});
  {
    FoldBatch batch;
    batch.add(d1, std::vector<std::span<const std::byte>>{s1, s2});
    batch.add(d2, std::vector<std::span<const std::byte>>{s2});
  }
  std::vector<std::byte> want1(kSize);
  std::vector<std::byte> want2(kSize);
  const std::byte* p1[] = {s1.data(), s2.data()};
  detail::xor_fold_scalar(want1.data(), p1, 2, kSize, false);
  const std::byte* p2[] = {s2.data()};
  detail::xor_fold_scalar(want2.data(), p2, 1, kSize, false);
  EXPECT_EQ(d1, want1);
  EXPECT_EQ(d2, want2);
}

TEST_F(XorKernelsTest, StripeDataChunksAre64ByteAligned) {
  const Layout l = make_layout(CodeId::Tip, 7);
  for (std::size_t chunk_size : {1u, 7u, 64u, 1000u, 4096u}) {
    StripeData s(l, chunk_size);
    for (int i = 0; i < l.num_cells(); ++i) {
      const auto span = s.chunk(l.cell_at(i));
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(span.data()) %
                    StripeData::kAlignment,
                0u);
      EXPECT_EQ(span.size(), chunk_size);
    }
  }
}

}  // namespace
}  // namespace fbf::codes

// XOR kernel layer: runtime-dispatched SIMD implementations of the two
// primitives every encode/verify/decode path bottoms out in.
//
// One binary carries every variant the compiler could build (scalar always;
// AVX2/AVX-512 on x86-64, NEON on aarch64 when FBF_ENABLE_SIMD is ON) and
// picks the widest one the host CPU supports at startup. All variants are
// bit-identical — XOR is exact — so experiment results do not depend on the
// dispatch decision; the differential tests enforce this.
//
// `xor_fold` is the chain primitive: it folds N source chunks into the
// destination in a single position-major pass (each destination vector is
// loaded/stored once while the sources stream), instead of N separate
// dst-rewriting `xor_into` passes.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace fbf::codes {

enum class XorKernel { Scalar, Avx2, Avx512, Neon };

std::string_view to_string(XorKernel k);

/// Kernels usable on this host with this build. Always contains Scalar;
/// ordered narrowest to widest.
const std::vector<XorKernel>& supported_xor_kernels();

/// The kernel the free functions below currently dispatch to. Defaults to
/// the widest supported variant.
XorKernel active_xor_kernel();

/// Redirects dispatch (for benches and differential tests). Returns false
/// and leaves dispatch unchanged when `k` is not supported on this host.
/// Not synchronized against concurrent XOR calls.
bool set_xor_kernel(XorKernel k);

/// dst ^= src, element-wise. Sizes must match.
void xor_into(std::span<std::byte> dst, std::span<const std::byte> src);

/// dst = srcs[0] ^ srcs[1] ^ ... (dst is overwritten; zero when srcs is
/// empty). Every source must have dst's size. Sources may not alias dst.
void xor_fold(std::span<std::byte> dst,
              std::span<const std::span<const std::byte>> srcs);

/// dst ^= srcs[0] ^ srcs[1] ^ ... Every source must have dst's size.
/// Sources may not alias dst.
void xor_fold_into(std::span<std::byte> dst,
                   std::span<const std::span<const std::byte>> srcs);

/// Eager fold adapter: add() folds at once, so folds land in program
/// order. Kept because the benchmark suite's codes replay still names it;
/// new code calls xor_fold or xor_fold_into directly.
struct FoldBatch {
  void add(std::span<std::byte> dst,
           std::span<const std::span<const std::byte>> srcs,
           bool accumulate = false) {
    if (accumulate) {
      xor_fold_into(dst, srcs);
    } else {
      xor_fold(dst, srcs);
    }
  }
};

namespace detail {

/// Portable unrolled-u64 reference fold; ground truth for the differential
/// tests. `accumulate` keeps dst's prior contents in the XOR.
void xor_fold_scalar(std::byte* dst, const std::byte* const* srcs,
                     std::size_t nsrcs, std::size_t size, bool accumulate);

}  // namespace detail

}  // namespace fbf::codes

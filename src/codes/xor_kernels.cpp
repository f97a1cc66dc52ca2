#include "codes/xor_kernels.h"

#include <atomic>
#include <cstdint>
#include <cstring>

#include "codes/xor_kernels_internal.h"
#include "util/check.h"

namespace fbf::codes {

namespace detail {

// The scalar variant doubles as the differential-test reference, so it must
// stay genuinely scalar: letting the autovectorizer turn it into SSE code
// would have the tests compare vector code against vector code.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-vectorize")))
#endif
void xor_fold_scalar(std::byte* dst, const std::byte* const* srcs,
                     std::size_t nsrcs, std::size_t size, bool accumulate) {
  // Four u64 lanes per iteration; memcpy keeps the accesses well-defined
  // at any alignment and compiles to plain loads/stores.
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    std::uint64_t v0 = 0;
    std::uint64_t v1 = 0;
    std::uint64_t v2 = 0;
    std::uint64_t v3 = 0;
    if (accumulate) {
      std::memcpy(&v0, dst + i, 8);
      std::memcpy(&v1, dst + i + 8, 8);
      std::memcpy(&v2, dst + i + 16, 8);
      std::memcpy(&v3, dst + i + 24, 8);
    }
    for (std::size_t s = 0; s < nsrcs; ++s) {
      std::uint64_t a;
      std::uint64_t b;
      std::uint64_t c;
      std::uint64_t d;
      std::memcpy(&a, srcs[s] + i, 8);
      std::memcpy(&b, srcs[s] + i + 8, 8);
      std::memcpy(&c, srcs[s] + i + 16, 8);
      std::memcpy(&d, srcs[s] + i + 24, 8);
      v0 ^= a;
      v1 ^= b;
      v2 ^= c;
      v3 ^= d;
    }
    std::memcpy(dst + i, &v0, 8);
    std::memcpy(dst + i + 8, &v1, 8);
    std::memcpy(dst + i + 16, &v2, 8);
    std::memcpy(dst + i + 24, &v3, 8);
  }
  for (; i + 8 <= size; i += 8) {
    std::uint64_t v = 0;
    if (accumulate) {
      std::memcpy(&v, dst + i, 8);
    }
    for (std::size_t s = 0; s < nsrcs; ++s) {
      std::uint64_t a;
      std::memcpy(&a, srcs[s] + i, 8);
      v ^= a;
    }
    std::memcpy(dst + i, &v, 8);
  }
  xor_fold_tail(dst, srcs, nsrcs, i, size, accumulate);
}

namespace {

struct Variant {
  XorKernel kernel;
  FoldFn fold;
};

#if defined(__x86_64__) || defined(_M_X64)
bool cpu_supports(XorKernel k) {
  switch (k) {
    case XorKernel::Avx2:
      return __builtin_cpu_supports("avx2") != 0;
    case XorKernel::Avx512:
      return __builtin_cpu_supports("avx512f") != 0;
    default:
      return k == XorKernel::Scalar;
  }
}
#else
bool cpu_supports(XorKernel k) { return k == XorKernel::Scalar ||
                                        k == XorKernel::Neon; }
#endif

const std::vector<Variant>& variants() {
  static const std::vector<Variant> v = [] {
    std::vector<Variant> out{{XorKernel::Scalar, &xor_fold_scalar}};
#if defined(FBF_XOR_HAVE_NEON)
    if (cpu_supports(XorKernel::Neon)) {
      out.push_back({XorKernel::Neon, &xor_fold_neon});
    }
#endif
#if defined(FBF_XOR_HAVE_AVX2)
    if (cpu_supports(XorKernel::Avx2)) {
      out.push_back({XorKernel::Avx2, &xor_fold_avx2});
    }
#endif
#if defined(FBF_XOR_HAVE_AVX512)
    if (cpu_supports(XorKernel::Avx512)) {
      out.push_back({XorKernel::Avx512, &xor_fold_avx512});
    }
#endif
    return out;
  }();
  return v;
}

std::atomic<const Variant*> g_active{nullptr};

const Variant& active_variant() {
  const Variant* v = g_active.load(std::memory_order_acquire);
  if (v == nullptr) {
    v = &variants().back();  // widest supported
    g_active.store(v, std::memory_order_release);
  }
  return *v;
}

}  // namespace

}  // namespace detail

std::string_view to_string(XorKernel k) {
  switch (k) {
    case XorKernel::Scalar:
      return "scalar";
    case XorKernel::Avx2:
      return "avx2";
    case XorKernel::Avx512:
      return "avx512";
    case XorKernel::Neon:
      return "neon";
  }
  return "unknown";
}

const std::vector<XorKernel>& supported_xor_kernels() {
  static const std::vector<XorKernel> v = [] {
    std::vector<XorKernel> out;
    for (const detail::Variant& var : detail::variants()) {
      out.push_back(var.kernel);
    }
    return out;
  }();
  return v;
}

XorKernel active_xor_kernel() { return detail::active_variant().kernel; }

bool set_xor_kernel(XorKernel k) {
  for (const detail::Variant& var : detail::variants()) {
    if (var.kernel == k) {
      detail::g_active.store(&var, std::memory_order_release);
      return true;
    }
  }
  return false;
}

void xor_into(std::span<std::byte> dst, std::span<const std::byte> src) {
  FBF_CHECK(dst.size() == src.size(), "xor_into size mismatch");
  const std::byte* s = src.data();
  detail::active_variant().fold(dst.data(), &s, 1, dst.size(), true);
}

namespace {

void fold_dispatch(std::span<std::byte> dst,
                   std::span<const std::span<const std::byte>> srcs,
                   bool accumulate) {
  // The chain lengths in every supported layout are small; a fixed stack
  // array keeps the hot path allocation-free.
  constexpr std::size_t kMaxInline = 32;
  const std::byte* inline_ptrs[kMaxInline];
  std::vector<const std::byte*> heap_ptrs;
  const std::byte** ptrs = inline_ptrs;
  if (srcs.size() > kMaxInline) {
    heap_ptrs.resize(srcs.size());
    ptrs = heap_ptrs.data();
  }
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    FBF_CHECK(srcs[i].size() == dst.size(), "xor_fold size mismatch");
    ptrs[i] = srcs[i].data();
  }
  detail::active_variant().fold(dst.data(), ptrs, srcs.size(), dst.size(),
                                accumulate);
}

}  // namespace

void xor_fold(std::span<std::byte> dst,
              std::span<const std::span<const std::byte>> srcs) {
  fold_dispatch(dst, srcs, false);
}

void xor_fold_into(std::span<std::byte> dst,
                   std::span<const std::span<const std::byte>> srcs) {
  fold_dispatch(dst, srcs, true);
}

}  // namespace fbf::codes

#include "trace/scan_kernels.h"

#include <algorithm>

#include "trace/record_view.h"

#if defined(__x86_64__) || defined(_M_X64)
#define IOTAXO_ARCH_X86_64 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define IOTAXO_ARCH_NEON 1
#include <arm_neon.h>
#endif

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
#define IOTAXO_LITTLE_ENDIAN 1
#endif

namespace iotaxo::trace::scan {

namespace {

#if IOTAXO_ARCH_X86_64
// _mm_max_epu32 is SSE4.1; the caller dispatches on a runtime CPU check so
// the baseline build still runs on SSE2-only hardware.
__attribute__((target("sse4.1"))) [[nodiscard]] std::uint32_t max_u32_sse41(
    const std::uint8_t* p, std::size_t n) noexcept {
  __m128i best = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const auto* q = reinterpret_cast<const __m128i*>(p + i * 4);
    __m128i a = _mm_max_epu32(_mm_loadu_si128(q), _mm_loadu_si128(q + 1));
    __m128i b = _mm_max_epu32(_mm_loadu_si128(q + 2), _mm_loadu_si128(q + 3));
    best = _mm_max_epu32(best, _mm_max_epu32(a, b));
  }
  for (; i + 4 <= n; i += 4) {
    best = _mm_max_epu32(
        best, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i * 4)));
  }
  alignas(16) std::uint32_t lanes[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), best);
  std::uint32_t m = std::max(std::max(lanes[0], lanes[1]),
                             std::max(lanes[2], lanes[3]));
  for (; i < n; ++i) {
    m = std::max(m, detail::load_u32(p + i * 4));
  }
  return m;
}

[[nodiscard]] bool have_sse41() noexcept {
  static const bool ok = __builtin_cpu_supports("sse4.1") != 0;
  return ok;
}
#endif

#if IOTAXO_ARCH_NEON
[[nodiscard]] std::uint32_t max_u32_neon(const std::uint8_t* p,
                                         std::size_t n) noexcept {
  uint32x4_t best = vdupq_n_u32(0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    best = vmaxq_u32(best, vld1q_u32(reinterpret_cast<const std::uint32_t*>(
                               p + i * 4)));
  }
  std::uint32_t m = vmaxvq_u32(best);
  for (; i < n; ++i) {
    m = std::max(m, detail::load_u32(p + i * 4));
  }
  return m;
}
#endif

}  // namespace

std::uint32_t max_u32_le(const std::uint8_t* p, std::size_t n) noexcept {
#if IOTAXO_ARCH_X86_64 && IOTAXO_LITTLE_ENDIAN
  if (have_sse41()) {
    return max_u32_sse41(p, n);
  }
#elif IOTAXO_ARCH_NEON && IOTAXO_LITTLE_ENDIAN
  return max_u32_neon(p, n);
#endif
  // Portable fallback: 4 independent accumulators so the fold has no
  // loop-carried dependency chain (and vectorizes under -fopenmp-simd).
  std::uint32_t m0 = 0;
  std::uint32_t m1 = 0;
  std::uint32_t m2 = 0;
  std::uint32_t m3 = 0;
  std::size_t i = 0;
#if defined(_OPENMP) || defined(IOTAXO_OPENMP_SIMD)
#pragma omp simd reduction(max : m0, m1, m2, m3)
#endif
  for (std::size_t j = 0; j < n / 4 * 4; j += 4) {
    m0 = std::max(m0, detail::load_u32(p + j * 4));
    m1 = std::max(m1, detail::load_u32(p + (j + 1) * 4));
    m2 = std::max(m2, detail::load_u32(p + (j + 2) * 4));
    m3 = std::max(m3, detail::load_u32(p + (j + 3) * 4));
  }
  i = n / 4 * 4;
  std::uint32_t m = std::max(std::max(m0, m1), std::max(m2, m3));
  for (; i < n; ++i) {
    m = std::max(m, detail::load_u32(p + i * 4));
  }
  return m;
}

namespace {
// The strided row kernels read the hot group's fields at fixed offsets.
constexpr std::size_t kStride = hotlayout::kStride;
}  // namespace

void minmax_stamps_hot(const std::uint8_t* recs, std::size_t n, SimTime* lo,
                       SimTime* hi) noexcept {
  const std::uint8_t* p = recs + hotlayout::kLocalStart;
  SimTime lo0 = detail::load_i64(p);
  SimTime hi0 = lo0;
  SimTime lo1 = lo0;
  SimTime hi1 = hi0;
  std::size_t i = 1;
  // 2x unrolled with independent accumulators: the min and max folds run
  // in parallel ALU ports instead of serializing on one chain.
  for (; i + 2 <= n; i += 2) {
    const SimTime a = detail::load_i64(p + i * kStride);
    const SimTime b = detail::load_i64(p + (i + 1) * kStride);
    lo0 = std::min(lo0, a);
    hi0 = std::max(hi0, a);
    lo1 = std::min(lo1, b);
    hi1 = std::max(hi1, b);
  }
  for (; i < n; ++i) {
    const SimTime a = detail::load_i64(p + i * kStride);
    lo0 = std::min(lo0, a);
    hi0 = std::max(hi0, a);
  }
  *lo = std::min(lo0, lo1);
  *hi = std::max(hi0, hi1);
}

Bytes sum_transfer_bytes_in_window_hot(const std::uint8_t* recs,
                                       std::size_t n, StrId sys_write,
                                       StrId sys_read, SimTime begin,
                                       SimTime end) noexcept {
  // Branchless predication: every record contributes rec.bytes & mask
  // where mask is all-ones iff (class == syscall) & (name is a transfer
  // id) & (begin <= start < end). Id 0 never matches (no event has an
  // empty name), mirroring is_transfer() in the store.
  const auto contribution = [&](const std::uint8_t* rec) noexcept -> Bytes {
    const bool is_sys = rec[hotlayout::kCls] == 0;  // EventClass::kSyscall
    const StrId name = detail::load_u32(rec + hotlayout::kName);
    const bool transfer = (sys_write != 0 && name == sys_write) ||
                          (sys_read != 0 && name == sys_read);
    const SimTime start = detail::load_i64(rec + hotlayout::kLocalStart);
    const bool in_window = start >= begin && start < end;
    const auto mask = -static_cast<std::int64_t>(is_sys & transfer & in_window);
    return detail::load_i64(rec + hotlayout::kBytes) & mask;
  };
  Bytes t0 = 0;
  Bytes t1 = 0;
  Bytes t2 = 0;
  Bytes t3 = 0;
  std::size_t i = 0;
#if defined(_OPENMP) || defined(IOTAXO_OPENMP_SIMD)
#pragma omp simd reduction(+ : t0, t1, t2, t3)
#endif
  for (std::size_t j = 0; j < n / 4 * 4; j += 4) {
    t0 += contribution(recs + j * kStride);
    t1 += contribution(recs + (j + 1) * kStride);
    t2 += contribution(recs + (j + 2) * kStride);
    t3 += contribution(recs + (j + 3) * kStride);
  }
  i = n / 4 * 4;
  for (; i < n; ++i) {
    t0 += contribution(recs + i * kStride);
  }
  return t0 + t1 + t2 + t3;
}

void accumulate_call_stats_hot(const std::uint8_t* recs, std::size_t n,
                               CallAccum* rows) noexcept {
  // The scatter (rows[name] += ...) cannot vectorize, but the field
  // gathers can be hoisted and the I/O-byte contribution made branchless:
  // classes 0..2 (syscall, library call, fs op) are the I/O classes.
  const auto fold = [&](const std::uint8_t* rec) noexcept {
    const StrId name = detail::load_u32(rec + hotlayout::kName);
    const auto io_mask = -static_cast<std::int64_t>(rec[hotlayout::kCls] <= 2);
    CallAccum& row = rows[name];
    ++row.count;
    row.time += detail::load_i64(rec + hotlayout::kDuration);
    row.bytes += detail::load_i64(rec + hotlayout::kBytes) & io_mask;
  };
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    fold(recs + i * kStride);
    fold(recs + (i + 1) * kStride);
    fold(recs + (i + 2) * kStride);
    fold(recs + (i + 3) * kStride);
  }
  for (; i < n; ++i) {
    fold(recs + i * kStride);
  }
}

}  // namespace iotaxo::trace::scan

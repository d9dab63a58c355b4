// SIMD-treated scan kernels over decoded IOTB3 hot column groups (the
// 33-byte hotlayout stride in record_view.h: cls, name, rank, local_start,
// duration, bytes). These are the three hottest loops of the read path —
// stamp-window transfer filtering, per-name call-stat accumulation, and the
// contiguous u32 max fold the view validators run over argument-id tables —
// pulled into one translation unit so they can get explicit vector
// treatment:
//
//  * The contiguous folds (max_u32_le) take an SSE4.1 (x86) / NEON
//    (aarch64) fast path selected by a runtime CPU check, with a portable
//    unrolled fallback.
//  * The strided row kernels cannot use packed loads (33 is not a
//    vector-friendly stride), so they get the treatment that actually
//    helps there: branchless predication, 4x unrolling onto independent
//    accumulators, and `#pragma omp simd` reduction hints (enabled by
//    -fopenmp-simd where the compiler supports it; a plain serial loop
//    otherwise — results are identical either way).
//
// All loads are little-endian and unaligned-safe (memcpy on LE hosts,
// byte assembly elsewhere); every kernel returns exactly what the naive
// per-record loop it replaces returned, so query results are bit-identical
// with or without the fast paths.
#pragma once

#include <cstdint>

#include "trace/string_pool.h"
#include "util/types.h"

namespace iotaxo::trace::scan {

/// Max over `n` little-endian u32 values starting at `p` (unaligned).
/// Returns 0 for n == 0. Used by the view validators' arg-id max fold.
[[nodiscard]] std::uint32_t max_u32_le(const std::uint8_t* p,
                                       std::size_t n) noexcept;

/// Min/max of local_start over `n` hot rows at `recs`. Requires n > 0;
/// *lo/*hi are overwritten (not folded into).
void minmax_stamps_hot(const std::uint8_t* recs, std::size_t n, SimTime* lo,
                       SimTime* hi) noexcept;

/// Bytes moved by transfer syscalls (name == sys_write or sys_read, class
/// kSyscall, id 0 = "not interned, never matches") whose local_start lies
/// in [begin, end), over `n` hot rows. The bytes_in_window inner loop.
[[nodiscard]] Bytes sum_transfer_bytes_in_window_hot(
    const std::uint8_t* recs, std::size_t n, StrId sys_write, StrId sys_read,
    SimTime begin, SimTime end) noexcept;

/// One call_stats row, indexed by interned name id.
struct CallAccum {
  long long count = 0;
  SimTime time = 0;
  Bytes bytes = 0;
};

/// Fold `n` hot rows into `rows` (indexed by name id; the caller sizes it
/// to the string-table size and guarantees every row's name id is in range
/// — the view validated them). I/O-class records contribute their payload
/// bytes; others only count and duration.
void accumulate_call_stats_hot(const std::uint8_t* recs, std::size_t n,
                               CallAccum* rows) noexcept;

}  // namespace iotaxo::trace::scan

// The AVX2 half of spatial/distance.hpp — the ONLY translation unit compiled
// with -mavx2 (see CMakeLists), so nothing outside the runtime-dispatched
// kernel below can ever emit an AVX2 instruction into a code path reached on
// a non-AVX2 cpu.  This file is additionally compiled with -ffp-contract=off
// (also set globally) so the per-lane multiply/add sequence can never fuse
// into an FMA and drift from the scalar kernel's rounding.

#include "pandora/spatial/distance.hpp"

namespace pandora::spatial::distance::detail {

#if defined(PANDORA_SIMD_ENABLED) && defined(__AVX2__) && (defined(__GNUC__) || defined(__clang__))

namespace {

/// 4 doubles = one 256-bit AVX2 register, via portable vector extensions.
typedef double vdouble4 __attribute__((vector_size(32), aligned(8)));

constexpr index_t kLanes = 4;

}  // namespace

int simd_width_impl() { return __builtin_cpu_supports("avx2") ? kLanes : 1; }

// Vectorized ACROSS points: lane l accumulates point (j + l)'s sum in
// ascending dimension order — exactly the scalar op sequence per point, so
// every lane's result is bit-identical to batch_squared_distances_scalar.
// The `aligned(8)` vector type makes every load/store unaligned-safe: SoA
// blocks hand out 64-byte-aligned rows, but kd-tree leaf columns start at
// arbitrary point offsets and the tail loop below peels whatever remains.
void batch_squared_distances_avx2(const double* query, const double* block, int dim,
                                  index_t count, index_t stride, double* out) {
  index_t j = 0;
  for (; j + kLanes <= count; j += kLanes) {
    vdouble4 acc = {0, 0, 0, 0};
    for (int d = 0; d < dim; ++d) {
      const double q = query[d];
      const vdouble4 qv = {q, q, q, q};
      const vdouble4 pv = *reinterpret_cast<const vdouble4*>(
          block + static_cast<std::size_t>(d) * static_cast<std::size_t>(stride) + j);
      const vdouble4 diff = qv - pv;
      acc += diff * diff;
    }
    *reinterpret_cast<vdouble4*>(out + j) = acc;
  }
  if (j < count)  // tail: the scalar loop, same per-point order
    batch_squared_distances_scalar(query, block + j, dim, count - j, stride, out + j);
}

#else  // scalar stand-ins: PANDORA_SIMD=OFF, or no AVX2-capable toolchain

int simd_width_impl() { return 1; }

void batch_squared_distances_avx2(const double* query, const double* block, int dim,
                                  index_t count, index_t stride, double* out) {
  batch_squared_distances_scalar(query, block, dim, count, stride, out);
}

#endif

}  // namespace pandora::spatial::distance::detail

#pragma once

#include <cstddef>

#include "pandora/common/types.hpp"

/// Distance kernels: every spatial hot path (kNN probes, core distances,
/// Borůvka component queries, dyn:: insert probing) bottoms out here.
///
/// Two kernel families:
///
///  * Single-pair squared distances over row-major coordinates, specialised
///    over the paper's Table 2 dimensionalities (2-7) so the compiler fully
///    unrolls the loop, plus a `bounded` variant carrying the early-exit
///    pruning bound the kd-tree probes use (hoisted here so brute_force.cpp,
///    knn.cpp and dyn:: stop duplicating the loop).
///
///  * Batched one-query-to-many-points kernels over dimension-blocked SoA
///    coordinate blocks (`PointSet::soa()`, kd-tree leaf columns): coordinate
///    d of `count` consecutive points is contiguous at `block + d * stride`,
///    so the point loop is unit-stride and vectorizes.  With PANDORA_SIMD=ON
///    an AVX2 path (portable GCC/Clang vector extensions, compiled in its
///    own -mavx2 translation unit and selected at runtime via
///    __builtin_cpu_supports) processes 4 points per lane-group.
///
/// BIT-IDENTITY CONTRACT: every kernel — scalar, auto-vectorized, AVX2 —
/// accumulates each point's sum in ascending dimension order with plain IEEE
/// double adds/multiplies (the build sets -ffp-contract=off, so no FMA
/// contraction can reassociate rounding).  The SIMD path vectorizes ACROSS
/// points, never across dimensions, so each lane performs exactly the scalar
/// op sequence and results are bit-identical across scalar/SIMD and across
/// all execution backends.  test_distance_kernels asserts this on negatives,
/// signed zeros, denormals and infinities; the conformance suite asserts it
/// end-to-end on dendrograms.
namespace pandora::spatial::distance {

namespace detail {

/// AVX2 batch kernel, defined in distance_kernels.cpp (the only TU compiled
/// with -mavx2).  Falls back to the scalar loop when PANDORA_SIMD is OFF or
/// the target/compiler has no AVX2 support.
void batch_squared_distances_avx2(const double* query, const double* block, int dim,
                                  index_t count, index_t stride, double* out);

/// Number of points a lane-group of the compiled-in SIMD batch kernel
/// processes per step on THIS cpu: 4 when the AVX2 path is compiled in and
/// the processor supports it, 1 otherwise (scalar fallback).
[[nodiscard]] int simd_width_impl();

}  // namespace detail

/// Runtime SIMD vector width of `batch_squared_distances` (points per
/// lane-group).  1 means the dispatch resolves to the scalar loop — either
/// PANDORA_SIMD=OFF, a non-x86/AVX2 toolchain, or a cpu without AVX2.  The
/// distance microbench gate only engages when this is >= 4.
[[nodiscard]] inline int simd_vector_width() {
#if defined(PANDORA_SIMD_ENABLED)
  static const int width = detail::simd_width_impl();
  return width;
#else
  return 1;
#endif
}

/// True when `batch_squared_distances` dispatches to a vector path.
[[nodiscard]] inline bool simd_enabled() { return simd_vector_width() > 1; }

/// True when the library was built with PANDORA_SIMD=ON (the AVX2 TU is
/// compiled in; whether it is *used* additionally depends on the cpu).
[[nodiscard]] constexpr bool simd_compiled() {
#if defined(PANDORA_SIMD_ENABLED)
  return true;
#else
  return false;
#endif
}

namespace detail {

/// Fully-unrolled fixed-dimension pair kernel (ascending-d accumulation).
template <int Dim>
[[nodiscard]] inline double squared_distance_fixed(const double* a, const double* b) {
  double sum = 0;
  for (int d = 0; d < Dim; ++d) {  // constant trip count: unrolled, no branch
    const double diff = a[d] - b[d];
    sum += diff * diff;
  }
  return sum;
}

}  // namespace detail

/// Squared Euclidean distance between two row-major coordinate arrays of
/// `dim` entries.  Dims 2-7 (Table 2) dispatch to unrolled bodies; the
/// generic loop covers the rest.  Accumulation order is ascending d in every
/// branch — the order all other kernels replicate.
[[nodiscard]] inline double squared_distance(const double* a, const double* b, int dim) {
  switch (dim) {
    case 2: return detail::squared_distance_fixed<2>(a, b);
    case 3: return detail::squared_distance_fixed<3>(a, b);
    case 4: return detail::squared_distance_fixed<4>(a, b);
    case 5: return detail::squared_distance_fixed<5>(a, b);
    case 6: return detail::squared_distance_fixed<6>(a, b);
    case 7: return detail::squared_distance_fixed<7>(a, b);
    default: {
      double sum = 0;
      for (int d = 0; d < dim; ++d) {
        const double diff = a[d] - b[d];
        sum += diff * diff;
      }
      return sum;
    }
  }
}

/// Squared distance with the kd-tree probes' early-exit pruning bound: stops
/// as soon as the partial sum strictly exceeds `bound` and returns that
/// partial (already > bound, so the caller's "discard when > bound" test is
/// unaffected).  When the result is <= bound it is EXACT and bit-identical
/// to `squared_distance` — partial sums are non-decreasing, so early exit
/// can only fire on pairs the caller discards, never on ties (a tie at
/// exactly `bound` runs to completion and keeps its index-based
/// tie-breaking).  Callers must not store an early-exited value as a
/// distance.
[[nodiscard]] inline double squared_distance_bounded(const double* a, const double* b, int dim,
                                                     double bound) {
  double sum = 0;
  for (int d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    sum += diff * diff;
    if (sum > bound) return sum;
  }
  return sum;
}

/// Scalar reference batch kernel: out[j] = squared distance from `query` to
/// point j of a dimension-blocked SoA block (`block[d * stride + j]` is
/// coordinate d of point j; `count` <= `stride` points are live).  Ascending
/// d per point, identical to `squared_distance`.
inline void batch_squared_distances_scalar(const double* query, const double* block, int dim,
                                           index_t count, index_t stride, double* out) {
  for (index_t j = 0; j < count; ++j) {
    double sum = 0;
    const double* p = block + j;
    for (int d = 0; d < dim; ++d) {
      const double diff = query[d] - p[static_cast<std::size_t>(d) *
                                       static_cast<std::size_t>(stride)];
      sum += diff * diff;
    }
    out[j] = sum;
  }
}

/// The dispatching batch kernel every spatial hot path calls: AVX2 when
/// compiled in and supported by the cpu, the scalar loop otherwise.  Both
/// paths are bit-identical (see the header comment).
inline void batch_squared_distances(const double* query, const double* block, int dim,
                                    index_t count, index_t stride, double* out) {
#if defined(PANDORA_SIMD_ENABLED)
  if (simd_enabled()) {
    detail::batch_squared_distances_avx2(query, block, dim, count, stride, out);
    return;
  }
#endif
  batch_squared_distances_scalar(query, block, dim, count, stride, out);
}

}  // namespace pandora::spatial::distance

// The distance-kernel bit-identity contract (spatial/distance.hpp), the SoA
// stores behind it, and the kd-tree probes wired onto it:
//
//  * scalar vs dispatched batch kernels agree BIT-FOR-BIT, including on
//    negatives, signed zeros, denormals and infinities (compared through
//    bit_cast so NaN outcomes of inf-inf arithmetic are compared too);
//  * every dimensionality, count and block offset exercises the SIMD main
//    loop, its scalar tail, and unaligned leaf-style block starts;
//  * the bounded pair kernel is exact at-or-under its bound (ties run to
//    completion, preserving index tie-breaking) and only over-reports when
//    already discarded;
//  * SoaStore hands out 64-byte-aligned, zero-padded dimension-major blocks
//    and the PointSet mirror invalidates on mutable access;
//  * warm per-query KdTree::knn probes (by rank and by coordinates) perform
//    zero heap allocations.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "pandora/data/point_generators.hpp"
#include "pandora/spatial/distance.hpp"
#include "pandora/spatial/kdtree.hpp"
#include "pandora/spatial/point_set.hpp"

using namespace pandora;
namespace dist = pandora::spatial::distance;

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Row-major points -> dimension-major block with the given stride
/// (coordinate d of point j at block[d * stride + j]).
std::vector<double> to_block(const std::vector<double>& row_major, int dim, index_t count,
                             index_t stride) {
  std::vector<double> block(static_cast<std::size_t>(dim) * static_cast<std::size_t>(stride),
                            0.0);
  for (index_t j = 0; j < count; ++j)
    for (int d = 0; d < dim; ++d)
      block[static_cast<std::size_t>(d) * static_cast<std::size_t>(stride) +
            static_cast<std::size_t>(j)] =
          row_major[static_cast<std::size_t>(j) * static_cast<std::size_t>(dim) +
                    static_cast<std::size_t>(d)];
  return block;
}

}  // namespace

TEST(DistanceKernels, WidthConsistentWithCompiledMode) {
  const int width = dist::simd_vector_width();
  if (!dist::simd_compiled()) {
    EXPECT_EQ(width, 1);
  } else {
    EXPECT_TRUE(width == 1 || width >= 4) << width;  // scalar cpu fallback or a vector path
  }
  EXPECT_EQ(dist::simd_enabled(), width > 1);
}

TEST(DistanceKernels, ScalarAndDispatchBitIdenticalOnSpecials) {
  // Signed zeros, denormals, extremes and infinities: inf coordinates drive
  // inf-inf = NaN through the accumulator, which must come out bit-identical
  // from both paths (x86 scalar and vector subtraction produce the same
  // default quiet NaN).
  const std::vector<double> specials = {
      0.0,   -0.0,  5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
      1e300, -1e300, std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 1.5, -2.25, 3.0};
  const int dim = 3;
  const auto count = static_cast<index_t>(specials.size());
  std::vector<double> row_major(static_cast<std::size_t>(count) * dim);
  for (index_t j = 0; j < count; ++j)
    for (int d = 0; d < dim; ++d)
      row_major[static_cast<std::size_t>(j) * dim + d] =
          specials[static_cast<std::size_t>((j + d * 5) % count)];
  const std::vector<double> block = to_block(row_major, dim, count, count);

  for (const double q0 : specials) {
    const double query[3] = {q0, -q0, 0.5};
    std::vector<double> scalar_out(static_cast<std::size_t>(count));
    std::vector<double> dispatch_out(static_cast<std::size_t>(count));
    dist::batch_squared_distances_scalar(query, block.data(), dim, count, count,
                                         scalar_out.data());
    dist::batch_squared_distances(query, block.data(), dim, count, count, dispatch_out.data());
    for (index_t j = 0; j < count; ++j)
      ASSERT_EQ(bits(scalar_out[static_cast<std::size_t>(j)]),
                bits(dispatch_out[static_cast<std::size_t>(j)]))
          << "q0=" << q0 << " j=" << j;
  }
}

TEST(DistanceKernels, BatchMatchesPairKernelAllDimsAndCounts) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> coord(-3.0, 3.0);
  // Dims cover the unrolled 2-7 specialisations plus the generic loop (1, 9);
  // counts cover empty, sub-vector-width, exact multiples and ragged tails.
  for (int dim = 1; dim <= 9; ++dim) {
    for (index_t count = 0; count <= 17; ++count) {
      std::vector<double> row_major(static_cast<std::size_t>(count) * dim);
      for (double& c : row_major) c = coord(rng);
      std::vector<double> query(static_cast<std::size_t>(dim));
      for (double& c : query) c = coord(rng);
      const std::vector<double> block = to_block(row_major, dim, count, count);

      std::vector<double> scalar_out(static_cast<std::size_t>(count));
      std::vector<double> dispatch_out(static_cast<std::size_t>(count));
      dist::batch_squared_distances_scalar(query.data(), block.data(), dim, count, count,
                                           scalar_out.data());
      dist::batch_squared_distances(query.data(), block.data(), dim, count, count,
                                    dispatch_out.data());
      for (index_t j = 0; j < count; ++j) {
        const double pair = dist::squared_distance(
            query.data(), row_major.data() + static_cast<std::size_t>(j) * dim, dim);
        ASSERT_EQ(bits(scalar_out[static_cast<std::size_t>(j)]), bits(pair))
            << "dim=" << dim << " count=" << count << " j=" << j;
        ASSERT_EQ(bits(dispatch_out[static_cast<std::size_t>(j)]), bits(pair))
            << "dim=" << dim << " count=" << count << " j=" << j;
      }
    }
  }
}

TEST(DistanceKernels, UnalignedBlockStartsMatchScalar) {
  // A kd-tree leaf block can start at any point offset; the kernels must
  // handle block pointers at every alignment (the AVX2 type is declared
  // aligned(8), making unaligned vector loads legal) and ragged tail counts.
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> coord(-1.0, 1.0);
  const int dim = 5;
  const index_t count = 23;
  std::vector<double> row_major(static_cast<std::size_t>(count) * dim);
  for (double& c : row_major) c = coord(rng);
  std::vector<double> query(static_cast<std::size_t>(dim));
  for (double& c : query) c = coord(rng);
  const std::vector<double> block = to_block(row_major, dim, count, count);

  for (index_t j0 = 0; j0 < count; ++j0) {
    const index_t sub = count - j0;  // sub-block [j0, count) at the same stride
    std::vector<double> scalar_out(static_cast<std::size_t>(sub));
    std::vector<double> dispatch_out(static_cast<std::size_t>(sub));
    dist::batch_squared_distances_scalar(query.data(), block.data() + j0, dim, sub, count,
                                         scalar_out.data());
    dist::batch_squared_distances(query.data(), block.data() + j0, dim, sub, count,
                                  dispatch_out.data());
    for (index_t j = 0; j < sub; ++j)
      ASSERT_EQ(bits(scalar_out[static_cast<std::size_t>(j)]),
                bits(dispatch_out[static_cast<std::size_t>(j)]))
          << "j0=" << j0 << " j=" << j;
  }
}

TEST(DistanceKernels, BoundedKernelExactUnderBoundTiesRunToCompletion) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> coord(-2.0, 2.0);
  for (int dim = 1; dim <= 8; ++dim) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<double> a(static_cast<std::size_t>(dim)), b(static_cast<std::size_t>(dim));
      for (double& c : a) c = coord(rng);
      for (double& c : b) c = coord(rng);
      const double full = dist::squared_distance(a.data(), b.data(), dim);
      // Bound above the sum: exact and bit-identical.
      EXPECT_EQ(bits(dist::squared_distance_bounded(a.data(), b.data(), dim, full * 2 + 1)),
                bits(full));
      // Bound EXACTLY the sum (a tie): must run to completion, not early-exit
      // — that is what preserves index tie-breaking in the probes.
      EXPECT_EQ(bits(dist::squared_distance_bounded(a.data(), b.data(), dim, full)),
                bits(full));
      // Bound below the sum: whatever partial comes back must itself exceed
      // the bound, so a "discard when > bound" caller decides identically.
      if (full > 0) {
        const double partial =
            dist::squared_distance_bounded(a.data(), b.data(), dim, full * 0.25);
        EXPECT_GT(partial, full * 0.25);
      }
    }
  }
}

TEST(SoaStore, AlignmentLayoutAndZeroPadding) {
  const int dim = 3;
  const index_t n = 13;  // 8 + ragged 5: exercises the padded tail block
  spatial::PointSet points(dim, n);
  for (index_t p = 0; p < n; ++p)
    for (int d = 0; d < dim; ++d)
      points.at(p, d) = static_cast<double>(p * 10 + d) + 0.25;

  const std::shared_ptr<const spatial::SoaStore> soa = points.soa();
  ASSERT_EQ(soa->size(), n);
  ASSERT_EQ(soa->dim(), dim);
  ASSERT_EQ(soa->num_blocks(), 2);
  EXPECT_EQ(soa->block_size(0), spatial::SoaStore::kLane);
  EXPECT_EQ(soa->block_size(1), n - spatial::SoaStore::kLane);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(soa->data()) % 64, 0u);
  for (index_t b = 0; b < soa->num_blocks(); ++b)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(soa->block(b)) % 64, 0u);

  const spatial::PointSet& const_points = points;
  for (index_t p = 0; p < n; ++p) {
    const index_t b = p / spatial::SoaStore::kLane;
    const index_t lane = p % spatial::SoaStore::kLane;
    for (int d = 0; d < dim; ++d)
      EXPECT_EQ(soa->block(b)[static_cast<std::size_t>(d) * spatial::SoaStore::kLane +
                              static_cast<std::size_t>(lane)],
                const_points.at(p, d));
  }
  // Tail lanes of the last block are zero so kernels may safely load them.
  for (index_t lane = soa->block_size(1); lane < spatial::SoaStore::kLane; ++lane)
    for (int d = 0; d < dim; ++d)
      EXPECT_EQ(soa->block(1)[static_cast<std::size_t>(d) * spatial::SoaStore::kLane +
                              static_cast<std::size_t>(lane)],
                0.0);
}

TEST(SoaStore, PointSetMirrorInvalidatesOnMutableAccess) {
  spatial::PointSet points(2, 4);
  for (index_t p = 0; p < 4; ++p)
    for (int d = 0; d < 2; ++d) points.at(p, d) = static_cast<double>(p + d);

  const auto first = points.soa();
  EXPECT_EQ(points.soa().get(), first.get());  // cached while untouched
  points.at(2, 1) = 99.5;                      // mutable access invalidates
  const auto rebuilt = points.soa();
  EXPECT_NE(rebuilt.get(), first.get());
  EXPECT_EQ(rebuilt->block(0)[1 * spatial::SoaStore::kLane + 2], 99.5);
  // The original mirror is immutable: old readers still see the old value.
  EXPECT_EQ(first->block(0)[1 * spatial::SoaStore::kLane + 2], 3.0);
}

TEST(KdTreeKnn, WarmQueriesAllocateNothing) {
  const spatial::PointSet points = data::uniform_points(2000, 3, 99);
  const spatial::KdTree tree(points, /*leaf_size=*/16);
  const auto probe = [&](std::vector<spatial::Neighbor>& out) {
    for (index_t r = 0; r < 64; ++r) {
      tree.knn(r, 8, out);
      tree.knn(points.point(r), 8, out);
    }
  };

  std::vector<spatial::Neighbor> out;
  probe(out);  // warm: result capacity + thread_local scratch
  probe(out);

  pandora::testing::AllocationCounterScope scope;
  probe(out);
  EXPECT_EQ(scope.count(), 0u) << "warm per-query kNN must not touch the heap";
}

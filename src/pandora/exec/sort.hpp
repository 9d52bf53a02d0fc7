#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"

/// Sorting: `radix_sort_u64`, a stable LSD radix sort over packed 64-bit
/// keys, optionally restricted to a byte range.  It carries the sort of the
/// hot path: through the order-preserving key transforms below, the initial
/// descending-weight edge sort (Section 3.1.1), where the sort key occupies the high bits
/// and the original edge id rides in the low bits so that radixing only the
/// key bytes leaves the ids as the stable tie-break.  This mirrors the
/// paper's observation that GPU dendrogram time is dominated by sorts and
/// that radix-style sorts are the best-scaling primitive (Figure 12).  (The
/// paper's second sort, by (chain, edge) in the expansion stage, is an
/// owner-computes pass here; see expand_multilevel.)
///
/// Every backend and thread count runs the same chunked histogram/scatter
/// passes through `Executor::run_chunks`: one chunk below the parallel grain
/// or on a one-thread executor, `num_threads()` chunks otherwise.  All
/// scratch (the ping-pong buffer, per-chunk histograms) is leased from the
/// Executor's Workspace, so repeated sorts on same-sized inputs allocate
/// nothing after the first call.
namespace pandora::exec {

/// Stable LSD radix sort of 64-bit keys, ascending, over the byte range
/// [first_byte, last_byte) (byte 0 is least significant).  Restricting the
/// range turns the sort into a key-value sort whose key and value share one
/// word: sorting only bytes [4, 8) of `(key32 << 32) | value32` words orders
/// by key32 while stability preserves the pre-sort order of equal keys —
/// which is ascending value32 when the caller packed values in that order.
/// Byte positions that are constant across the keys are skipped, so keys
/// bounded by 2^k cost ceil(k/8) scatter passes.
void radix_sort_u64(const Executor& exec, std::span<std::uint64_t> keys, int first_byte = 0,
                    int last_byte = 8);

// --- order-preserving key transforms ---------------------------------------
//
// The IEEE-754 "sign-flip trick": reinterpret the float's bits as an unsigned
// integer, then flip the sign bit for non-negative values and ALL bits for
// negative values.  The result compares (as an unsigned integer) exactly like
// the float compares, for every finite value including denormals and for
// ±infinity.  ±0.0 must be canonicalised first (they compare equal as floats
// but have different bit patterns).  NaNs have no total order and are
// excluded by input validation.

/// Order-preserving u32 key of a float (ascending).
[[nodiscard]] inline std::uint32_t order_preserving_key32(float value) {
  if (value == 0.0f) value = 0.0f;  // -0.0f -> +0.0f
  const auto bits = std::bit_cast<std::uint32_t>(value);
  return bits ^ ((bits >> 31) != 0 ? ~std::uint32_t{0} : std::uint32_t{1} << 31);
}

/// Order-preserving u64 key of a double (ascending).
[[nodiscard]] inline std::uint64_t order_preserving_key64(double value) {
  if (value == 0.0) value = 0.0;  // -0.0 -> +0.0
  const auto bits = std::bit_cast<std::uint64_t>(value);
  return bits ^ ((bits >> 63) != 0 ? ~std::uint64_t{0} : std::uint64_t{1} << 63);
}

/// Order-preserving u64 key of a double for DESCENDING sorts (larger weight
/// -> smaller key), the order of the Section 3.1.1 edge sort.
[[nodiscard]] inline std::uint64_t descending_weight_key(double weight) {
  return ~order_preserving_key64(weight);
}

/// Packs a descending weight key with an edge id: the id replaces the key's
/// low `id_bits` bits (`id` must be below 2^id_bits).  Radix-sorting the
/// packed words over the key bytes orders by the (64 - id_bits)-bit key
/// prefix while stability keeps equal prefixes in ascending id order — the
/// canonical tie-break.  Equal prefixes with *differing* low key bits are
/// not rare at 32 id bits (24% of the edges of a 1M-point Normal2D MR-MST),
/// so sort_edges packs only the id bits the edge count needs and repairs the
/// runs that remain.
[[nodiscard]] inline std::uint64_t pack_key_and_id(std::uint64_t descending_key, index_t id,
                                                   int id_bits = 32) {
  const std::uint64_t id_mask = (std::uint64_t{1} << id_bits) - 1;
  return (descending_key & ~id_mask) | static_cast<std::uint32_t>(id);
}

/// Maps a non-negative double to a u64 preserving order (IEEE-754 bit trick;
/// valid because distances/weights in this library are >= 0).  Prefer
/// order_preserving_key64, which also handles negative values.
[[nodiscard]] inline std::uint64_t order_preserving_bits(double non_negative) {
  return std::bit_cast<std::uint64_t>(non_negative);
}

}  // namespace pandora::exec

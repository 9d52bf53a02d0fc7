#pragma once

#include <cstdint>

/// Fingerprint arithmetic shared by every artifact-cache key in the library.
///
/// Cacheable artifacts (SortedEdges, kd-trees, core distances, dendrograms)
/// are keyed on a 64-bit fingerprint of their *inputs*: a content hash of the
/// bulk data combined with every parameter that changes the artifact.  Two
/// sweeps differing in any parameter (`min_pts`, `leaf_size`, the expansion
/// policy, ...) must never alias, so parameters are folded in with the full
/// SplitMix64 finaliser rather than a cheap xor — a single-bit parameter
/// change reshuffles the whole key.  Each artifact kind additionally salts
/// with its own `ArtifactTag`, so e.g. a kd-tree and the core distances of
/// the same point set can never collide even before the type check the
/// ArtifactCache performs.
namespace pandora::exec {

/// SplitMix64 finaliser: a cheap, well-distributed 64-bit mixer.
[[nodiscard]] constexpr std::uint64_t mix_fingerprint(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Folds `value` (a parameter or another fingerprint) into `seed`.
/// Non-commutative on purpose: combine(a, b) != combine(b, a), so parameter
/// order is part of the key.
[[nodiscard]] constexpr std::uint64_t combine_fingerprint(std::uint64_t seed,
                                                          std::uint64_t value) {
  return mix_fingerprint(seed + 0x9e3779b97f4a7c15ULL + mix_fingerprint(value));
}

/// Per-artifact-kind salts (arbitrary distinct odd constants).
enum class ArtifactTag : std::uint64_t {
  sorted_edges = 0x5045a1c3d5e7f911ULL,
  kdtree = 0x6b7d9fa1c3e5071bULL,
  core_distance = 0x7c8fab1d3f516273ULL,
  dendrogram = 0x8da1bd2f41536475ULL,
  emst = 0x9eb3cf4153657587ULL,
};

[[nodiscard]] constexpr std::uint64_t tagged_fingerprint(ArtifactTag tag,
                                                         std::uint64_t fingerprint) {
  return combine_fingerprint(static_cast<std::uint64_t>(tag), fingerprint);
}

}  // namespace pandora::exec

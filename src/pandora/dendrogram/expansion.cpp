#include "pandora/dendrogram/expansion.hpp"

#include <cstdint>
#include <vector>

#include "pandora/exec/parallel.hpp"
#include "pandora/exec/sort.hpp"

namespace pandora::dendrogram {

namespace {

/// Packs a chain key (>= -2) and an edge index into one sortable u64.
/// Root-chain entries (key -2) sort first, so the heaviest root-chain edge —
/// the global root — lands at position 0.
std::uint64_t pack(std::int64_t chain_key, index_t edge) {
  return (static_cast<std::uint64_t>(chain_key + 2) << 32) | static_cast<std::uint32_t>(edge);
}

constexpr std::int64_t kRootChain = -2;

/// Turns the (chain, index)-sorted entries into parent pointers:
/// chain boundaries attach to the chain's defining edge (or nothing, for the
/// root chain); interior entries attach to their predecessor.
void stitch_chains(const exec::Executor& exec, std::span<const std::uint64_t> packed,
                   std::span<index_t> edge_parent) {
  const size_type count = static_cast<size_type>(packed.size());
  exec::parallel_for(exec, count, [&](size_type p) {
    const std::uint64_t entry = packed[static_cast<std::size_t>(p)];
    const auto edge = static_cast<index_t>(entry & 0xffffffffu);
    const std::uint64_t key_hi = entry >> 32;
    const bool chain_first =
        p == 0 || (packed[static_cast<std::size_t>(p - 1)] >> 32) != key_hi;
    if (chain_first) {
      const std::int64_t chain_key = static_cast<std::int64_t>(key_hi) - 2;
      edge_parent[static_cast<std::size_t>(edge)] =
          chain_key == kRootChain ? kNone : static_cast<index_t>(chain_key >> 1);
    } else {
      edge_parent[static_cast<std::size_t>(edge)] =
          static_cast<index_t>(packed[static_cast<std::size_t>(p - 1)] & 0xffffffffu);
    }
  });
}

}  // namespace

void expand_multilevel(const exec::Executor& exec, const ContractionHierarchy& hierarchy,
                       std::span<index_t> edge_parent) {
  const size_type n_global = hierarchy.num_global_edges;
  const index_t num_levels = hierarchy.num_levels();
  exec::Workspace& workspace = exec.workspace();

  // One packed (chain, edge) entry per edge, in ascending edge order.
  auto packed_lease = workspace.take_uninit<std::uint64_t>(n_global);
  const std::span<std::uint64_t> packed = packed_lease.span();
  {
    const exec::ScopedPhase phase(exec, "expansion");
    exec::parallel_for(exec, n_global, [&](size_type gi) {
      const auto g = static_cast<index_t>(gi);
      const index_t k = hierarchy.contraction_level[static_cast<std::size_t>(g)];
      const index_t sv = hierarchy.supervertex[static_cast<std::size_t>(g)];

      std::int64_t chain_key = kRootChain;
      if (sv != kNone) {
        // Scan levels upward for the first supervertex whose dendrogram
        // parent is heavier (smaller global index) than g — Section 3.3.2.
        index_t m = k + 1;
        index_t vertex = sv;
        for (;;) {
          const ContractionLevel& level = hierarchy.levels[static_cast<std::size_t>(m)];
          const std::int64_t sided = level.sided_parent[static_cast<std::size_t>(vertex)];
          if (static_cast<index_t>(sided >> 1) < g) {
            chain_key = sided;
            break;
          }
          if (m + 1 >= num_levels) break;  // exhausted: root chain
          vertex = level.vertex_map[static_cast<std::size_t>(vertex)];
          ++m;
        }
      }
      packed[static_cast<std::size_t>(gi)] = pack(chain_key, g);
    });
  }
  {
    // The sort is stable, so radixing the chain-key bytes alone keeps each
    // chain in ascending edge order.
    const exec::ScopedPhase phase(exec, "sort");
    exec::radix_sort_u64(exec, packed, /*first_byte=*/4, /*last_byte=*/8);
  }
  const exec::ScopedPhase phase(exec, "expansion");
  stitch_chains(exec, packed, edge_parent);
}

}  // namespace pandora::dendrogram

#include "pandora/dendrogram/expansion.hpp"

#include <cstdint>

#include "pandora/exec/parallel.hpp"

namespace pandora::dendrogram {

void expand_multilevel(const exec::Executor& exec, const ContractionHierarchy& hierarchy,
                       std::span<index_t> edge_parent) {
  const size_type n_global = hierarchy.num_global_edges;
  const index_t num_levels = hierarchy.num_levels();
  exec::Workspace& workspace = exec.workspace();
  const exec::ScopedPhase phase(exec, "expansion");

  // Chain slot of every edge: 0 for the root chain, 2*edge + side + 1 for the
  // chain hanging below that side of that edge (at most 2*n_global + 1 slots,
  // which fits 32 unsigned bits for any 32-bit edge count).
  const size_type num_slots = 2 * n_global + 1;
  auto slot_lease = workspace.take_uninit<std::uint32_t>(n_global);
  const std::span<std::uint32_t> slot = slot_lease.span();
  exec::parallel_for(exec, n_global, [&](size_type gi) {
    const auto g = static_cast<index_t>(gi);
    const index_t k = hierarchy.contraction_level[static_cast<std::size_t>(g)];
    const index_t sv = hierarchy.supervertex[static_cast<std::size_t>(g)];

    std::uint32_t chain = 0;  // root chain
    if (sv != kNone) {
      // Scan levels upward for the first supervertex whose dendrogram
      // parent is heavier (smaller global index) than g — Section 3.3.2.
      index_t m = k + 1;
      index_t vertex = sv;
      for (;;) {
        const ContractionLevel& level = hierarchy.levels[static_cast<std::size_t>(m)];
        const std::int64_t sided = level.sided_parent[static_cast<std::size_t>(vertex)];
        if (static_cast<index_t>(sided >> 1) < g) {
          chain = static_cast<std::uint32_t>(sided + 1);
          break;
        }
        if (m + 1 >= num_levels) break;  // exhausted: root chain
        vertex = level.vertex_map[static_cast<std::size_t>(vertex)];
        ++m;
      }
    }
    slot[static_cast<std::size_t>(gi)] = chain;
  });

  // Stitch every chain in ascending edge order (Section 3.3.3's sort, done
  // by ownership instead): `last[s]` holds the latest edge placed on chain s,
  // starting from the chain's defining edge (none for the root chain).  Each
  // edge attaches to `last` of its slot and becomes it.  Chunks own slot
  // ranges and stream the slots of all edges, so each edge is written by
  // exactly one chunk.
  auto last_lease = workspace.take_uninit<index_t>(num_slots);
  const std::span<index_t> last = last_lease.span();
  exec::parallel_for(exec, num_slots, [&](size_type s) {
    last[static_cast<std::size_t>(s)] = s == 0 ? kNone : static_cast<index_t>((s - 1) >> 1);
  });
  exec::parallel_for_owned(exec, num_slots, n_global, [&](size_type g, const exec::OwnedRange& owned) {
    const size_type s = slot[static_cast<std::size_t>(g)];
    if (!owned.contains(s)) return;
    edge_parent[static_cast<std::size_t>(g)] = last[static_cast<std::size_t>(s)];
    last[static_cast<std::size_t>(s)] = static_cast<index_t>(g);
  });
}

}  // namespace pandora::dendrogram

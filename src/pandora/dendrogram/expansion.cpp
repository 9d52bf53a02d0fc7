#include "pandora/dendrogram/expansion.hpp"

#include <cstdint>
#include <vector>

#include "pandora/exec/parallel.hpp"
#include "pandora/exec/scan.hpp"
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

  exec::Workspace::Lease<std::uint64_t> packed_lease;
  {
    const exec::ScopedPhase phase(exec, "expansion");
    // Chain assignment: one entry per edge present in the hierarchy.
    // (When expanding a sub-hierarchy — the single-level path — only some
    // global indices are present; absent ones have contraction_level == kNone.)
    auto present_lease = workspace.take_uninit<index_t>(n_global);
    const std::span<index_t> present = present_lease.span();
    exec::parallel_for(exec, n_global, [&](size_type g) {
      present[static_cast<std::size_t>(g)] =
          hierarchy.contraction_level[static_cast<std::size_t>(g)] != kNone ? 1 : 0;
    });
    auto slot_lease = workspace.take_uninit<index_t>(n_global);
    const std::span<index_t> slot = slot_lease.span();
    const index_t num_present =
        exec::exclusive_scan<index_t>(exec, std::span<const index_t>(present), slot);

    packed_lease = workspace.take_uninit<std::uint64_t>(num_present);
    const std::span<std::uint64_t> packed = packed_lease.span();
    exec::parallel_for(exec, n_global, [&](size_type gi) {
      if (!present[static_cast<std::size_t>(gi)]) return;
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
      packed[static_cast<std::size_t>(slot[static_cast<std::size_t>(gi)])] = pack(chain_key, g);
    });
  }
  {
    const exec::ScopedPhase phase(exec, "sort");
    exec::radix_sort_u64(exec, packed_lease.span());
  }
  const exec::ScopedPhase phase(exec, "expansion");
  stitch_chains(exec, packed_lease.span(), edge_parent);
}

void expand_single_level(const exec::Executor& exec, const SortedEdges& sorted,
                         std::span<index_t> edge_parent) {
  const index_t n = sorted.num_edges();
  exec::Workspace& workspace = exec.workspace();

  detail::LevelResult base = [&] {
    const exec::ScopedPhase phase(exec, "contraction");
    // Empty gid: the base level's edges carry their identity global indices.
    return detail::contract_one_level(exec, sorted.u, sorted.v, {}, sorted.num_vertices);
  }();

  if (base.level.num_alpha == 0) {
    // Chain-only tree: the whole dendrogram is the root chain.
    const exec::ScopedPhase phase(exec, "expansion");
    auto packed_lease = workspace.take_uninit<std::uint64_t>(n);
    const std::span<std::uint64_t> packed = packed_lease.span();
    exec::parallel_for(exec, n, [&](size_type g) {
      packed[static_cast<std::size_t>(g)] = pack(kRootChain, static_cast<index_t>(g));
    });
    exec::radix_sort_u64(exec, packed);
    stitch_chains(exec, packed, edge_parent);
    return;
  }

  // Full dendrogram of the α-MST via the multilevel machinery (the paper
  // computes it "recursively applying the same edge contraction strategy").
  const ContractionHierarchy alpha_hierarchy = [&] {
    const exec::ScopedPhase phase(exec, "contraction");
    return build_hierarchy(exec, base.next_u, base.next_v, base.next_gid,
                           base.next_num_vertices, n);
  }();
  auto alpha_parent_lease = workspace.take<index_t>(n, kNone);
  const std::span<index_t> alpha_parent = alpha_parent_lease.span();
  expand_multilevel(exec, alpha_hierarchy, alpha_parent);

  // Walk-up insertion of every non-α edge (Section 3.3.1, Figure 10).
  // The "slot" an edge lands in is the dendrogram node directly *below* its
  // final position: either an α-edge, or the α-vertex it was contracted into
  // when the walk stops at the very first step.  Encoding: edges as
  // themselves, α-vertex V as n + V.
  const exec::ScopedPhase phase(exec, "expansion");
  const std::span<const std::int64_t> sided1 = alpha_hierarchy.levels[0].sided_parent;
  const size_type n64 = n;
  auto packed_lease = workspace.take_uninit<std::uint64_t>(n - base.level.num_alpha);
  const std::span<std::uint64_t> packed = packed_lease.span();
  {
    auto non_alpha_lease = workspace.take<index_t>(n, 0);
    const std::span<index_t> non_alpha = non_alpha_lease.span();
    exec::parallel_for(exec, n64, [&](size_type i) {
      non_alpha[static_cast<std::size_t>(i)] = base.alpha[static_cast<std::size_t>(i)] ? 0 : 1;
    });
    auto pos_lease = workspace.take_uninit<index_t>(n);
    const std::span<index_t> pos = pos_lease.span();
    exec::exclusive_scan<index_t>(exec, std::span<const index_t>(non_alpha), pos);

    exec::parallel_for(exec, n64, [&](size_type i) {
      if (base.alpha[static_cast<std::size_t>(i)]) return;
      const auto g = static_cast<index_t>(i);
      const index_t supervertex =
          base.level.vertex_map[static_cast<std::size_t>(sorted.u[static_cast<std::size_t>(i)])];
      index_t below = n + supervertex;  // slot: start at the α-vertex node
      index_t cur =
          static_cast<index_t>(sided1[static_cast<std::size_t>(supervertex)] >> 1);
      while (cur != kNone && cur > g) {
        below = cur;
        cur = alpha_parent[static_cast<std::size_t>(cur)];
      }
      packed[static_cast<std::size_t>(pos[static_cast<std::size_t>(i)])] =
          (static_cast<std::uint64_t>(below) << 32) | static_cast<std::uint32_t>(g);
    });
  }
  exec::radix_sort_u64(exec, packed);

  // Stitch the inserted chains and re-hang the α-edges below them.
  // Reads go to the immutable α-dendrogram (`alpha_parent`), writes to the
  // output, so the slot rewrites cannot race with the boundary reads.
  const size_type count = static_cast<size_type>(packed.size());
  exec::parallel_for(exec, count, [&](size_type p) {
    const auto edge = static_cast<index_t>(packed[static_cast<std::size_t>(p)] & 0xffffffffu);
    const auto below =
        static_cast<index_t>(packed[static_cast<std::size_t>(p)] >> 32);
    const bool first =
        p == 0 || (packed[static_cast<std::size_t>(p - 1)] >> 32) !=
                      (packed[static_cast<std::size_t>(p)] >> 32);
    const bool last =
        p + 1 == count || (packed[static_cast<std::size_t>(p + 1)] >> 32) !=
                              (packed[static_cast<std::size_t>(p)] >> 32);
    if (first) {
      // The node above the group: the α-vertex's sided parent for vertex
      // slots, the α-edge's old dendrogram parent for edge slots.
      edge_parent[static_cast<std::size_t>(edge)] =
          below >= n ? static_cast<index_t>(sided1[static_cast<std::size_t>(below - n)] >> 1)
                     : alpha_parent[static_cast<std::size_t>(below)];
    } else {
      edge_parent[static_cast<std::size_t>(edge)] =
          static_cast<index_t>(packed[static_cast<std::size_t>(p - 1)] & 0xffffffffu);
    }
    if (last && below < n) {
      // The α-edge now hangs below the lightest inserted edge of its group.
      edge_parent[static_cast<std::size_t>(below)] = edge;
    }
  });

  // α-edges whose slot was never rewritten keep their α-dendrogram parent.
  auto rewritten_lease = workspace.take<index_t>(n, 0);
  const std::span<index_t> rewritten = rewritten_lease.span();
  exec::parallel_for(exec, count, [&](size_type p) {
    const auto below = static_cast<index_t>(packed[static_cast<std::size_t>(p)] >> 32);
    if (below < n) rewritten[static_cast<std::size_t>(below)] = 1;
  });
  exec::parallel_for(exec, n64, [&](size_type i) {
    if (base.alpha[static_cast<std::size_t>(i)] && !rewritten[static_cast<std::size_t>(i)])
      edge_parent[static_cast<std::size_t>(i)] = alpha_parent[static_cast<std::size_t>(i)];
  });
}

}  // namespace pandora::dendrogram

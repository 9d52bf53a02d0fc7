#include "pandora/dendrogram/contraction.hpp"

#include <utility>

#include "pandora/common/expect.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/scan.hpp"
#include "pandora/graph/union_find.hpp"

namespace pandora::dendrogram {

namespace {

/// Levels at least halve (every vertex is an endpoint of its max-incident
/// edge, which is non-α, so every contraction merges each vertex into a
/// >= 2-vertex supervertex).  40 levels therefore cover any 32-bit input.
constexpr index_t kMaxLevels = 40;

/// Scratch leased once per hierarchy (at base-level sizes; deeper levels use
/// prefixes), so repeated builds on one Executor allocate nothing.
struct ContractionScratch {
  ContractionScratch(exec::Workspace& workspace, index_t num_vertices, size_type num_edges)
      : max_incident(workspace.take_uninit<index_t>(num_vertices)),
        representative(workspace.take_uninit<index_t>(num_vertices)),
        new_id(workspace.take_uninit<index_t>(num_vertices)),
        position(workspace.take_uninit<index_t>(num_edges)),
        uf_parent(workspace.take_uninit<index_t>(num_vertices)) {}

  exec::Workspace::Lease<index_t> max_incident;
  exec::Workspace::Lease<index_t> representative;
  exec::Workspace::Lease<index_t> new_id;
  exec::Workspace::Lease<index_t> position;
  exec::Workspace::Lease<index_t> uf_parent;
};

/// Caller-provided destinations of one level's outputs.
struct LevelOutput {
  std::span<std::int64_t> sided_parent;                  ///< size num_vertices
  std::span<index_t> vertex_map;                         ///< size num_vertices
  std::span<index_t> alpha;                              ///< size num_edges
  std::span<index_t> next_u, next_v, next_gid;           ///< capacity >= num_alpha
};

struct LevelCounts {
  index_t num_alpha = 0;
  index_t next_num_vertices = 0;
};

/// The contraction kernel of one level, writing through `out`.  An empty
/// `gid` denotes the identity mapping (edge i has global index i).
LevelCounts contract_level_core(const exec::Executor& exec, std::span<const index_t> u,
                                std::span<const index_t> v, std::span<const index_t> gid,
                                index_t num_vertices, const LevelOutput& out,
                                ContractionScratch& scratch) {
  const size_type m = static_cast<size_type>(u.size());
  const size_type nv = num_vertices;
  const bool identity_gid = gid.empty();
  const auto gid_of = [&](size_type i) {
    return identity_gid ? static_cast<index_t>(i) : gid[static_cast<std::size_t>(i)];
  };
  LevelCounts counts;

  // maxIncident(vertex): the incident edge with the largest global index
  // (= the lightest incident edge).  Idempotent atomic-max scatter.
  const std::span<index_t> max_incident = scratch.max_incident.span().first(nv);
  exec::parallel_for(exec, nv, [&](size_type x) { max_incident[x] = kNone; });
  exec::parallel_for(exec, m, [&](size_type i) {
    const index_t g = gid_of(i);
    exec::atomic_fetch_max(max_incident[static_cast<std::size_t>(u[static_cast<std::size_t>(i)])], g);
    exec::atomic_fetch_max(max_incident[static_cast<std::size_t>(v[static_cast<std::size_t>(i)])], g);
  });

  // Fused pass: sided parents (Eq. 1), α classification (Eq. 2) and the
  // α count.  Every vertex's sided slot has exactly one writer (the winning
  // edge), so no initialisation fill is needed.
  counts.num_alpha = static_cast<index_t>(exec::parallel_sum(
      exec, m, size_type{0}, [&](size_type i) -> size_type {
        const index_t g = gid_of(i);
        const index_t a = u[static_cast<std::size_t>(i)];
        const index_t b = v[static_cast<std::size_t>(i)];
        const bool owns_a = max_incident[static_cast<std::size_t>(a)] == g;
        const bool owns_b = max_incident[static_cast<std::size_t>(b)] == g;
        if (owns_a) out.sided_parent[static_cast<std::size_t>(a)] =
            2 * static_cast<std::int64_t>(g);
        if (owns_b) out.sided_parent[static_cast<std::size_t>(b)] =
            2 * static_cast<std::int64_t>(g) + 1;
        const index_t is_alpha = (!owns_a && !owns_b) ? 1 : 0;
        out.alpha[static_cast<std::size_t>(i)] = is_alpha;
        return is_alpha;
      }));

  if (counts.num_alpha == 0) return counts;  // final, chain-only level

  // Contract every non-α edge: merge its endpoints into a supervertex.
  const std::span<index_t> uf_parent = scratch.uf_parent.span().first(nv);
  exec::parallel_for(exec, nv, [&](size_type x) { uf_parent[x] = static_cast<index_t>(x); });
  graph::ConcurrentUnionFindView uf(uf_parent);
  exec::parallel_for(exec, m, [&](size_type i) {
    if (!out.alpha[static_cast<std::size_t>(i)])
      uf.unite(u[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i)]);
  });

  // Compact the component representatives into dense next-level vertex ids:
  // one find per vertex, reused for both the root flags and the relabelling.
  const std::span<index_t> representative = scratch.representative.span().first(nv);
  const std::span<index_t> new_id = scratch.new_id.span().first(nv);
  exec::parallel_for(exec, nv, [&](size_type x) {
    const index_t rep = uf.find(static_cast<index_t>(x));
    representative[static_cast<std::size_t>(x)] = rep;
    new_id[static_cast<std::size_t>(x)] = rep == x ? 1 : 0;
  });
  counts.next_num_vertices = exec::exclusive_scan<index_t>(
      exec, std::span<const index_t>(new_id), new_id);
  exec::parallel_for(exec, nv, [&](size_type x) {
    out.vertex_map[static_cast<std::size_t>(x)] =
        new_id[static_cast<std::size_t>(representative[static_cast<std::size_t>(x)])];
  });

  // Emit the contracted tree: α-edges with relabelled endpoints, in the same
  // (global-index) relative order for determinism.  The α bound
  // num_alpha <= (m-1)/2 holds for trees; reject anything that exceeds the
  // caller's buffers (multigraphs, forests) instead of scattering past them.
  PANDORA_EXPECT(static_cast<std::size_t>(counts.num_alpha) <= out.next_u.size(),
                 "input is not a tree: alpha-edge count exceeds the contraction bound");
  const std::span<index_t> position = scratch.position.span().first(m);
  exec::exclusive_scan<index_t>(exec, std::span<const index_t>(out.alpha), position);
  exec::parallel_for(exec, m, [&](size_type i) {
    if (!out.alpha[static_cast<std::size_t>(i)]) return;
    const auto p = static_cast<std::size_t>(position[static_cast<std::size_t>(i)]);
    out.next_u[p] = out.vertex_map[static_cast<std::size_t>(u[static_cast<std::size_t>(i)])];
    out.next_v[p] = out.vertex_map[static_cast<std::size_t>(v[static_cast<std::size_t>(i)])];
    out.next_gid[p] = gid_of(i);
  });
  return counts;
}

}  // namespace

ContractionHierarchy build_hierarchy(const exec::Executor& exec, std::span<const index_t> u,
                                     std::span<const index_t> v, std::span<const index_t> gid,
                                     index_t num_vertices, index_t num_global_edges) {
  exec::Workspace& workspace = exec.workspace();
  const size_type m0 = static_cast<size_type>(u.size());
  PANDORA_EXPECT(gid.empty() || static_cast<size_type>(gid.size()) == m0,
                 "gid must be empty (identity) or cover every edge");

  ContractionHierarchy h;
  h.num_global_edges = num_global_edges;
  h.levels_store = workspace.take_uninit<ContractionLevel>(kMaxLevels);
  h.sided_store = workspace.take_uninit<std::int64_t>(2 * static_cast<size_type>(num_vertices));
  h.map_store = workspace.take_uninit<index_t>(2 * static_cast<size_type>(num_vertices));
  h.fate_store = workspace.take_uninit<index_t>(2 * static_cast<size_type>(num_global_edges));
  const std::span<index_t> contraction_level =
      h.fate_store.span().first(static_cast<std::size_t>(num_global_edges));
  const std::span<index_t> supervertex =
      h.fate_store.span().subspan(static_cast<std::size_t>(num_global_edges));
  exec::parallel_for(exec, 2 * static_cast<size_type>(num_global_edges),
                     [&](size_type i) { h.fate_store[static_cast<std::size_t>(i)] = kNone; });

  // Ping-pong buffers for the contracted (u, v, gid) triples; level k+1 has
  // at most (m_k - 1)/2 edges, so half the base size bounds every level.
  const size_type next_capacity = m0 / 2 + 1;
  exec::Workspace::Lease<index_t> buffer_a = workspace.take_uninit<index_t>(3 * next_capacity);
  exec::Workspace::Lease<index_t> buffer_b = workspace.take_uninit<index_t>(3 * next_capacity);
  exec::Workspace::Lease<index_t> alpha = workspace.take_uninit<index_t>(m0);
  ContractionScratch scratch(workspace, num_vertices, m0);

  std::span<const index_t> cur_u = u;
  std::span<const index_t> cur_v = v;
  std::span<const index_t> cur_gid = gid;  // empty = identity at the base level
  index_t cur_nv = num_vertices;
  index_t num_levels = 0;
  std::size_t vertex_offset = 0;  // into sided_store / map_store
  bool write_a = true;

  while (true) {
    const size_type m = static_cast<size_type>(cur_u.size());
    PANDORA_EXPECT(num_levels < kMaxLevels, "contraction exceeded its level bound");
    // Levels halve on trees, so the flat per-vertex storage is bounded by
    // 2*num_vertices; a non-halving input (a forest) would walk past it.
    PANDORA_EXPECT(vertex_offset + static_cast<std::size_t>(cur_nv) <=
                       h.sided_store.size(),
                   "input is not a spanning tree: contraction does not shrink");
    LevelOutput out;
    out.sided_parent =
        h.sided_store.span().subspan(vertex_offset, static_cast<std::size_t>(cur_nv));
    out.vertex_map = h.map_store.span().subspan(vertex_offset, static_cast<std::size_t>(cur_nv));
    out.alpha = alpha.span().first(static_cast<std::size_t>(m));
    const std::span<index_t> next = (write_a ? buffer_a : buffer_b).span();
    out.next_u = next.first(static_cast<std::size_t>(next_capacity));
    out.next_v = next.subspan(static_cast<std::size_t>(next_capacity),
                              static_cast<std::size_t>(next_capacity));
    out.next_gid = next.subspan(static_cast<std::size_t>(2 * next_capacity),
                                static_cast<std::size_t>(next_capacity));

    const LevelCounts counts =
        contract_level_core(exec, cur_u, cur_v, cur_gid, cur_nv, out, scratch);
    const index_t level_index = num_levels;
    const bool identity_gid = cur_gid.empty();
    const auto gid_of = [&](size_type i) {
      return identity_gid ? static_cast<index_t>(i) : cur_gid[static_cast<std::size_t>(i)];
    };

    ContractionLevel level;
    level.num_vertices = cur_nv;
    level.num_edges = static_cast<index_t>(m);
    level.num_alpha = counts.num_alpha;
    level.sided_parent = out.sided_parent;

    if (counts.num_alpha == 0) {
      // Final level: its edges form the root chain of the dendrogram.
      exec::parallel_for(exec, m, [&](size_type i) {
        contraction_level[static_cast<std::size_t>(gid_of(i))] = level_index;
      });
      h.levels_store[static_cast<std::size_t>(num_levels++)] = level;
      break;
    }

    level.vertex_map = out.vertex_map;
    exec::parallel_for(exec, m, [&](size_type i) {
      if (out.alpha[static_cast<std::size_t>(i)]) return;
      const index_t g = gid_of(i);
      contraction_level[static_cast<std::size_t>(g)] = level_index;
      supervertex[static_cast<std::size_t>(g)] =
          out.vertex_map[static_cast<std::size_t>(cur_u[static_cast<std::size_t>(i)])];
    });
    h.levels_store[static_cast<std::size_t>(num_levels++)] = level;

    const auto na = static_cast<std::size_t>(counts.num_alpha);
    cur_u = out.next_u.first(na);
    cur_v = out.next_v.first(na);
    cur_gid = out.next_gid.first(na);
    cur_nv = counts.next_num_vertices;
    vertex_offset += static_cast<std::size_t>(level.num_vertices);
    write_a = !write_a;
  }

  h.levels = std::span<const ContractionLevel>(h.levels_store.data(),
                                               static_cast<std::size_t>(num_levels));
  h.contraction_level = contraction_level;
  h.supervertex = supervertex;
  return h;
}

}  // namespace pandora::dendrogram

#include "pandora/dendrogram/contraction.hpp"

#include <algorithm>
#include <atomic>

#include "pandora/common/expect.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/scan.hpp"

namespace pandora::dendrogram {

namespace {

/// Levels at least halve (every vertex is an endpoint of its max-incident
/// edge, which is non-α, so every contraction merges each vertex into a
/// >= 2-vertex supervertex).  40 levels therefore cover any 32-bit input.
constexpr index_t kMaxLevels = 40;

/// Root of x in the pointer forest, splitting the path on the way (each
/// visited vertex is re-pointed at its grandparent).  Every store writes an
/// ancestor of the slot's vertex, so concurrent finds stay on the same tree.
index_t find_root(std::span<index_t> forest, index_t x) {
  const auto slot = [&](index_t y) {
    return std::atomic_ref<index_t>(forest[static_cast<std::size_t>(y)]);
  };
  index_t p = slot(x).load(std::memory_order_relaxed);
  while (p != x) {
    const index_t gp = slot(p).load(std::memory_order_relaxed);
    if (gp != p) slot(x).store(gp, std::memory_order_relaxed);
    x = p;
    p = gp;
  }
  return x;
}

/// Per-edge tallies of the classify pass: α-edges, and vertices owning an
/// edge (each vertex with an incident edge owns exactly its max-incident one).
struct Classified {
  size_type alpha = 0, owners = 0;
};

}  // namespace

ContractionHierarchy build_hierarchy(const exec::Executor& exec, std::span<const index_t> u,
                                     std::span<const index_t> v, std::span<const index_t> gid,
                                     index_t num_vertices, index_t num_global_edges) {
  exec::Workspace& workspace = exec.workspace();
  const size_type m0 = static_cast<size_type>(u.size());
  PANDORA_EXPECT(gid.empty() || static_cast<size_type>(gid.size()) == m0,
                 "gid must be empty (identity) or cover every edge");
  PANDORA_EXPECT(num_global_edges == m0, "the hierarchy must cover every global edge");

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

  // Ping-pong buffers for the contracted (u, v, gid) triples; level k+1 has
  // at most (m_k - 1)/2 edges, so half the base size bounds every level.
  // Per-vertex and per-edge scratch is leased once at base-level sizes
  // (deeper levels use prefixes), so repeated builds allocate nothing.
  const size_type next_capacity = m0 / 2 + 1;
  exec::Workspace::Lease<index_t> buffer_a = workspace.take_uninit<index_t>(3 * next_capacity);
  exec::Workspace::Lease<index_t> buffer_b = workspace.take_uninit<index_t>(3 * next_capacity);
  exec::Workspace::Lease<index_t> alpha_store = workspace.take_uninit<index_t>(m0);
  exec::Workspace::Lease<index_t> position_store = workspace.take_uninit<index_t>(m0);
  exec::Workspace::Lease<index_t> max_incident_store = workspace.take_uninit<index_t>(num_vertices);
  exec::Workspace::Lease<index_t> forest_store = workspace.take_uninit<index_t>(num_vertices);
  exec::Workspace::Lease<index_t> new_id_store = workspace.take_uninit<index_t>(num_vertices);

  std::span<const index_t> cur_u = u;
  std::span<const index_t> cur_v = v;
  std::span<const index_t> cur_gid = gid;  // empty = identity at the base level
  index_t cur_nv = num_vertices;
  index_t num_levels = 0;
  std::size_t vertex_offset = 0;  // into sided_store / map_store
  bool write_a = true;

  while (true) {
    const size_type m = static_cast<size_type>(cur_u.size());
    const size_type nv = cur_nv;
    const index_t level_index = num_levels;
    PANDORA_EXPECT(num_levels < kMaxLevels, "contraction exceeded its level bound");
    // Levels halve on trees, so the flat per-vertex storage is bounded by
    // 2*num_vertices; a non-halving input (a forest) would walk past it.
    PANDORA_EXPECT(vertex_offset + static_cast<std::size_t>(nv) <= h.sided_store.size(),
                   "input is not a spanning tree: contraction does not shrink");
    const std::span<std::int64_t> sided_parent =
        h.sided_store.span().subspan(vertex_offset, static_cast<std::size_t>(nv));
    const std::span<index_t> vertex_map =
        h.map_store.span().subspan(vertex_offset, static_cast<std::size_t>(nv));
    const std::span<index_t> alpha = alpha_store.span().first(static_cast<std::size_t>(m));
    const bool identity_gid = cur_gid.empty();
    const auto gid_of = [&](size_type i) {
      return identity_gid ? static_cast<index_t>(i) : cur_gid[static_cast<std::size_t>(i)];
    };
    const auto u_of = [&](size_type i) { return cur_u[static_cast<std::size_t>(i)]; };
    const auto v_of = [&](size_type i) { return cur_v[static_cast<std::size_t>(i)]; };

    // maxIncident(vertex): the local index of its lightest incident edge.
    // Levels keep ascending global order, so local and global indices order
    // alike.  The last plain store of the ascending stream is the max; an
    // edge-less vertex keeps a stale slot, rejected by the owner count below.
    const std::span<index_t> max_incident = max_incident_store.span().first(nv);
    exec::parallel_for_owned(exec, nv, m, [&](size_type i, const exec::OwnedRange& owned) {
      index_t sink[2];
      *owned.select(max_incident, u_of(i), &sink[0]) = static_cast<index_t>(i);
      *owned.select(max_incident, v_of(i), &sink[1]) = static_cast<index_t>(i);
    });

    // Fused pass: sided parents (Eq. 1), α classification (Eq. 2) and the
    // pointer forest whose trees are the supervertices.  Each owner of a
    // non-α edge points across it; the one edge of a component owned by both
    // endpoints points both at its smaller endpoint, the component's root.
    // Every vertex's slots have exactly one writer (its max-incident edge),
    // so they need no initialisation fill.  Every edge is marked as left at
    // this level, with no supervertex; the emit pass and deeper levels
    // overwrite that for the edges they contract.
    const std::span<index_t> forest = forest_store.span().first(nv);
    const Classified classified = exec::parallel_reduce(
        exec, m, Classified{},
        [&](size_type i) -> Classified {
          const index_t g = gid_of(i);
          const index_t a = u_of(i);
          const index_t b = v_of(i);
          const bool owns_a = max_incident[static_cast<std::size_t>(a)] == i;
          const bool owns_b = max_incident[static_cast<std::size_t>(b)] == i;
          if (owns_a) {
            sided_parent[static_cast<std::size_t>(a)] = 2 * static_cast<std::int64_t>(g);
            forest[static_cast<std::size_t>(a)] = owns_b ? std::min(a, b) : b;
          }
          if (owns_b) {
            sided_parent[static_cast<std::size_t>(b)] = 2 * static_cast<std::int64_t>(g) + 1;
            forest[static_cast<std::size_t>(b)] = owns_a ? std::min(a, b) : a;
          }
          contraction_level[static_cast<std::size_t>(g)] = level_index;
          supervertex[static_cast<std::size_t>(g)] = kNone;
          const index_t is_alpha = (!owns_a && !owns_b) ? 1 : 0;
          alpha[static_cast<std::size_t>(i)] = is_alpha;
          return {is_alpha, size_type{owns_a} + size_type{owns_b && a != b}};
        },
        [](Classified x, Classified y) {
          return Classified{x.alpha + y.alpha, x.owners + y.owners};
        });
    // A vertex without an edge would keep stale sided-parent and forest slots.
    PANDORA_EXPECT(classified.owners == nv,
                   "input is not a spanning tree: a vertex has no incident edge");
    const auto num_alpha = static_cast<index_t>(classified.alpha);

    ContractionLevel level;
    level.num_vertices = cur_nv;
    level.num_edges = static_cast<index_t>(m);
    level.num_alpha = num_alpha;
    level.sided_parent = sided_parent;
    if (num_alpha > 0) level.vertex_map = vertex_map;
    h.levels_store[static_cast<std::size_t>(num_levels++)] = level;
    if (num_alpha == 0) break;  // final level: its edges form the root chain

    // The α bound num_alpha <= (m-1)/2 holds for trees; reject anything that
    // exceeds the buffers (multigraphs, forests) instead of scattering past.
    PANDORA_EXPECT(num_alpha <= next_capacity,
                   "input is not a tree: alpha-edge count exceeds the contraction bound");

    // Number the forest roots densely, then map every vertex to its root's
    // number.  Finds run concurrently: path splitting only ever re-points a
    // vertex at one of its ancestors, so every find still ends at its root.
    const std::span<index_t> new_id = new_id_store.span().first(nv);
    exec::parallel_for(exec, nv, [&](size_type x) {
      new_id[static_cast<std::size_t>(x)] = forest[static_cast<std::size_t>(x)] == x ? 1 : 0;
    });
    const index_t next_nv =
        exec::exclusive_scan<index_t>(exec, std::span<const index_t>(new_id), new_id);
    exec::parallel_for(exec, nv, [&](size_type x) {
      vertex_map[static_cast<std::size_t>(x)] =
          new_id[static_cast<std::size_t>(find_root(forest, static_cast<index_t>(x)))];
    });

    // Emit the contracted tree — α-edges with relabelled endpoints, in the
    // same (global-index) relative order for determinism — and give every
    // non-α edge its supervertex, the one its endpoints merged into.
    const std::span<index_t> next = (write_a ? buffer_a : buffer_b).span();
    const auto na = static_cast<std::size_t>(num_alpha);
    const std::span<index_t> next_u = next.first(na);
    const std::span<index_t> next_v = next.subspan(static_cast<std::size_t>(next_capacity), na);
    const std::span<index_t> next_gid =
        next.subspan(static_cast<std::size_t>(2 * next_capacity), na);
    const std::span<index_t> position = position_store.span().first(static_cast<std::size_t>(m));
    exec::exclusive_scan<index_t>(exec, std::span<const index_t>(alpha), position);
    exec::parallel_for(exec, m, [&](size_type i) {
      const index_t su = vertex_map[static_cast<std::size_t>(u_of(i))];
      if (!alpha[static_cast<std::size_t>(i)]) {
        supervertex[static_cast<std::size_t>(gid_of(i))] = su;
        return;
      }
      const auto p = static_cast<std::size_t>(position[static_cast<std::size_t>(i)]);
      next_u[p] = su;
      next_v[p] = vertex_map[static_cast<std::size_t>(v_of(i))];
      next_gid[p] = gid_of(i);
    });

    cur_u = next_u;
    cur_v = next_v;
    cur_gid = next_gid;
    cur_nv = next_nv;
    vertex_offset += static_cast<std::size_t>(nv);
    write_a = !write_a;
  }

  h.levels = std::span<const ContractionLevel>(h.levels_store.data(),
                                               static_cast<std::size_t>(num_levels));
  h.contraction_level = contraction_level;
  h.supervertex = supervertex;
  return h;
}

}  // namespace pandora::dendrogram

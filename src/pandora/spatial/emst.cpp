#include "pandora/spatial/emst.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>

#include "pandora/common/expect.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/scan.hpp"
#include "pandora/exec/sort.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/obs/metrics.hpp"

namespace pandora::spatial {

namespace {

/// Kd-tree queries issued by Borůvka rounds, recorded once per query chunk;
/// `round="first"` counts round 0, which kNN seeds can resolve without any.
obs::Counter& queries_metric(bool first_round) {
  static obs::Counter& first =
      obs::registry().counter("pandora_emst_queries_total{round=\"first\"}");
  static obs::Counter& later =
      obs::registry().counter("pandora_emst_queries_total{round=\"later\"}");
  return first_round ? first : later;
}

/// Borůvka's starting components, labelled by position in ascending order of
/// their smallest point id: fills `component` (per rank) and returns the
/// number of components.  Without `seed` every point starts alone, so a
/// point's label is its id; with it, the seed's roots (its component minima)
/// are numbered by a parallel root flag and a scan over ids.
index_t initial_components(const exec::Executor& exec, const KdTree& tree,
                           graph::ConcurrentUnionFind* seed, std::span<index_t> component) {
  const index_t n = tree.size();
  const std::span<const index_t> id_of = tree.tree_order();
  if (seed == nullptr) {
    exec::parallel_for(exec, n, [&](size_type r) {
      component[static_cast<std::size_t>(r)] = id_of[static_cast<std::size_t>(r)];
    });
    return n;
  }
  auto position_lease = exec.workspace().take_uninit<index_t>(n);
  const std::span<index_t> position = position_lease.span();
  exec::parallel_for(exec, n, [&](size_type p) {
    position[static_cast<std::size_t>(p)] = seed->find(static_cast<index_t>(p)) == p ? 1 : 0;
  });
  const index_t count =
      exec::exclusive_scan<index_t>(exec, std::span<const index_t>(position), position);
  exec::parallel_for(exec, n, [&](size_type r) {
    component[static_cast<std::size_t>(r)] =
        position[static_cast<std::size_t>(seed->find(id_of[static_cast<std::size_t>(r)]))];
  });
  return count;
}

/// Shared Borůvka skeleton over singletons or the components of a seed
/// union-find; `use_mreach` selects the metric (core_sq must be the squared
/// core distances then).  Starting from singletons this is the full EMST;
/// starting from the components of a partial tree it joins exactly those
/// components with minimum-weight edges (the dynamic subsystem's erase path)
/// and leaves `seed` fully united.  `knn`, for a mutual-reachability build
/// from singletons only, holds the core-distance pass's neighbour lists; they
/// certify candidates in every round.
///
/// Per-point state — `core_sq`, `component`, `point_best` and the lists — is
/// kept by tree rank, so every pass below and every leaf scan reads it at
/// consecutive positions.  A component's label is its position in ascending
/// order of the components' smallest ids.  Ids decide ties and nothing else:
/// the (score, id) candidate order, phase 2's smallest-point rule, and the
/// hook order, which visits components by their smallest id and keeps a
/// merged component under its smallest id, exactly as a union-find over ids
/// with minimum roots does.  So the edges, their order and their endpoints
/// do not depend on the tree's leaf order.
graph::EdgeList boruvka_emst(const exec::Executor& exec, const KdTree& tree,
                             std::span<const double> core_sq, bool use_mreach,
                             graph::ConcurrentUnionFind* seed = nullptr,
                             const NeighborLists* knn = nullptr) {
  const index_t n = tree.size();
  graph::EdgeList mst;
  if (n <= 1) return mst;

  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  exec::Workspace& workspace = exec.workspace();
  const std::span<const index_t> id_of = tree.tree_order();
  // Per-call scratch is leased from the executor's arena, and the parallel
  // passes below give it its first touch.
  auto component_lease = workspace.take_uninit<index_t>(n);  // per rank: its label
  const std::span<index_t> component = component_lease.span();
  index_t live = initial_components(exec, tree, seed, component);
  // Per label: the component's minimum score bits, and its winner, the
  // smallest (id, rank) key among the points attaining that minimum.
  auto best_weight_lease = workspace.take_uninit<std::uint64_t>(live);
  const std::span<std::uint64_t> best_weight = best_weight_lease.span();
  auto best_point_lease = workspace.take_uninit<std::uint64_t>(live);
  const std::span<std::uint64_t> best_point = best_point_lease.span();
  // Per label during the hook: the label its winner's partner carries (then
  // the label the component takes next round), and its set in the hook's
  // union-find.
  auto target_lease = workspace.take_uninit<index_t>(live);
  const std::span<index_t> target = target_lease.span();
  auto parent_lease = workspace.take_uninit<index_t>(live);
  const std::span<index_t> parent = parent_lease.span();
  exec::parallel_for(exec, live, [&](size_type c) {
    best_weight[static_cast<std::size_t>(c)] = kInf;
    best_point[static_cast<std::size_t>(c)] = kInf;
  });
  // Per rank: its exact (score, id) candidate, or — with index kNone — a
  // lower bound on every foreign (other-component) score of the point in
  // the score slot.  Components only merge, so a point's foreign set only
  // shrinks and the bound stays valid across rounds.
  auto point_best_lease = workspace.take_uninit<Neighbor>(n);
  const std::span<Neighbor> point_best = point_best_lease.span();
  exec::parallel_for(exec, n, [&](size_type p) {
    point_best[static_cast<std::size_t>(p)] = Neighbor{0.0, kNone};
  });
  // Room for one proposed edge per component: phase 3 writes the proposals
  // behind the accepted edges and compacts them in place.
  mst.reserve(static_cast<std::size_t>(live));
  // Only a pre-seeded join can have a dominant component worth benching; a
  // full build starts from singletons, skips the per-round component-size
  // scan entirely, and so keeps its pre-existing behaviour (edge selection
  // included) bit for bit.
  const bool seeded = live < n;

  // kNN lists (cuSLINK's kNN graph, made exact by a cut certificate) certify
  // candidates from memory in every round; see (1a).
  const bool lists = knn != nullptr && !knn->empty();
  if (lists) {
    PANDORA_EXPECT(use_mreach && !seeded, "kNN seeds need a mutual-reachability build");
    PANDORA_EXPECT(static_cast<index_t>(knn->fence_sq.size()) == n &&
                       knn->ranks.size() ==
                           knn->fence_sq.size() * static_cast<std::size_t>(knn->length),
                   "one kNN list and fence per point required");
  }

  // Query-local annotations: the (possibly cached, shared) tree stays const.
  KdTreeAnnotations notes;
  if (use_mreach) tree.annotate_min_core(exec, core_sq, notes);

  while (live > 1) {
    tree.annotate_components(exec, component, notes);

    // When one component of a seeded join dominates (one giant survivor
    // plus small splinters after a few erases), it may sit the round out:
    // every edge crossing a component's cut is incident to one of its own
    // points, so each *small* component still finds its true minimum
    // outgoing edge from its own members' queries, and those selections
    // alone satisfy the cut property.  This turns a round's cost from n
    // tree queries into (n - |giant|).  The result stays an exact MST;
    // under exact distance ties the chosen edge *set* may differ from an
    // all-components-propose round (both are minimum weight).  Two exact
    // halves tie; the one that does not hold the largest id sits out, as
    // it would if the points were counted in id order and the first
    // component to reach the maximum won.
    index_t passive = kNone;
    if (seeded) {
      auto count_lease = workspace.take<size_type>(live, 0);
      const std::span<size_type> count = count_lease.span();
      for (const index_t c : component) ++count[static_cast<std::size_t>(c)];
      const auto largest = static_cast<index_t>(
          std::max_element(count.begin(), count.end()) - count.begin());
      const size_type largest_size = count[static_cast<std::size_t>(largest)];
      if (2 * largest_size >= n) passive = largest;
      if (2 * largest_size == n) {
        const auto last = static_cast<std::size_t>(
            std::find(id_of.begin(), id_of.end(), n - 1) - id_of.begin());
        if (component[last] == largest)
          for (index_t c = 0; c < live; ++c)
            if (c != largest && 2 * count[static_cast<std::size_t>(c)] == n) passive = c;
      }
    }

    // Phase 1: per-component minimum weight via atomic-min on the
    // order-preserving distance bits.  The giant proposes NOTHING — a
    // partial minimum (e.g. over only its cached members) would not be
    // minimal across its cut and could hook a wrong edge.  Its slot stays at
    // the +inf sentinel, so phase 2 cannot match a leftover cached candidate
    // against it either.
    //
    // (1a) A point's candidate from an earlier round stays *exact* while its
    // partner is still foreign: components only merge, so the foreign set
    // only shrinks, and a shrinking set that still contains the old
    // lexicographic minimum keeps it.  A stale one (partner absorbed) drops
    // its id and leaves its score as p's lower bound: it was p's minimum
    // over a foreign set that has only shrunk since.
    //
    // A point left without a candidate then checks its kNN list.  Every
    // point q outside the list lies at squared distance >= fence(p), so its
    // score max(d², core²(p), core²(q)) is >= F* = max(core²(p), fence(p)).
    // The minimum w over the list's foreign entries is therefore p's exact
    // (score, id) candidate when w scores strictly below F*; otherwise every
    // foreign score is >= F*, which becomes p's lower bound.  A bound
    // already >= F* rules out a strictly smaller w, so such points skip the
    // scan.  The tree's pair distance is bit-identical to its leaf scan's,
    // so w equals the candidate a query would return.  In round 0 every
    // entry is foreign.
    //
    // Valid candidates seed their component's minimum before any query runs.
    exec::parallel_for(exec, n, [&](size_type pi) {
      const auto p = static_cast<std::size_t>(pi);
      const index_t c = component[p];
      Neighbor& nb = point_best[p];
      if (c == passive) return;
      if (nb.index != kNone && component[static_cast<std::size_t>(nb.rank)] == c)
        nb.index = kNone;
      if (nb.index == kNone && lists) {
        const double f_star = std::max(core_sq[p], knn->fence_sq[p]);
        if (nb.squared_distance < f_star) {
          const auto length = static_cast<std::size_t>(knn->length);
          Neighbor w;
          for (const index_t q : std::span<const index_t>(knn->ranks.data() + p * length, length)) {
            const auto qi = static_cast<std::size_t>(q);
            if (component[qi] == c) continue;
            const double score = std::max(
                {tree.squared_distance(static_cast<index_t>(pi), q), core_sq[p], core_sq[qi]});
            if (score > w.squared_distance) continue;
            const Neighbor cand{score, id_of[qi], q};
            if (cand < w) w = cand;
          }
          if (w.squared_distance < f_star)
            nb = w;
          else
            nb.squared_distance = f_star;
        }
      }
      if (nb.index == kNone) return;
      exec::atomic_fetch_min(best_weight[static_cast<std::size_t>(c)],
                             exec::order_preserving_bits(nb.squared_distance));
    });
    // (1b) Every other point queries, bounded by its component's running
    // minimum ([39]'s pruning): a candidate heavier than the minimum can
    // never win phase 2, so the query skips everything beyond it.  Ties at
    // the radius are still found, so every point attaining the final
    // minimum holds its exact (weight, id) candidate and phases 2-3 select
    // the same edges as unbounded queries.  A point whose lower bound
    // already exceeds the radius cannot attain the minimum and skips its
    // query; a query finding nothing within the radius proves every foreign
    // score exceeds it, so the radius becomes the point's lower bound.  Both
    // keep kNone and are reconsidered next round.  Queries walk the leaves
    // in rank order so neighbouring queries tighten each other's radius
    // early.
    //
    // A leaf whose points all belong to one component c first takes one box
    // test against c's running minimum r when two or more of its points
    // would query: when no foreign point can score within r of the leaf's
    // box (Euclidean gap, raised by the core distances under mutual
    // reachability), each of those queries would find nothing, so each
    // point stores r as its bound, exactly as its empty query would.
    constexpr std::size_t kLeavesPerChunk = 8;
    const std::span<const KdTree::Leaf> leaves = tree.leaves();
    const int num_chunks =
        static_cast<int>((leaves.size() + kLeavesPerChunk - 1) / kLeavesPerChunk);
    obs::Counter& queries = queries_metric(mst.empty());
    const auto radius_of = [&](index_t c) {
      const std::uint64_t bound =
          std::atomic_ref<std::uint64_t>(best_weight[static_cast<std::size_t>(c)])
              .load(std::memory_order_relaxed);
      // kInf bit-casts to a NaN, not +inf.
      return bound == kInf ? std::numeric_limits<double>::infinity() : std::bit_cast<double>(bound);
    };
    const auto leaf_answered = [&](const KdTree::Leaf& leaf, index_t c) {
      const double radius_sq = radius_of(c);
      if (radius_sq == std::numeric_limits<double>::infinity()) return false;
      const auto querying = [&](index_t p) {
        const Neighbor& best = point_best[static_cast<std::size_t>(p)];
        return best.index == kNone && best.squared_distance <= radius_sq;
      };
      int count = 0;
      for (index_t p = leaf.begin; p < leaf.end && count < 2; ++p) count += querying(p) ? 1 : 0;
      if (count < 2) return false;
      // Under mutual reachability every score from the leaf is at least its
      // smallest core distance.
      const std::span<const double> leaf_core_sq = use_mreach ? core_sq : std::span<const double>{};
      if ((!use_mreach || notes.node_min_core[static_cast<std::size_t>(leaf.node)] <= radius_sq) &&
          tree.any_foreign_near_box(tree.box_lo(leaf), tree.box_hi(leaf), c, component,
                                    leaf_core_sq, notes, radius_sq))
        return false;
      for (index_t p = leaf.begin; p < leaf.end; ++p)
        if (querying(p)) point_best[static_cast<std::size_t>(p)].squared_distance = radius_sq;
      return true;
    };
    auto query_chunk = [&](int chunk) {
      const std::size_t first = static_cast<std::size_t>(chunk) * kLeavesPerChunk;
      std::uint64_t issued = 0;
      for (const KdTree::Leaf& leaf :
           leaves.subspan(first, std::min(kLeavesPerChunk, leaves.size() - first))) {
        const index_t shared = notes.node_component[static_cast<std::size_t>(leaf.node)];
        if (shared != kNone && (shared == passive || leaf_answered(leaf, shared))) continue;
        for (index_t p = leaf.begin; p < leaf.end; ++p) {
          const index_t c = component[static_cast<std::size_t>(p)];
          Neighbor& best = point_best[static_cast<std::size_t>(p)];
          if (c == passive || best.index != kNone) continue;
          const double radius_sq = radius_of(c);
          if (best.squared_distance > radius_sq) continue;
          ++issued;
          const Neighbor nb =
              use_mreach
                  ? tree.nearest_other_component_mreach(p, c, component, core_sq, notes, radius_sq)
                  : tree.nearest_other_component(p, c, component, notes, radius_sq);
          if (nb.index == kNone) {
            best.squared_distance = radius_sq;
            continue;
          }
          best = nb;
          exec::atomic_fetch_min(best_weight[static_cast<std::size_t>(c)],
                                 exec::order_preserving_bits(nb.squared_distance));
        }
      }
      if (issued > 0) queries.inc(issued);
    };
    exec.run_chunks(num_chunks, exec.num_threads(), query_chunk);
    // Phase 2: among weight ties, the smallest point id wins (exact
    // lexicographic (weight, point) minimum without a 128-bit CAS).  The
    // winner's rank rides in the key's low half, below the id.
    exec::parallel_for(exec, n, [&](size_type pi) {
      const auto p = static_cast<std::size_t>(pi);
      const Neighbor nb = point_best[p];
      if (nb.index == kNone) return;
      const index_t c = component[p];
      if (best_weight[static_cast<std::size_t>(c)] ==
          exec::order_preserving_bits(nb.squared_distance))
        exec::atomic_fetch_min(best_point[static_cast<std::size_t>(c)],
                               static_cast<std::uint64_t>(id_of[p]) << 32 | p);
    });

    // Phase 3: hook the winners.  (3a) In parallel, each component writes
    // its winner's edge behind the accepted ones and finds its partner's
    // label, then clears its slots for the next round.
    const std::size_t before = mst.size();
    mst.resize(before + static_cast<std::size_t>(live));
    exec::parallel_for(exec, live, [&](size_type ci) {
      const auto c = static_cast<std::size_t>(ci);
      parent[c] = static_cast<index_t>(ci);
      target[c] = kNone;
      const std::uint64_t key = best_point[c];
      best_weight[c] = kInf;
      best_point[c] = kInf;
      if (key == kInf) return;
      const Neighbor& nb = point_best[static_cast<std::uint32_t>(key)];
      mst[before + c] = {static_cast<index_t>(key >> 32), nb.index, std::sqrt(nb.squared_distance)};
      target[c] = component[static_cast<std::size_t>(nb.rank)];
    });
    // (3b) Serially, in label order (ascending smallest id), each hook
    // unites the two components' sets unless they are already one, and the
    // set keeps its smallest label; the accepted edges move down in hook
    // order.  Under ties the hooks can close a cycle; the hook that would
    // close it is dropped, as a union-find over ids drops it.
    const auto find = [&](index_t x) {
      while (parent[static_cast<std::size_t>(x)] != x) {
        parent[static_cast<std::size_t>(x)] =
            parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
        x = parent[static_cast<std::size_t>(x)];
      }
      return x;
    };
    std::size_t joined = before;
    for (index_t c = 0; c < live; ++c) {
      const index_t t = target[static_cast<std::size_t>(c)];
      if (t == kNone) continue;
      const index_t a = find(c);
      const index_t b = find(t);
      if (a == b) continue;
      parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
      mst[joined++] = mst[before + static_cast<std::size_t>(c)];
    }
    PANDORA_EXPECT(joined > before, "Borůvka made no progress (duplicate points?)");
    mst.resize(joined);
    // (3c) Renumber the sets in label order: parents only point to smaller
    // labels, so one ascending pass gives each set's root the next label and
    // every other component its (already renumbered) parent's.
    index_t kept = 0;
    for (index_t c = 0; c < live; ++c) {
      const index_t up = parent[static_cast<std::size_t>(c)];
      target[static_cast<std::size_t>(c)] = up == c ? kept++ : target[static_cast<std::size_t>(up)];
    }
    exec::parallel_for(exec, n, [&](size_type r) {
      index_t& c = component[static_cast<std::size_t>(r)];
      c = target[static_cast<std::size_t>(c)];
    });
    live = kept;
  }
  if (seed != nullptr)
    for (const graph::WeightedEdge& e : mst) seed->unite(e.u, e.v);
  return mst;
}

}  // namespace

graph::EdgeList euclidean_mst(const exec::Executor& exec, const PointSet& points,
                              const KdTree& tree) {
  PANDORA_EXPECT(tree.size() == points.size(), "the kd-tree must index exactly the query points");
  return boruvka_emst(exec, tree, {}, false);
}

graph::EdgeList join_components_emst(const exec::Executor& exec, const PointSet& points,
                                     const KdTree& tree, graph::ConcurrentUnionFind& uf) {
  PANDORA_EXPECT(tree.size() == points.size(), "the kd-tree must index exactly the query points");
  PANDORA_EXPECT(uf.size() == points.size(), "one union-find slot per point required");
  return boruvka_emst(exec, tree, {}, false, &uf);
}

graph::EdgeList mutual_reachability_mst(const exec::Executor& exec, const PointSet& points,
                                        const KdTree& tree,
                                        std::span<const double> core_distances,
                                        const NeighborLists* seeds) {
  const index_t n = points.size();
  PANDORA_EXPECT(tree.size() == n, "the kd-tree must index exactly the query points");
  PANDORA_EXPECT(static_cast<index_t>(core_distances.size()) == n,
                 "one core distance per point required");
  // The id -> rank boundary: core distances arrive by id and are squared
  // into rank order once.
  std::vector<double> core_sq(static_cast<std::size_t>(n));
  const std::span<const index_t> id_of = tree.tree_order();
  exec::parallel_for(exec, n, [&](size_type r) {
    const double core = core_distances[static_cast<std::size_t>(id_of[static_cast<std::size_t>(r)])];
    core_sq[static_cast<std::size_t>(r)] = core * core;
  });
  return boruvka_emst(exec, tree, core_sq, true, nullptr, seeds);
}

namespace {

/// An EMST artifact as stored in the Executor's ArtifactCache (cf.
/// CachedKdTree / CachedCoreDistances: the PointSet identity rules out a
/// content-identical but different object aliasing someone else's edges).
struct CachedEmst {
  graph::EdgeList mst;
  const PointSet* points = nullptr;
};

}  // namespace

std::shared_ptr<const graph::EdgeList> mutual_reachability_mst_cached(
    const exec::Executor& exec, const PointSet& points, const KdTree& tree,
    std::span<const double> core_distances, int min_pts,
    std::optional<std::uint64_t> fingerprint, const NeighborLists* seeds) {
  const auto compute = [&] {
    auto owned = std::make_shared<CachedEmst>();
    owned->mst = mutual_reachability_mst(exec, points, tree, core_distances, seeds);
    owned->points = &points;
    return owned;
  };
  if (!exec.artifact_caching()) {
    auto owned = compute();
    const graph::EdgeList* view = &owned->mst;
    return {std::move(owned), view};
  }

  // min_pts determines the core distances and with them the metric, so it is
  // folded into the key with the full mixer — two sweep values never alias
  // (see exec/fingerprint.hpp).
  const std::uint64_t base = fingerprint ? *fingerprint : point_set_fingerprint(exec, points);
  const std::uint64_t key = exec::combine_fingerprint(
      exec::tagged_fingerprint(exec::ArtifactTag::emst, base),
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(min_pts)));
  std::shared_ptr<CachedEmst> entry = exec.artifact_cache().find<CachedEmst>(key);
  if (entry == nullptr || entry->points != &points) {
    entry = compute();
    exec.artifact_cache().insert(key, entry);
  }
  const graph::EdgeList* view = &entry->mst;
  return {std::move(entry), view};
}

}  // namespace pandora::spatial

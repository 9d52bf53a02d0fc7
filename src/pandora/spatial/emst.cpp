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
#include "pandora/exec/sort.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/spatial/distance.hpp"

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

/// Shared Borůvka skeleton over the components of a (possibly pre-seeded)
/// union-find; `use_mreach` selects the metric (core_sq must be the squared
/// core distances then).  Starting from singletons this is the full EMST;
/// starting from the components of a partial tree it joins exactly those
/// components with minimum-weight edges (the dynamic subsystem's erase path).
/// `knn`, for a mutual-reachability build from singletons only, holds the
/// core-distance pass's neighbour lists; they certify candidates in every
/// round.
graph::EdgeList boruvka_emst(const exec::Executor& exec, const PointSet& points,
                             const KdTree& tree, const std::vector<double>& core_sq,
                             bool use_mreach, graph::ConcurrentUnionFind& uf,
                             const NeighborLists* knn = nullptr) {
  const index_t n = points.size();
  graph::EdgeList mst;
  if (n <= 1) return mst;
  PANDORA_EXPECT(tree.size() == n, "the kd-tree must index exactly the query points");

  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  // Sentinel for the atomic-min tie-break slots: must compare larger than
  // every real point id (kNone would win every min).
  constexpr index_t kUnset = std::numeric_limits<index_t>::max();
  std::vector<index_t> component(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> best_weight(static_cast<std::size_t>(n), kInf);
  std::vector<index_t> best_point(static_cast<std::size_t>(n), kUnset);
  // Per point: its exact (score, id) candidate, or — with index kNone — a
  // lower bound on every foreign (other-component) score of the point in
  // the score slot.  Components only merge, so a point's foreign set only
  // shrinks and the bound stays valid across rounds.
  std::vector<Neighbor> point_best(static_cast<std::size_t>(n), Neighbor{0.0, kNone});
  std::vector<index_t> roots;
  roots.reserve(static_cast<std::size_t>(n));
  for (index_t p = 0; p < n; ++p)
    if (uf.find(p) == p) roots.push_back(p);
  const auto joins_needed = static_cast<std::size_t>(roots.size()) - 1;
  mst.reserve(joins_needed);
  // Only a pre-seeded join can have a dominant component worth benching; a
  // full build starts from singletons, skips the per-round component-size
  // scan entirely, and so keeps its pre-existing behaviour (edge selection
  // included) bit for bit.
  const bool seeded = static_cast<index_t>(roots.size()) < n;

  // kNN lists (cuSLINK's kNN graph, made exact by a cut certificate) certify
  // candidates from memory in every round; see (1a).
  const bool lists = knn != nullptr && !knn->empty();
  if (lists) {
    PANDORA_EXPECT(use_mreach && !seeded, "kNN seeds need a mutual-reachability build");
    PANDORA_EXPECT(static_cast<index_t>(knn->fence_sq.size()) == n &&
                       knn->ids.size() ==
                           knn->fence_sq.size() * static_cast<std::size_t>(knn->length),
                   "one kNN list and fence per point required");
  }
  const int dim = points.dim();

  // Query-local annotations: the (possibly cached, shared) tree stays const.
  KdTreeAnnotations notes;
  if (use_mreach) tree.annotate_min_core(exec, core_sq, notes);

  while (mst.size() < joins_needed) {
    exec::parallel_for(exec, n, [&](size_type p) {
      component[static_cast<std::size_t>(p)] = uf.find(static_cast<index_t>(p));
    });
    tree.annotate_components(exec, component, notes);

    // When one component of a seeded join dominates (one giant survivor
    // plus small splinters after a few erases), it may sit the round out:
    // every edge crossing a component's cut is incident to one of its own
    // points, so each *small* component still finds its true minimum
    // outgoing edge from its own members' queries, and those selections
    // alone satisfy the cut property.  This turns a round's cost from n
    // tree queries into (n - |giant|).  The result stays an exact MST;
    // under exact distance ties the chosen edge *set* may differ from an
    // all-components-propose round (both are minimum weight).
    index_t passive = kNone;
    if (seeded) {
      index_t largest = kNone;
      size_type largest_size = 0;
      auto count_lease = exec.workspace().take<size_type>(n, 0);
      const std::span<size_type> count = count_lease.span();
      for (index_t p = 0; p < n; ++p) {
        const index_t c = component[static_cast<std::size_t>(p)];
        if (++count[static_cast<std::size_t>(c)] > largest_size) {
          largest_size = count[static_cast<std::size_t>(c)];
          largest = c;
        }
      }
      if (2 * largest_size >= n) passive = largest;
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
    // scan.  The pair kernel's squared distance is bit-identical to the leaf
    // scan's (see distance.hpp), so w equals the candidate a query would
    // return.  In round 0 every entry is foreign.
    //
    // Valid candidates seed their component's minimum before any query runs.
    exec::parallel_for(exec, n, [&](size_type pi) {
      const auto p = static_cast<std::size_t>(pi);
      const index_t c = component[p];
      Neighbor& nb = point_best[p];
      if (c == passive) return;
      if (nb.index != kNone && component[static_cast<std::size_t>(nb.index)] == c)
        nb.index = kNone;
      if (nb.index == kNone && lists) {
        const double f_star = std::max(core_sq[p], knn->fence_sq[p]);
        if (nb.squared_distance < f_star) {
          const double* at = points.point(static_cast<index_t>(pi)).data();
          const auto length = static_cast<std::size_t>(knn->length);
          Neighbor w;
          for (const index_t q : std::span<const index_t>(knn->ids.data() + p * length, length)) {
            const auto qi = static_cast<std::size_t>(q);
            if (component[qi] == c) continue;
            const double sq = distance::squared_distance(at, points.point(q).data(), dim);
            const Neighbor cand{std::max({sq, core_sq[p], core_sq[qi]}), q};
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
    // keep kNone and are reconsidered next round.  Queries walk the tree
    // order so neighbouring queries tighten each other's radius early.
    const std::span<const index_t> order = tree.tree_order();
    constexpr index_t kQueriesPerChunk = 256;
    const int num_chunks = static_cast<int>((n + kQueriesPerChunk - 1) / kQueriesPerChunk);
    obs::Counter& queries = queries_metric(mst.empty());
    auto query_chunk = [&](int chunk) {
      const index_t lo = static_cast<index_t>(chunk) * kQueriesPerChunk;
      const index_t hi = std::min<index_t>(n, lo + kQueriesPerChunk);
      std::uint64_t issued = 0;
      for (index_t i = lo; i < hi; ++i) {
        const index_t p = order[static_cast<std::size_t>(i)];
        const index_t c = component[static_cast<std::size_t>(p)];
        Neighbor& best = point_best[static_cast<std::size_t>(p)];
        if (c == passive || best.index != kNone) continue;
        std::uint64_t& slot = best_weight[static_cast<std::size_t>(c)];
        const std::uint64_t bound =
            std::atomic_ref<std::uint64_t>(slot).load(std::memory_order_relaxed);
        // kInf bit-casts to a NaN, not +inf.
        const double radius_sq =
            bound == kInf ? std::numeric_limits<double>::infinity() : std::bit_cast<double>(bound);
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
        exec::atomic_fetch_min(slot, exec::order_preserving_bits(nb.squared_distance));
      }
      if (issued > 0) queries.inc(issued);
    };
    exec.run_chunks(num_chunks, exec.num_threads(), query_chunk);
    // Phase 2: among weight ties, the smallest point id wins (exact
    // lexicographic (weight, point) minimum without a 128-bit CAS).
    exec::parallel_for(exec, n, [&](size_type pi) {
      const auto p = static_cast<index_t>(pi);
      const Neighbor nb = point_best[static_cast<std::size_t>(p)];
      if (nb.index == kNone) return;
      const index_t c = component[static_cast<std::size_t>(p)];
      if (best_weight[static_cast<std::size_t>(c)] ==
          exec::order_preserving_bits(nb.squared_distance))
        exec::atomic_fetch_min(best_point[static_cast<std::size_t>(c)], p);
    });

    // Phase 3: hook the winners.  The union-find suppresses the duplicate
    // when two components choose each other.
    const std::size_t before = mst.size();
    for (const index_t r : roots) {
      const index_t p = best_point[static_cast<std::size_t>(r)];
      if (p == kUnset) continue;
      const Neighbor nb = point_best[static_cast<std::size_t>(p)];
      if (uf.find(p) != uf.find(nb.index)) {
        uf.unite(p, nb.index);
        mst.push_back({p, nb.index, std::sqrt(nb.squared_distance)});
      }
    }
    PANDORA_EXPECT(mst.size() > before, "Borůvka made no progress (duplicate points?)");

    std::vector<index_t> next_roots;
    next_roots.reserve(roots.size() / 2 + 1);
    for (const index_t r : roots) {
      if (uf.find(r) == r) next_roots.push_back(r);
      best_weight[static_cast<std::size_t>(r)] = kInf;
      best_point[static_cast<std::size_t>(r)] = kUnset;
    }
    roots.swap(next_roots);
  }
  return mst;
}

}  // namespace

graph::EdgeList euclidean_mst(const exec::Executor& exec, const PointSet& points,
                              const KdTree& tree) {
  graph::ConcurrentUnionFind uf(points.size());
  return boruvka_emst(exec, points, tree, {}, false, uf);
}

graph::EdgeList join_components_emst(const exec::Executor& exec, const PointSet& points,
                                     const KdTree& tree, graph::ConcurrentUnionFind& uf) {
  PANDORA_EXPECT(uf.size() == points.size(), "one union-find slot per point required");
  return boruvka_emst(exec, points, tree, {}, false, uf);
}

graph::EdgeList mutual_reachability_mst(const exec::Executor& exec, const PointSet& points,
                                        const KdTree& tree,
                                        std::span<const double> core_distances,
                                        const NeighborLists* seeds) {
  PANDORA_EXPECT(static_cast<index_t>(core_distances.size()) == points.size(),
                 "one core distance per point required");
  std::vector<double> core_sq(core_distances.size());
  for (std::size_t i = 0; i < core_sq.size(); ++i)
    core_sq[i] = core_distances[i] * core_distances[i];
  graph::ConcurrentUnionFind uf(points.size());
  return boruvka_emst(exec, points, tree, core_sq, true, uf, seeds);
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

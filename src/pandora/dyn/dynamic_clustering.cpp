#include "pandora/dyn/dynamic_clustering.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "pandora/common/expect.hpp"
#include "pandora/common/timer.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/exec/failpoint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/scan.hpp"
#include "pandora/exec/sort.hpp"
#include "pandora/graph/union_find.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/spatial/emst.hpp"

namespace pandora::dyn {

namespace {

/// Repair latency histograms (whole insert/erase call, validation through
/// dendrogram replay); recorded on successful completion only — a repair
/// that throws poisons the stream and its time is not a latency sample.
obs::Histogram& insert_metric() {
  static obs::Histogram& metric = obs::registry().histogram("pandora_dyn_insert_seconds");
  return metric;
}
obs::Histogram& erase_metric() {
  static obs::Histogram& metric = obs::registry().histogram("pandora_dyn_erase_seconds");
  return metric;
}

/// A candidate edge proposed by one point during a Borůvka repair round.
struct Candidate {
  double weight = std::numeric_limits<double>::infinity();
  index_t partner = kNone;
  index_t maintained_edge = kNone;  ///< kNone = a new star edge

  /// Lexicographic (weight, partner): the deterministic per-point minimum.
  [[nodiscard]] bool better_than(const Candidate& other) const {
    if (weight != other.weight) return weight < other.weight;
    return partner < other.partner;
  }
};

/// Leaf size of the maintained kd index (and of the per-batch trees).
constexpr int kLeafSize = 32;

/// Every update patches the kd index (`KdTree::patch`: erased points leave
/// their leaves, inserted points descend to theirs) until the points erased
/// or inserted since the last build exceed this fraction of the point
/// count, which bounds how far the kept splits drift from balanced, or until
/// the patch refuses an emptied or overfull leaf; then the index is rebuilt.
constexpr double kIndexRebuildFraction = 0.125;

/// The drift a kd index of `n` points tolerates before a rebuild.
double index_budget(index_t n) {
  return std::max(64.0, kIndexRebuildFraction * static_cast<double>(n));
}

/// Relative slack for comparing a distance against w when the two came from
/// kernels that may sum the same squares in another order.
constexpr double kRoundingSlack = 1e-9;

/// The squared radius that covers every squared distance whose rounded
/// square root is at most `w`, with kRoundingSlack on top: a non-strict test
/// against it never loses a tie to rounding.
double covering_sq(double w) {
  return std::nextafter(w * w * (1 + kRoundingSlack), std::numeric_limits<double>::infinity());
}

/// The per-edge insert certificate: clears `keep[i]` for every maintained
/// edge i of weight w that a path through the batch might displace, i.e.
/// whose two child clusters in `dendrogram` (the maintained tree's) are both
/// reachable: some point of the child has its nearest new point within w
/// (`nearest_new[v]` is that distance per vertex), and some new point q with
/// d2(q) <= w lies within w of the child's bounding box.  `d2_sq` holds the
/// new points' squared 2nd-nearest-neighbour distances by batch-tree rank,
/// and `notes` their per-node minima (annotate_min_core).  Every test is
/// non-strict with a rounding margin, so rounding only ever adds doubtful
/// edges.
void mark_doubtful_edges(const exec::Executor& exec, const dendrogram::Dendrogram& dendrogram,
                         const spatial::PointSet& points, std::span<const double> nearest_new,
                         const spatial::KdTree& batch_tree, std::span<const double> d2_sq,
                         const spatial::KdTreeAnnotations& notes, std::span<char> keep) {
  const index_t num_edges = dendrogram.num_edges;
  if (num_edges == 0) return;
  const auto dim = static_cast<std::size_t>(points.dim());
  constexpr double kInfinity = std::numeric_limits<double>::infinity();
  exec::Workspace& workspace = exec.workspace();
  // The two children of every edge node, its box and its points' nearest
  // new point, in one bottom-up pass: vertices fold into their parents
  // first, then edges in descending order, since a child always sorts after
  // its parent (parent[e] < e).  The pass stays serial: a parallel
  // bottom-up walk (the second child to arrive folds the parent) and a
  // parallel child claim with a serial pull both measured slower at 4
  // threads on 50k points, as each chains dependent cache misses that this
  // pass's sequential sweeps overlap.
  auto child_lease = workspace.take<index_t>(2 * num_edges, kNone);
  const std::span<index_t> child = child_lease.span();
  const size_type box_size = static_cast<size_type>(num_edges) * points.dim();
  auto lo_lease = workspace.take<double>(box_size, kInfinity);
  const std::span<double> lo = lo_lease.span();
  auto hi_lease = workspace.take<double>(box_size, -kInfinity);
  const std::span<double> hi = hi_lease.span();
  auto near_lease = workspace.take<double>(num_edges, kInfinity);
  const std::span<double> near = near_lease.span();
  const auto adopt = [&](index_t node, double nearest) {
    const auto p = static_cast<std::size_t>(dendrogram.parent[static_cast<std::size_t>(node)]);
    child[2 * p + (child[2 * p] == kNone ? 0 : 1)] = node;
    near[p] = std::min(near[p], nearest);
    return p * dim;
  };
  for (index_t v = 0; v < dendrogram.num_vertices; ++v) {
    const std::size_t base =
        adopt(dendrogram.vertex_node(v), nearest_new[static_cast<std::size_t>(v)]);
    const std::span<const double> x = points.point(v);
    for (std::size_t d = 0; d < dim; ++d) {
      lo[base + d] = std::min(lo[base + d], x[d]);
      hi[base + d] = std::max(hi[base + d], x[d]);
    }
  }
  for (index_t e = num_edges - 1; e > 0; --e) {
    const std::size_t base = adopt(e, near[static_cast<std::size_t>(e)]);
    const std::size_t from = static_cast<std::size_t>(e) * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      lo[base + d] = std::min(lo[base + d], lo[from + d]);
      hi[base + d] = std::max(hi[base + d], hi[from + d]);
    }
  }

  exec::parallel_for(exec, num_edges, [&](size_type ei) {
    const auto e = static_cast<std::size_t>(ei);
    const double w = dendrogram.weight[e];
    const double radius_sq = covering_sq(w);
    const auto reachable = [&](index_t node) {
      if (dendrogram.is_vertex_node(node)) {
        const index_t v = node - num_edges;
        if (nearest_new[static_cast<std::size_t>(v)] > w * (1 + kRoundingSlack)) return false;
        const std::span<const double> x = points.point(v);
        return batch_tree.any_near_box(x, x, radius_sq, d2_sq, notes);
      }
      if (near[static_cast<std::size_t>(node)] > w * (1 + kRoundingSlack)) return false;
      const std::size_t base = static_cast<std::size_t>(node) * dim;
      return batch_tree.any_near_box(std::span<const double>(lo).subspan(base, dim),
                                     std::span<const double>(hi).subspan(base, dim), radius_sq,
                                     d2_sq, notes);
    };
    if (reachable(child[2 * e]) && reachable(child[2 * e + 1]))
      keep[static_cast<std::size_t>(dendrogram.edge_order[e])] = 0;
  });
}

}  // namespace

DynamicClustering::DynamicClustering(const exec::Executor& exec)
    : exec_(&exec), points_(std::make_unique<spatial::PointSet>()) {}

void DynamicClustering::rebuild_index() {
  const exec::ScopedSpan span(*exec_, "dyn.index");
  tree_ = std::make_unique<spatial::KdTree>(*exec_, *points_, kLeafSize);
  drift_ = 0;
  ++stats_.index_rebuilds;
}

void DynamicClustering::reindex(std::span<const index_t> remap, index_t survivors) {
  const index_t n = points_->size();
  const index_t drift = drift_ + (tree_->size() - survivors) + (n - survivors);
  if (static_cast<double>(drift) <= index_budget(n)) {
    const exec::ScopedSpan span(*exec_, "dyn.index");
    if (tree_->patch(*exec_, remap)) {
      drift_ = drift;
      ++stats_.index_patches;
      return;
    }
  }
  rebuild_index();
}

void DynamicClustering::replay_dendrogram() {
  const exec::ScopedSpan span(*exec_, "dyn.replay");
  dendrogram::pandora_dendrogram_into(*exec_, sorted_, {}, dendrogram_);
}

void DynamicClustering::rebuild_from_scratch() {
  rebuild_index();
  edges_ = spatial::euclidean_mst(*exec_, *points_, *tree_);
  dendrogram::sort_edges_into(*exec_, edges_, points_->size(), sorted_);
  replay_dendrogram();
}

std::vector<index_t> DynamicClustering::insert(const spatial::PointSet& batch) {
  const index_t m = batch.size();
  std::vector<index_t> ids;
  ids.reserve(static_cast<std::size_t>(m));
  if (m == 0) return ids;
  const exec::ScopedSpan span(*exec_, "dyn.insert");
  const Timer timer;

  PANDORA_EXPECT(&batch != points_.get(), "cannot insert a stream's own point set into itself");
  PANDORA_EXPECT(healthy_, "stream poisoned by an earlier failed update");
  // Validate before any mutation: a rejected batch must leave the stream
  // untouched (and healthy), unlike a mid-repair failure.
  spatial::validate_points(batch, "dyn::insert");
  const index_t n_before = points_->size();
  if (n_before == 0) {
    *points_ = batch;
  } else {
    PANDORA_EXPECT(batch.dim() == points_->dim(),
                   "inserted points must match the set's dimensionality");
    points_->coords().insert(points_->coords().end(), batch.coords().begin(),
                             batch.coords().end());
  }
  for (index_t j = 0; j < m; ++j) {
    const index_t id = next_id_++;
    ids.push_back(id);
    id_of_slot_.push_back(id);
    slot_of_id_.push_back(n_before + j);
  }
  stats_.points_inserted += static_cast<std::uint64_t>(m);
  ++stats_.update_batches;
  // The epoch bumps at the FIRST mutation, not after the repair: if the
  // repair throws mid-way, the points have already changed and no longer
  // belong to the old epoch.  `healthy_` stays false over the same window,
  // so a caller that catches the exception cannot keep computing on a
  // half-updated tree.
  ++epoch_;
  healthy_ = false;
  // Chaos seam: the widest mid-repair window — points mutated, structures not.
  PANDORA_FAILPOINT("dyn.insert.repair");

  if (n_before == 0) {
    rebuild_from_scratch();
    healthy_ = true;
    insert_metric().observe(timer.seconds());
    return ids;
  }

  // The batch joins the kd index before the repair, whose queries all go
  // to it: an identity remap over the indexed slots, the batch absorbed.
  {
    auto identity_lease = exec_->workspace().take_uninit<index_t>(n_before);
    exec::parallel_for(*exec_, n_before, [&](size_type s) {
      identity_lease[static_cast<std::size_t>(s)] = static_cast<index_t>(s);
    });
    reindex(identity_lease.span(), n_before);
  }
  std::vector<char> keep;
  graph::EdgeList added;
  repair_after_insert(n_before, m, keep, added);
  finish_update(keep, added, {}, points_->size());
  healthy_ = true;
  insert_metric().observe(timer.seconds());
  return ids;
}

index_t DynamicClustering::insert(std::span<const double> coords) {
  PANDORA_EXPECT(!coords.empty(), "a point needs at least one coordinate");
  spatial::PointSet one(static_cast<int>(coords.size()), 1);
  std::copy(coords.begin(), coords.end(), one.coords().begin());
  return insert(one).front();
}

/// Exact incremental repair (see the class comment).  The candidate graph is
/// the maintained tree plus the implicit stars of the new points; its MST is
/// the true EMST of the enlarged set (any absent edge is beaten by an
/// existing path, so the cycle property discards it).  A maintained edge of
/// weight w can only be displaced by a path of candidate edges lighter than
/// w through new points.  Its first new point q is reached from one child
/// cluster of the edge's dendrogram node and its last one reaches the other,
/// each over two distinct path edges, so its 2nd-nearest-neighbour distance
/// d2(q) is below w.  mark_doubtful_edges tests this per edge, for a batch of
/// any size, and every other maintained edge is pre-merged.  The doubtful
/// edges and the stars then go through Borůvka rounds: established points
/// scan their doubtful edges and probe the batch tree, new points query the
/// kd index, which holds every live point.  A point queries only once its
/// cached nearest star partner has joined its component, bounded by the
/// component's running minimum.  The established points find their nearest
/// new points a kd-index leaf at a time (`KdTree::nearest_in`).
void DynamicClustering::repair_after_insert(index_t n_before, index_t m,
                                            std::vector<char>& keep,
                                            graph::EdgeList& added) {
  const index_t n = points_->size();
  const spatial::PointSet& points = *points_;
  exec::Workspace& workspace = exec_->workspace();

  // A kd-tree over just the batch, so points can probe "nearest new point in
  // another component" in O(log m).  Its min-core annotation holds the new
  // points' squared d2 for the certificate's box queries.
  spatial::PointSet batch_points(points.dim(), m);
  std::copy(points.coords().begin() +
                static_cast<std::size_t>(n_before) * static_cast<std::size_t>(points.dim()),
            points.coords().end(), batch_points.coords().begin());
  const spatial::KdTree batch_tree(*exec_, batch_points, kLeafSize);
  spatial::KdTreeAnnotations batch_notes;

  // Every point keeps its nearest star partner (a new point for an
  // established point, any other point for a new one) and a lower bound on
  // its foreign stars' weights (`star_floor`, raised when a bounded query
  // proves more).  While the nearest partner is foreign it is the point's
  // exact star candidate, and no query runs.  Components only merge, so the
  // foreign set only shrinks and both stay valid across rounds.  Established
  // points' nearest new points also filter the certificate.
  auto nearest_lease = workspace.take_uninit<Candidate>(n);
  const std::span<Candidate> nearest = nearest_lease.span();
  auto star_floor_lease = workspace.take_uninit<double>(n);
  const std::span<double> star_floor = star_floor_lease.span();
  auto pending_lease = workspace.take_uninit<char>(n);
  const std::span<char> pending = pending_lease.span();
  exec::parallel_for(*exec_, n, [&](size_type p) { pending[static_cast<std::size_t>(p)] = 0; });
  const auto track_nearest = [&](index_t p, const spatial::Neighbor& nb) {
    const Candidate star{std::sqrt(nb.squared_distance), nb.index, kNone};
    nearest[static_cast<std::size_t>(p)] = star;
    star_floor[static_cast<std::size_t>(p)] = star.weight;
  };

  std::optional<exec::ScopedSpan> certificate_span;
  certificate_span.emplace(*exec_, "dyn.certificate");
  // By rank: every established point's nearest new point, a kd-index leaf
  // at a time, and every new point's two nearest other points, a kNN query
  // on the index.  Neighbours are (squared distance, slot) pairs.
  const std::span<const index_t> slot_of_rank = tree_->tree_order();
  auto d2_lease = workspace.take_uninit<double>(m);
  const std::span<double> d2_sq = d2_lease.span();
  {
    auto found_lease = workspace.take_uninit<spatial::Neighbor>(n);
    tree_->nearest_in(*exec_, batch_tree, found_lease.span());
    exec::parallel_for(*exec_, n, [&](size_type r) {
      const index_t p = slot_of_rank[static_cast<std::size_t>(r)];
      if (p < n_before) {
        const spatial::Neighbor& nb = found_lease[static_cast<std::size_t>(r)];
        track_nearest(p, {nb.squared_distance, n_before + nb.index});
        return;
      }
      thread_local std::vector<spatial::Neighbor> found;
      tree_->knn(static_cast<index_t>(r), 2, found);
      // With a single other point d2 degenerates to d1 (still safe: a
      // 2-point set has no displaceable maintained edges of lower weight).
      d2_sq[static_cast<std::size_t>(p - n_before)] = found.back().squared_distance;
      track_nearest(p, found.front());
    });
  }

  // --- pre-merge the maintained edges no path through the batch displaces --
  const auto e_old = static_cast<size_type>(edges_.size());
  keep.assign(static_cast<std::size_t>(e_old), 1);
  {
    auto rank_d2_lease = workspace.take_uninit<double>(m);
    const std::span<double> rank_d2_sq = rank_d2_lease.span();
    const std::span<const index_t> batch_id_of_rank = batch_tree.tree_order();
    exec::parallel_for(*exec_, m, [&](size_type r) {
      rank_d2_sq[static_cast<std::size_t>(r)] =
          d2_sq[static_cast<std::size_t>(batch_id_of_rank[static_cast<std::size_t>(r)])];
    });
    batch_tree.annotate_min_core(*exec_, rank_d2_sq, batch_notes);
    mark_doubtful_edges(*exec_, dendrogram_, points,
                        star_floor.first(static_cast<std::size_t>(n_before)), batch_tree,
                        rank_d2_sq, batch_notes, keep);
  }
  certificate_span.reset();

  // In parallel: the union-find hooks larger roots under smaller ones, so
  // the unions reach the same roots in any order, and the doubtful edges,
  // the CSR adjacency over them and the roots are compacted by prefix sums.
  // A maintained edge always joins two components (the edges form a tree).
  std::optional<exec::ScopedSpan> premerge_span;
  premerge_span.emplace(*exec_, "dyn.premerge");
  auto uf_lease = workspace.take_uninit<index_t>(n);
  graph::ConcurrentUnionFindView uf(uf_lease.span());
  exec::parallel_for(*exec_, n, [&](size_type x) {
    uf_lease[static_cast<std::size_t>(x)] = static_cast<index_t>(x);
  });
  auto position_lease = workspace.take_uninit<index_t>(std::max<size_type>(e_old, n) + 1);
  const auto positions = [&](size_type count) {
    return position_lease.span().first(static_cast<std::size_t>(count) + 1);
  };
  exec::parallel_for(*exec_, e_old, [&](size_type i) {
    const graph::WeightedEdge& e = edges_[static_cast<std::size_t>(i)];
    const bool kept = keep[static_cast<std::size_t>(i)] != 0;
    if (kept) uf.unite(e.u, e.v);
    position_lease[static_cast<std::size_t>(i)] = kept ? 0 : 1;
  });
  position_lease[static_cast<std::size_t>(e_old)] = 0;
  const size_type num_doubtful = exec::exclusive_scan<index_t>(
      *exec_, std::span<const index_t>(positions(e_old)), positions(e_old));
  auto doubtful_lease = workspace.take_uninit<index_t>(num_doubtful);
  const std::span<index_t> doubtful = doubtful_lease.span();
  exec::parallel_for(*exec_, e_old, [&](size_type i) {
    if (keep[static_cast<std::size_t>(i)] == 0)
      doubtful[static_cast<std::size_t>(position_lease[static_cast<std::size_t>(i)])] =
          static_cast<index_t>(i);
  });
  index_t components = n - static_cast<index_t>(e_old - num_doubtful);
  stats_.doubtful_edges += static_cast<std::uint64_t>(num_doubtful);

  // CSR adjacency over the doubtful edges only.  Each point's entries land
  // in claim order; a point has at most one edge to any other point, so
  // the order cannot decide a candidate.
  auto adj_offset_lease = workspace.take_uninit<index_t>(n + 1);
  const std::span<index_t> adj_offset = adj_offset_lease.span();
  exec::parallel_for(*exec_, n + 1,
                     [&](size_type x) { adj_offset[static_cast<std::size_t>(x)] = 0; });
  exec::parallel_for(*exec_, num_doubtful, [&](size_type a) {
    const graph::WeightedEdge& e =
        edges_[static_cast<std::size_t>(doubtful[static_cast<std::size_t>(a)])];
    exec::atomic_fetch_add(adj_offset[static_cast<std::size_t>(e.u)], index_t{1});
    exec::atomic_fetch_add(adj_offset[static_cast<std::size_t>(e.v)], index_t{1});
  });
  (void)exec::exclusive_scan<index_t>(*exec_, std::span<const index_t>(adj_offset), adj_offset);
  auto adj_edge_lease = workspace.take_uninit<index_t>(2 * num_doubtful);
  const std::span<index_t> adj_edge = adj_edge_lease.span();
  {
    auto cursor_lease = workspace.take_uninit<index_t>(n);
    const std::span<index_t> cursor = cursor_lease.span();
    exec::parallel_for(*exec_, n, [&](size_type x) {
      cursor[static_cast<std::size_t>(x)] = adj_offset[static_cast<std::size_t>(x)];
    });
    exec::parallel_for(*exec_, num_doubtful, [&](size_type a) {
      const index_t i = doubtful[static_cast<std::size_t>(a)];
      const graph::WeightedEdge& e = edges_[static_cast<std::size_t>(i)];
      adj_edge[static_cast<std::size_t>(
          exec::atomic_fetch_add(cursor[static_cast<std::size_t>(e.u)], index_t{1}))] = i;
      adj_edge[static_cast<std::size_t>(
          exec::atomic_fetch_add(cursor[static_cast<std::size_t>(e.v)], index_t{1}))] = i;
    });
  }

  // --- Borůvka rounds over the implicit candidate graph -------------------
  constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
  constexpr index_t kUnset = std::numeric_limits<index_t>::max();
  auto component_lease = workspace.take_uninit<index_t>(n);
  const std::span<index_t> component = component_lease.span();
  auto best_weight_lease = workspace.take_uninit<std::uint64_t>(n);
  const std::span<std::uint64_t> best_weight = best_weight_lease.span();
  auto best_point_lease = workspace.take_uninit<index_t>(n);
  const std::span<index_t> best_point = best_point_lease.span();
  auto candidate_lease = workspace.take_uninit<Candidate>(n);
  const std::span<Candidate> candidate = candidate_lease.span();
  exec::parallel_for(*exec_, n, [&](size_type x) {
    best_weight[static_cast<std::size_t>(x)] = kInf;
    best_point[static_cast<std::size_t>(x)] = kUnset;
    candidate[static_cast<std::size_t>(x)] = Candidate{};
  });
  // The kd-trees read components in their own rank order: each round
  // gathers the slot-indexed array into the index's and the batch tree's.
  auto index_component_lease = workspace.take_uninit<index_t>(n);
  const std::span<index_t> index_component = index_component_lease.span();
  auto batch_component_lease = workspace.take_uninit<index_t>(m);
  const std::span<index_t> batch_component = batch_component_lease.span();

  // p's lightest star to another component within `radius_sq` (kNone
  // partner when there is none), p at kd-index rank `rank`: a new point's
  // star spans every live point, one query on the index, and an established
  // point's spans the batch.
  const auto foreign_star = [&](index_t p, index_t rank, index_t c, double radius_sq) {
    const bool is_new = p >= n_before;
    const spatial::Neighbor nb =
        is_new ? tree_->nearest_other_component(rank, c, index_component, notes_, radius_sq)
               : batch_tree.nearest_other_component(points.point(p), c, batch_component,
                                                    batch_notes, radius_sq);
    if (nb.index == kNone) return Candidate{};
    return Candidate{std::sqrt(nb.squared_distance), is_new ? nb.index : n_before + nb.index,
                     kNone};
  };

  // The roots in ascending order, compacted by a prefix sum over root flags.
  exec::parallel_for(*exec_, n, [&](size_type x) {
    position_lease[static_cast<std::size_t>(x)] = uf.find(static_cast<index_t>(x)) == x ? 1 : 0;
  });
  position_lease[static_cast<std::size_t>(n)] = 0;
  index_t num_roots =
      exec::exclusive_scan<index_t>(*exec_, std::span<const index_t>(positions(n)), positions(n));
  PANDORA_EXPECT(num_roots == components, "pre-merge left an unexpected component count");
  auto roots_lease = workspace.take_uninit<index_t>(components);
  exec::parallel_for(*exec_, n, [&](size_type x) {
    const auto at = static_cast<std::size_t>(x);
    if (position_lease[at] != position_lease[at + 1]) roots_lease[position_lease[at]] = x;
  });
  premerge_span.reset();
  const exec::ScopedSpan rounds_span(*exec_, "dyn.rounds");
  while (components > 1) {
    ++stats_.boruvka_rounds;
    const std::span<index_t> roots = roots_lease.span().first(static_cast<std::size_t>(num_roots));
    exec::parallel_for(*exec_, n, [&](size_type x) {
      component[static_cast<std::size_t>(x)] = uf.find(static_cast<index_t>(x));
    });
    exec::parallel_for(*exec_, n, [&](size_type r) {
      index_component[static_cast<std::size_t>(r)] =
          component[static_cast<std::size_t>(slot_of_rank[static_cast<std::size_t>(r)])];
    });
    tree_->annotate_components(*exec_, index_component, notes_);
    const std::span<const index_t> batch_slot_of_rank = batch_tree.tree_order();
    exec::parallel_for(*exec_, m, [&](size_type r) {
      batch_component[static_cast<std::size_t>(r)] = component[static_cast<std::size_t>(
          n_before + batch_slot_of_rank[static_cast<std::size_t>(r)])];
    });
    batch_tree.annotate_components(*exec_, batch_component, batch_notes);

    // Phase 1a: every point with a cheap exact candidate — its best incident
    // candidate edge — proposes it and seeds its component's minimum.  A
    // previous round's candidate whose partner is still foreign remains the
    // exact per-point minimum (every candidate source — doubtful edges,
    // batch stars, index stars — only shrinks as components merge), so only
    // points made stale by the last round's hooks recompute.
    exec::parallel_for(*exec_, n, [&](size_type pi) {
      const auto p = static_cast<index_t>(pi);
      const index_t c = component[static_cast<std::size_t>(p)];
      const auto seed = [&](double weight) {
        exec::atomic_fetch_min(best_weight[static_cast<std::size_t>(c)],
                               exec::order_preserving_bits(weight));
      };
      {
        const Candidate& cached = candidate[static_cast<std::size_t>(p)];
        if (cached.partner != kNone &&
            component[static_cast<std::size_t>(cached.partner)] != c) {
          seed(cached.weight);
          return;
        }
      }
      Candidate best;
      // Doubtful maintained edges at p (established points only; new points
      // have none).
      for (index_t a = adj_offset[static_cast<std::size_t>(p)];
           a < adj_offset[static_cast<std::size_t>(p) + 1]; ++a) {
        const index_t i = adj_edge[static_cast<std::size_t>(a)];
        const graph::WeightedEdge& e = edges_[static_cast<std::size_t>(i)];
        const index_t other = e.u == p ? e.v : e.u;
        if (component[static_cast<std::size_t>(other)] == c) continue;
        const Candidate cand{e.weight, other, i};
        if (cand.better_than(best)) best = cand;
      }
      if (const Candidate& near = nearest[static_cast<std::size_t>(p)];
          component[static_cast<std::size_t>(near.partner)] != c) {
        if (near.better_than(best)) best = near;
      } else if (!(best.weight < star_floor[static_cast<std::size_t>(p)])) {
        // A foreign star might beat the maintained edges: phase 1b queries.
        // The edge candidate still bounds p's from above, so it may seed the
        // component's minimum.
        pending[static_cast<std::size_t>(p)] = 1;
      }
      candidate[static_cast<std::size_t>(p)] = best;
      if (best.partner != kNone) seed(best.weight);
    });

    // Phase 1b: each pending point queries its foreign stars, bounded by its
    // component's running minimum r (cf. spatial::emst): a candidate heavier
    // than r can never win phase 2.  Ties at r are still found (the radius
    // covers r's rounding), so every point attaining the final minimum holds
    // its exact candidate.  Finding nothing proves every foreign star
    // heavier than r, as does a star floor above r, which skips the query;
    // then the maintained-edge candidate is exact if it is within r, and
    // otherwise p cannot attain the minimum and proposes nothing this round.
    //
    // The points go a kd-index leaf at a time: when a leaf lies in one
    // component c and two or more of its pending established points would
    // query, one box test against the batch comes first, and when no foreign
    // new point lies within c's running minimum r of the leaf's box, each of
    // those queries would find nothing, so each of them takes r as its floor
    // exactly as its empty query would.  The box test proves nothing for a
    // new point, whose star spans the index: the leaf's pending new points
    // query in rank order with the rest.
    const auto radius_of = [&](index_t c) {
      const std::uint64_t bound =
          std::atomic_ref<std::uint64_t>(best_weight[static_cast<std::size_t>(c)])
              .load(std::memory_order_relaxed);
      // kInf bit-casts to a NaN, not +inf.
      return bound == kInf ? std::numeric_limits<double>::infinity() : std::bit_cast<double>(bound);
    };
    const auto settle = [&](index_t p, double r) {
      pending[static_cast<std::size_t>(p)] = 0;
      Candidate& cand = candidate[static_cast<std::size_t>(p)];
      if (!(cand.weight <= r)) cand.partner = kNone;
    };
    const auto resolve = [&](index_t p, index_t rank) {
      const index_t c = component[static_cast<std::size_t>(p)];
      const double r = radius_of(c);
      double& floor = star_floor[static_cast<std::size_t>(p)];
      if (floor <= r) {
        const Candidate star = foreign_star(p, rank, c, covering_sq(r));
        if (star.partner != kNone) {
          // The exact foreign minimum: every foreign star, now and after
          // later merges, weighs at least as much.
          floor = star.weight;
          pending[static_cast<std::size_t>(p)] = 0;
          Candidate& cand = candidate[static_cast<std::size_t>(p)];
          if (star.better_than(cand)) cand = star;
          exec::atomic_fetch_min(best_weight[static_cast<std::size_t>(c)],
                                 exec::order_preserving_bits(cand.weight));
          return;
        }
        floor = r;
      }
      settle(p, r);
    };
    const std::span<const spatial::KdTree::Leaf> leaves = tree_->leaves();
    const auto settle_established = [&](const spatial::KdTree::Leaf& leaf, index_t c) {
      const double r = radius_of(c);
      if (r == std::numeric_limits<double>::infinity()) return;
      int querying = 0;
      for (index_t rank = leaf.begin; rank < leaf.end && querying < 2; ++rank) {
        const index_t p = slot_of_rank[static_cast<std::size_t>(rank)];
        if (p < n_before && pending[static_cast<std::size_t>(p)] != 0 &&
            star_floor[static_cast<std::size_t>(p)] <= r)
          ++querying;
      }
      if (querying < 2 || batch_tree.any_foreign_near_box(tree_->box_lo(leaf), tree_->box_hi(leaf),
                                                          c, batch_component, {}, batch_notes,
                                                          covering_sq(r)))
        return;
      for (index_t rank = leaf.begin; rank < leaf.end; ++rank) {
        const index_t p = slot_of_rank[static_cast<std::size_t>(rank)];
        if (p >= n_before || pending[static_cast<std::size_t>(p)] == 0) continue;
        double& floor = star_floor[static_cast<std::size_t>(p)];
        floor = std::max(floor, r);
        settle(p, r);
      }
    };
    constexpr std::size_t kLeavesPerChunk = 8;
    const int num_chunks =
        static_cast<int>((leaves.size() + kLeavesPerChunk - 1) / kLeavesPerChunk);
    auto query_chunk = [&](int chunk) {
      const std::size_t first = static_cast<std::size_t>(chunk) * kLeavesPerChunk;
      for (const spatial::KdTree::Leaf& leaf :
           leaves.subspan(first, std::min(kLeavesPerChunk, leaves.size() - first))) {
        const index_t shared = notes_.node_component[static_cast<std::size_t>(leaf.node)];
        if (shared != kNone) settle_established(leaf, shared);
        for (index_t rank = leaf.begin; rank < leaf.end; ++rank) {
          const index_t p = slot_of_rank[static_cast<std::size_t>(rank)];
          if (pending[static_cast<std::size_t>(p)] != 0) resolve(p, rank);
        }
      }
    };
    exec_->run_chunks(num_chunks, exec_->num_threads(), query_chunk);

    // Phase 2: among weight ties, the smallest proposing point id wins (cf.
    // spatial::emst — exact lexicographic minimum without a wide CAS).
    exec::parallel_for(*exec_, n, [&](size_type pi) {
      const auto p = static_cast<index_t>(pi);
      const Candidate& cand = candidate[static_cast<std::size_t>(p)];
      if (cand.partner == kNone) return;
      const index_t c = component[static_cast<std::size_t>(p)];
      if (best_weight[static_cast<std::size_t>(c)] == exec::order_preserving_bits(cand.weight))
        exec::atomic_fetch_min(best_point[static_cast<std::size_t>(c)], p);
    });

    // Phase 3: hook the winners (sequential, so ties can never form cycles).
    const index_t before = components;
    for (const index_t r : roots) {
      const index_t p = best_point[static_cast<std::size_t>(r)];
      if (p == kUnset) continue;
      const Candidate& cand = candidate[static_cast<std::size_t>(p)];
      if (uf.find(p) == uf.find(cand.partner)) continue;
      uf.unite(p, cand.partner);
      --components;
      if (cand.maintained_edge != kNone) {
        keep[static_cast<std::size_t>(cand.maintained_edge)] = 1;  // re-selected
      } else {
        added.push_back({p, cand.partner, cand.weight});
      }
    }
    PANDORA_EXPECT(components < before, "incremental Borůvka made no progress");

    // The surviving roots keep their order, compacted in place.
    num_roots = 0;
    for (const index_t r : roots) {
      if (uf.find(r) == r) roots_lease[static_cast<std::size_t>(num_roots++)] = r;
      best_weight[static_cast<std::size_t>(r)] = kInf;
      best_point[static_cast<std::size_t>(r)] = kUnset;
    }
  }
}

void DynamicClustering::erase(std::span<const index_t> ids) {
  if (ids.empty()) return;
  const exec::ScopedSpan span(*exec_, "dyn.erase");
  const Timer timer;
  PANDORA_EXPECT(healthy_, "stream poisoned by an earlier failed update");
  const index_t n_old = points_->size();
  exec::Workspace& workspace = exec_->workspace();
  auto alive_lease = workspace.take<char>(n_old, 1);
  const std::span<char> alive = alive_lease.span();
  // Validate the whole batch before mutating any mapping, so a bad id
  // throws without leaving the instance half-updated.
  for (const index_t id : ids) {
    const index_t slot = slot_of(id);
    PANDORA_EXPECT(slot != kNone, "erase: unknown or already-erased id");
    PANDORA_EXPECT(alive[static_cast<std::size_t>(slot)] != 0, "erase: duplicate id in batch");
    alive[static_cast<std::size_t>(slot)] = 0;
  }
  for (const index_t id : ids) slot_of_id_[static_cast<std::size_t>(id)] = kNone;
  stats_.points_erased += static_cast<std::uint64_t>(ids.size());
  ++stats_.update_batches;
  ++epoch_;  // first mutation, same rationale (and same healthy_ window) as insert()
  healthy_ = false;
  PANDORA_FAILPOINT("dyn.erase.repair");

  const index_t n_new = n_old - static_cast<index_t>(ids.size());
  if (n_new == 0) {
    points_ = std::make_unique<spatial::PointSet>();
    id_of_slot_.clear();
    edges_.clear();
    sorted_ = {};
    tree_.reset();
    drift_ = 0;
    replay_dendrogram();
    healthy_ = true;
    erase_metric().observe(timer.seconds());
    return;
  }

  // Stable slot compaction: survivors keep their relative order, so the
  // rebuilt-from-scratch reference over points() sees the same point order.
  // In place and serial (a slot only moves down); `coords()` is fetched once,
  // as each call invalidates the SoA mirror.
  auto remap_lease = workspace.take_uninit<index_t>(n_old);
  const std::span<index_t> remap = remap_lease.span();
  const auto dim = static_cast<std::size_t>(points_->dim());
  std::vector<double>& coords = points_->coords();
  index_t next_slot = 0;
  for (index_t s = 0; s < n_old; ++s) {
    if (alive[static_cast<std::size_t>(s)] == 0) {
      remap[static_cast<std::size_t>(s)] = kNone;
      continue;
    }
    const index_t d = next_slot++;
    remap[static_cast<std::size_t>(s)] = d;
    if (d != s) {
      std::copy_n(coords.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(s) * dim),
                  dim,
                  coords.begin() + static_cast<std::ptrdiff_t>(static_cast<std::size_t>(d) * dim));
      id_of_slot_[static_cast<std::size_t>(d)] = id_of_slot_[static_cast<std::size_t>(s)];
    }
  }
  coords.resize(static_cast<std::size_t>(n_new) * dim);
  id_of_slot_.resize(static_cast<std::size_t>(n_new));
  exec::parallel_for(*exec_, n_new, [&](size_type s) {
    slot_of_id_[static_cast<std::size_t>(id_of_slot_[static_cast<std::size_t>(s)])] =
        static_cast<index_t>(s);
  });

  // Compaction moved the indexed coordinates: re-index now (the splinter
  // join below queries the index).
  reindex(remap, n_new);

  // Splinter: every surviving edge provably stays in the new EMST (erasing
  // points removes paths, never adds them), so the survivors' components
  // only need minimum-weight re-joining — the component-restricted Borůvka
  // entry of spatial::emst.  The union-find hooks larger roots under
  // smaller ones, so the concurrent unions reach the same roots in any
  // order.
  const auto e_old = static_cast<size_type>(edges_.size());
  std::vector<char> keep(static_cast<std::size_t>(e_old));
  graph::ConcurrentUnionFind uf(n_new);
  exec::parallel_for(*exec_, e_old, [&](size_type i) {
    const graph::WeightedEdge& e = edges_[static_cast<std::size_t>(i)];
    const index_t u = remap[static_cast<std::size_t>(e.u)];
    const index_t v = remap[static_cast<std::size_t>(e.v)];
    keep[static_cast<std::size_t>(i)] = u != kNone && v != kNone ? 1 : 0;
    if (keep[static_cast<std::size_t>(i)] != 0) uf.unite(u, v);
  });
  graph::EdgeList added;
  {
    const exec::ScopedSpan join_span(*exec_, "dyn.join");
    added = spatial::join_components_emst(*exec_, *points_, *tree_, uf);
  }

  finish_update(keep, added, remap, n_new);
  healthy_ = true;
  erase_metric().observe(timer.seconds());
}

void DynamicClustering::finish_update(std::span<const char> keep, const graph::EdgeList& added,
                                      std::span<const index_t> vertex_remap,
                                      index_t num_vertices) {
  // Maintained list: survivors in maintained order (remapped), then the
  // delta — exactly the order merge_sorted_edges_delta renumbers against.
  edges_scratch_.clear();
  edges_scratch_.reserve(static_cast<std::size_t>(num_vertices));
  std::uint64_t kept = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (keep[i] == 0) continue;
    graph::WeightedEdge e = edges_[i];
    if (!vertex_remap.empty()) {
      e.u = vertex_remap[static_cast<std::size_t>(e.u)];
      e.v = vertex_remap[static_cast<std::size_t>(e.v)];
    }
    edges_scratch_.push_back(e);
    ++kept;
  }
  stats_.edges_removed += edges_.size() - kept;
  stats_.edges_added += added.size();
  edges_scratch_.insert(edges_scratch_.end(), added.begin(), added.end());

  merge_sorted_edges_delta(*exec_, sorted_, keep, added, vertex_remap, num_vertices,
                           sorted_scratch_);
  std::swap(sorted_, sorted_scratch_);
  std::swap(edges_, edges_scratch_);

  replay_dendrogram();
}

hdbscan::HdbscanResult DynamicClustering::hdbscan(const hdbscan::HdbscanOptions& options) const {
  PANDORA_EXPECT(healthy_, "stream poisoned by an earlier failed update");
  PANDORA_EXPECT(points_->size() > 0, "hdbscan needs at least one point");
  return pandora::hdbscan::hdbscan(*exec_, *points_, options);
}

ArtifactBundle DynamicClustering::capture_artifacts() const {
  PANDORA_EXPECT(healthy_, "stream poisoned by an earlier failed update");
  const exec::ScopedSpan span(*exec_, "dyn.capture");
  ArtifactBundle bundle;
  bundle.epoch = epoch_;
  bundle.points = std::make_shared<const spatial::PointSet>(*points_);
  if (tree_ != nullptr)
    bundle.tree = std::make_shared<const spatial::KdTree>(*tree_, *bundle.points);
  bundle.ids = std::make_shared<const std::vector<index_t>>(id_of_slot_);
  bundle.emst = std::make_shared<const graph::EdgeList>(edges_);
  bundle.sorted_edges = std::make_shared<const dendrogram::SortedEdges>(sorted_);
  bundle.dendrogram = std::make_shared<const dendrogram::Dendrogram>(dendrogram_);
  return bundle;
}

void DynamicClustering::restore(const ArtifactBundle& bundle) {
  PANDORA_EXPECT(bundle.points != nullptr && bundle.ids != nullptr && bundle.emst != nullptr &&
                     bundle.sorted_edges != nullptr && bundle.dendrogram != nullptr,
                 "restore: incomplete artifact bundle");
  PANDORA_EXPECT(bundle.ids->size() == static_cast<std::size_t>(bundle.points->size()),
                 "restore: bundle id map does not match its point set");

  *points_ = *bundle.points;
  id_of_slot_ = *bundle.ids;
  edges_ = *bundle.emst;
  sorted_ = *bundle.sorted_edges;
  dendrogram_ = *bundle.dendrogram;

  // Rebuild the inverse id map.  Ids issued after the bundle was captured
  // stay burned: next_id_ never decreases, so a recovered stream cannot hand
  // out an id that some caller already holds for a (now rolled-back) point.
  index_t max_id = -1;
  for (const index_t id : id_of_slot_) max_id = std::max(max_id, id);
  next_id_ = std::max(next_id_, max_id + 1);
  slot_of_id_.assign(static_cast<std::size_t>(next_id_), kNone);
  for (index_t s = 0; s < static_cast<index_t>(id_of_slot_.size()); ++s)
    slot_of_id_[static_cast<std::size_t>(id_of_slot_[static_cast<std::size_t>(s)])] = s;

  if (points_->size() > 0) {
    rebuild_index();
  } else {
    tree_.reset();
  }

  // A fresh epoch, never the bundle's: the failed update already burned
  // epoch numbers, and published epochs must only ever increase.
  ++epoch_;
  healthy_ = true;
}

}  // namespace pandora::dyn

#include "pandora/spatial/kdtree.hpp"

#include <bit>
#include <numeric>

#include "pandora/common/expect.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/spatial/distance.hpp"

namespace pandora::spatial {

KdTree::KdTree(const PointSet& points, int leaf_size)
    : points_(&points), dim_(points.dim()), leaf_size_(std::max(leaf_size, 1)) {
  PANDORA_EXPECT(dim_ > 0, "points must have positive dimension");
  const index_t n = points.size();
  perm_.resize(static_cast<std::size_t>(n));
  std::iota(perm_.begin(), perm_.end(), index_t{0});
  if (n > 0) {
    build(0, n);
    build_leaf_soa();
  }
}

void KdTree::build_leaf_soa() {
  // One dimension-blocked SoA block per leaf, laid out back to back in perm
  // order (a leaf's range [begin, end) owns leaf_soa_[begin*dim, end*dim)).
  leaf_soa_.resize(perm_.size() * static_cast<std::size_t>(dim_));
  for (const Node& nd : nodes_) {
    if (nd.left != kNone) continue;
    const index_t count = nd.end - nd.begin;
    max_leaf_count_ = std::max(max_leaf_count_, count);
    double* block = leaf_soa_.data() +
                    static_cast<std::size_t>(nd.begin) * static_cast<std::size_t>(dim_);
    for (index_t i = 0; i < count; ++i) {
      const std::span<const double> p = points_->point(perm_[static_cast<std::size_t>(nd.begin + i)]);
      for (int d = 0; d < dim_; ++d)
        block[static_cast<std::size_t>(d) * static_cast<std::size_t>(count) +
              static_cast<std::size_t>(i)] = p[static_cast<std::size_t>(d)];
    }
  }
}

void KdTree::scan_leaf(const Node& nd, const double* query, double* out) const {
  const index_t count = nd.end - nd.begin;
  distance::batch_squared_distances(
      query,
      leaf_soa_.data() + static_cast<std::size_t>(nd.begin) * static_cast<std::size_t>(dim_),
      dim_, count, count, out);
}

void KdTree::update_box(index_t node) {
  const Node& nd = nodes_[static_cast<std::size_t>(node)];
  const std::size_t base = static_cast<std::size_t>(node) * static_cast<std::size_t>(dim_);
  for (int d = 0; d < dim_; ++d) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (index_t i = nd.begin; i < nd.end; ++i) {
      const double c = points_->at(perm_[static_cast<std::size_t>(i)], d);
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    box_lo_[base + static_cast<std::size_t>(d)] = lo;
    box_hi_[base + static_cast<std::size_t>(d)] = hi;
  }
}

index_t KdTree::build(index_t begin, index_t end) {
  const auto id = static_cast<index_t>(nodes_.size());
  nodes_.push_back(Node{begin, end, kNone, kNone, 0, 0.0});
  box_lo_.resize(box_lo_.size() + static_cast<std::size_t>(dim_));
  box_hi_.resize(box_hi_.size() + static_cast<std::size_t>(dim_));
  update_box(id);
  if (end - begin <= leaf_size_) return id;

  // Split the widest box extent at the median point.
  const std::size_t base = static_cast<std::size_t>(id) * static_cast<std::size_t>(dim_);
  int split_dim = 0;
  double widest = -1;
  for (int d = 0; d < dim_; ++d) {
    const double extent = box_hi_[base + static_cast<std::size_t>(d)] -
                          box_lo_[base + static_cast<std::size_t>(d)];
    if (extent > widest) {
      widest = extent;
      split_dim = d;
    }
  }
  const index_t mid = begin + (end - begin) / 2;
  std::nth_element(perm_.begin() + begin, perm_.begin() + mid, perm_.begin() + end,
                   [&](index_t a, index_t b) {
                     const double ca = points_->at(a, split_dim);
                     const double cb = points_->at(b, split_dim);
                     if (ca != cb) return ca < cb;
                     return a < b;  // deterministic partition under ties
                   });
  const double split_value = points_->at(perm_[static_cast<std::size_t>(mid)], split_dim);

  const index_t left = build(begin, mid);
  const index_t right = build(mid, end);
  Node& nd = nodes_[static_cast<std::size_t>(id)];
  nd.left = left;
  nd.right = right;
  nd.split_dim = split_dim;
  nd.split_value = split_value;
  return id;
}

double KdTree::box_squared_distance(index_t node, const double* query) const {
  const std::size_t base = static_cast<std::size_t>(node) * static_cast<std::size_t>(dim_);
  double sum = 0;
  for (int d = 0; d < dim_; ++d) {
    const double c = query[d];
    const double lo = box_lo_[base + static_cast<std::size_t>(d)];
    const double hi = box_hi_[base + static_cast<std::size_t>(d)];
    const double diff = c < lo ? lo - c : (c > hi ? c - hi : 0.0);
    sum += diff * diff;
  }
  return sum;
}

namespace {

/// Per-thread scratch for one leaf's worth of squared distances, shared by
/// every query path on the thread (leaf scans never nest).
double* leaf_scratch(index_t max_leaf_count) {
  thread_local std::vector<double> scratch;
  if (scratch.size() < static_cast<std::size_t>(max_leaf_count))
    scratch.resize(static_cast<std::size_t>(max_leaf_count));
  return scratch.data();
}

}  // namespace

void KdTree::knn_search(const double* query, int k, index_t exclude,
                        std::vector<Neighbor>& out) const {
  out.clear();
  if (k <= 0 || size() == 0) return;
  out.reserve(static_cast<std::size_t>(k));

  double* leaf_sq = leaf_scratch(max_leaf_count_);

  // `out` stays sorted ascending; with <= 16 typical neighbours an insertion
  // buffer beats a heap.
  auto offer = [&](index_t p, double sq) {
    if (p == exclude) return;
    Neighbor cand{sq, p};
    if (static_cast<int>(out.size()) == k && !(cand < out.back())) return;
    auto pos = std::lower_bound(out.begin(), out.end(), cand);
    out.insert(pos, cand);
    if (static_cast<int>(out.size()) > k) out.pop_back();
  };

  // Depth-first with near-child preference.
  auto visit = [&](auto&& self, index_t node) -> void {
    const Node& nd = nodes_[static_cast<std::size_t>(node)];
    if (static_cast<int>(out.size()) == k &&
        box_squared_distance(node, query) > out.back().squared_distance)
      return;
    if (nd.left == kNone) {
      scan_leaf(nd, query, leaf_sq);
      for (index_t i = nd.begin; i < nd.end; ++i)
        offer(perm_[static_cast<std::size_t>(i)], leaf_sq[static_cast<std::size_t>(i - nd.begin)]);
      return;
    }
    const bool left_first = query[nd.split_dim] <= nd.split_value;
    self(self, left_first ? nd.left : nd.right);
    self(self, left_first ? nd.right : nd.left);
  };
  visit(visit, 0);
}

void KdTree::knn(index_t q, int k, std::vector<Neighbor>& out) const {
  knn_search(points_->point(q).data(), std::min<index_t>(k, size() - 1), q, out);
}

void KdTree::knn(std::span<const double> query, int k, std::vector<Neighbor>& out) const {
  knn_search(query.data(), std::min<index_t>(k, size()), kNone, out);
}

void KdTree::knn_batch(std::span<const index_t> queries, int k, std::vector<Neighbor>& out) const {
  thread_local std::vector<Neighbor> one;
  out.clear();
  for (const index_t q : queries) {
    knn(q, k, one);
    out.insert(out.end(), one.begin(), one.end());
  }
}

void KdTree::knn_batch(const double* queries, index_t num_queries, int k,
                       std::vector<Neighbor>& out) const {
  thread_local std::vector<Neighbor> one;
  out.clear();
  for (index_t i = 0; i < num_queries; ++i) {
    knn({queries + static_cast<std::size_t>(i) * static_cast<std::size_t>(dim_),
         static_cast<std::size_t>(dim_)},
        k, one);
    out.insert(out.end(), one.begin(), one.end());
  }
}

namespace {

/// Plain Euclidean scoring for component queries: the leaf scan's batched
/// squared distance IS the score.
struct EuclideanScore {
  double from_sq(index_t /*p*/, double sq) const { return sq; }
};

/// Starting best of a query bounded by `radius_sq`: every real point id sorts
/// below the sentinel index, so a candidate tying the radius still beats it.
constexpr index_t kRadiusSentinel = std::numeric_limits<index_t>::max();

Neighbor within_radius(double radius_sq) { return {radius_sq, kRadiusSentinel}; }

Neighbor found_or_none(const Neighbor& best) {
  return best.index == kRadiusSentinel ? Neighbor{} : best;
}

}  // namespace

template <class Score>
void KdTree::search(const double* query, Neighbor& best, index_t my_component,
                    std::span<const index_t> component, const KdTreeAnnotations& notes,
                    const Score& score) const {
  // Iterative DFS; near child first.  Pruning uses strict '>' so equal-score
  // candidates are still examined and the smallest index wins ties.  The
  // stack is per-thread scratch (searches never nest), so a warm thread's
  // queries allocate nothing.
  thread_local std::vector<index_t> stack;
  stack.clear();
  stack.push_back(0);
  double* leaf_sq = leaf_scratch(max_leaf_count_);
  // my_component == kNone disables the component filter entirely (a node's
  // kNone annotation means "mixed", which must never prune in that case).
  const bool filtered = my_component != kNone;
  while (!stack.empty()) {
    const index_t node = stack.back();
    stack.pop_back();
    if (filtered && notes.has_components() &&
        notes.node_component[static_cast<std::size_t>(node)] == my_component)
      continue;
    double bound = box_squared_distance(node, query);
    if constexpr (requires { score.extra_bound(node); }) {
      bound = std::max(bound, score.extra_bound(node));
    }
    if (bound > best.squared_distance) continue;
    const Node& nd = nodes_[static_cast<std::size_t>(node)];
    if (nd.left == kNone) {
      scan_leaf(nd, query, leaf_sq);
      for (index_t i = nd.begin; i < nd.end; ++i) {
        const index_t p = perm_[static_cast<std::size_t>(i)];
        if (filtered && component[static_cast<std::size_t>(p)] == my_component) continue;
        Neighbor cand{score.from_sq(p, leaf_sq[static_cast<std::size_t>(i - nd.begin)]), p};
        if (cand < best) best = cand;
      }
      continue;
    }
    const bool left_first = query[nd.split_dim] <= nd.split_value;
    // Far child pushed first so the near child is processed next.
    stack.push_back(left_first ? nd.right : nd.left);
    stack.push_back(left_first ? nd.left : nd.right);
  }
}

Neighbor KdTree::nearest_other_component(index_t q, index_t my_component,
                                         std::span<const index_t> component,
                                         const KdTreeAnnotations& notes,
                                         double radius_sq) const {
  Neighbor best = within_radius(radius_sq);
  const double* query = points_->point(q).data();
  EuclideanScore score{};
  search(query, best, my_component, component, notes, score);
  return found_or_none(best);
}

Neighbor KdTree::nearest_other_component(std::span<const double> query, index_t my_component,
                                         std::span<const index_t> component,
                                         const KdTreeAnnotations& notes) const {
  Neighbor best;
  if (size() == 0) return best;
  // An out-of-index coordinate query scores exactly like an indexed one: the
  // leaf scan's squared distance is the score.
  EuclideanScore score{};
  search(query.data(), best, my_component, component, notes, score);
  return best;
}

namespace {

/// Mreach score with the per-node minimum-core bound wired in.
struct MreachScoreBound {
  index_t q;
  std::span<const double> core_sq;
  const std::vector<double>* node_min_core;

  double from_sq(index_t p, double sq) const {
    return std::max({sq, core_sq[static_cast<std::size_t>(q)],
                     core_sq[static_cast<std::size_t>(p)]});
  }
  double extra_bound(index_t node) const {
    double b = core_sq[static_cast<std::size_t>(q)];
    if (!node_min_core->empty())
      b = std::max(b, (*node_min_core)[static_cast<std::size_t>(node)]);
    return b;
  }
};

}  // namespace

Neighbor KdTree::nearest_other_component_mreach(index_t q, index_t my_component,
                                                std::span<const index_t> component,
                                                std::span<const double> core_sq,
                                                const KdTreeAnnotations& notes,
                                                double radius_sq) const {
  Neighbor best = within_radius(radius_sq);
  const double* query = points_->point(q).data();
  MreachScoreBound score{q, core_sq, &notes.node_min_core};
  search(query, best, my_component, component, notes, score);
  return found_or_none(best);
}

void KdTree::annotate_components(const exec::Executor& exec,
                                 std::span<const index_t> component,
                                 KdTreeAnnotations& notes) const {
  const auto num_nodes = static_cast<size_type>(nodes_.size());
  std::vector<index_t>& node_component = notes.node_component;
  node_component.assign(nodes_.size(), kNone);
  // Leaves in parallel, then internal nodes in reverse creation order
  // (children always have larger ids than their parent).
  exec::parallel_for(exec, num_nodes, [&](size_type id) {
    const Node& nd = nodes_[static_cast<std::size_t>(id)];
    if (nd.left != kNone) return;
    index_t c = component[static_cast<std::size_t>(perm_[static_cast<std::size_t>(nd.begin)])];
    for (index_t i = nd.begin + 1; i < nd.end && c != kNone; ++i)
      if (component[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] != c) c = kNone;
    node_component[static_cast<std::size_t>(id)] = c;
  });
  for (size_type id = num_nodes - 1; id >= 0; --id) {
    const Node& nd = nodes_[static_cast<std::size_t>(id)];
    if (nd.left == kNone) continue;
    const index_t cl = node_component[static_cast<std::size_t>(nd.left)];
    const index_t cr = node_component[static_cast<std::size_t>(nd.right)];
    node_component[static_cast<std::size_t>(id)] = (cl == cr) ? cl : kNone;
  }
}

void KdTree::annotate_min_core(const exec::Executor& exec, std::span<const double> core_sq,
                               KdTreeAnnotations& notes) const {
  const auto num_nodes = static_cast<size_type>(nodes_.size());
  std::vector<double>& node_min_core = notes.node_min_core;
  node_min_core.assign(nodes_.size(), std::numeric_limits<double>::infinity());
  exec::parallel_for(exec, num_nodes, [&](size_type id) {
    const Node& nd = nodes_[static_cast<std::size_t>(id)];
    if (nd.left != kNone) return;
    double m = std::numeric_limits<double>::infinity();
    for (index_t i = nd.begin; i < nd.end; ++i)
      m = std::min(m, core_sq[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])]);
    node_min_core[static_cast<std::size_t>(id)] = m;
  });
  for (size_type id = num_nodes - 1; id >= 0; --id) {
    const Node& nd = nodes_[static_cast<std::size_t>(id)];
    if (nd.left == kNone) continue;
    node_min_core[static_cast<std::size_t>(id)] =
        std::min(node_min_core[static_cast<std::size_t>(nd.left)],
                 node_min_core[static_cast<std::size_t>(nd.right)]);
  }
}

std::uint64_t point_set_fingerprint(const exec::Executor& exec, const PointSet& points) {
  using exec::mix_fingerprint;
  const size_type n = static_cast<size_type>(points.size());
  const int dim = points.dim();
  // Each point hashes with its position, so the sum is order-sensitive while
  // remaining a deterministic parallel reduction (cf. mst_fingerprint).
  const std::uint64_t body = exec::parallel_sum(
      exec, n, std::uint64_t{0}, [&](size_type i) {
        std::uint64_t h = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1);
        const std::span<const double> p = points.point(static_cast<index_t>(i));
        for (const double c : p) h = mix_fingerprint(h ^ std::bit_cast<std::uint64_t>(c));
        return h;
      });
  return mix_fingerprint(body ^ mix_fingerprint(static_cast<std::uint64_t>(n)) ^
                         mix_fingerprint(~static_cast<std::uint64_t>(
                             static_cast<std::uint32_t>(dim))));
}

namespace {

/// A kd-tree artifact as stored in the Executor's ArtifactCache.  The tree
/// references the PointSet it was built over; `points` records which object
/// that was so a lookup against a different (even content-identical) object
/// rebuilds instead of returning a view into someone else's storage.
struct CachedKdTree {
  CachedKdTree(const PointSet& pts, int leaf_size) : tree(pts, leaf_size), points(&pts) {}
  KdTree tree;
  const PointSet* points;
};

}  // namespace

std::shared_ptr<const KdTree> kdtree_cached(const exec::Executor& exec, const PointSet& points,
                                            int leaf_size,
                                            std::optional<std::uint64_t> points_fingerprint) {
  const auto build = [&] {
    auto owned = std::make_shared<CachedKdTree>(points, leaf_size);
    const KdTree* view = &owned->tree;
    return std::shared_ptr<const KdTree>(std::move(owned), view);
  };
  if (!exec.artifact_caching()) return build();

  const std::uint64_t base =
      points_fingerprint ? *points_fingerprint : point_set_fingerprint(exec, points);
  const std::uint64_t key = exec::combine_fingerprint(
      exec::tagged_fingerprint(exec::ArtifactTag::kdtree, base),
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(leaf_size)));
  std::shared_ptr<CachedKdTree> entry = exec.artifact_cache().find<CachedKdTree>(key);
  if (entry == nullptr || entry->points != &points) {
    entry = std::make_shared<CachedKdTree>(points, leaf_size);
    exec.artifact_cache().insert(key, entry);
  }
  const KdTree* view = &entry->tree;
  return {std::move(entry), view};
}

}  // namespace pandora::spatial

#include "pandora/spatial/kdtree.hpp"

#include <bit>
#include <iterator>
#include <numeric>
#include <utility>

#include "pandora/common/expect.hpp"
#include "pandora/exec/fingerprint.hpp"
#include "pandora/exec/parallel.hpp"
#include "pandora/exec/scan.hpp"
#include "pandora/spatial/distance.hpp"

namespace pandora::spatial {

namespace {

/// Node counts of kd subtrees over m and m + 1 points: a subtree over m
/// points is one leaf when m <= leaf_size, else a node over subtrees of
/// m / 2 and m - m / 2 points.  Sizes on one depth differ by at most one,
/// so carrying the pair makes this O(log m).
std::pair<index_t, index_t> subtree_node_counts(index_t m, index_t leaf_size) {
  if (m + 1 <= leaf_size) return {1, 1};
  const auto [half, half_plus_one] = subtree_node_counts(m / 2, leaf_size);
  const bool even = m % 2 == 0;
  const index_t count = m <= leaf_size ? 1
                        : even        ? 1 + 2 * half
                                      : 1 + half + half_plus_one;
  return {count, even ? 1 + half + half_plus_one : 1 + 2 * half_plus_one};
}

/// A subtree still to be built: its preorder node id and its perm_ range.
struct PendingSubtree {
  index_t id = kNone;
  index_t begin = 0, end = 0;
};

}  // namespace

KdTree::KdTree(const exec::Executor& exec, const PointSet& points, int leaf_size)
    : KdTree(points, leaf_size, &exec) {}

KdTree::KdTree(const PointSet& points, int leaf_size) : KdTree(points, leaf_size, nullptr) {}

KdTree::KdTree(const KdTree& index, const PointSet& points) : KdTree(index) {
  PANDORA_EXPECT(points.size() == size() && points.dim() == dim_, "points unlike the index's");
  points_ = &points;
}

KdTree::KdTree(const PointSet& points, int leaf_size, const exec::Executor* exec)
    : points_(&points), dim_(points.dim()), leaf_size_(std::max(leaf_size, 1)) {
  PANDORA_EXPECT(dim_ > 0, "points must have positive dimension");
  const index_t n = points.size();
  perm_.resize(static_cast<std::size_t>(n));
  std::iota(perm_.begin(), perm_.end(), index_t{0});
  if (n == 0) return;

  // Preorder ids are fixed by subtree sizes, so every array is sized up
  // front and disjoint subtrees fill their own slots concurrently.
  const auto num_nodes = static_cast<std::size_t>(subtree_node_counts(n, leaf_size_).first);
  nodes_.resize(num_nodes);
  box_lo_.resize(num_nodes * static_cast<std::size_t>(dim_));
  box_hi_.resize(num_nodes * static_cast<std::size_t>(dim_));
  columns_.resize(perm_.size() * static_cast<std::size_t>(dim_));

  // Without an executor the same chunks run in order on the calling thread.
  const int workers = exec != nullptr ? exec->num_threads() : 1;
  const auto run = [&](std::size_t num_chunks, auto&& body) {
    if (exec != nullptr)
      exec->run_chunks(static_cast<int>(num_chunks), workers, body);
    else
      for (std::size_t c = 0; c < num_chunks; ++c) body(static_cast<int>(c));
  };

  // The columns start in id order (perm_ is the identity) and every split
  // permutes them with perm_, so each node reads its own range of each
  // column, contiguously, and the leaves end up in rank order.
  constexpr index_t kPointsPerChunk = 4096;
  run(static_cast<std::size_t>((n + kPointsPerChunk - 1) / kPointsPerChunk), [&](int c) {
    const index_t lo = static_cast<index_t>(c) * kPointsPerChunk;
    const index_t hi = std::min<index_t>(n, lo + kPointsPerChunk);
    for (index_t i = lo; i < hi; ++i) {
      const std::span<const double> p = points.point(i);
      for (int d = 0; d < dim_; ++d)
        columns_[static_cast<std::size_t>(d) * static_cast<std::size_t>(n) +
                 static_cast<std::size_t>(i)] = p[static_cast<std::size_t>(d)];
    }
  });

  // The top levels split breadth-first, one chunk per node, until there are
  // enough subtrees to balance; then one chunk builds each subtree.  Every
  // node partitions the same range the same way as a serial recursion, so
  // the tree is identical whatever the worker count.
  std::vector<PendingSubtree> level{{0, 0, n}};
  std::vector<PendingSubtree> next;
  while (!level.empty() && level.size() < 4 * static_cast<std::size_t>(workers)) {
    next.assign(2 * level.size(), PendingSubtree{});
    auto split_level = [&](int c) {
      const PendingSubtree& s = level[static_cast<std::size_t>(c)];
      SplitKeys keys;
      const index_t mid = build_node(s.id, s.begin, s.end, keys);
      if (mid == kNone) return;
      const Node& nd = nodes_[static_cast<std::size_t>(s.id)];
      next[2 * static_cast<std::size_t>(c)] = {nd.left, s.begin, mid};
      next[2 * static_cast<std::size_t>(c) + 1] = {nd.right, mid, s.end};
    };
    run(level.size(), split_level);
    level.clear();
    std::copy_if(next.begin(), next.end(), std::back_inserter(level),
                 [](const PendingSubtree& s) { return s.id != kNone; });
  }
  auto build_level = [&](int c) {
    const PendingSubtree& s = level[static_cast<std::size_t>(c)];
    SplitKeys keys;
    build_subtree(s.id, s.begin, s.end, keys);
  };
  if (!level.empty()) run(level.size(), build_level);
  index_leaves();
}

void KdTree::index_leaves() {
  // Preorder visits the leaves left to right, i.e. in rank order.
  leaves_.clear();
  max_leaf_count_ = 0;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (nd.left != kNone) continue;
    leaves_.push_back({static_cast<index_t>(id), nd.begin, nd.end});
    max_leaf_count_ = std::max(max_leaf_count_, nd.end - nd.begin);
  }
}

void KdTree::build_subtree(index_t id, index_t begin, index_t end, SplitKeys& keys) {
  const index_t mid = build_node(id, begin, end, keys);
  if (mid == kNone) return;
  const Node& nd = nodes_[static_cast<std::size_t>(id)];
  build_subtree(nd.left, begin, mid, keys);
  build_subtree(nd.right, mid, end, keys);
}

void KdTree::scan_leaf(const Node& nd, const double* query, double* out) const {
  const index_t count = nd.end - nd.begin;
  distance::batch_squared_distances(query, columns_.data() + nd.begin, dim_, count, size(), out);
}

const double* KdTree::query_at(index_t r) const {
  thread_local std::vector<double> query;
  query.resize(static_cast<std::size_t>(dim_));
  const std::size_t n = perm_.size();
  for (int d = 0; d < dim_; ++d)
    query[static_cast<std::size_t>(d)] =
        columns_[static_cast<std::size_t>(d) * n + static_cast<std::size_t>(r)];
  return query.data();
}

void KdTree::update_box(index_t node) {
  const Node& nd = nodes_[static_cast<std::size_t>(node)];
  const std::size_t base = static_cast<std::size_t>(node) * static_cast<std::size_t>(dim_);
  // Each dimension folds its column over the node's range in rank order.
  for (int d = 0; d < dim_; ++d) {
    const double* column = columns_.data() + static_cast<std::size_t>(d) * perm_.size();
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    for (index_t i = nd.begin; i < nd.end; ++i) {
      lo = std::min(lo, column[i]);
      hi = std::max(hi, column[i]);
    }
    box_lo_[base + static_cast<std::size_t>(d)] = lo;
    box_hi_[base + static_cast<std::size_t>(d)] = hi;
  }
}

index_t KdTree::build_node(index_t id, index_t begin, index_t end, SplitKeys& keys) {
  Node& nd = nodes_[static_cast<std::size_t>(id)];
  nd = Node{begin, end, kNone, kNone, 0, 0.0};
  update_box(id);
  if (end - begin <= leaf_size_) return kNone;

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
  const auto count = static_cast<std::size_t>(end - begin);
  const std::size_t n = perm_.size();
  // Select on (coordinate, id) keys gathered from the split column into the
  // chunk's scratch: the same comparisons and moves as selecting ids through
  // the point array, on contiguous memory.
  keys.resize(count);
  const double* const split_column = columns_.data() + static_cast<std::size_t>(split_dim) * n;
  for (index_t i = begin; i < end; ++i)
    keys[static_cast<std::size_t>(i - begin)] = {split_column[i], perm_[static_cast<std::size_t>(i)],
                                                 i - begin};
  std::nth_element(keys.begin(), keys.begin() + (mid - begin), keys.end(),
                   [](const SplitKey& a, const SplitKey& b) {
                     if (a.value != b.value) return a.value < b.value;
                     return a.id < b.id;  // deterministic partition under ties
                   });
  nd.split_dim = split_dim;
  nd.split_value = keys[static_cast<std::size_t>(mid - begin)].value;
  // Apply the selection to perm_ and to every column over the range: the
  // split column from the keys, every other one staged through the keys'
  // values.
  double* const columns = columns_.data() + begin;
  for (std::size_t j = 0; j < count; ++j) {
    perm_[static_cast<std::size_t>(begin) + j] = keys[j].id;
    columns[static_cast<std::size_t>(split_dim) * n + j] = keys[j].value;
  }
  for (int d = 0; d < dim_; ++d) {
    if (d == split_dim) continue;
    double* column = columns + static_cast<std::size_t>(d) * n;
    for (SplitKey& key : keys) key.value = column[static_cast<std::size_t>(key.from)];
    for (std::size_t j = 0; j < count; ++j) column[j] = keys[j].value;
  }
  // Preorder: the left subtree follows its parent, the right one follows
  // the whole left subtree.
  nd.left = id + 1;
  nd.right = id + 1 + subtree_node_counts(mid - begin, leaf_size_).first;
  return mid;
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

/// A far child deferred by a descent, with a lower bound on the squared
/// distance from the query to every point below it.
struct Deferred {
  index_t node;
  double bound;
};

/// The per-thread stack of deferred far children, emptied for a new
/// descent (descents never nest).
std::vector<Deferred>& descent_stack() {
  thread_local std::vector<Deferred> stack;
  stack.clear();
  return stack;
}

/// Every real point id sorts below this index, so a real candidate beats an
/// unfilled kNN slot or a radius bound at the same distance.
constexpr index_t kSentinelIndex = std::numeric_limits<index_t>::max();

}  // namespace

void KdTree::knn_search(const double* query, int k, index_t exclude,
                        std::vector<Neighbor>& out) const {
  out.clear();
  if (k <= 0 || size() == 0) return;
  // k slots kept sorted ascending (shift-insertion), padded with sentinels;
  // callers cap k at the number of candidates, so every slot ends up filled.
  out.assign(static_cast<std::size_t>(k),
             Neighbor{std::numeric_limits<double>::infinity(), kSentinelIndex});
  Neighbor* const slots = out.data();
  const Neighbor& worst = slots[k - 1];
  int filled = 0;
  double* leaf_sq = leaf_scratch(max_leaf_count_);
  std::vector<Deferred>& stack = descent_stack();

  // Near child first; the far child waits with the bound
  // max(parent bound, (q[split] - split)^2), valid because the left child's
  // points lie at or below the split and the right child's at or above it.
  // The full box distance is checked at leaves only.  Pruning is strict '>',
  // so a point tying the current k-th distance is still offered.
  Deferred at{0, 0.0};
  for (;;) {
    const Node& nd = nodes_[static_cast<std::size_t>(at.node)];
    if (nd.left != kNone) {
      const double diff = query[nd.split_dim] - nd.split_value;
      const bool left_near = query[nd.split_dim] <= nd.split_value;
      stack.push_back({left_near ? nd.right : nd.left, std::max(at.bound, diff * diff)});
      at.node = left_near ? nd.left : nd.right;
      continue;
    }
    if (box_squared_distance(at.node, query) <= worst.squared_distance) {
      scan_leaf(nd, query, leaf_sq);
      for (index_t i = nd.begin; i < nd.end; ++i) {
        const double sq = leaf_sq[static_cast<std::size_t>(i - nd.begin)];
        if (sq > worst.squared_distance || i == exclude) continue;
        const Neighbor cand{sq, perm_[static_cast<std::size_t>(i)], i};
        // Unfilled slots take any candidate, so a non-finite distance can
        // never leave a sentinel behind.
        if (filled < k)
          ++filled;
        else if (!(cand < worst))
          continue;
        int j = filled - 1;
        for (; j > 0 && cand < slots[j - 1]; --j) slots[j] = slots[j - 1];
        slots[j] = cand;
      }
    }
    do {
      if (stack.empty()) return;
      at = stack.back();
      stack.pop_back();
    } while (at.bound > worst.squared_distance);
  }
}

void KdTree::knn(index_t q, int k, std::vector<Neighbor>& out) const {
  knn_search(query_at(q), std::min<index_t>(k, size() - 1), q, out);
}

void KdTree::knn(std::span<const double> query, int k, std::vector<Neighbor>& out) const {
  knn_search(query.data(), std::min<index_t>(k, size()), kNone, out);
}

namespace {

/// Plain Euclidean scoring for component queries: the leaf scan's batched
/// squared distance IS the score.
struct EuclideanScore {
  double from_sq(index_t /*rank*/, double sq) const { return sq; }
};

/// Starting best of a query bounded by `radius_sq`: a candidate tying the
/// radius still beats it.
Neighbor within_radius(double radius_sq) { return {radius_sq, kSentinelIndex}; }

Neighbor found_or_none(const Neighbor& best) {
  return best.index == kSentinelIndex ? Neighbor{} : best;
}

}  // namespace

template <class Score>
void KdTree::search(const double* query, Neighbor& best, index_t my_component,
                    std::span<const index_t> component, const KdTreeAnnotations& notes,
                    const Score& score) const {
  // The kNN descent (see knn_search) with a single best.  Every node
  // visited also prunes on its component annotation and on the score's
  // per-node bound; pruning is strict '>' so equal-score candidates are
  // still examined and the smallest index wins ties.  The stack and leaf
  // buffer are per-thread scratch, so a warm thread's queries allocate
  // nothing.
  double* leaf_sq = leaf_scratch(max_leaf_count_);
  std::vector<Deferred>& stack = descent_stack();
  // my_component == kNone disables the component filter entirely (a node's
  // kNone annotation means "mixed", which must never prune in that case).
  const bool filtered = my_component != kNone;
  const bool annotated = filtered && notes.has_components();
  stack.push_back({0, 0.0});
  while (!stack.empty()) {
    Deferred at = stack.back();
    stack.pop_back();
    for (;;) {
      const auto node = static_cast<std::size_t>(at.node);
      if (annotated && notes.node_component[node] == my_component) break;
      if constexpr (requires { score.extra_bound(at.node); }) {
        at.bound = std::max(at.bound, score.extra_bound(at.node));
      }
      if (at.bound > best.squared_distance) break;
      const Node& nd = nodes_[node];
      if (nd.left != kNone) {
        const double diff = query[nd.split_dim] - nd.split_value;
        const bool left_near = query[nd.split_dim] <= nd.split_value;
        stack.push_back({left_near ? nd.right : nd.left, std::max(at.bound, diff * diff)});
        at.node = left_near ? nd.left : nd.right;
        continue;
      }
      if (box_squared_distance(at.node, query) > best.squared_distance) break;
      scan_leaf(nd, query, leaf_sq);
      for (index_t i = nd.begin; i < nd.end; ++i) {
        if (filtered && component[static_cast<std::size_t>(i)] == my_component) continue;
        const double s = score.from_sq(i, leaf_sq[static_cast<std::size_t>(i - nd.begin)]);
        if (s > best.squared_distance) continue;
        const Neighbor cand{s, perm_[static_cast<std::size_t>(i)], i};
        if (cand < best) best = cand;
      }
      break;
    }
  }
}

Neighbor KdTree::nearest_other_component(index_t q, index_t my_component,
                                         std::span<const index_t> component,
                                         const KdTreeAnnotations& notes,
                                         double radius_sq) const {
  Neighbor best = within_radius(radius_sq);
  const double* query = query_at(q);
  EuclideanScore score{};
  search(query, best, my_component, component, notes, score);
  return found_or_none(best);
}

Neighbor KdTree::nearest_other_component(std::span<const double> query, index_t my_component,
                                         std::span<const index_t> component,
                                         const KdTreeAnnotations& notes,
                                         double radius_sq) const {
  if (size() == 0) return {};
  // An out-of-index coordinate query scores exactly like an indexed one: the
  // leaf scan's squared distance is the score.
  Neighbor best = within_radius(radius_sq);
  EuclideanScore score{};
  search(query.data(), best, my_component, component, notes, score);
  return found_or_none(best);
}

namespace {

/// Squared gap between the box [lo, hi] and the interval [a, b] on axis d.
/// For a point x in [lo, hi] and a <= b, the gap never exceeds the rounded
/// |x[d] - a| or |x[d] - b| (rounding is monotone), so a sum of these in
/// ascending d never exceeds a kernel's squared distance.
double axis_gap_sq(const double* lo, const double* hi, int d, double a, double b) {
  const double gap = b < lo[d] ? lo[d] - b : a > hi[d] ? a - hi[d] : 0.0;
  return gap * gap;
}

}  // namespace

template <class NodeOk, class PointOk>
bool KdTree::any_near(const double* lo, const double* hi, double radius_sq,
                      const NodeOk& node_ok, const PointOk& point_ok) const {
  const std::size_t n = perm_.size();
  std::vector<Deferred>& stack = descent_stack();
  stack.push_back({0, 0.0});
  while (!stack.empty()) {
    const index_t node = stack.back().node;
    stack.pop_back();
    if (!node_ok(node)) continue;
    const std::size_t base = static_cast<std::size_t>(node) * static_cast<std::size_t>(dim_);
    double box_sq = 0;
    for (int d = 0; d < dim_; ++d)
      box_sq += axis_gap_sq(lo, hi, d, box_lo_[base + static_cast<std::size_t>(d)],
                            box_hi_[base + static_cast<std::size_t>(d)]);
    if (box_sq > radius_sq) continue;
    const Node& nd = nodes_[static_cast<std::size_t>(node)];
    if (nd.left != kNone) {
      stack.push_back({nd.right, 0.0});
      stack.push_back({nd.left, 0.0});
      continue;
    }
    for (index_t i = nd.begin; i < nd.end; ++i) {
      double point_sq = 0;
      for (int d = 0; d < dim_; ++d) {
        const double c = columns_[static_cast<std::size_t>(d) * n + static_cast<std::size_t>(i)];
        point_sq += axis_gap_sq(lo, hi, d, c, c);
      }
      if (point_sq <= radius_sq && point_ok(i)) return true;
    }
  }
  return false;
}

bool KdTree::any_near_box(std::span<const double> lo, std::span<const double> hi,
                          double radius_sq, std::span<const double> core_sq,
                          const KdTreeAnnotations& notes) const {
  if (size() == 0) return false;
  return any_near(
      lo.data(), hi.data(), radius_sq,
      [&](index_t node) {
        return notes.node_min_core[static_cast<std::size_t>(node)] <= radius_sq;
      },
      [&](index_t i) { return core_sq[static_cast<std::size_t>(i)] <= radius_sq; });
}

bool KdTree::any_foreign_near_box(std::span<const double> lo, std::span<const double> hi,
                                  index_t my_component, std::span<const index_t> component,
                                  std::span<const double> core_sq, const KdTreeAnnotations& notes,
                                  double radius_sq) const {
  if (size() == 0) return false;
  const bool mreach = !core_sq.empty();
  return any_near(
      lo.data(), hi.data(), radius_sq,
      [&](index_t node) {
        const auto at = static_cast<std::size_t>(node);
        return notes.node_component[at] != my_component &&
               (!mreach || notes.node_min_core[at] <= radius_sq);
      },
      [&](index_t i) {
        const auto at = static_cast<std::size_t>(i);
        return component[at] != my_component && (!mreach || core_sq[at] <= radius_sq);
      });
}

void KdTree::nearest_in(const exec::Executor& exec, const KdTree& other,
                        std::span<Neighbor> out) const {
  PANDORA_EXPECT(out.size() == perm_.size(), "one result per point required");
  PANDORA_EXPECT(other.dim_ == dim_, "both trees must share the dimensionality");
  if (other.size() == 0) {
    exec::parallel_for(exec, size(), [&](size_type r) { out[static_cast<std::size_t>(r)] = {}; });
    return;
  }
  const auto dim = static_cast<std::size_t>(dim_);
  const std::size_t n = perm_.size();
  const std::size_t other_n = other.perm_.size();
  constexpr std::size_t kLeavesPerChunk = 8;
  const int num_chunks = static_cast<int>((leaves_.size() + kLeavesPerChunk - 1) / kLeavesPerChunk);
  auto per_chunk = [&](int chunk) {
    // thread_local: a warm thread's leaves allocate nothing.
    thread_local std::vector<double> x;          // the leaf's points, row-major
    thread_local std::vector<double> candidates;  // candidate coordinates, row-major
    thread_local std::vector<index_t> candidate_rank;
    thread_local std::vector<Neighbor> first;
    const std::size_t begin_leaf = static_cast<std::size_t>(chunk) * kLeavesPerChunk;
    for (const Leaf& leaf : std::span<const Leaf>(leaves_).subspan(
             begin_leaf, std::min(kLeavesPerChunk, leaves_.size() - begin_leaf))) {
      const auto count = static_cast<std::size_t>(leaf.end - leaf.begin);
      x.resize(count * dim);
      for (std::size_t i = 0; i < count; ++i)
        for (std::size_t d = 0; d < dim; ++d)
          x[i * dim + d] = columns_[d * n + static_cast<std::size_t>(leaf.begin) + i];
      other.knn(std::span<const double>(x.data(), dim), 1, first);
      const std::span<const double> q0 = other.points().point(first.front().index);
      double radius_sq = 0;
      for (std::size_t i = 0; i < count; ++i)
        radius_sq = std::max(radius_sq,
                             distance::squared_distance(x.data() + i * dim, q0.data(), dim_));
      candidate_rank.clear();
      const std::size_t base = static_cast<std::size_t>(leaf.node) * dim;
      (void)other.any_near(
          box_lo_.data() + base, box_hi_.data() + base, radius_sq, [](index_t) { return true; },
          [&](index_t rank) {
            candidate_rank.push_back(rank);
            return false;
          });
      candidates.resize(candidate_rank.size() * dim);
      for (std::size_t c = 0; c < candidate_rank.size(); ++c)
        for (std::size_t d = 0; d < dim; ++d)
          candidates[c * dim + d] =
              other.columns_[d * other_n + static_cast<std::size_t>(candidate_rank[c])];
      for (std::size_t i = 0; i < count; ++i) {
        Neighbor best;
        for (std::size_t c = 0; c < candidate_rank.size(); ++c) {
          const double sq =
              distance::squared_distance(x.data() + i * dim, candidates.data() + c * dim, dim_);
          const Neighbor cand{sq, other.perm_[static_cast<std::size_t>(candidate_rank[c])],
                              candidate_rank[c]};
          if (cand < best) best = cand;
        }
        out[static_cast<std::size_t>(leaf.begin) + i] = best;
      }
    }
  };
  exec.run_chunks(num_chunks, exec.num_threads(), per_chunk);
}

bool KdTree::patch(const exec::Executor& exec, std::span<const index_t> remap) {
  const index_t n_old = size();
  PANDORA_EXPECT(static_cast<index_t>(remap.size()) == n_old, "one remap entry per indexed point");
  if (n_old == 0) return false;
  const index_t n_new = points_->size();
  const auto num_leaves = static_cast<size_type>(leaves_.size());
  exec::Workspace& workspace = exec.workspace();

  // Survivors per leaf, and the leaf every absorbed point descends to.
  auto count_lease = workspace.take<index_t>(num_leaves + 1, 0);
  const std::span<index_t> count = count_lease.span();
  exec::parallel_for(exec, num_leaves, [&](size_type l) {
    const Leaf& leaf = leaves_[static_cast<std::size_t>(l)];
    index_t kept = 0;
    for (index_t r = leaf.begin; r < leaf.end; ++r)
      kept += remap[static_cast<std::size_t>(perm_[static_cast<std::size_t>(r)])] != kNone ? 1 : 0;
    count[static_cast<std::size_t>(l)] = kept;
  });
  const index_t survivors = exec::parallel_sum(
      exec, num_leaves, index_t{0},
      [&](size_type l) { return count[static_cast<std::size_t>(l)]; });
  PANDORA_EXPECT(survivors <= n_new, "more survivors than points");
  const index_t absorbed = n_new - survivors;
  auto leaf_of_lease = workspace.take_uninit<index_t>(absorbed);
  const std::span<index_t> leaf_of = leaf_of_lease.span();
  exec::parallel_for(exec, absorbed, [&](size_type j) {
    const std::span<const double> x = points_->point(survivors + static_cast<index_t>(j));
    index_t node = 0;
    for (const Node* nd = &nodes_[0]; nd->left != kNone;
         nd = &nodes_[static_cast<std::size_t>(node)])
      node = x[static_cast<std::size_t>(nd->split_dim)] <= nd->split_value ? nd->left : nd->right;
    leaf_of[static_cast<std::size_t>(j)] = static_cast<index_t>(
        std::lower_bound(leaves_.begin(), leaves_.end(), node,
                         [](const Leaf& leaf, index_t id) { return leaf.node < id; }) -
        leaves_.begin());
  });
  // Absorbed points per leaf, in id order: a counting sort (the absorbed
  // tail is a fraction of the points, and the pass only counts).
  auto absorbed_offset_lease = workspace.take<index_t>(num_leaves + 1, 0);
  const std::span<index_t> absorbed_offset = absorbed_offset_lease.span();
  for (const index_t l : leaf_of) ++absorbed_offset[static_cast<std::size_t>(l)];
  // No leaf may be left empty (annotations read every leaf's first point)
  // or grow past twice the leaf size a build makes: points inserted outside
  // the indexed region would otherwise pile into one edge leaf, which every
  // query reaching it scans point by point.
  for (size_type l = 0; l < num_leaves; ++l) {
    const index_t size =
        count[static_cast<std::size_t>(l)] + absorbed_offset[static_cast<std::size_t>(l)];
    if (size == 0 || size > 2 * leaf_size_) return false;
  }
  exec::parallel_for(exec, num_leaves, [&](size_type l) {
    count[static_cast<std::size_t>(l)] += absorbed_offset[static_cast<std::size_t>(l)];
  });
  (void)exec::exclusive_scan<index_t>(exec, std::span<const index_t>(count), count);
  (void)exec::exclusive_scan<index_t>(exec, std::span<const index_t>(absorbed_offset),
                                      absorbed_offset);
  auto absorbed_lease = workspace.take_uninit<index_t>(absorbed);
  const std::span<index_t> absorbed_ids = absorbed_lease.span();
  {
    auto cursor_lease = workspace.take_uninit<index_t>(num_leaves);
    const std::span<index_t> cursor = cursor_lease.span();
    std::copy_n(absorbed_offset.begin(), num_leaves, cursor.begin());
    for (index_t j = 0; j < absorbed; ++j)
      absorbed_ids[static_cast<std::size_t>(cursor[static_cast<std::size_t>(
          leaf_of[static_cast<std::size_t>(j)])]++)] = survivors + j;
  }

  // Each leaf writes its survivors in rank order, then its absorbed points
  // in id order, into the new rank order.
  std::vector<index_t> perm(static_cast<std::size_t>(n_new));
  std::vector<double> columns(static_cast<std::size_t>(n_new) * static_cast<std::size_t>(dim_));
  const auto old_stride = static_cast<std::size_t>(n_old);
  const auto new_stride = static_cast<std::size_t>(n_new);
  exec::parallel_for(exec, num_leaves, [&](size_type li) {
    const auto l = static_cast<std::size_t>(li);
    Leaf& leaf = leaves_[l];
    auto at = static_cast<std::size_t>(count[l]);
    for (index_t r = leaf.begin; r < leaf.end; ++r) {
      const index_t id = remap[static_cast<std::size_t>(perm_[static_cast<std::size_t>(r)])];
      if (id == kNone) continue;
      perm[at] = id;
      for (int d = 0; d < dim_; ++d)
        columns[static_cast<std::size_t>(d) * new_stride + at] =
            columns_[static_cast<std::size_t>(d) * old_stride + static_cast<std::size_t>(r)];
      ++at;
    }
    for (index_t a = absorbed_offset[l]; a < absorbed_offset[l + 1]; ++a) {
      const index_t id = absorbed_ids[static_cast<std::size_t>(a)];
      const std::span<const double> x = points_->point(id);
      perm[at] = id;
      for (int d = 0; d < dim_; ++d)
        columns[static_cast<std::size_t>(d) * new_stride + at] = x[static_cast<std::size_t>(d)];
      ++at;
    }
    leaf.begin = count[l];
    leaf.end = static_cast<index_t>(at);
  });
  perm_ = std::move(perm);
  columns_ = std::move(columns);

  // Leaves take their new ranges and tight boxes; internal nodes fold their
  // children's, bottom-up (children have larger ids than their parent).
  exec::parallel_for(exec, num_leaves, [&](size_type l) {
    const Leaf& leaf = leaves_[static_cast<std::size_t>(l)];
    Node& nd = nodes_[static_cast<std::size_t>(leaf.node)];
    nd.begin = leaf.begin;
    nd.end = leaf.end;
    update_box(leaf.node);
  });
  const auto dim = static_cast<std::size_t>(dim_);
  for (auto id = static_cast<std::ptrdiff_t>(nodes_.size()) - 1; id >= 0; --id) {
    Node& nd = nodes_[static_cast<std::size_t>(id)];
    if (nd.left == kNone) continue;
    const Node& left = nodes_[static_cast<std::size_t>(nd.left)];
    const Node& right = nodes_[static_cast<std::size_t>(nd.right)];
    nd.begin = left.begin;
    nd.end = right.end;
    const std::size_t base = static_cast<std::size_t>(id) * dim;
    const std::size_t l = static_cast<std::size_t>(nd.left) * dim;
    const std::size_t r = static_cast<std::size_t>(nd.right) * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      box_lo_[base + d] = std::min(box_lo_[l + d], box_lo_[r + d]);
      box_hi_[base + d] = std::max(box_hi_[l + d], box_hi_[r + d]);
    }
  }
  max_leaf_count_ = 0;
  for (const Leaf& leaf : leaves_)
    max_leaf_count_ = std::max(max_leaf_count_, leaf.end - leaf.begin);
  return true;
}

namespace {

/// Mreach score with the per-node minimum-core bound wired in; `q` and the
/// scored point are ranks.
struct MreachScoreBound {
  index_t q;
  std::span<const double> core_sq;
  const std::vector<double>* node_min_core;

  double from_sq(index_t rank, double sq) const {
    return std::max({sq, core_sq[static_cast<std::size_t>(q)],
                     core_sq[static_cast<std::size_t>(rank)]});
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
  const double* query = query_at(q);
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
    index_t c = component[static_cast<std::size_t>(nd.begin)];
    for (index_t i = nd.begin + 1; i < nd.end && c != kNone; ++i)
      if (component[static_cast<std::size_t>(i)] != c) c = kNone;
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
      m = std::min(m, core_sq[static_cast<std::size_t>(i)]);
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
  CachedKdTree(const exec::Executor& exec, const PointSet& pts, int leaf_size)
      : tree(exec, pts, leaf_size), points(&pts) {}
  KdTree tree;
  const PointSet* points;
};

}  // namespace

std::shared_ptr<const KdTree> kdtree_cached(const exec::Executor& exec, const PointSet& points,
                                            int leaf_size,
                                            std::optional<std::uint64_t> fingerprint) {
  const auto build = [&] {
    auto owned = std::make_shared<CachedKdTree>(exec, points, leaf_size);
    const KdTree* view = &owned->tree;
    return std::shared_ptr<const KdTree>(std::move(owned), view);
  };
  if (!exec.artifact_caching()) return build();

  const std::uint64_t base = fingerprint ? *fingerprint : point_set_fingerprint(exec, points);
  const std::uint64_t key = exec::combine_fingerprint(
      exec::tagged_fingerprint(exec::ArtifactTag::kdtree, base),
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(leaf_size)));
  std::shared_ptr<CachedKdTree> entry = exec.artifact_cache().find<CachedKdTree>(key);
  if (entry == nullptr || entry->points != &points) {
    entry = std::make_shared<CachedKdTree>(exec, points, leaf_size);
    exec.artifact_cache().insert(key, entry);
  }
  const KdTree* view = &entry->tree;
  return {std::move(entry), view};
}

}  // namespace pandora::spatial

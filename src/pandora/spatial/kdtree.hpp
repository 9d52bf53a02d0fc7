#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/executor.hpp"
#include "pandora/spatial/point_set.hpp"

namespace pandora::spatial {

/// A neighbour candidate returned by queries: squared distance, point id,
/// and the point's rank in the tree that found it.  Order is (squared
/// distance, id) only; the rank rides along so a caller can index its
/// rank-ordered arrays without a lookup, and never decides a tie.
struct Neighbor {
  double squared_distance = std::numeric_limits<double>::infinity();
  index_t index = kNone;  ///< point id
  index_t rank = kNone;   ///< position in the tree's `tree_order()`; kNone off a tree

  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.squared_distance != b.squared_distance) return a.squared_distance < b.squared_distance;
    return a.index < b.index;
  }
};

/// Per-traversal annotations of a kd-tree, held by the *query*, not the tree.
/// Both arrays are per *node*; the per-point inputs they are computed from
/// are rank-indexed (see KdTree).
///
/// Borůvka EMST rounds annotate every node with the component id shared by
/// all points below it (to prune same-component subtrees) and with the
/// minimum squared core distance below it (to tighten mutual-reachability
/// bounds).  Keeping that state outside the tree makes the tree itself
/// immutable after construction, so one tree — possibly served from the
/// Executor's ArtifactCache — can back any number of concurrent queries,
/// each bringing its own annotations.
struct KdTreeAnnotations {
  std::vector<index_t> node_component;  ///< per node; kNone = mixed
  std::vector<double> node_min_core;    ///< per node; min squared core below

  [[nodiscard]] bool has_components() const { return !node_component.empty(); }
  [[nodiscard]] bool has_min_core() const { return !node_min_core.empty(); }
};

/// Balanced median-split kd-tree (the stand-in for ArborX's BVH).
///
/// Supports the two traversals the HDBSCAN* pipeline needs:
///  * k-nearest-neighbour queries (core distances, Section 6.5), and
///  * nearest-point-in-another-component queries for Borůvka EMST rounds
///    ([39]); per-round component annotation prunes subtrees wholly inside
///    the query's component, and an optional per-node core-distance minimum
///    tightens mutual-reachability lower bounds.
///
/// The build runs in parallel over an Executor: the top levels split one
/// node per chunk until there are at least four subtrees per thread, then one
/// chunk builds each subtree.  Node ids are preorder and every node
/// partitions its range exactly as a serial recursion would, so the tree —
/// `tree_order()`, nodes, boxes, coordinate columns — is the same on every
/// backend and thread count, and the same as the executor-less constructor's.
/// The build copies the points into the columns in id order once; every
/// split then permutes its range of each column along with the ids, so
/// boxes and median selections read contiguous memory.
///
/// All queries are const, and only `patch` (the dynamic subsystem's
/// re-index after each update, on a tree it owns) changes a built tree.  Round
/// state lives in a caller-owned `KdTreeAnnotations` (see above), which is
/// what lets a cached tree serve concurrent batch queries.
///
/// Index spaces.  A point's *rank* is its position in the leaf order
/// `tree_order()`: every leaf covers a contiguous rank range, and so does
/// every subtree.  The tree keeps its own rank-ordered coordinate copy, so
/// leaf scans read coordinates, and the caller's per-point arrays, at
/// consecutive ranks.  Everything a caller passes in per point — `component`,
/// `core_sq` — is indexed by rank, and the indexed queries (`knn(r, ...)`,
/// `nearest_other_component(r, ...)`) take the query's rank.  Results name
/// points by id (`Neighbor::index`), with the rank beside it.  Ties are
/// broken on point id everywhere, never on rank, so all query results — and
/// the EMST built on them — are the same as on an id-ordered index, and are
/// deterministic.  `tree_order()` maps rank to id.
class KdTree {
 public:
  /// Builds over `points` (kept by reference; must outlive the tree),
  /// in parallel through `exec`.
  KdTree(const exec::Executor& exec, const PointSet& points, int leaf_size = 32);

  /// Builds the same tree on the calling thread alone.
  explicit KdTree(const PointSet& points, int leaf_size = 32);

  /// A copy of `index`, sharing no storage with it, bound to `points` (kept
  /// by reference), which must equal `index.points()` (std::invalid_argument
  /// if it differs in size or dimension): it then answers every query as
  /// `index` does.  Snapshots publish dyn::'s index this way.  The plain
  /// copy, which would stay bound to the source's points, is private.
  KdTree(const KdTree& index, const PointSet& points);
  KdTree& operator=(const KdTree&) = delete;

  /// k nearest neighbours of the point at rank `q`, excluding q itself,
  /// ascending; `out` is resized to min(k, n-1).  The search descends near child
  /// first; a far child is skipped when its split-plane bound
  /// max(parent bound, (q[split] - split)^2) exceeds the current k-th
  /// distance, and a leaf when its bounding box does.  Pruning is strict
  /// '>', so points tying the k-th distance are still compared and the
  /// result is the unique k-nearest set under the (distance, index) order.
  void knn(index_t q, int k, std::vector<Neighbor>& out) const;

  /// k nearest indexed points to an arbitrary coordinate query (which need
  /// not be an indexed point), ascending; `out` is resized to min(k, n).
  /// `nearest_in` probes the other tree with this.
  ///
  /// Steady-state calls of either overload on a warm thread allocate nothing
  /// beyond `out`'s capacity: each search keeps its k best in a fixed sorted
  /// buffer and its deferred subtrees on a per-thread stack.
  void knn(std::span<const double> query, int k, std::vector<Neighbor>& out) const;

  /// Nearest point to the point at rank `q` under the Euclidean metric among
  /// points whose `component[]` (rank-indexed) differs from `my_component`.
  /// Uses the component annotation in `notes` (from annotate_components) to
  /// skip single-component subtrees.  The search is the kNN descent (split-plane
  /// bounds, box distance at leaves) with one best; the component and
  /// per-node bounds apply at every node it visits.
  ///
  /// `radius_sq` bounds the search (Borůvka passes its component's running
  /// minimum): only candidates with squared score <= radius_sq are
  /// considered, so subtrees farther out are pruned.  A candidate tying the
  /// radius is still found (pruning is strict '>'), and within the radius
  /// the result is the exact (score, index) minimum.  Returns a kNone
  /// neighbour when nothing lies within the radius.
  [[nodiscard]] Neighbor nearest_other_component(
      index_t q, index_t my_component, std::span<const index_t> component,
      const KdTreeAnnotations& notes,
      double radius_sq = std::numeric_limits<double>::infinity()) const;

  /// As above for an arbitrary coordinate query outside the index: nearest
  /// indexed point whose `component[]` differs from `my_component` (pass
  /// `kNone` as `my_component` to consider every indexed point), within
  /// `radius_sq` under the indexed overload's contract.  The dynamic
  /// subsystem's Borůvka rounds issue these from established points against
  /// the batch tree of an insert.
  [[nodiscard]] Neighbor nearest_other_component(
      std::span<const double> query, index_t my_component, std::span<const index_t> component,
      const KdTreeAnnotations& notes,
      double radius_sq = std::numeric_limits<double>::infinity()) const;

  /// Whether some point with `core_sq[rank] <= radius_sq` lies within
  /// squared distance `radius_sq` of the axis-aligned box [lo, hi] (distance
  /// 0 inside it).  `notes` must hold annotate_min_core's per-node minima of
  /// the same `core_sq`; they prune whole subtrees.  Both comparisons are
  /// non-strict.  The dynamic subsystem's insert certificate asks this of
  /// the boxes of dendrogram clusters.
  [[nodiscard]] bool any_near_box(std::span<const double> lo, std::span<const double> hi,
                                  double radius_sq, std::span<const double> core_sq,
                                  const KdTreeAnnotations& notes) const;

  /// As above under the mutual-reachability metric
  /// d_mreach(p,q) = max(core(p), core(q), d(p,q)) with *squared* core
  /// distances in `core_sq` (rank-indexed; annotate_min_core must have
  /// filled `notes`).
  /// `radius_sq` bounds the squared mreach score with the same contract as
  /// the indexed Euclidean overload: ties at the radius are kept, kNone
  /// when nothing lies within it.
  [[nodiscard]] Neighbor nearest_other_component_mreach(
      index_t q, index_t my_component, std::span<const index_t> component,
      std::span<const double> core_sq, const KdTreeAnnotations& notes,
      double radius_sq = std::numeric_limits<double>::infinity()) const;

  /// A leaf: its node id (the index into KdTreeAnnotations' per-node
  /// arrays) and its rank range [begin, end).
  struct Leaf {
    index_t node = kNone;
    index_t begin = 0, end = 0;
  };

  /// The leaves in rank order; their ranges tile [0, size()).
  [[nodiscard]] std::span<const Leaf> leaves() const { return leaves_; }

  /// The tight bounding box of a leaf: its low and high corner.
  [[nodiscard]] std::span<const double> box_lo(const Leaf& leaf) const {
    return {box_lo_.data() + static_cast<std::size_t>(leaf.node) * static_cast<std::size_t>(dim_),
            static_cast<std::size_t>(dim_)};
  }
  [[nodiscard]] std::span<const double> box_hi(const Leaf& leaf) const {
    return {box_hi_.data() + static_cast<std::size_t>(leaf.node) * static_cast<std::size_t>(dim_),
            static_cast<std::size_t>(dim_)};
  }

  /// Whether some point outside `my_component` lies within squared gap
  /// `radius_sq` of the box [lo, hi] (distance 0 inside it) and, with
  /// `core_sq` non-empty (rank-indexed squared core distances), has a core
  /// distance within it too.  `notes` must hold the components (and, with
  /// `core_sq`, annotate_min_core's minima of it).  The gap never exceeds
  /// the kernels' distance from a point inside the box, so false proves that
  /// a component query from any point in the box, bounded by `radius_sq`,
  /// finds nothing: Borůvka rounds answer a whole leaf's queries with one
  /// such test.
  [[nodiscard]] bool any_foreign_near_box(std::span<const double> lo, std::span<const double> hi,
                                          index_t my_component,
                                          std::span<const index_t> component,
                                          std::span<const double> core_sq,
                                          const KdTreeAnnotations& notes,
                                          double radius_sq) const;

  /// The nearest point of `other` to every point of this tree, rank-indexed
  /// (`index` names the point of `other`, `rank` its rank there; a kNone
  /// neighbour when `other` is empty).  Exact under the (squared distance,
  /// id) order, with the kernels' distances, so each equals `other.knn(x, 1)`
  /// for the point's coordinates x.  One leaf at a time: the nearest point q0
  /// to the leaf's first point bounds every other point's nearest distance by
  /// its distance to q0, so the leaf's points compare only the points of
  /// `other` within the largest such distance of the leaf's box.  The
  /// dynamic subsystem's insert finds every established point's nearest new
  /// point this way.
  void nearest_in(const exec::Executor& exec, const KdTree& other, std::span<Neighbor> out) const;

  /// Re-indexes the tree in O(n) after its PointSet changed in place:
  /// `remap[id]` (one entry per indexed id) is the new id of indexed point
  /// `id`, or kNone when it was erased.  Surviving indexed points must take
  /// the new ids [0, k); the PointSet's points [k, points().size()), e.g.
  /// points appended after an identity remap, are absorbed into the leaves
  /// their coordinates descend to (at a split value itself, the left).
  /// Every split is kept, so every point still satisfies its ancestors'
  /// splits; ranges, tight boxes, `tree_order()` and the coordinate columns
  /// are recomputed.  Queries break ties on id, never on
  /// rank, so a patched tree answers every query exactly as a tree built
  /// over the same points.  Returns false, leaving the tree unchanged, when
  /// a leaf would be left empty (annotations read every leaf's first point)
  /// or would hold more than twice the build's leaf size (absorbed points
  /// far outside the indexed region all descend to one edge leaf): the
  /// caller rebuilds instead.
  [[nodiscard]] bool patch(const exec::Executor& exec, std::span<const index_t> remap);

  /// Records into `notes`, per node, the component id shared by all points
  /// below it (or kNone if mixed); `component` is rank-indexed.  Call once
  /// per Borůvka round.
  void annotate_components(const exec::Executor& exec, std::span<const index_t> component,
                           KdTreeAnnotations& notes) const;

  /// Records into `notes`, per node, the minimum squared core distance below;
  /// `core_sq` is rank-indexed.
  void annotate_min_core(const exec::Executor& exec, std::span<const double> core_sq,
                         KdTreeAnnotations& notes) const;

  [[nodiscard]] index_t size() const { return static_cast<index_t>(perm_.size()); }
  [[nodiscard]] int leaf_size() const { return leaf_size_; }
  [[nodiscard]] const PointSet& points() const { return *points_; }

  /// Point ids in tree (leaf-partition) order, i.e. rank -> id: consecutive
  /// ranks are spatially close, so searches issued in rank order (the kNN
  /// pass, Borůvka's queries) reuse cache-hot nodes and leaf columns, and
  /// neighbouring Borůvka queries tighten each other's radius early.
  [[nodiscard]] std::span<const index_t> tree_order() const { return perm_; }

  /// Squared distance between the points at ranks `a` and `b`, read from the
  /// tree's coordinate copy; bit-identical to the distance a leaf scan or
  /// `PointSet::squared_distance` computes for the same pair.  That holds
  /// only where this inline body is compiled with the library's
  /// -ffp-contract=off: a caller built with contraction on (GCC's default
  /// with an FMA target, e.g. -march=native) may fuse the multiply-add and
  /// round differently.  Anything that must match the kNN pass bit for bit
  /// calls it from a library source file (see hdbscan::NeighborPass).
  [[nodiscard]] double squared_distance(index_t a, index_t b) const {
    // Ascending d with plain adds, as every distance kernel accumulates.
    const std::size_t n = perm_.size();
    const double* column = columns_.data();
    double sum = 0;
    for (int d = 0; d < dim_; ++d, column += n) {
      const double diff = column[a] - column[b];
      sum += diff * diff;
    }
    return sum;
  }

 private:
  struct Node {
    index_t begin = 0, end = 0;       ///< range in perm_ (leaf and internal)
    index_t left = kNone, right = kNone;
    int split_dim = 0;
    double split_value = 0;
  };

  KdTree(const PointSet& points, int leaf_size, const exec::Executor* exec);
  KdTree(const KdTree&) = default;

  /// A median-selection key: the split coordinate, the point id (the tie
  /// break), and where in the node's range the point sat before the split.
  /// After the selection, `value` carries each other column through the
  /// same permutation.
  struct SplitKey {
    double value;
    index_t id;
    index_t from;
  };
  /// One build chunk's scratch keys.
  using SplitKeys = std::vector<SplitKey>;

  /// Fills node `id` over ranks [begin, end): its box and, unless it is a
  /// leaf, its split, which partitions perm_ and every column over the
  /// range.  Returns the split position, or kNone for a leaf.
  index_t build_node(index_t id, index_t begin, index_t end, SplitKeys& keys);
  void build_subtree(index_t id, index_t begin, index_t end, SplitKeys& keys);
  void update_box(index_t node);

  /// Squared distances from `query` to every point of leaf `nd` (rank
  /// order), through the rank-ordered coordinate columns.
  void scan_leaf(const Node& nd, const double* query, double* out) const;

  /// The coordinates of the point at rank `r`, gathered from the columns
  /// into per-thread scratch (valid until the thread's next call).
  [[nodiscard]] const double* query_at(index_t r) const;

  /// Shared kNN body: nearest indexed points to `query`, excluding the
  /// point at rank `exclude` (kNone = exclude nothing).
  void knn_search(const double* query, int k, index_t exclude,
                  std::vector<Neighbor>& out) const;

  /// Shared body of the component queries: the kNN descent keeping one
  /// `best` (pre-set to the radius), pruning strictly above it.
  template <class Score>
  void search(const double* query, Neighbor& best, index_t my_component,
              std::span<const index_t> component, const KdTreeAnnotations& notes,
              const Score& score) const;

  /// Squared distance from `query` to the node's bounding box.
  [[nodiscard]] double box_squared_distance(index_t node, const double* query) const;

  /// Shared body of the box queries: whether some point within squared gap
  /// `radius_sq` of the box [lo, hi] passes `point_ok(rank)`, descending
  /// only into nodes that pass `node_ok(node)`.  `point_ok` sees every
  /// point within the gap until one passes.
  template <class NodeOk, class PointOk>
  [[nodiscard]] bool any_near(const double* lo, const double* hi, double radius_sq,
                              const NodeOk& node_ok, const PointOk& point_ok) const;

  /// Lists the leaves in rank order and sizes the leaf scratch.
  void index_leaves();

  const PointSet* points_ = nullptr;
  int dim_ = 0;
  int leaf_size_ = 32;
  index_t max_leaf_count_ = 0;          ///< widest leaf (scratch sizing)
  std::vector<index_t> perm_;           ///< rank -> point id, partitioned by node ranges
  std::vector<Node> nodes_;             ///< nodes_[0] is the root
  std::vector<Leaf> leaves_;            ///< leaves in rank order
  std::vector<double> box_lo_, box_hi_; ///< per node * dim bounding boxes
  /// Rank-ordered coordinate columns: coordinate d of the point at rank r is
  /// columns_[d * n + r].  A leaf [begin, end) is then the dimension-blocked
  /// SoA block the batch distance kernels scan (stride n), and a rank's
  /// coordinates are one load per column.
  std::vector<double> columns_;
};

/// Order-sensitive 64-bit content fingerprint of a point set (coordinates,
/// count, dimension) — the base key of the spatial artifact caches (kd-trees,
/// per-mpts core distances).  Mutating any coordinate changes the key.
[[nodiscard]] std::uint64_t point_set_fingerprint(const exec::Executor& exec,
                                                  const PointSet& points);

/// The cross-call kd-tree cache: returns the tree over `points`, reusing the
/// copy stored in the Executor's ArtifactCache when the point-set fingerprint
/// and `leaf_size` match — so parameter sweeps over one point set (mpts
/// sweeps, repeated HDBSCAN* queries) build the tree once and replay it.
/// A cached entry additionally remembers which PointSet object it was built
/// over and is treated as a miss for a different (even content-identical)
/// object, so a replayed tree never dangles.  With
/// `Executor::set_artifact_caching(false)` every call rebuilds.
///
/// `fingerprint` lets a caller that already computed
/// `point_set_fingerprint(exec, points)` share the pass (hdbscan does, so
/// one query hashes the points once, not once per cached artifact).
[[nodiscard]] std::shared_ptr<const KdTree> kdtree_cached(
    const exec::Executor& exec, const PointSet& points, int leaf_size = 32,
    std::optional<std::uint64_t> fingerprint = std::nullopt);

}  // namespace pandora::spatial

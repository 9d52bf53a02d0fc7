#pragma once

#include <atomic>
#include <span>
#include <vector>

#include "pandora/common/types.hpp"

namespace pandora::graph {

/// Sequential disjoint-set structure with path halving.
///
/// Roots are canonical: unite always hooks the larger-id root below the
/// smaller-id root, so the representative of every component is its minimum
/// member id regardless of the order of operations.  That determinism is what
/// lets the test-suite compare components across algorithms and spaces.
class UnionFind {
 public:
  explicit UnionFind(index_t n);

  /// Representative (minimum id) of x's component.
  [[nodiscard]] index_t find(index_t x);

  /// Merge the components of a and b; returns true if they were distinct.
  bool unite(index_t a, index_t b);

  [[nodiscard]] index_t size() const { return static_cast<index_t>(parent_.size()); }

  /// Number of distinct components remaining.
  [[nodiscard]] index_t num_components();

 private:
  std::vector<index_t> parent_;
};

/// Non-owning lock-free disjoint-set view over caller-provided parent
/// storage, after the synchronisation-free GPU connected-components algorithm
/// of Jaiganesh & Burtscher (HPDC'18) that the paper uses for its contraction
/// kernels (Section 5): finds perform pointer jumping with opportunistic
/// grandparent compression, and unions hook the larger root under the smaller
/// root with a single CAS.  Parent pointers only ever decrease, which rules
/// out cycles and makes the final representatives (component minima)
/// identical to the sequential structure no matter how operations interleave.
///
/// The view form exists so allocation-free callers (dyn::'s component
/// repair) can run union-find over a span leased from the Executor's
/// Workspace; the caller must initialise the storage to the identity
/// (`parent[x] = x`, see `reset_singletons`) before the first operation.
/// PANDORA's contraction does not use it: each level's supervertices come
/// from the pointer forest its classify pass writes (see build_hierarchy).
class ConcurrentUnionFindView {
 public:
  ConcurrentUnionFindView() = default;
  explicit ConcurrentUnionFindView(std::span<index_t> parent) : parent_(parent) {}

  /// Serially re-initialise every slot to a singleton.  Parallel callers can
  /// instead fill the span themselves (`parent[x] = x` per x).
  void reset_singletons() {
    for (index_t x = 0; x < size(); ++x) parent_[static_cast<std::size_t>(x)] = x;
  }

  /// Representative of x's component.  Safe to call concurrently with unite.
  index_t find(index_t x);

  /// Merge the components of a and b.  Safe to call concurrently.
  void unite(index_t a, index_t b);

  [[nodiscard]] index_t size() const { return static_cast<index_t>(parent_.size()); }

 private:
  std::span<index_t> parent_;
};

/// Owning variant of ConcurrentUnionFindView (convenience for callers without
/// an arena at hand).
class ConcurrentUnionFind {
 public:
  explicit ConcurrentUnionFind(index_t n);

  // Non-copyable/movable: the view aliases the owned storage, and a default
  // copy would keep pointing at (and mutating) the source object's array.
  ConcurrentUnionFind(const ConcurrentUnionFind&) = delete;
  ConcurrentUnionFind& operator=(const ConcurrentUnionFind&) = delete;

  /// Reset to n singleton sets (reusing storage).
  void reset(index_t n);

  /// Representative of x's component.  Safe to call concurrently with unite.
  index_t find(index_t x) { return view_.find(x); }

  /// Merge the components of a and b.  Safe to call concurrently.
  void unite(index_t a, index_t b) { view_.unite(a, b); }

  [[nodiscard]] index_t size() const { return static_cast<index_t>(parent_.size()); }

 private:
  std::vector<index_t> parent_;
  ConcurrentUnionFindView view_;
};

}  // namespace pandora::graph

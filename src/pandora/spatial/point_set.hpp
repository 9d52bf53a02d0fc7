#pragma once

#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/memory.hpp"
#include "pandora/spatial/distance.hpp"

namespace pandora::spatial {

/// Dimension-blocked SoA coordinate store: points are grouped into blocks of
/// `kLane` (8 doubles = one 64-byte cache line), and within a block
/// coordinate d of all `kLane` points is contiguous — the layout the batch
/// distance kernels (spatial/distance.hpp) consume with unit stride, and the
/// coalesced-access shape a device backend wants (cf. cuSLINK's blocked
/// layouts).  The buffer is 64-byte aligned and allocated through the
/// backend MemoryResource seam, so a device backend can land it in device
/// memory unchanged.
///
/// Layout: coordinate d of point p = data()[(block(p) * dim + d) * kLane +
/// lane(p)] with block(p) = p / kLane, lane(p) = p % kLane.  Tail lanes of
/// the last block are zero-padded; kernels receive the live `count` and
/// discard padded lanes.
class SoaStore {
 public:
  static constexpr index_t kLane = 8;  ///< doubles per 64-byte block row

  SoaStore(const double* row_major, index_t count, int dim)
      : count_(count), dim_(dim), blocks_((count + kLane - 1) / kLane) {
    bytes_ = static_cast<std::size_t>(blocks_) * static_cast<std::size_t>(dim_) * kLane *
             sizeof(double);
    if (bytes_ == 0) return;
    data_ = static_cast<double*>(exec::host_memory_resource().allocate(bytes_, 64));
    std::memset(data_, 0, bytes_);  // zero tail padding
    for (index_t p = 0; p < count_; ++p) {
      const std::size_t base =
          static_cast<std::size_t>(p / kLane) * static_cast<std::size_t>(dim_) * kLane +
          static_cast<std::size_t>(p % kLane);
      for (int d = 0; d < dim_; ++d)
        data_[base + static_cast<std::size_t>(d) * kLane] =
            row_major[static_cast<std::size_t>(p) * static_cast<std::size_t>(dim_) +
                      static_cast<std::size_t>(d)];
    }
  }
  ~SoaStore() {
    if (data_ != nullptr) exec::host_memory_resource().deallocate(data_, bytes_, 64);
  }
  SoaStore(const SoaStore&) = delete;
  SoaStore& operator=(const SoaStore&) = delete;

  [[nodiscard]] index_t size() const { return count_; }
  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] index_t num_blocks() const { return blocks_; }
  /// Points covered by block b (kLane except possibly the last block).
  [[nodiscard]] index_t block_size(index_t b) const {
    return b + 1 < blocks_ ? kLane : count_ - b * kLane;
  }
  /// 64-byte-aligned dim-major block: row d at `block(b) + d * kLane`.
  [[nodiscard]] const double* block(index_t b) const {
    return data_ + static_cast<std::size_t>(b) * static_cast<std::size_t>(dim_) * kLane;
  }
  [[nodiscard]] const double* data() const { return data_; }

 private:
  index_t count_ = 0;
  int dim_ = 0;
  index_t blocks_ = 0;
  std::size_t bytes_ = 0;
  double* data_ = nullptr;
};

/// A dense set of low-dimensional points.
///
/// The paper targets 2-7 dimensional data (Table 2); dimensionality is a
/// runtime value here, with the distance kernels specialised over small dims
/// where it matters (spatial/distance.hpp).
///
/// Storage: the row-major vector stays the authoritative, mutable store (the
/// dyn:: append/compact paths and the generators write it in place), and a
/// dimension-blocked SoA mirror (`soa()`) is materialized lazily for the
/// batch distance kernels.  Any non-const access invalidates the mirror;
/// the next `soa()` rebuilds it.  Holding a mutable reference from `at()` /
/// `coords()` across a `soa()` call and writing through it afterwards is
/// not supported (mutate first, read SoA after — every in-tree caller does).
class PointSet {
 public:
  PointSet() = default;
  PointSet(int dim, index_t count)
      : dim_(dim), coords_(static_cast<std::size_t>(count) * static_cast<std::size_t>(dim)) {}

  // The SoA mirror is identity-independent derived state: copies share or
  // lazily rebuild it, they never write through it.
  PointSet(const PointSet& other) : dim_(other.dim_), coords_(other.coords_) {}
  PointSet(PointSet&& other) noexcept
      : dim_(other.dim_), coords_(std::move(other.coords_)) {}
  PointSet& operator=(const PointSet& other) {
    if (this != &other) {
      dim_ = other.dim_;
      coords_ = other.coords_;
      invalidate_soa();
    }
    return *this;
  }
  PointSet& operator=(PointSet&& other) noexcept {
    dim_ = other.dim_;
    coords_ = std::move(other.coords_);
    invalidate_soa();
    return *this;
  }

  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] index_t size() const {
    return dim_ == 0 ? 0 : static_cast<index_t>(coords_.size() / static_cast<std::size_t>(dim_));
  }

  [[nodiscard]] double& at(index_t point, int d) {
    invalidate_soa();
    return coords_[static_cast<std::size_t>(point) * static_cast<std::size_t>(dim_) +
                   static_cast<std::size_t>(d)];
  }
  [[nodiscard]] double at(index_t point, int d) const {
    return coords_[static_cast<std::size_t>(point) * static_cast<std::size_t>(dim_) +
                   static_cast<std::size_t>(d)];
  }

  [[nodiscard]] std::span<const double> point(index_t i) const {
    return {coords_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(dim_),
            static_cast<std::size_t>(dim_)};
  }

  [[nodiscard]] const std::vector<double>& coords() const { return coords_; }
  [[nodiscard]] std::vector<double>& coords() {
    invalidate_soa();
    return coords_;
  }

  /// The dimension-blocked SoA mirror of the current coordinates, built on
  /// first use after any mutation and shared (immutable) thereafter — safe
  /// to call from concurrent readers of a const PointSet.
  [[nodiscard]] std::shared_ptr<const SoaStore> soa() const {
    const std::scoped_lock lock(soa_mutex_);
    if (soa_ == nullptr)
      soa_ = std::make_shared<const SoaStore>(coords_.data(), size(), dim_);
    return soa_;
  }

  /// Squared Euclidean distance from raw query coordinates to point j (the
  /// kernel behind coordinate-based kd-tree queries on points outside the
  /// index; `query` must have `dim()` entries).
  [[nodiscard]] double squared_distance(std::span<const double> query, index_t j) const {
    return distance::squared_distance(
        query.data(),
        coords_.data() + static_cast<std::size_t>(j) * static_cast<std::size_t>(dim_), dim_);
  }

  /// Squared Euclidean distance between points i and j.
  [[nodiscard]] double squared_distance(index_t i, index_t j) const {
    return distance::squared_distance(
        coords_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(dim_),
        coords_.data() + static_cast<std::size_t>(j) * static_cast<std::size_t>(dim_), dim_);
  }

  [[nodiscard]] double distance(index_t i, index_t j) const {
    return std::sqrt(squared_distance(i, j));
  }

 private:
  void invalidate_soa() {
    const std::scoped_lock lock(soa_mutex_);
    soa_.reset();
  }

  int dim_ = 0;
  std::vector<double> coords_;
  mutable std::mutex soa_mutex_;
  mutable std::shared_ptr<const SoaStore> soa_;
};

/// Front-door input validation: every coordinate must be finite (no NaN/Inf —
/// they would silently poison distances, core distances and the EMST).
/// Throws std::invalid_argument naming the offending point, dimension and
/// call site (`where`).  O(n·dim) single pass, run at the entry points
/// (every hdbscan() / sweep overload, dyn::insert), not in the kernels.
inline void validate_points(const PointSet& points, const char* where = "points") {
  const std::vector<double>& coords = points.coords();
  const int dim = points.dim();
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (!std::isfinite(coords[i])) {
      const std::size_t point = dim > 0 ? i / static_cast<std::size_t>(dim) : 0;
      const std::size_t d = dim > 0 ? i % static_cast<std::size_t>(dim) : 0;
      throw std::invalid_argument("pandora: " + std::string(where) + ": non-finite coordinate at point " +
                                  std::to_string(point) + ", dim " + std::to_string(d) +
                                  " (NaN/Inf coordinates are not supported)");
    }
  }
}

}  // namespace pandora::spatial

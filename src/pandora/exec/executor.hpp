#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include "pandora/common/expect.hpp"
#include "pandora/common/timer.hpp"
#include "pandora/common/types.hpp"
#include "pandora/exec/backend.hpp"
#include "pandora/exec/cancellation.hpp"
#include "pandora/exec/failpoint.hpp"
#include "pandora/exec/memory.hpp"
#include "pandora/obs/metrics.hpp"
#include "pandora/obs/trace.hpp"

/// The execution context of the library: `Executor`.
///
/// The paper's implementation expresses every kernel against Kokkos execution
/// space *instances* — objects carrying the backend choice, resources and
/// reusable scratch memory.  This reproduction mirrors that design: an
/// `Executor` owns (a) the execution `Backend` (serial / OpenMP, extensible
/// to a device backend — see backend.hpp), (b) a thread
/// budget, (c) a reusable `Workspace` arena — allocating through the
/// backend's `MemoryResource` — that amortises scratch-buffer allocations
/// across repeated dendrogram / HDBSCAN* calls on same-sized inputs, (d) an
/// optional `PhaseTimes` sink that every `ScopedPhase` adds its seconds to,
/// and (e) an `ArtifactCache` that lets upper layers reuse derived artifacts
/// (e.g. the canonical SortedEdges of an MST) across calls.  Every kernel
/// takes a `const Executor&`.
namespace pandora::exec {

/// Below this trip count per-kernel dispatch overhead dominates; kernels run
/// serially.  (The Executor needs it to answer `parallelize(n)`.)
inline constexpr size_type kParallelForGrain = 2048;

namespace detail {

/// Pre-registered process-wide handles for the exec-layer metrics (see
/// pandora/obs/metrics.hpp).  The function-local static pins registration to
/// first use; after that a call is the init-guard check plus one relaxed
/// atomic RMW — cheap enough for the launch/lease hot paths, and
/// allocation-free, which the warm-query zero-heap gates rely on.
inline obs::Counter& run_chunks_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_exec_run_chunks_total");
  return metric;
}
inline obs::Counter& thread_grants_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_exec_thread_grants_total");
  return metric;
}
inline obs::Counter& thread_grants_clamped_metric() {
  static obs::Counter& metric =
      obs::registry().counter("pandora_exec_thread_grants_clamped_total");
  return metric;
}
inline obs::Counter& workspace_bytes_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_workspace_leased_bytes_total");
  return metric;
}
inline obs::Counter& workspace_miss_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_workspace_arena_misses_total");
  return metric;
}
inline obs::Counter& cache_hits_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_cache_hits_total");
  return metric;
}
inline obs::Counter& cache_misses_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_cache_misses_total");
  return metric;
}
inline obs::Counter& cache_evictions_metric() {
  static obs::Counter& metric = obs::registry().counter("pandora_cache_evictions_total");
  return metric;
}

/// The phases the library times: the HDBSCAN* stages, the paper's Figs.
/// 12-13 dendrogram phases, and the baselines' own.
inline constexpr std::array<std::string_view, 12> kPhaseNames = {
    "tree_build", "core_distance", "mst",        "sort",  "contraction", "expansion",
    "condense",   "extract",       "dendrogram", "split", "subtrees",    "stitch"};

/// `pandora_phase_seconds{phase="<phase>"}`; `phase` must be one of
/// kPhaseNames.  All twelve handles register on first use.
inline obs::Histogram& phase_seconds_metric(std::string_view phase) {
  static const std::array<obs::Histogram*, kPhaseNames.size()> metrics = [] {
    std::array<obs::Histogram*, kPhaseNames.size()> out{};
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = &obs::registry().histogram("pandora_phase_seconds{phase=\"" +
                                          std::string(kPhaseNames[i]) + "\"}");
    }
    return out;
  }();
  const auto* it = std::find(kPhaseNames.begin(), kPhaseNames.end(), phase);
  PANDORA_EXPECT(it != kPhaseNames.end(), "unknown phase name");
  return *metrics[static_cast<std::size_t>(it - kPhaseNames.begin())];
}

}  // namespace detail

/// A size-class-aware byte arena handing out typed spans.
///
/// Kernels lease scratch with `take` / `take_uninit`; a lease is a typed view
/// over a recycled 64-byte-aligned block whose size is rounded up to the next
/// power of two (its *size class*).  When the lease goes out of scope the
/// block returns to its class's free list, so a second call with same-sized
/// inputs performs no heap allocation — and because blocks are raw bytes, one
/// block serves `index_t` scratch on this call and `double` scratch on the
/// next, which keeps retained memory low on mixed workloads (unlike the old
/// per-element-type pools).  Free lists are LIFO: identical call sequences
/// acquire identical blocks, preserving bit-for-bit determinism of anything
/// that (incorrectly) depended on buffer addresses.
///
/// Element types must be trivially copyable and trivially destructible (the
/// arena never runs constructors or destructors); `take_uninit` hands out the
/// block's previous bytes, `take` fills with a value.
///
/// Blocks come from a `MemoryResource` (the owning backend's, host memory by
/// default), so a device backend substitutes device buffers without touching
/// the lease/size-class logic here.
///
/// Not thread-safe: one Workspace belongs to one Executor and kernels on an
/// Executor run one at a time (parallelism happens *inside* kernels).
class Workspace {
 public:
  /// Allocation statistics, exposed so tests and the repeated-query benches
  /// can assert/report the steady-state "no new allocations" property.
  struct Stats {
    std::size_t takes = 0;   ///< leases served
    std::size_t hits = 0;    ///< served from a recycled free block
    std::size_t misses = 0;  ///< required a fresh heap allocation
  };

  /// RAII lease of a typed span over an arena block.  Default-constructed
  /// leases are empty.  A lease must not outlive its Workspace.
  template <class T>
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          home_(std::exchange(other.home_, nullptr)),
          size_class_(other.size_class_) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        data_ = std::exchange(other.data_, nullptr);
        size_ = std::exchange(other.size_, 0);
        home_ = std::exchange(other.home_, nullptr);
        size_class_ = other.size_class_;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] T* data() noexcept { return data_; }
    [[nodiscard]] const T* data() const noexcept { return data_; }
    [[nodiscard]] std::size_t size() const noexcept { return size_; }
    [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
    [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
    [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return data_[i]; }
    [[nodiscard]] T* begin() noexcept { return data_; }
    [[nodiscard]] T* end() noexcept { return data_ + size_; }
    [[nodiscard]] const T* begin() const noexcept { return data_; }
    [[nodiscard]] const T* end() const noexcept { return data_ + size_; }
    [[nodiscard]] std::span<T> span() noexcept { return {data_, size_}; }
    [[nodiscard]] std::span<const T> span() const noexcept { return {data_, size_}; }
    operator std::span<T>() noexcept { return {data_, size_}; }              // NOLINT
    operator std::span<const T>() const noexcept { return {data_, size_}; }  // NOLINT

   private:
    friend class Workspace;
    Lease(T* data, std::size_t size, Workspace* home, int size_class)
        : data_(data), size_(size), home_(home), size_class_(size_class) {}
    void release() {
      if (home_ != nullptr) {
        home_->release_block(data_, size_class_);
        home_ = nullptr;
      }
      data_ = nullptr;
      size_ = 0;
    }

    T* data_ = nullptr;
    std::size_t size_ = 0;
    Workspace* home_ = nullptr;
    int size_class_ = 0;
  };

  /// `memory == nullptr` selects the process-wide host resource.  The
  /// resource must outlive the Workspace and every lease taken from it.
  explicit Workspace(MemoryResource* memory = nullptr)
      : memory_(memory != nullptr ? memory : &host_memory_resource()) {}
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  ~Workspace() { clear(); }

  [[nodiscard]] MemoryResource& memory_resource() const noexcept { return *memory_; }

  /// Lease a span over `n` elements with unspecified contents (the recycled
  /// block's previous bytes).  For scratch that is fully overwritten before
  /// being read.
  template <class T>
  [[nodiscard]] Lease<T> take_uninit(size_type n) {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                  "the Workspace arena hands out raw byte blocks");
    ++stats_.takes;
    if (n <= 0) {
      ++stats_.hits;  // the empty lease costs nothing
      return Lease<T>();
    }
    int size_class = 0;
    void* block = acquire_block(static_cast<std::size_t>(n) * sizeof(T), size_class);
    return Lease<T>(static_cast<T*>(block), static_cast<std::size_t>(n), this, size_class);
  }

  /// Lease a span of `n` elements, every element set to `fill`.
  template <class T>
  [[nodiscard]] Lease<T> take(size_type n, const T& fill = T{}) {
    Lease<T> lease = take_uninit<T>(n);
    for (T& slot : lease) slot = fill;
    return lease;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Bytes currently held on the free lists (retained, reusable memory).
  [[nodiscard]] std::size_t retained_bytes() const noexcept {
    std::size_t total = 0;
    for (std::size_t c = 0; c < kNumClasses; ++c)
      total += free_[c].size() << (c + kMinClassLog2);
    return total;
  }

  /// Free every cached block — the arena returns to its empty state.  Leases
  /// still outstanding are unaffected and return their blocks afterwards.
  void clear() {
    for (std::size_t c = 0; c < kNumClasses; ++c) {
      for (void* block : free_[c]) deallocate_block(block, static_cast<int>(c));
      free_[c].clear();
      free_[c].shrink_to_fit();
    }
  }

 private:
  /// Classes are powers of two from 64 bytes (class 0) upward; class c holds
  /// blocks of exactly 1 << (c + kMinClassLog2) bytes.
  static constexpr std::size_t kMinClassLog2 = 6;
  static constexpr std::size_t kNumClasses = 42;
  static constexpr std::size_t kBlockAlignment = 64;

  [[nodiscard]] static int class_of(std::size_t bytes) {
    const int width = std::bit_width(bytes - 1);  // bytes >= 1
    return width <= static_cast<int>(kMinClassLog2)
               ? 0
               : width - static_cast<int>(kMinClassLog2);
  }

  [[nodiscard]] void* acquire_block(std::size_t bytes, int& size_class) {
    detail::workspace_bytes_metric().inc(bytes);
    const int wanted = class_of(bytes);
    // Exact class first, then the smallest larger class with a free block
    // (a shrinking workload reuses its big blocks instead of allocating).
    for (int c = wanted; c < static_cast<int>(kNumClasses); ++c) {
      auto& list = free_[static_cast<std::size_t>(c)];
      if (!list.empty()) {
        void* block = list.back();
        list.pop_back();
        ++stats_.hits;
        size_class = c;
        return block;
      }
    }
    ++stats_.misses;
    detail::workspace_miss_metric().inc();
    size_class = wanted;
    return memory_->allocate(
        std::size_t{1} << (static_cast<std::size_t>(wanted) + kMinClassLog2),
        kBlockAlignment);
  }

  void release_block(void* block, int size_class) {
    if (block != nullptr) free_[static_cast<std::size_t>(size_class)].push_back(block);
  }

  void deallocate_block(void* block, int size_class) const noexcept {
    memory_->deallocate(block,
                        std::size_t{1} << (static_cast<std::size_t>(size_class) + kMinClassLog2),
                        kBlockAlignment);
  }

  MemoryResource* memory_ = &host_memory_resource();
  std::array<std::vector<void*>, kNumClasses> free_;
  Stats stats_;
};

/// A small fingerprint-keyed cache of derived artifacts, attached to the
/// Executor so upper layers (dendrogram, hdbscan, spatial) can reuse
/// expensive intermediate results — the canonical descending-weight
/// SortedEdges of an MST, the kd-tree and per-mpts core distances of a point
/// set, the PANDORA dendrogram replayed across `min_cluster_size` sweeps —
/// across calls without a layering inversion.  Entries are type-erased
/// shared_ptrs matched on (fingerprint, type); eviction is
/// least-recently-used over a fixed number of slots.
///
/// Locking contract: every operation (find / insert / clear / stats) takes
/// the cache's internal mutex, so the cache is safe to reach from concurrent
/// threads.  The contract the mutex enforces:
///  * `find` returns an owning shared_ptr, so a hit stays alive even if the
///    entry is concurrently evicted; callers never hold references into the
///    cache itself.
///  * cached values are immutable after insert — readers share them without
///    further synchronisation.  (The single exception, the SortedEdges
///    validation flag, is an atomic.)
///  * two threads missing on the same fingerprint may both compute and both
///    insert; the last insert wins and the loser's value simply dies with
///    its shared_ptr.  Correctness never depends on single-insertion.
/// The uncontended lock costs nanoseconds next to the artifacts being cached
/// (sorts, tree builds), so the single-query path is unaffected.
///
/// Eviction is plain LRU and nothing is exempt from it.  The snapshot tier
/// does not use the cache: its readers share each snapshot's kd-tree.
class ArtifactCache {
 public:
  /// Observability counters, readable without taking the cache lock (the
  /// counters are relaxed atomics; a snapshot of them is not required to be
  /// mutually consistent — they feed dashboards and benches, not logic).
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t evictions = 0;  ///< occupied entries displaced by a different key
  };

  static constexpr std::size_t kDefaultSlots = 16;

  explicit ArtifactCache(std::size_t slots = kDefaultSlots)
      : entries_(slots > 0 ? slots : std::size_t{1}) {}
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// The cached artifact for `fingerprint`, or nullptr.  A hit performs no
  /// heap allocation (the shared_ptr copy only bumps a refcount).
  template <class T>
  [[nodiscard]] std::shared_ptr<T> find(std::uint64_t fingerprint) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (Entry& entry : entries_) {
      if (entry.value != nullptr && entry.fingerprint == fingerprint &&
          *entry.type == typeid(T)) {
        entry.stamp = ++clock_;
        hits_.fetch_add(1, std::memory_order_relaxed);
        detail::cache_hits_metric().inc();
        return std::static_pointer_cast<T>(entry.value);
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    detail::cache_misses_metric().inc();
    return nullptr;
  }

  /// Stores `value` under `fingerprint`.  An existing (fingerprint, type)
  /// entry is replaced in place — callers that detect a stale value (e.g.
  /// the spatial caches' points-identity check) rely on their re-insert
  /// superseding it rather than shadowing it behind a duplicate.  Otherwise
  /// the value takes an empty slot, or evicts the least-recently-used entry.
  template <class T>
  void insert(std::uint64_t fingerprint, std::shared_ptr<T> value) {
    std::shared_ptr<void> doomed;  // evicted value released outside the lock
    const std::lock_guard<std::mutex> lock(mutex_);
    Entry* match = nullptr;
    Entry* empty = nullptr;
    Entry* lru = nullptr;
    for (Entry& entry : entries_) {
      if (entry.value == nullptr) {
        if (empty == nullptr) empty = &entry;
        continue;
      }
      if (entry.fingerprint == fingerprint && *entry.type == typeid(T)) {
        match = &entry;
        break;
      }
      if (lru == nullptr || entry.stamp < lru->stamp) lru = &entry;
    }
    Entry* slot = match != nullptr ? match : empty != nullptr ? empty : lru;
    if (slot->value != nullptr && slot != match) {
      evictions_.fetch_add(1, std::memory_order_relaxed);
      detail::cache_evictions_metric().inc();
    }
    doomed = std::move(slot->value);
    slot->fingerprint = fingerprint;
    slot->type = &typeid(T);
    slot->value = std::move(value);
    slot->stamp = ++clock_;
  }

  void clear() {
    std::vector<Entry> doomed;  // destructors run outside the lock
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      doomed = std::move(entries_);
      entries_.assign(doomed.size(), Entry{});
    }
  }

  [[nodiscard]] std::size_t num_slots() const noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  [[nodiscard]] Stats stats() const noexcept {
    Stats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    return out;
  }
  void reset_stats() noexcept {
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    const std::type_info* type = nullptr;
    std::shared_ptr<void> value;
    std::uint64_t stamp = 0;
  };

  mutable std::mutex mutex_;
  mutable std::vector<Entry> entries_;
  mutable std::uint64_t clock_ = 0;
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  mutable std::atomic<std::size_t> evictions_{0};
};

/// The reusable execution context every kernel takes by const reference.
///
/// Cheap to construct, but meant to be constructed once and reused: the
/// workspace arena and artifact cache only pay off across repeated calls.
/// The workspace, phase sink, cache and cancellation token are logically part
/// of the execution *context*, not the kernel inputs, so they are mutable
/// behind the const interface (exactly like Kokkos execution-space instances,
/// whose scratch arenas are mutable too).
///
/// Not thread-safe: do not run two kernels on the same Executor concurrently
/// (parallelism happens inside kernels, governed by `num_threads`).
class Executor {
 public:
  /// An executor on `backend` (nullptr selects `default_backend()`) with an
  /// optional explicit thread budget (0 = the backend's default).  The
  /// Workspace arena allocates through the backend's MemoryResource.
  explicit Executor(std::shared_ptr<const Backend> backend, int num_threads = 0)
      : backend_(backend != nullptr ? std::move(backend) : default_backend()),
        requested_threads_(num_threads),
        workspace_(&backend_->memory_resource()) {}

  /// An executor on the default backend (openmp) with its default thread
  /// budget.
  Executor() : Executor(std::shared_ptr<const Backend>{}, 0) {}

  /// An executor on the default backend with an explicit thread budget.
  explicit Executor(int num_threads) : Executor(std::shared_ptr<const Backend>{}, num_threads) {}

  /// The execution backend every kernel on this executor dispatches through.
  [[nodiscard]] const Backend& backend() const noexcept { return *backend_; }
  [[nodiscard]] const std::shared_ptr<const Backend>& backend_ptr() const noexcept {
    return backend_;
  }

  /// Human-readable backend name for benchmark tables.
  [[nodiscard]] const char* name() const { return backend_->name(); }

  /// The thread budget the backend granted this executor: the requested
  /// count (clamped by fixed-capacity backends) or the backend's default.
  /// Answered by the backend itself, never by global runtime state, so a
  /// nested executor (e.g. a batch serving slot) reports truthfully.
  [[nodiscard]] int num_threads() const {
    const int granted = backend_->grant_threads(requested_threads_);
    detail::thread_grants_metric().inc();
    if (requested_threads_ > 0 && granted < requested_threads_)
      detail::thread_grants_clamped_metric().inc();
    return granted;
  }

  /// The thread count the constructor requested (0 = backend default) —
  /// what a sub-executor should inherit as its own ceiling.
  [[nodiscard]] int requested_threads() const noexcept { return requested_threads_; }

  /// True when a kernel over `n` items should take its parallel path.
  [[nodiscard]] bool parallelize(size_type n) const {
    return n >= kParallelForGrain && num_threads() > 1;
  }

  /// The scratch-buffer arena (see Workspace).
  [[nodiscard]] Workspace& workspace() const noexcept { return workspace_; }

  /// The executor's cross-call artifact cache (see ArtifactCache).
  [[nodiscard]] ArtifactCache& artifact_cache() const noexcept { return artifact_cache_; }

  /// Whether cross-call artifact reuse (e.g. the SortedEdges cache keyed on
  /// the MST fingerprint) is enabled.  On by default; turn off to force every
  /// call to recompute — benchmarks comparing construction algorithms do.
  [[nodiscard]] bool artifact_caching() const noexcept { return artifact_caching_; }
  void set_artifact_caching(bool enabled) const noexcept { artifact_caching_ = enabled; }

  /// The installed cancellation token (nullptr = not cancellable).
  /// Non-owning; the token must outlive its installation.  Installed via
  /// `ScopedCancellation` by callers and the batch layer; mutable behind
  /// const like the phase sink — it is execution context, not kernel input.
  [[nodiscard]] const CancellationToken* cancellation_token() const noexcept {
    return cancellation_;
  }
  void set_cancellation_token(const CancellationToken* token) const noexcept {
    cancellation_ = token;
  }

  /// Throws pandora::Cancelled when the installed token has fired.  Kernels
  /// with long serial sections call this at their natural grain; everything
  /// dispatched through `run_chunks` below is covered automatically.
  void check_cancellation() const {
    if (cancellation_ != nullptr && cancellation_->cancelled()) throw_cancelled(*cancellation_);
  }

  /// Dispatches a bulk launch through the backend, honouring the installed
  /// cancellation token at chunk boundaries: once the token fires, remaining
  /// chunks are skipped (bodies must not throw — Backend contract) and the
  /// calling thread throws pandora::Cancelled after the launch returns, so
  /// cancellation latency is bounded by one chunk regardless of backend.
  /// With no token installed this is a direct backend dispatch (one branch).
  /// Kernels call this — never `backend().run_chunks` directly.
  void run_chunks(int num_chunks, int max_workers, ChunkBody body) const {
    PANDORA_FAILPOINT("exec.run_chunks");
    detail::run_chunks_metric().inc();
    // Manual span guard (ScopedSpan is declared below Executor): records the
    // launch even when a fired cancellation token unwinds it.
    struct SpanGuard {
      obs::TraceRecorder* recorder;
      std::uint64_t start_ns;
      ~SpanGuard() {
        if (recorder != nullptr) recorder->record("run_chunks", start_ns, recorder->now_ns());
      }
    } span{trace_, trace_ != nullptr ? trace_->now_ns() : 0};
    const CancellationToken* token = cancellation_;
    if (token == nullptr) {
      backend_->run_chunks(num_chunks, max_workers, body);
      return;
    }
    if (token->cancelled()) throw_cancelled(*token);
    auto guarded = [&](int chunk) {
      if (!token->cancelled()) body(chunk);
    };
    backend_->run_chunks(num_chunks, max_workers, guarded);
    if (token->cancelled()) throw_cancelled(*token);
  }

  /// The installed PhaseTimes sink, or nullptr.  Non-owning.  Every
  /// `ScopedPhase` on this executor adds its seconds to it.  PhaseTimes is
  /// unsynchronized, so a sink serves one executor at a time: never install
  /// one sink on executors that run concurrently (e.g. batch slots).
  /// `hdbscan()` installs its own `result.times` for the duration of the
  /// call and restores this sink afterwards.
  [[nodiscard]] PhaseTimes* phase_times() const noexcept { return phase_times_; }
  void set_phase_times(PhaseTimes* sink) const noexcept { phase_times_ = sink; }

  /// The attached trace recorder, or nullptr (tracing off).  Non-owning;
  /// installed via `ScopedTrace`, mutable behind const like the phase sink.
  /// When set, `ScopedPhase`, `ScopedSpan` and `run_chunks` record spans
  /// into it.
  [[nodiscard]] obs::TraceRecorder* trace_recorder() const noexcept { return trace_; }
  void set_trace_recorder(obs::TraceRecorder* recorder) const noexcept { trace_ = recorder; }

 private:
  std::shared_ptr<const Backend> backend_;
  int requested_threads_;
  mutable Workspace workspace_;
  mutable ArtifactCache artifact_cache_;
  mutable PhaseTimes* phase_times_ = nullptr;
  mutable obs::TraceRecorder* trace_ = nullptr;
  mutable bool artifact_caching_ = true;
  mutable const CancellationToken* cancellation_ = nullptr;
};

/// The per-thread default executor on `default_backend()`.  Callers without
/// a long-lived executor of their own share its workspace, so they too
/// amortise allocations across calls; per-thread storage keeps it safe under
/// concurrent callers.
[[nodiscard]] const Executor& default_executor();

/// The per-thread default executor on a specific backend (one per (thread,
/// backend instance); the backend must outlive its use, which the shared
/// singletons of backend.hpp always do).
[[nodiscard]] const Executor& default_executor(const std::shared_ptr<const Backend>& backend);

/// Scope guard installing a cancellation token on an executor (a deadline'd
/// pipeline run, a batch job), restoring the previous token on exit so
/// nested scopes compose.  A null `token` leaves the executor's current
/// token in place (the guard is then a no-op), so callers can pass "maybe a
/// token" without branching.
class ScopedCancellation {
 public:
  ScopedCancellation(const Executor& executor, const CancellationToken* token)
      : executor_(executor), saved_(executor.cancellation_token()), active_(token != nullptr) {
    if (active_) executor_.set_cancellation_token(token);
  }
  ScopedCancellation(const ScopedCancellation&) = delete;
  ScopedCancellation& operator=(const ScopedCancellation&) = delete;
  ~ScopedCancellation() {
    if (active_) executor_.set_cancellation_token(saved_);
  }

 private:
  const Executor& executor_;
  const CancellationToken* saved_;
  bool active_;
};

/// Scope guard enabling trace-span recording on an executor for its
/// lifetime, restoring the previously installed recorder on exit so nested
/// scopes compose.  The recorder is non-owning and must outlive the guard.
/// A null recorder leaves the executor's current recorder in place.
class ScopedTrace {
 public:
  ScopedTrace(const Executor& executor, obs::TraceRecorder* recorder)
      : executor_(executor), saved_(executor.trace_recorder()), active_(recorder != nullptr) {
    if (active_) executor_.set_trace_recorder(recorder);
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
  ~ScopedTrace() {
    if (active_) executor_.set_trace_recorder(saved_);
  }

 private:
  const Executor& executor_;
  obs::TraceRecorder* saved_;
  bool active_;
};

/// RAII span over an executor's installed trace recorder: the guard's
/// lifetime becomes one "X" event named `name` (which must outlive the guard
/// — string literals do).  With tracing off the guard costs two loads.
/// Upper layers use it for query-level spans around whole pipeline calls;
/// phases and run_chunks launches inside nest automatically.
class ScopedSpan {
 public:
  ScopedSpan(const Executor& executor, std::string_view name) noexcept
      : recorder_(executor.trace_recorder()),
        name_(name),
        start_ns_(recorder_ != nullptr ? recorder_->now_ns() : 0) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->record(name_, start_ns_, recorder_->now_ns());
  }

 private:
  obs::TraceRecorder* recorder_;
  std::string_view name_;
  std::uint64_t start_ns_;
};

/// RAII guard over one algorithm phase (`phase` is one of
/// detail::kPhaseNames).  When it ends — normally or by unwinding — it
/// records a `ScopedSpan` (only with a recorder installed), observes
/// `pandora_phase_seconds{phase=...}`, and adds the seconds to the
/// executor's PhaseTimes sink when one is installed.  Phase scopes never
/// overlap, so each sink total sums disjoint work.  The constructor resolves
/// the histogram and the sink's slot (a sink's first use of a phase
/// allocates its map node), so ending a phase takes no lock, allocates
/// nothing and cannot throw.
class ScopedPhase {
 public:
  ScopedPhase(const Executor& executor, std::string_view phase)
      : metric_(detail::phase_seconds_metric(phase)),
        sink_slot_(executor.phase_times() != nullptr
                       ? &executor.phase_times()->slot(std::string(phase))
                       : nullptr),
        span_(executor, phase) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    const double seconds = timer_.seconds();
    metric_.observe(seconds);
    if (sink_slot_ != nullptr) *sink_slot_ += seconds;
  }

 private:
  obs::Histogram& metric_;
  double* sink_slot_;
  ScopedSpan span_;
  Timer timer_;  ///< last member: the clock starts once the guard is set up
};

}  // namespace pandora::exec

#pragma once

#include <memory>
#include <type_traits>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/memory.hpp"

/// The pluggable execution layer: `Backend`.
///
/// The paper's implementation gets CPU/GPU portability by expressing every
/// kernel against Kokkos execution-space instances.  This library's
/// equivalent is the `Backend` interface: every data-parallel primitive the
/// subsystems consume — `parallel_for`, the deterministic left-to-right
/// `parallel_reduce`, `exclusive_scan`, the byte-range `radix_sort_u64` — is
/// expressed as a sequence of *chunk launches* (`run_chunks`) interleaved
/// with cheap serial combine steps on the calling thread.  A backend
/// additionally owns the `MemoryResource` its executors' `Workspace` arenas
/// allocate through, so a device backend substitutes device buffers without
/// touching the arena's lease/size-class logic.
///
/// Two backends ship:
///  * `serial_backend()` — one thread, the sequential reference;
///  * `openmp_backend()` — OpenMP teams, the former `Space::parallel`, and
///    the default.
///
/// Determinism contract: `run_chunks` may execute chunks in any order on any
/// worker, so callers make each chunk's effect a pure function of its chunk
/// index (disjoint output ranges, per-chunk partials combined left-to-right
/// on the calling thread afterwards).  Under that discipline every backend
/// produces bit-identical results — the conformance suite asserts it.
namespace pandora::exec {

/// Non-owning type-erased reference to a chunk body (a callable taking the
/// chunk index).  Cheap to copy; the referenced callable must outlive the
/// `run_chunks` call, which is guaranteed because `run_chunks` returns only
/// after every chunk completed.
class ChunkBody {
 public:
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ChunkBody> && std::is_invocable_v<F&, int>)
  ChunkBody(F& body)  // NOLINT: implicit by design, mirrors function_ref
      : ctx_(const_cast<void*>(static_cast<const void*>(&body))),
        fn_(+[](void* ctx, int chunk) { (*static_cast<F*>(ctx))(chunk); }) {}

  void operator()(int chunk) const { fn_(ctx_, chunk); }

 private:
  void* ctx_;
  void (*fn_)(void*, int);
};

/// The execution mechanism behind every kernel.  Implementations are
/// immutable after construction and shared across executors (`Executor`
/// holds a `shared_ptr<const Backend>`); any internal machinery (worker
/// pools) is `mutable` and internally synchronised.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Short human-readable identifier ("serial", "openmp") used in
  /// benchmark tables and the BENCH_*.json backend column.
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Workers this backend can run concurrently (>= 1, counting the caller).
  [[nodiscard]] virtual int concurrency() const noexcept = 0;

  /// The thread budget granted to an executor that requested `requested`
  /// threads (`requested == 0` means "backend default").  This is what lets
  /// nested executors report truthfully: the answer comes from the backend's
  /// own capacity, never from global runtime state.  The default grants
  /// explicit requests verbatim (the OpenMP runtime oversubscribes happily);
  /// a fixed-size backend would clamp to its capacity.
  [[nodiscard]] virtual int grant_threads(int requested) const noexcept {
    return requested > 0 ? requested : concurrency();
  }

  /// Executes `body(c)` for every c in [0, num_chunks), possibly
  /// concurrently on up to `max_workers` workers (the caller counts as one),
  /// and returns only when every chunk has completed.  All memory effects of
  /// the chunk bodies happen-before the return.  Chunk bodies must not throw
  /// and must not call back into `run_chunks` on the same backend from a
  /// worker thread (backends run nested calls inline on the calling worker).
  virtual void run_chunks(int num_chunks, int max_workers, ChunkBody body) const = 0;

  /// The memory resource executors on this backend allocate Workspace arena
  /// blocks through.  Host memory by default.
  [[nodiscard]] virtual MemoryResource& memory_resource() const noexcept {
    return host_memory_resource();
  }
};

/// The sequential reference backend: one thread, chunks run in order.
[[nodiscard]] const std::shared_ptr<const Backend>& serial_backend();

/// The OpenMP team backend (the former `Space::parallel`).
[[nodiscard]] const std::shared_ptr<const Backend>& openmp_backend();

/// The backend `Executor` uses when none is given: `openmp_backend()`.
[[nodiscard]] const std::shared_ptr<const Backend>& default_backend();

/// Every registered backend (serial, openmp), for conformance
/// sweeps: `for (const auto& backend : registered_backends()) ...`.
[[nodiscard]] std::vector<std::shared_ptr<const Backend>> registered_backends();

}  // namespace pandora::exec

#pragma once

#include <atomic>
#include <type_traits>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/backend.hpp"
#include "pandora/exec/executor.hpp"

/// Data-parallel primitives: parallel_for and parallel_reduce, plus the
/// relaxed atomic read-modify-write helpers GPU kernels rely on.
///
/// Every kernel in the library is written against these (never against raw
/// threading pragmas) so that every backend — serial, OpenMP, a future
/// device backend — executes the exact same code,
/// mirroring the performance-portability claim of Section 5.  Each primitive
/// decomposes its index range into `Executor::num_threads()` deterministic
/// chunks and dispatches them through `Backend::run_chunks`; per-chunk
/// partials are combined left-to-right on the calling thread, so results are
/// bit-identical across backends and across runs (the conformance suite
/// asserts both).
namespace pandora::exec {

/// Apply `f(i)` for every i in [0, n).
template <class F>
void parallel_for(const Executor& exec, size_type n, F&& f) {
  if (exec.parallelize(n)) {
    const int num_chunks = exec.num_threads();
    auto body = [&](int c) {
      const size_type lo = n * c / num_chunks;
      const size_type hi = n * (c + 1) / num_chunks;
      for (size_type i = lo; i < hi; ++i) f(i);
    };
    exec.run_chunks(num_chunks, num_chunks, body);
  } else if (const CancellationToken* token = exec.cancellation_token(); token != nullptr) {
    // Serial fallback (small n, or a 1-thread backend over any n): poll the
    // token every kParallelForGrain iterations so cancellation latency stays
    // ~one grain even where run_chunks is never reached.
    for (size_type i = 0; i < n; ++i) {
      if ((i & (kParallelForGrain - 1)) == 0 && token->cancelled()) throw_cancelled(*token);
      f(i);
    }
  } else {
    for (size_type i = 0; i < n; ++i) f(i);
  }
}

/// Reduce `transform(i)` over i in [0, n) with the associative `combine`,
/// starting from `identity`.
///
/// Each chunk folds a contiguous index range into a private accumulator; the
/// per-chunk partials are then combined *sequentially in chunk order* on the
/// calling thread.  Because chunk c covers indices strictly before chunk
/// c+1, the overall combine order is left-to-right over [0, n), so `combine`
/// only has to be associative — it need NOT be commutative — and the result
/// does not depend on which backend worker ran which chunk.
template <class T, class Transform, class Combine>
[[nodiscard]] T parallel_reduce(const Executor& exec, size_type n, T identity,
                                Transform&& transform, Combine&& combine) {
  if (exec.parallelize(n)) {
    const int num_chunks = exec.num_threads();
    const auto reduce_into = [&](T* partial) {
      auto body = [&](int c) {
        const size_type lo = n * c / num_chunks;
        const size_type hi = n * (c + 1) / num_chunks;
        T local = identity;
        for (size_type i = lo; i < hi; ++i) local = combine(local, transform(i));
        partial[static_cast<std::size_t>(c)] = std::move(local);
      };
      exec.run_chunks(num_chunks, num_chunks, body);
      T result = identity;
      for (int c = 0; c < num_chunks; ++c)
        result = combine(std::move(result), std::move(partial[static_cast<std::size_t>(c)]));
      return result;
    };
    // Per-chunk partials live in leased scratch when T fits the byte arena
    // (the common case: integral/fingerprint reductions on the hot path stay
    // allocation-free after warm-up); other types fall back to a vector.
    if constexpr (std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>) {
      auto partial = exec.workspace().template take<T>(num_chunks, identity);
      return reduce_into(partial.data());
    } else {
      std::vector<T> partial(static_cast<std::size_t>(num_chunks), identity);
      return reduce_into(partial.data());
    }
  }
  if (const CancellationToken* token = exec.cancellation_token(); token != nullptr) {
    T result = identity;
    for (size_type i = 0; i < n; ++i) {
      if ((i & (kParallelForGrain - 1)) == 0 && token->cancelled()) throw_cancelled(*token);
      result = combine(result, transform(i));
    }
    return result;
  }
  T result = identity;
  for (size_type i = 0; i < n; ++i) result = combine(result, transform(i));
  return result;
}

/// Sum of `transform(i)` over [0, n).
template <class T, class Transform>
[[nodiscard]] T parallel_sum(const Executor& exec, size_type n, T identity,
                             Transform&& transform) {
  return parallel_reduce(exec, n, std::move(identity), static_cast<Transform&&>(transform),
                         [](T a, T b) { return a + b; });
}

/// Relaxed atomic max on an integral slot; returns nothing (used for
/// idempotent "max of all writers wins" scatter patterns such as the
/// maxIncident computation of Section 3.1).
template <class T>
void atomic_fetch_max(T& slot, T value) {
  static_assert(std::is_integral_v<T>);
  std::atomic_ref<T> ref(slot);
  T current = ref.load(std::memory_order_relaxed);
  while (current < value &&
         !ref.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

/// Relaxed atomic min on an integral slot.
template <class T>
void atomic_fetch_min(T& slot, T value) {
  static_assert(std::is_integral_v<T>);
  std::atomic_ref<T> ref(slot);
  T current = ref.load(std::memory_order_relaxed);
  while (current > value &&
         !ref.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

/// Relaxed atomic add; returns the previous value.
template <class T>
T atomic_fetch_add(T& slot, T value) {
  static_assert(std::is_integral_v<T>);
  std::atomic_ref<T> ref(slot);
  return ref.fetch_add(value, std::memory_order_relaxed);
}

}  // namespace pandora::exec

#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "pandora/common/types.hpp"
#include "pandora/exec/backend.hpp"
#include "pandora/exec/executor.hpp"

/// Data-parallel primitives: parallel_for, parallel_reduce and the
/// owner-computes parallel_for_owned, plus the relaxed atomic
/// read-modify-write helpers GPU kernels rely on.
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

/// The output slots [lo, hi) one chunk of parallel_for_owned owns.
struct OwnedRange {
  size_type lo = 0, hi = 0;

  [[nodiscard]] bool contains(size_type slot) const {
    return static_cast<std::uint64_t>(slot - lo) < static_cast<std::uint64_t>(hi - lo);
  }

  /// `&slots[slot]` if this range owns `slot`, else `sink` (chunk-local),
  /// selected by a mask instead of a branch.  Where slots follow no pattern
  /// along the input, c chunks fail the ownership test for (c-1)/c of the
  /// inputs unpredictably; on 1M random vertex ids at 4 threads a branch per
  /// store cost 8-17 ms against 3 ms for the mask.
  template <class T>
  [[nodiscard]] T* select(std::span<T> slots, size_type slot, T* sink) const {
    const std::uintptr_t mask = -static_cast<std::uintptr_t>(contains(slot));
    return reinterpret_cast<T*>(
        (reinterpret_cast<std::uintptr_t>(slots.data() + slot) & mask) |
        (reinterpret_cast<std::uintptr_t>(sink) & ~mask));
  }
};

/// Owner-computes scatter: calls `f(i, owned)` for every input i in [0, n),
/// in ascending order, where `owned` is the range of the `num_slots` output
/// slots the calling chunk owns; `f` stores only into owned slots (directly
/// after `owned.contains`, or through `owned.select`).  No slot has two writers, so plain stores replace
/// atomics, and the last store to a slot comes from the largest i that
/// targets it.  The price is read amplification: every chunk streams the
/// whole input, so the inputs are read once per chunk (num_threads() times
/// on the parallel path; once below the parallel grain or on a one-thread
/// executor, where a single chunk owns every slot).  Chunks whose range is
/// empty skip the stream.
template <class F>
void parallel_for_owned(const Executor& exec, size_type num_slots, size_type n, F&& f) {
  const int num_chunks = exec.parallelize(n) ? exec.num_threads() : 1;
  auto body = [&](int c) {
    const OwnedRange owned{num_slots * c / num_chunks, num_slots * (c + 1) / num_chunks};
    if (owned.lo == owned.hi) return;
    for (size_type i = 0; i < n; ++i) f(i, owned);
  };
  exec.run_chunks(num_chunks, num_chunks, body);
}

/// Sum of `transform(i)` over [0, n).
template <class T, class Transform>
[[nodiscard]] T parallel_sum(const Executor& exec, size_type n, T identity,
                             Transform&& transform) {
  return parallel_reduce(exec, n, std::move(identity), static_cast<Transform&&>(transform),
                         [](T a, T b) { return a + b; });
}

/// Relaxed atomic max on an integral slot; returns nothing (for idempotent
/// "max of all writers wins" scatters whose writers cannot own their slots;
/// where they can, parallel_for_owned needs no read-modify-write).
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

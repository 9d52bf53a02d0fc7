#pragma once

// Global allocation counting for the zero-allocation steady-state tests.
//
// Including this header DEFINES the replaceable global `operator new` /
// `operator delete` functions, scalar and aligned, throwing and nothrow
// (counting every heap allocation of the process), so it must be included in
// exactly ONE translation unit of a binary.  Every scalar form is replaced:
// a form left to the runtime (under ASan, its own allocator) would hand out
// memory that these `delete`s then `free` — `std::stable_sort`'s temporary
// buffer comes from the nothrow `new`.  The counters are atomics: OpenMP worker threads allocating inside
// a measured region are counted too — which is the point.

#include <atomic>
#include <cstdlib>
#include <new>

namespace pandora::testing {

inline std::atomic<std::size_t> g_allocation_count{0};

/// Counts allocations between construction and `count()`.
struct AllocationCounterScope {
  std::size_t start = g_allocation_count.load(std::memory_order_relaxed);
  [[nodiscard]] std::size_t count() const {
    return g_allocation_count.load(std::memory_order_relaxed) - start;
  }
};

}  // namespace pandora::testing

void* operator new(std::size_t size) {
  pandora::testing::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  while (true) {
    if (void* p = std::malloc(size)) return p;
    if (std::new_handler handler = std::get_new_handler()) {
      handler();
    } else {
      throw std::bad_alloc{};
    }
  }
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  pandora::testing::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  const auto align = static_cast<std::size_t>(alignment);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  while (true) {
    if (void* p = std::aligned_alloc(align, rounded)) return p;
    if (std::new_handler handler = std::get_new_handler()) {
      handler();
    } else {
      throw std::bad_alloc{};
    }
  }
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void* operator new(std::size_t size, std::align_val_t alignment, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size, alignment);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

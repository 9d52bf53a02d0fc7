#include "pandora/exec/backend.hpp"

#include <omp.h>

#include <algorithm>
#include <array>
#include <cstring>

#include "pandora/exec/executor.hpp"

namespace pandora::exec {

MemoryResource& host_memory_resource() {
  static HostMemoryResource resource;
  return resource;
}

namespace {

/// One thread; chunks run in order on the caller.  The sequential reference
/// every other backend must match bit-for-bit.
class SerialBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "serial"; }
  [[nodiscard]] int concurrency() const noexcept override { return 1; }
  /// The serial backend is serial by definition: requests for more threads
  /// are not honoured (the former `Space::serial` semantics).
  [[nodiscard]] int grant_threads(int /*requested*/) const noexcept override { return 1; }
  void run_chunks(int num_chunks, int /*max_workers*/, ChunkBody body) const override {
    for (int c = 0; c < num_chunks; ++c) body(c);
  }
};

/// OpenMP teams — the former `Space::parallel`.  Each launch is one parallel
/// region; the runtime's own (possibly spinning) thread pool carries it.
class OpenMPBackend final : public Backend {
 public:
  [[nodiscard]] const char* name() const noexcept override { return "openmp"; }
  [[nodiscard]] int concurrency() const noexcept override { return omp_get_max_threads(); }
  void run_chunks(int num_chunks, int max_workers, ChunkBody body) const override {
    const int team = std::min(num_chunks, std::max(1, max_workers));
    if (team <= 1) {
      for (int c = 0; c < num_chunks; ++c) body(c);
      return;
    }
    // dynamic,1: chunk counts often exceed the team (load-balanced kernels
    // pass many small chunks); equal-sized chunk-per-thread launches are
    // unaffected.  Results never depend on the chunk->thread assignment
    // (see the Backend determinism contract).
#pragma omp parallel for schedule(dynamic, 1) num_threads(team)
    for (int c = 0; c < num_chunks; ++c) body(c);
  }
};

using Histogram = std::array<size_type, 256>;

}  // namespace

void Backend::radix_sort_u64(Workspace& workspace, int max_workers,
                             std::span<std::uint64_t> keys, int first_byte,
                             int last_byte) const {
  const auto n = static_cast<size_type>(keys.size());
  if (n < 2 || first_byte >= last_byte) return;
  const int num_chunks = std::max(1, max_workers);

  // Which byte positions vary across the keys (constant passes are skipped,
  // so keys bounded by 2^k cost ceil(k/8) scatter passes).  Chunked OR/AND
  // with a serial combine on the caller.
  auto or_and = workspace.take_uninit<std::uint64_t>(2 * num_chunks);
  {
    const std::uint64_t* const data = keys.data();
    auto body = [&](int c) {
      const size_type lo = n * c / num_chunks;
      const size_type hi = n * (c + 1) / num_chunks;
      std::uint64_t all_or = 0, all_and = ~std::uint64_t{0};
      for (size_type i = lo; i < hi; ++i) {
        all_or |= data[i];
        all_and &= data[i];
      }
      or_and[static_cast<std::size_t>(2 * c)] = all_or;
      or_and[static_cast<std::size_t>(2 * c) + 1] = all_and;
    };
    run_chunks(num_chunks, max_workers, body);
  }
  std::uint64_t all_or = 0, all_and = ~std::uint64_t{0};
  for (int c = 0; c < num_chunks; ++c) {
    all_or |= or_and[static_cast<std::size_t>(2 * c)];
    all_and &= or_and[static_cast<std::size_t>(2 * c) + 1];
  }
  const std::uint64_t varying = all_or & ~all_and;

  auto buffer = workspace.take_uninit<std::uint64_t>(n);
  // hist[c][b]: count (then write cursor) of byte-value b in chunk c.
  auto hist = workspace.take_uninit<Histogram>(num_chunks);
  std::uint64_t* src = keys.data();
  std::uint64_t* dst = buffer.data();

  for (int pass = first_byte; pass < last_byte; ++pass) {
    const int shift = pass * 8;
    if (((varying >> shift) & 0xff) == 0) continue;

    auto count = [&](int c) {
      const size_type lo = n * c / num_chunks;
      const size_type hi = n * (c + 1) / num_chunks;
      Histogram& h = hist[static_cast<std::size_t>(c)];
      h.fill(0);
      for (size_type i = lo; i < hi; ++i) ++h[(src[i] >> shift) & 0xff];
    };
    run_chunks(num_chunks, max_workers, count);

    // Column-major exclusive scan on the caller: for byte b, chunk c, the
    // write base is (all counts of smaller bytes) + (counts of b in earlier
    // chunks).  Chunks cover ascending index ranges, so the scatter below
    // preserves the relative order of equal bytes (stability).
    size_type running = 0;
    for (int b = 0; b < 256; ++b) {
      for (int c = 0; c < num_chunks; ++c) {
        size_type count_cb = hist[static_cast<std::size_t>(c)][static_cast<std::size_t>(b)];
        hist[static_cast<std::size_t>(c)][static_cast<std::size_t>(b)] = running;
        running += count_cb;
      }
    }

    auto scatter = [&](int c) {
      const size_type lo = n * c / num_chunks;
      const size_type hi = n * (c + 1) / num_chunks;
      Histogram& h = hist[static_cast<std::size_t>(c)];
      for (size_type i = lo; i < hi; ++i) dst[h[(src[i] >> shift) & 0xff]++] = src[i];
    };
    run_chunks(num_chunks, max_workers, scatter);
    std::swap(src, dst);
  }
  if (src != keys.data())
    std::memcpy(keys.data(), src, sizeof(std::uint64_t) * static_cast<std::size_t>(n));
}

const std::shared_ptr<const Backend>& serial_backend() {
  static const std::shared_ptr<const Backend> backend = std::make_shared<SerialBackend>();
  return backend;
}

const std::shared_ptr<const Backend>& openmp_backend() {
  static const std::shared_ptr<const Backend> backend = std::make_shared<OpenMPBackend>();
  return backend;
}

const std::shared_ptr<const Backend>& default_backend() { return openmp_backend(); }

std::vector<std::shared_ptr<const Backend>> registered_backends() {
  return {serial_backend(), openmp_backend()};
}

}  // namespace pandora::exec

#include "pandora/exec/sort.hpp"

#include <array>
#include <cstring>
#include <utility>

namespace pandora::exec {

void radix_sort_u64(const Executor& exec, std::span<std::uint64_t> keys, int first_byte,
                    int last_byte) {
  using Histogram = std::array<size_type, 256>;
  const auto n = static_cast<size_type>(keys.size());
  if (n < 2 || first_byte >= last_byte) return;
  const int num_chunks = exec.parallelize(n) ? exec.num_threads() : 1;
  Workspace& workspace = exec.workspace();

  // Which byte positions vary across the keys.  Chunked OR/AND with a serial
  // combine on the caller.
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
    exec.run_chunks(num_chunks, num_chunks, body);
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
    exec.run_chunks(num_chunks, num_chunks, count);

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
    exec.run_chunks(num_chunks, num_chunks, scatter);
    std::swap(src, dst);
  }
  if (src != keys.data())
    std::memcpy(keys.data(), src, sizeof(std::uint64_t) * static_cast<std::size_t>(n));
}

}  // namespace pandora::exec

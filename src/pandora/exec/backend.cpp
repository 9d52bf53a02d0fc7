#include "pandora/exec/backend.hpp"

#include <omp.h>

#include <algorithm>

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

}  // namespace

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

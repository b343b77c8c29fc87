#include "traversal/bounded_bfs.h"

#include <atomic>

namespace hcore {

namespace {
std::atomic<uint64_t> g_scratch_allocations{0};
}  // namespace

void BoundedBfs::Grow(VertexId n) {
  mark_.resize(n, 0);
  g_scratch_allocations.fetch_add(1, std::memory_order_relaxed);
}

uint64_t BoundedBfs::total_scratch_allocations() {
  return g_scratch_allocations.load(std::memory_order_relaxed);
}

}  // namespace hcore

#include "traversal/h_degree.h"

#include <algorithm>
#include <atomic>

namespace hcore {

namespace {
// Batches smaller than this run sequentially even when a pool exists:
// dispatch overhead would dominate.
constexpr size_t kMinParallelBatch = 32;

std::atomic<uint64_t> g_scratch_allocations{0};
}  // namespace

HDegreeComputer::HDegreeComputer(VertexId n, int num_threads)
    : capacity_(n), num_threads_(std::max(1, num_threads)) {
  // The constructing thread is trivially the sole owner.
  coordinator_.Assume();
  // Scratch stays null until a worker traverses (see the class comment);
  // only the pool is eager, and only when threads were requested.
  scratch_.resize(num_threads_);
  if (num_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
  }
}

BoundedBfs& HDegreeComputer::Scratch(int t) {
  std::unique_ptr<BoundedBfs>& slot = scratch_[t];
  if (slot == nullptr) {
    slot = std::make_unique<BoundedBfs>(capacity_);
    g_scratch_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return *slot;
}

uint64_t HDegreeComputer::total_scratch_allocations() {
  return g_scratch_allocations.load(std::memory_order_relaxed);
}

uint32_t HDegreeComputer::Compute(const Graph& g, const VertexMask& alive,
                                  VertexId v, int h) {
  return Scratch(0).HDegree(g, alive, v, h);
}

void HDegreeComputer::ComputeBatch(const Graph& g, const VertexMask& alive,
                                   int h, std::span<const VertexId> batch,
                                   uint32_t* out) {
  if (num_threads_ <= 1 || batch.size() < kMinParallelBatch) {
    BoundedBfs& bfs = Scratch(0);
    for (size_t i = 0; i < batch.size(); ++i) {
      out[i] = bfs.HDegree(g, alive, batch[i], h);
    }
    return;
  }
  // Dynamic assignment (§4.6): workers pull chunks from a shared cursor so
  // expensive traversals do not stall cheap ones.
  auto cursor = std::make_shared<std::atomic<size_t>>(0);
  const size_t grain =
      std::max<size_t>(1, batch.size() / (8 * static_cast<size_t>(num_threads_)));
  for (int t = 0; t < num_threads_; ++t) {
    // Materialize on the dispatching thread: slot t is then touched only by
    // worker t, keeping lazy construction off the shared path.
    BoundedBfs* bfs = &Scratch(t);
    pool_->Submit([&g, &alive, h, batch, out, bfs, cursor, grain] {
      for (;;) {
        size_t lo = cursor->fetch_add(grain);
        if (lo >= batch.size()) return;
        size_t hi = std::min(batch.size(), lo + grain);
        for (size_t i = lo; i < hi; ++i) {
          out[i] = bfs->HDegree(g, alive, batch[i], h);
        }
      }
    });
  }
  pool_->Wait();
}

void HDegreeComputer::ComputeAllAlive(const Graph& g, const VertexMask& alive,
                                      int h, std::vector<uint32_t>* out) {
  const VertexId n = g.num_vertices();
  out->resize(n);
  std::vector<VertexId> batch = alive.AliveVertices();
  std::vector<uint32_t> degs(batch.size());
  ComputeBatch(g, alive, h, batch, degs.data());
  for (size_t i = 0; i < batch.size(); ++i) (*out)[batch[i]] = degs[i];
}

uint32_t HDegreeComputer::CollectNeighborhood(
    const Graph& g, const VertexMask& alive, VertexId v, int h,
    std::vector<std::pair<VertexId, int>>* out) {
  return Scratch(0).CollectNeighborhood(g, alive, v, h, out);
}

uint64_t HDegreeComputer::total_visited() const {
  uint64_t total = 0;
  for (const auto& s : scratch_) {
    if (s != nullptr) total += s->total_visited();
  }
  return total;
}

void HDegreeComputer::ResetStats() {
  for (auto& s : scratch_) {
    if (s != nullptr) s->ResetStats();
  }
}

}  // namespace hcore

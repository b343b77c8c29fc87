// Bitset alive set over dense vertex ids — the subgraph-view layer.
//
// Every peeling algorithm in hcore operates on the subgraph induced by the
// "alive" vertices, and most of them reset or shrink that set many times per
// run (per-partition resets in h-LB+UB, per-level views in the hierarchy).
// VertexMask replaces the ad-hoc `std::vector<uint8_t> alive` buffers that
// used to be threaded through graph/, traversal/, core/, and apps/ with one
// type that supports:
//
//   * O(1) IsAlive / Kill / Revive, each one bit of a packed word array
//     (n / 8 bytes: 25 KB at 200k vertices, so the BFS inner loop's alive
//     test stays in cache),
//   * whole-set resets (Assign / ResetAllDead) as one O(n / 64) word fill,
//   * an exact alive count maintained incrementally.
//
// Bits at positions >= size() in the last word are always zero, so word
// scans (ForEachAlive) never report a vertex outside the mask.
//
// Not thread-safe for concurrent mutation; concurrent readers are fine
// while no mutation is in flight.

#ifndef HCORE_ENGINE_VERTEX_MASK_H_
#define HCORE_ENGINE_VERTEX_MASK_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"

namespace hcore {

/// Alive/dead view of the vertex set [0, size()).
class VertexMask {
 public:
  /// Mask over `n` vertices, all alive or all dead.
  explicit VertexMask(VertexId n = 0, bool initially_alive = true) {
    Assign(n, initially_alive);
  }

  /// Mask over `n` vertices with exactly `alive_vertices` alive.
  VertexMask(VertexId n, std::span<const VertexId> alive_vertices)
      : VertexMask(n, false) {
    for (VertexId v : alive_vertices) Revive(v);
  }

  /// Resizes to `n` vertices and resets every vertex to `alive`.
  void Assign(VertexId n, bool alive) {
    n_ = n;
    words_.resize((static_cast<size_t>(n) + 63) / 64);
    if (alive) {
      ResetAllAlive();
    } else {
      ResetAllDead();
    }
  }

  VertexId size() const { return n_; }

  /// Number of alive vertices (maintained incrementally, O(1)).
  VertexId num_alive() const { return alive_count_; }

  bool IsAlive(VertexId v) const {
    HCORE_DCHECK(v < n_);
    return (words_[v >> 6] >> (v & 63)) & 1;
  }

  /// Marks `v` dead. No-op if already dead.
  void Kill(VertexId v) {
    if (!IsAlive(v)) return;
    Toggle(v);
    --alive_count_;
  }

  /// Marks `v` alive. No-op if already alive.
  void Revive(VertexId v) {
    if (IsAlive(v)) return;
    Toggle(v);
    ++alive_count_;
  }

  /// Makes every vertex dead: one O(n / 64) fill.
  void ResetAllDead() {
    std::fill(words_.begin(), words_.end(), uint64_t{0});
    alive_count_ = 0;
  }

  /// Calls `fn(v)` for every alive vertex, ascending. O(n / 64 + alive).
  /// `fn` may toggle vertices: each step re-reads the mask above the last
  /// reported vertex, as a plain `for v: if (IsAlive(v))` scan would.
  template <typename Fn>
  void ForEachAlive(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        fn(static_cast<VertexId>(w * 64 + b));
        bits = (b == 63) ? 0 : words_[w] & (~uint64_t{0} << (b + 1));
      }
    }
  }

  /// Alive vertices as a sorted vector.
  std::vector<VertexId> AliveVertices() const {
    std::vector<VertexId> out;
    out.reserve(alive_count_);
    ForEachAlive([&out](VertexId v) { out.push_back(v); });
    return out;
  }

 private:
  /// Makes every vertex alive: one O(n / 64) fill.
  void ResetAllAlive() {
    std::fill(words_.begin(), words_.end(), ~uint64_t{0});
    if (n_ % 64 != 0) words_.back() = (uint64_t{1} << (n_ % 64)) - 1;
    alive_count_ = n_;
  }

  void Toggle(VertexId v) {
    HCORE_DCHECK(v < n_);
    words_[v >> 6] ^= uint64_t{1} << (v & 63);
  }

  std::vector<uint64_t> words_;  // bit v % 64 of word v / 64: v alive.
  VertexId n_ = 0;
  VertexId alive_count_ = 0;
};

}  // namespace hcore

#endif  // HCORE_ENGINE_VERTEX_MASK_H_

// Bucket queue over vertex ids, the central data structure of all peeling
// algorithms in this library.
//
// The paper (§4.1, footnote 2) observes that the flat-array bucket layout of
// Khaouid et al. [36] is unsuitable for (k,h)-core peeling because a single
// vertex removal can decrease an h-degree by more than 1, and relocating an
// entry in a flat array costs time linear in the distance moved. We therefore
// implement each bucket as an intrusive doubly-linked list stored in three
// flat arrays (head per bucket, prev/next per vertex), which supports O(1)
// insertion, removal, and relocation between arbitrary buckets.

#ifndef HCORE_UTIL_BUCKET_QUEUE_H_
#define HCORE_UTIL_BUCKET_QUEUE_H_

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace hcore {

/// Monotone bucket priority queue keyed by small non-negative integers.
///
/// Holds at most one entry per vertex id in [0, num_vertices). Typical usage
/// in a peeling algorithm:
///
/// ```cpp
/// BucketQueue q(n, max_key);
/// for (v : vertices) q.Insert(v, key[v]);
/// for (k = 0; k <= q.max_key(); ++k) {
///   while (!q.BucketEmpty(k)) {
///     v = q.PopFront(k);
///     ...peel v, then q.Move(u, new_key) for affected u...
///   }
/// }
/// ```
class BucketQueue {
 public:
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  /// Creates a queue for vertex ids in [0, num_vertices) and keys in
  /// [0, max_key]. All buckets start empty.
  BucketQueue(uint32_t num_vertices, uint32_t max_key);

  /// Inserts vertex `v` with key `key`. `v` must not be in the queue.
  void Insert(uint32_t v, uint32_t key);

  /// Removes vertex `v` from the queue. `v` must be in the queue.
  void Remove(uint32_t v);

  /// Relocates `v` to bucket `new_key` (O(1) regardless of distance).
  /// `v` must be in the queue. No-op if the key is unchanged.
  void Move(uint32_t v, uint32_t new_key);

  /// Pops an arbitrary vertex from bucket `key` (the list front).
  /// Bucket must be non-empty.
  uint32_t PopFront(uint32_t key);

  /// True if bucket `key` has no entries.
  bool BucketEmpty(uint32_t key) const { return head_[key] == kNone; }

  /// True if vertex `v` is currently queued.
  bool Contains(uint32_t v) const { return in_queue_[v]; }

  /// Current key of a queued vertex.
  uint32_t KeyOf(uint32_t v) const {
    HCORE_DCHECK(in_queue_[v]);
    return key_[v];
  }

  /// Number of queued vertices.
  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  uint32_t max_key() const { return static_cast<uint32_t>(head_.size() - 1); }

 private:
  std::vector<uint32_t> head_;   // head_[k]: first vertex in bucket k.
  std::vector<uint32_t> next_;   // next_[v]: successor of v in its bucket.
  std::vector<uint32_t> prev_;   // prev_[v]: predecessor of v in its bucket.
  std::vector<uint32_t> key_;    // key_[v]: current bucket of v.
  std::vector<uint8_t> in_queue_;
  uint32_t size_ = 0;

  void Unlink(uint32_t v);
  void LinkFront(uint32_t v, uint32_t key);
};

}  // namespace hcore

#endif  // HCORE_UTIL_BUCKET_QUEUE_H_

#include "util/bucket_queue.h"

namespace hcore {

BucketQueue::BucketQueue(uint32_t num_vertices, uint32_t max_key)
    : head_(static_cast<size_t>(max_key) + 1, kNone),
      next_(num_vertices, kNone),
      prev_(num_vertices, kNone),
      key_(num_vertices, 0),
      in_queue_(num_vertices, 0) {}

void BucketQueue::LinkFront(uint32_t v, uint32_t key) {
  HCORE_DCHECK(key < head_.size());
  uint32_t old_head = head_[key];
  next_[v] = old_head;
  prev_[v] = kNone;
  if (old_head != kNone) prev_[old_head] = v;
  head_[key] = v;
  key_[v] = key;
}

void BucketQueue::Unlink(uint32_t v) {
  uint32_t p = prev_[v];
  uint32_t n = next_[v];
  if (p != kNone) {
    next_[p] = n;
  } else {
    head_[key_[v]] = n;
  }
  if (n != kNone) prev_[n] = p;
  next_[v] = kNone;
  prev_[v] = kNone;
}

void BucketQueue::Insert(uint32_t v, uint32_t key) {
  HCORE_DCHECK(v < key_.size());
  HCORE_DCHECK(!in_queue_[v]);
  LinkFront(v, key);
  in_queue_[v] = 1;
  ++size_;
}

void BucketQueue::Remove(uint32_t v) {
  HCORE_DCHECK(in_queue_[v]);
  Unlink(v);
  in_queue_[v] = 0;
  --size_;
}

void BucketQueue::Move(uint32_t v, uint32_t new_key) {
  HCORE_DCHECK(in_queue_[v]);
  if (key_[v] == new_key) return;
  Unlink(v);
  LinkFront(v, new_key);
}

uint32_t BucketQueue::PopFront(uint32_t key) {
  uint32_t v = head_[key];
  HCORE_CHECK(v != kNone);
  Unlink(v);
  in_queue_[v] = 0;
  --size_;
  return v;
}

}  // namespace hcore

// Fixed-size thread pool used to parallelize h-degree computations (§4.6).
//
// The paper parallelizes (a) the initial h-degree computation and (b) the
// recomputation of h-degrees across the h-neighborhood of a removed vertex,
// by dynamically assigning vertices to threads. HDegreeComputer
// (traversal/h_degree.h) implements that scheme on top of Submit/Wait: its
// tasks pull chunks from a shared atomic cursor, so long BFS traversals do
// not stall short ones.

#ifndef HCORE_UTIL_THREAD_POOL_H_
#define HCORE_UTIL_THREAD_POOL_H_

#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hcore {

/// A fixed pool of worker threads executing enqueued tasks.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every submitted task has finished.
  void Wait() EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar task_cv_;
  CondVar done_cv_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mu_);
  int active_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace hcore

#endif  // HCORE_UTIL_THREAD_POOL_H_

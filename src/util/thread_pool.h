// Fixed-size thread pool used to parallelize h-degree computations (§4.6).
//
// The paper parallelizes (a) the initial h-degree computation and (b) the
// recomputation of h-degrees across the h-neighborhood of a removed vertex,
// by dynamically assigning vertices to threads. ParallelFor below implements
// exactly that: a shared atomic cursor hands out chunks, so long BFS
// traversals do not stall short ones.

#ifndef HCORE_UTIL_THREAD_POOL_H_
#define HCORE_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
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

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every submitted task has finished.
  void Wait() EXCLUDES(mu_);

  /// Runs `body(i)` for every i in [begin, end), distributing iterations
  /// dynamically over the pool in chunks of `grain`. Blocks until done.
  /// The body must be safe to run concurrently for distinct i.
  void ParallelFor(uint64_t begin, uint64_t end, uint64_t grain,
                   const std::function<void(uint64_t)>& body) EXCLUDES(mu_);

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

/// Runs `body(i)` for i in [begin, end) either sequentially (pool == nullptr
/// or single-threaded) or via pool->ParallelFor.
void MaybeParallelFor(ThreadPool* pool, uint64_t begin, uint64_t end,
                      uint64_t grain, const std::function<void(uint64_t)>& body);

/// A scoped fan-out of tasks onto a shared pool. Unlike ThreadPool::Wait —
/// which blocks until the WHOLE pool drains, so two clients sharing a pool
/// would wait on each other's work — Wait() here blocks only until this
/// group's own tasks finish. Used by HCoreIndex's concurrent dirty-level
/// repair.
///
/// With a null pool, Run executes the task inline (degenerate but valid).
/// The destructor waits for any still-pending tasks; the group must outlive
/// every task it launched.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Launches `task` on the pool (or inline without one).
  void Run(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every task launched through this group has finished.
  void Wait() EXCLUDES(mu_);

 private:
  /// Retires one task: decrements pending_ and wakes waiters at zero.
  /// Runs on the pool worker that executed the task.
  void Finish() EXCLUDES(mu_);

  ThreadPool* pool_;
  Mutex mu_;
  CondVar done_cv_;
  int pending_ GUARDED_BY(mu_) = 0;
};

}  // namespace hcore

#endif  // HCORE_UTIL_THREAD_POOL_H_

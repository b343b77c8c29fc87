#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "util/mutex.h"

namespace hcore {

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  task_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!stop_ && tasks_.empty()) task_cv_.Wait(lock);
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
      ++active_;
    }
    task();
    {
      MutexLock lock(mu_);
      --active_;
      if (tasks_.empty() && active_ == 0) done_cv_.NotifyAll();
    }
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    tasks_.push(std::move(task));
  }
  task_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (!tasks_.empty() || active_ != 0) done_cv_.Wait(lock);
}

}  // namespace hcore

// Fixed-size worker pool behind every concurrent layer of the pipeline:
// whole-simulation fan-out (the overhead sweep, classification
// experiments), lane-parallel block decode, and the store's parallel scans
// in analysis::UnifiedTraceStore (per-source partials merged
// deterministically). The simulator core and capture stay single-threaded
// and deterministic; concurrency enters only where state is sharded or
// handed off whole.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace iotaxo {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; the future reports its result or exception.
  template <typename F>
  [[nodiscard]] auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Run fn(i) for i in [0, n) across a temporary pool and wait for all.
/// Exceptions from tasks are rethrown (first one wins).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace iotaxo

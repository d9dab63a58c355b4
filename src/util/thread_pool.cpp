#include "util/thread_pool.h"

#include <algorithm>

namespace iotaxo {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // stopping and drained
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  ThreadPool pool(threads);
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool.submit([&fn, i] { fn(i); }));
  }
  for (auto& f : futures) {
    f.get();
  }
}

}  // namespace iotaxo

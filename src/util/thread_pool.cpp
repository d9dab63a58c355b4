#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace iotaxo {

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, n);
  std::atomic<std::size_t> next{0};
  std::mutex failure_m;
  std::size_t failed_at = n;
  std::exception_ptr failure;
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_m);
        if (i < failed_at) {
          failed_at = i;
          failure = std::current_exception();
        }
      }
    }
  };
  {
    // jthread joins on destruction, so a failed thread start still waits
    // for the threads already running before the error propagates.
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back(drain);
    }
  }
  if (failure) {
    std::rethrow_exception(failure);
  }
}

}  // namespace iotaxo

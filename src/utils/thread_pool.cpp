#include "utils/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "utils/error.hpp"

namespace fedclust {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  FEDCLUST_REQUIRE(begin <= end, "parallel_for range is inverted");
  const std::size_t n = end - begin;
  if (n == 0) return;

  // Each runner claims the next unclaimed index, so a slow iteration
  // holds up only its own runner. Every index runs exactly once, even
  // after a failure, so the set of side effects never depends on timing.
  std::atomic<std::size_t> next{begin};
  std::mutex error_mutex;
  std::size_t error_index = end;
  std::exception_ptr error;
  const auto run = [&] {
    for (std::size_t i = next++; i < end; i = next++) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
    }
  };
  const std::size_t runners = std::min(n, workers_.size());
  std::vector<std::future<void>> futures;
  futures.reserve(runners);
  for (std::size_t r = 0; r < runners; ++r) futures.push_back(submit(run));
  for (auto& f : futures) f.get();
  if (error) std::rethrow_exception(error);
}

}  // namespace fedclust

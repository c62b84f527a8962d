// Fixed-size worker pool used to simulate clients training in parallel.
//
// The FL engine runs one parallel_for iteration per sampled client each
// round and waits for the batch to finish. Determinism is preserved
// because each iteration owns its state (client-local RNG, model copy)
// and results are written to pre-assigned slots, so scheduling order
// never changes the outcome.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace fedclust {

/// A minimal fixed-size thread pool with task futures and a blocking
/// parallel_for. Exceptions thrown by tasks propagate through the futures
/// (and out of parallel_for after all iterations complete).
class ThreadPool {
 public:
  /// Creates `num_threads` workers. 0 means "hardware concurrency, at
  /// least 1".
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future yields its result or rethrows
  /// its exception.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs body(i) for i in [begin, end) across the pool. Runners claim
  /// one index at a time from a shared counter, in ascending order, so
  /// uneven iterations balance themselves; which worker runs an index is
  /// unspecified, so bodies must write results to index-owned slots.
  /// Blocks until every iteration is done (each runs exactly once, even
  /// when some throw), then rethrows the exception of the lowest failing
  /// index.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace fedclust

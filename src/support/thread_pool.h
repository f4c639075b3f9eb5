#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "support/error.h"

namespace gks {

/// Fixed-size worker pool that the host sweeps run on (fine-grain
/// parallelism on the host, the CPU analogue of a CUDA grid).
///
/// Work items are `std::function<void()>`; submit() returns a future so
/// callers can join on completion or propagate exceptions. The queue is
/// plain FIFO with no work stealing; loops whose items have uneven
/// cost (early hash exits, heterogeneous cores) use parallel_chunks,
/// which self-schedules over an atomic cursor instead of relying on a
/// static pre-partition. Every host key sweep drives it through
/// core::parallel_sweep.
class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Drains the queue and joins all workers: every task enqueued
  /// before destruction begins still runs (its future completes), so
  /// tearing a service down with work pending is safe.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the returned future carries its result/exception.
  /// Throws InvalidArgument once shutdown has begun: workers exit as
  /// soon as the queue drains, so a task enqueued after that point
  /// could be picked up by nobody and its future would never become
  /// ready — failing loudly beats a silent hang on get().
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      GKS_REQUIRE(!stop_, "submit on a ThreadPool that is shutting down");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Self-scheduled loop over an index range: the `n` items are claimed
  /// in chunks of at most `chunk` (minimum 1) by whichever worker is
  /// free, via an atomic cursor, so uneven chunk costs no longer leave
  /// workers idle the way a static even split does. fn(worker, begin,
  /// end) is called with a dense worker index in [0, k), k =
  /// min(size(), ceil(n/chunk)), usable for per-worker accumulators;
  /// chunks are claimed in ascending order but may execute
  /// concurrently. Once any fn returns false or throws, no further
  /// chunk is claimed and the call returns when the running ones
  /// finish. Waits for completion; exceptions are rethrown (first
  /// submitted worker wins).
  void parallel_chunks(
      std::uint64_t n, std::uint64_t chunk,
      const std::function<bool(std::size_t, std::uint64_t, std::uint64_t)>&
          fn);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace gks

#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace gks {

namespace {

/// Waits for every future, then rethrows the first failure. The tasks
/// reference the caller's stack, so returning at the first throwing
/// get() would leave the rest running on a dead frame.
void join_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_chunks(
    std::uint64_t n, std::uint64_t chunk,
    const std::function<bool(std::size_t, std::uint64_t, std::uint64_t)>& fn) {
  if (n == 0) return;
  if (chunk == 0) chunk = 1;
  const std::uint64_t n_chunks = (n + chunk - 1) / chunk;
  const std::size_t workers = static_cast<std::size_t>(
      std::min<std::uint64_t>(size(), n_chunks));

  // Stack state is safe: every future is joined before returning,
  // exceptions included (join_all).
  std::atomic<std::uint64_t> cursor{0};
  std::atomic<bool> stop{false};
  std::vector<std::future<void>> futures;
  futures.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    futures.push_back(submit([&fn, &cursor, &stop, n, chunk, w] {
      // The stop is checked before each claim, so a stopped loop ends
      // at once however many chunks are left.
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t begin =
            cursor.fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) return;
        try {
          if (!fn(w, begin, std::min(begin + chunk, n))) {
            stop.store(true, std::memory_order_relaxed);
          }
        } catch (...) {
          stop.store(true, std::memory_order_relaxed);
          throw;
        }
      }
    }));
  }
  join_all(futures);
}

}  // namespace gks

#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace lumos::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    ScopedLock lock(mutex_);
    if (stop_ && workers_.empty()) return;  // already shut down
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
  // Workers only exit once the queue is empty, so every task submitted
  // before shutdown() has run — the drain guarantee documented in the
  // header. Holding the lock here is for the analysis only: the workers
  // are gone, so there is no contention left.
  ScopedLock lock(mutex_);
  assert(queue_.empty() && "ThreadPool shutdown dropped queued tasks");
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      ScopedLock lock(mutex_);
      cv_.wait(lock.native(), [this]() LUMOS_REQUIRES(mutex_) {
        return stop_ || !queue_.empty();
      });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& f) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, size() * 4);
  if (chunks == 0) {
    throw InternalError("ThreadPool::parallel_for called after shutdown");
  }
  const std::size_t chunk = (n + chunks - 1) / chunks;

  // One error slot per chunk: after all chunks finish, the exception from
  // the lowest-index (= lowest-i) chunk is rethrown, so which exception
  // surfaces does not depend on worker scheduling.
  std::vector<std::exception_ptr> errors(chunks);
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    futures.push_back(submit([lo, hi, &f, slot = &errors[c]] {
      try {
        for (std::size_t i = lo; i < hi; ++i) f(i);
      } catch (...) {
        *slot = std::current_exception();
      }
    }));
  }
  // Every future must be drained before anything is rethrown. A bare
  // fut.get() loop would rethrow exceptions that escape the task wrapper
  // itself (e.g. an injected failpoint in submit's instrumentation) as
  // soon as that chunk's future is reached — in race order, and while
  // later chunks still reference `f` and `errors` on this stack frame.
  // Catching into the chunk's slot keeps propagation deterministic
  // (lowest chunk wins) and keeps the frame alive until all chunks stop.
  for (std::size_t c = 0; c < futures.size(); ++c) {
    try {
      futures[c].get();
    } catch (...) {
      if (!errors[c]) errors[c] = std::current_exception();
    }
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace lumos::util

// A fixed-size thread pool with a parallel_for convenience wrapper.
//
// Used for embarrassingly parallel sweeps (per-system analyses, prediction
// model grids). Work is chunked to amortise queue overhead; exceptions from
// worker tasks are rethrown on the calling thread.
//
// Shutdown contract: `shutdown()` (also run by the destructor) drains every
// task already queued — nothing is silently dropped — and any later
// `submit`/`parallel_for` fails deterministically with InternalError
// instead of queueing work no worker will ever run.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "util/failpoint.hpp"
#include "util/annotations.hpp"
#include "util/error.hpp"

namespace lumos::util {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Equivalent to `shutdown()`: drains the queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Tasks executed to completion, for observability. The pool counts
  /// them itself (it sits below lumos_obs in the layering); callers
  /// publish the count into a registry when they want it exported.
  [[nodiscard]] std::uint64_t tasks_run() const noexcept {
    return tasks_run_.load(std::memory_order_relaxed);
  }

  /// Stops accepting work, runs every already-queued task to completion,
  /// and joins the workers. Idempotent; afterwards `submit` throws.
  void shutdown() LUMOS_EXCLUDES(mutex_);

  /// Enqueues a task; the returned future rethrows task exceptions.
  /// Throws InternalError if the pool has been shut down.
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>>
      LUMOS_EXCLUDES(mutex_) {
    using R = std::invoke_result_t<F>;
    // The failpoint sits inside the packaged task so an injected fault
    // surfaces on the caller's future exactly like a task exception would.
    // The task is counted on the way out of the packaged task, before its
    // future turns ready, so a caller that has waited on every future it
    // submitted reads an exact tasks_run().
    auto task = std::make_shared<std::packaged_task<R()>>(
        [this, fn = std::forward<F>(f)]() mutable -> R {
          struct CountOnExit {
            std::atomic<std::uint64_t>& tasks_run;
            ~CountOnExit() {
              tasks_run.fetch_add(1, std::memory_order_relaxed);
            }
          } count{tasks_run_};
          LUMOS_FAILPOINT("util.thread_pool.task");
          return fn();
        });
    std::future<R> fut = task->get_future();
    {
      ScopedLock lock(mutex_);
      if (stop_) {
        throw InternalError("ThreadPool::submit called after shutdown");
      }
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Runs f(i) for i in [begin, end) across the pool; blocks until every
  /// chunk finishes, then rethrows the exception (if any) from the chunk
  /// covering the lowest indices — deterministic regardless of worker
  /// scheduling, and the pool stays reusable afterwards.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& f)
      LUMOS_EXCLUDES(mutex_);

 private:
  void worker_loop() LUMOS_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ LUMOS_GUARDED_BY(mutex_);
  bool stop_ LUMOS_GUARDED_BY(mutex_) = false;
  std::atomic<std::uint64_t> tasks_run_{0};
};

}  // namespace lumos::util

// Concurrency stress tests (label `tsan`).
//
// These are written to be meaningful twice over: under the `tsan` preset
// (`ctest --preset tsan` / `ctest -L tsan`) ThreadSanitizer watches the
// lock discipline while the pool is hammered from many threads; under the
// plain presets they still assert the functional contracts — submission
// totals, deterministic exception selection, the drain-or-fail shutdown
// guarantee, and cross-thread determinism of the parallel backfill study.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/backfill_study.hpp"
#include "core/study.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace lumos {
namespace {

// ------------------------------------------------------ submit stress ---

TEST(ThreadPoolTsan, ConcurrentSubmitFromManyThreads) {
  // An outer pool acts as the flock of submitters so the test itself obeys
  // the no-raw-thread rule; every inner future must round-trip its value.
  util::ThreadPool inner(3);
  util::ThreadPool outer(4);
  std::atomic<long> sum{0};
  outer.parallel_for(0, 64, [&](std::size_t i) {
    auto fut = inner.submit([i] { return static_cast<long>(i); });
    sum += fut.get();
  });
  EXPECT_EQ(sum.load(), 64L * 63L / 2L);
}

// tasks_run() is published as a deterministic counter: once every future
// has been waited on, it must count every task, including the last one
// (the count lands before the future turns ready, not after).
TEST(ThreadPoolTsan, TasksRunIsExactOnceFuturesAreReady) {
  for (int round = 0; round < 200; ++round) {
    util::ThreadPool pool(4);
    pool.parallel_for(0, 64, [](std::size_t) {});
    const std::uint64_t chunks = pool.tasks_run();
    EXPECT_GE(chunks, 1u);
    auto fut = pool.submit([] { return 1; });
    EXPECT_EQ(fut.get(), 1);
    ASSERT_EQ(pool.tasks_run(), chunks + 1) << "round " << round;
  }
}

TEST(ThreadPoolTsan, ExceptionPropagationUnderContention) {
  // Dozens of tasks race through the queue; exactly the throwing third
  // surface exceptions through their futures, all others their values.
  util::ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  futures.reserve(60);
  for (int i = 0; i < 60; ++i) {
    futures.push_back(pool.submit([i]() -> int {
      if (i % 3 == 0) throw std::runtime_error("boom@" + std::to_string(i));
      return i;
    }));
  }
  int thrown = 0, returned = 0;
  for (int i = 0; i < 60; ++i) {
    try {
      EXPECT_EQ(futures[i].get(), i);
      ++returned;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(e.what(), "boom@" + std::to_string(i));
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 20);
  EXPECT_EQ(returned, 40);
}

TEST(ThreadPoolTsan, ParallelForLowestIndexExceptionUnderContention) {
  // Same determinism guarantee as the util_test version, but with busy
  // bodies so several chunks are genuinely in flight when throws happen.
  util::ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    std::string caught;
    try {
      pool.parallel_for(0, 16, [](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        if (i == 5 || i == 11) {
          throw std::runtime_error("boom@" + std::to_string(i));
        }
      });
      FAIL() << "parallel_for swallowed the exception";
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    EXPECT_EQ(caught, "boom@5");
  }
}

// --------------------------------------------------- shutdown contract ---

TEST(ThreadPoolTsan, DestructorDrainsPendingTasks) {
  // Queue far more slow tasks than workers, then destroy the pool while
  // most are still pending: every single one must have run (the
  // drain-or-fail guarantee — nothing is silently dropped).
  std::atomic<int> ran{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 48; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      });
    }
  }
  EXPECT_EQ(ran.load(), 48);
}

TEST(ThreadPoolTsan, ShutdownIsIdempotentAndSubmitAfterFails) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) pool.submit([&ran] { ++ran; });
  pool.shutdown();
  EXPECT_EQ(ran.load(), 8);  // drained before join returned
  pool.shutdown();           // idempotent
  EXPECT_THROW(pool.submit([] { return 1; }), InternalError);
  EXPECT_THROW(pool.parallel_for(0, 4, [](std::size_t) {}), InternalError);
  EXPECT_EQ(pool.size(), 0u);
}

// ------------------------------------------------------------- logging ---

TEST(LoggingTsan, ConcurrentEmissionKeepsLinesIntact) {
  const auto previous = util::log_level();
  util::set_log_level(util::LogLevel::Warn);
  testing::internal::CaptureStderr();
  {
    util::ThreadPool pool(4);
    pool.parallel_for(0, 48, [](std::size_t i) {
      LUMOS_WARN << "tsan line " << i;
    });
  }
  const std::string captured = testing::internal::GetCapturedStderr();
  util::set_log_level(previous);
  // Exactly one newline-terminated, well-formed record per emission: the
  // mutex around the sink must prevent sheared/interleaved lines.
  std::size_t lines = 0, tagged = 0, pos = 0;
  while ((pos = captured.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  pos = 0;
  while ((pos = captured.find("[lumos][WARN] tsan line ", pos)) !=
         std::string::npos) {
    ++tagged;
    pos += 1;
  }
  EXPECT_EQ(lines, 48u);
  EXPECT_EQ(tagged, 48u);
}

// ---------------------------------------- parallel backfill determinism ---

TEST(BackfillTsan, StudyIdenticalAcrossThreadCountsUnderStress) {
  // The Table II sweep fans per-trace simulation pairs across the pool;
  // under TSan this doubles as a race check on the row-assembly path, and
  // everywhere it re-proves bit-identical results for any worker count.
  core::StudyOptions options;
  options.seed = 11;
  options.duration_days = 1.0;
  options.systems = {"Theta", "BlueWaters"};
  const core::CrossSystemStudy study(options);
  core::BackfillStudyConfig serial_config;
  serial_config.threads = 1;
  core::BackfillStudyConfig wide_config;
  wide_config.threads = 4;
  const auto serial = core::run_backfill_study(study.traces(), serial_config);
  const auto wide = core::run_backfill_study(study.traces(), wide_config);
  ASSERT_EQ(serial.size(), wide.size());
  ASSERT_EQ(serial.size(), 2u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].system, wide[i].system);
    EXPECT_EQ(serial[i].relaxed.avg_wait, wide[i].relaxed.avg_wait);
    EXPECT_EQ(serial[i].adaptive.avg_wait, wide[i].adaptive.avg_wait);
    EXPECT_EQ(serial[i].relaxed.backfilled_jobs, wide[i].relaxed.backfilled_jobs);
    EXPECT_EQ(serial[i].adaptive.total_violation, wide[i].adaptive.total_violation);
  }
}

}  // namespace
}  // namespace lumos

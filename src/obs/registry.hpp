// lumos::obs — named metrics behind a process-wide, thread-safe registry.
//
// Two instrument kinds:
//   Counter — monotonically increasing uint64 (events processed, cache
//             hits, jobs emitted). Relaxed atomic increments; totals are
//             deterministic for deterministic work.
//   Gauge   — last-written double (work lost, hedge waste, the serve
//             daemon's rates and ages). A gauge written from deterministic
//             work is deterministic; the bench harnesses publish no other
//             kind. Wall-clock timing is not an instrument here:
//             perfbench/ is the one place that measures time.
//
// Thread-safety contract: instrument handles returned by the registry are
// valid until clear() and individually thread-safe (all
// mutation is lock-free atomics). Registry lookup/creation, snapshot()
// and clear() serialise on an internal mutex (annotated for Clang's
// -Wthread-safety via util/annotations.hpp). snapshot() while writers are
// active is safe but yields a momentary view; the bench runner snapshots
// only between harnesses.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/annotations.hpp"

namespace lumos::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value (not monotone).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

// ------------------------------------------------------------ snapshots --

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
  [[nodiscard]] bool operator==(const CounterSample&) const = default;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
  [[nodiscard]] bool operator==(const GaugeSample&) const = default;
};

/// Point-in-time copy of every registered instrument, name-sorted.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
};

// ------------------------------------------------------------- registry --

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates the named instrument. The returned reference stays
  /// valid (and addresses stable) until clear(). Hot paths should hold the
  /// reference, not re-look-up.
  [[nodiscard]] Counter& counter(std::string_view name) LUMOS_EXCLUDES(mutex_);
  [[nodiscard]] Gauge& gauge(std::string_view name) LUMOS_EXCLUDES(mutex_);

  /// Copies every instrument's current value, sorted by name.
  [[nodiscard]] Snapshot snapshot() const LUMOS_EXCLUDES(mutex_);

  /// Removes every instrument — names, values, AND handles. Any
  /// previously returned Counter/Gauge reference is dangling
  /// afterwards, so callers own a quiescence precondition: no concurrent
  /// writer may hold a handle across clear(). The bench runner calls this
  /// between harnesses so a section never inherits zero-valued ghosts of
  /// another harness's instruments (a stale `sim.events: 0` in a harness
  /// that never ran the simulator reads as a broken counter pipeline).
  void clear() LUMOS_EXCLUDES(mutex_);

  /// The process-wide registry the library layers write into.
  [[nodiscard]] static Registry& global();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      LUMOS_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      LUMOS_GUARDED_BY(mutex_);
};

}  // namespace lumos::obs

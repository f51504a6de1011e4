// Event ordering for the simulator hot path.
//
// All future events in the event loop — completions, retries, node
// faults — are ordered by ONE documented comparator, `event_before`:
//
//   1. time      ascending (simulated seconds)
//   2. kind      Finish < Arrive < Fail < Hedge — at the same instant, a
//                finishing job frees cores before a new arrival is
//                considered, faults land after both, and hedge-check
//                timers fire last (they inspect post-event state),
//                matching the drain order of the event loop
//                (DESIGN.md §4b/§4f/§4h)
//   3. id       ascending job/node index — stable across runs
//   4. seq      ascending disambiguator (2*epoch + hedge-copy flag for
//                completions, so a job's primary and hedged duplicate
//                coexist under distinct keys; a push sequence number
//                otherwise)
//
// The order is total, so same-instant ties are decided by (2)-(4), never
// by heap insertion order: the event sequence is a property of the keys
// alone, not of one std::priority_queue implementation.
//
// `EventQueue<Entry>` is a std::priority_queue over `event_before` (the
// ONLY place in src/sim/ allowed to name std::priority_queue; lumos_lint
// enforces this). Entries must expose `EventKey key() const`. Keys of
// live entries must be distinct — (kind, id, seq) uniqueness is the
// caller's contract — so every pop yields the unique `event_before`
// minimum.
//
// Cancellation is tombstone-based lazy deletion: `cancel(key)` marks a
// live entry dead without locating it; the entry is physically dropped
// (and its tombstone retired) when it would surface at the head. The
// caller contract: each cancelled key must currently be live and not
// already cancelled — the simulator cancels only events it recorded when
// pushing (a hedged loser's Finish, a finished job's pending hedge check).
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "util/annotations.hpp"

namespace lumos::sim {

enum class EventKind : std::uint8_t {
  Finish = 0,
  Arrive = 1,
  Fail = 2,
  Hedge = 3,  ///< straggler-hedge check timer (fires after same-time events)
};

struct EventKey {
  double time = 0.0;
  EventKind kind = EventKind::Finish;
  std::uint32_t id = 0;
  std::uint32_t seq = 0;
  /// Exact (bitwise on time) equality — tombstone matching; cancelled
  /// keys are rebuilt from the same stored fields that were pushed.
  [[nodiscard]] bool operator==(const EventKey&) const = default;
};

/// The one total order on simulator events; see the file comment.
[[nodiscard]] constexpr bool event_before(const EventKey& a,
                                          const EventKey& b) noexcept {
  if (a.time != b.time) return a.time < b.time;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.id != b.id) return a.id < b.id;
  return a.seq < b.seq;
}

template <typename Entry>
class EventQueue {
 public:
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Live entries: physical population minus pending tombstones.
  [[nodiscard]] std::size_t size() const {
    return heap_.size() - tombs_.size();
  }

  /// Marks the live entry with this exact key as cancelled (lazy delete;
  /// the entry is dropped when it would reach the head). Contract: the
  /// key IS currently live and has not been cancelled before — see the
  /// file comment. O(1); pending tombstones cost O(|tombs|) per head
  /// inspection, so cancellations should be retired promptly (the
  /// simulator's are: a loser's Finish surfaces at its end time).
  LUMOS_HOT_PATH void cancel(const EventKey& key) {
    tombs_.push_back(key);
    ++cancelled_total_;
  }

  /// Total cancel() calls over the queue's lifetime (the
  /// `sim.events_cancelled` accounting hook).
  [[nodiscard]] std::uint64_t cancelled_total() const {
    return cancelled_total_;
  }

  LUMOS_HOT_PATH void push(const Entry& entry) { heap_.push(entry); }

  [[nodiscard]] LUMOS_HOT_PATH const Entry& top() {
    drain_cancelled();
    return heap_.top();
  }

  LUMOS_HOT_PATH void pop() {
    drain_cancelled();
    heap_.pop();
  }

 private:
  struct HeapCompare {
    bool operator()(const Entry& a, const Entry& b) const {
      return event_before(b.key(), a.key());  // min-queue
    }
  };

  /// If `key` has a pending tombstone, retires it and returns true. The
  /// tombstone list stays flat (no node containers on the hot path) and
  /// is empty whenever no cancellation is in flight.
  LUMOS_HOT_PATH bool retire_tombstone(const EventKey& key) {
    for (std::size_t i = 0; i < tombs_.size(); ++i) {
      if (tombs_[i] == key) {
        tombs_[i] = tombs_.back();
        tombs_.pop_back();
        return true;
      }
    }
    return false;
  }

  /// Physically drops cancelled entries that have reached the head, so
  /// top()/pop() only ever see live minimums.
  LUMOS_HOT_PATH void drain_cancelled() {
    while (!tombs_.empty() && !heap_.empty() &&
           retire_tombstone(heap_.top().key())) {
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, HeapCompare> heap_;

  // Cancellation tombstones and the lifetime cancel() count surfaced as
  // `sim.events_cancelled`.
  std::vector<EventKey> tombs_;
  std::uint64_t cancelled_total_ = 0;
};

}  // namespace lumos::sim

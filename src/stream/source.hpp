// stream::EventSource — the resilient byte-source seam under run_ingest.
//
// The serve loop used to read through std::ifstream/std::cin, which hides
// errno: EINTR (a signal arrived — the graceful-shutdown flag must be
// checked), EAGAIN (a FIFO with a connected writer but no data — idle, not
// EOF), and transient I/O errors were all indistinguishable from end of
// stream. This seam exposes them as a four-state ReadResult over raw POSIX
// reads, so run_ingest can implement tail-follow, graceful shutdown, and
// checkpoint cursors on top of any source shape:
//
//   open_event_source(path) picks the concrete source by fstat:
//     "-"           -> FdSource over stdin (not seekable, EOF is final)
//     regular file  -> FileSource (seekable -> checkpoint resume works;
//                      Eof is retryable in follow mode: the fd keeps its
//                      offset, so a later read picks up appended bytes)
//     FIFO          -> FifoSource (opened O_RDONLY|O_NONBLOCK so open
//                      never deadlocks waiting for a writer; EAGAIN and
//                      read()==0 both map to Idle — a FIFO "EOF" only
//                      means no writer *right now*, and the ingest
//                      idle-timeout is what ends the run)
//
// EINTR maps to Interrupted and is surfaced, not swallowed: the shutdown
// signal handler is installed without SA_RESTART (util/signal_util.hpp)
// precisely so a blocking read returns and the loop can notice the flag.
//
// RetryingSource decorates any source with deterministic capped-exponential
// retry (util::backoff_delay_seconds) for *transient* errno failures
// (SourceError). The sleep is injectable so tests assert the exact
// schedule without waiting. Typed non-errno errors
// — fault::InjectedFault from the stream.source.* failpoints in particular
// — are never retried and propagate to the caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "util/error.hpp"

namespace lumos::stream {

/// A source read failed with a (possibly transient) OS error. Carries the
/// errno value so retry policies and logs can name the cause.
class SourceError : public Error {
 public:
  SourceError(const std::string& what, int errno_value)
      : Error(what), errno_value_(errno_value) {}
  [[nodiscard]] int errno_value() const noexcept { return errno_value_; }

 private:
  int errno_value_;
};

/// Outcome of one read_some() call.
enum class ReadStatus {
  Data,         ///< `bytes` > 0 bytes were read
  Eof,          ///< end of a finite stream (retryable for regular files
                ///< in follow mode: appended bytes show up on re-read)
  Idle,         ///< no data available right now (FIFO EAGAIN / no writer)
  Interrupted,  ///< EINTR — check the shutdown flag, then retry
};

struct ReadResult {
  ReadStatus status = ReadStatus::Eof;
  std::size_t bytes = 0;
};

/// Abstract byte source for the ingest loop (see the header comment).
class EventSource {
 public:
  virtual ~EventSource() = default;

  /// Reads up to `capacity` bytes into `data`. Throws SourceError on OS
  /// errors other than EINTR/EAGAIN; throws fault::InjectedFault when the
  /// stream.source.read failpoint is armed.
  [[nodiscard]] virtual ReadResult read_some(char* data,
                                             std::size_t capacity) = 0;

  /// Whether seek() works — true only for regular files. Checkpoint
  /// resume needs a seekable source; non-seekable sources restore state
  /// but continue from the live stream position.
  [[nodiscard]] virtual bool seekable() const noexcept { return false; }

  /// Repositions the next read at `offset` bytes from the start. Throws
  /// lumos::InvalidArgument on non-seekable sources, SourceError on OS
  /// failure.
  virtual void seek(std::uint64_t offset);

  /// Human-readable origin ("stdin", a path) for errors and reports.
  [[nodiscard]] virtual const std::string& describe() const noexcept = 0;
};

/// Opens `path` ("-" = stdin) and picks the source shape by fstat. Throws
/// SourceError when the path cannot be opened or stat'd; evaluates the
/// stream.source.open failpoint.
[[nodiscard]] std::unique_ptr<EventSource> open_event_source(
    const std::string& path);

/// Deterministic capped-exponential retry schedule for transient source
/// errors. Delay before retry i (1-based) is
/// util::backoff_delay_seconds(base_delay_s, max_delay_s, i).
struct RetryPolicy {
  std::size_t max_retries = 5;
  double base_delay_s = 0.05;
  double max_delay_s = 1.0;
  /// Injectable sleep; tests capture the schedule, production wires
  /// std::this_thread::sleep_for (the default when null).
  std::function<void(double)> sleep;
};

/// Decorator: retries the inner source's SourceError failures on the
/// RetryPolicy schedule, rethrowing after max_retries consecutive
/// failures. A successful read resets the consecutive-failure count.
/// Anything that is not a SourceError (notably fault::InjectedFault)
/// propagates immediately, un-retried.
class RetryingSource : public EventSource {
 public:
  RetryingSource(std::unique_ptr<EventSource> inner, RetryPolicy policy);

  [[nodiscard]] ReadResult read_some(char* data,
                                     std::size_t capacity) override;
  [[nodiscard]] bool seekable() const noexcept override {
    return inner_->seekable();
  }
  void seek(std::uint64_t offset) override { inner_->seek(offset); }
  [[nodiscard]] const std::string& describe() const noexcept override {
    return inner_->describe();
  }

  /// Total retries performed over the source's lifetime (the
  /// stream.source_retries counter).
  [[nodiscard]] std::uint64_t retries() const noexcept { return retries_; }

 private:
  std::unique_ptr<EventSource> inner_;
  RetryPolicy policy_;
  std::uint64_t retries_ = 0;
};

}  // namespace lumos::stream

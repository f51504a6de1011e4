// Trace: an ordered collection of jobs plus the system it ran on.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/job.hpp"
#include "trace/system_spec.hpp"

namespace lumos::trace {

class Trace {
 public:
  Trace() = default;
  explicit Trace(SystemSpec spec) : spec_(std::move(spec)) {}
  Trace(SystemSpec spec, std::vector<Job> jobs);

  [[nodiscard]] const SystemSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] SystemSpec& spec() noexcept { return spec_; }

  [[nodiscard]] std::span<const Job> jobs() const noexcept { return jobs_; }
  [[nodiscard]] std::size_t size() const noexcept { return jobs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return jobs_.empty(); }
  [[nodiscard]] const Job& operator[](std::size_t i) const noexcept {
    return jobs_[i];
  }

  /// Appends one job (call sort_by_submit() when done if order is unknown).
  void add(Job job) { jobs_.push_back(std::move(job)); }
  void reserve(std::size_t n) { jobs_.reserve(n); }

  /// Stable-sorts jobs by submit time and renumbers ids 0..n-1.
  void sort_by_submit();

  /// True when jobs are non-decreasing in submit time.
  [[nodiscard]] bool is_sorted_by_submit() const noexcept;

  /// Restricts the trace to jobs submitted in [t_begin, t_end) and rebases
  /// submit times to t_begin (the paper's four-month alignment, §II-B).
  [[nodiscard]] Trace window(double t_begin, double t_end) const;

  /// Last job end time (makespan upper edge); 0 for an empty trace.
  [[nodiscard]] double end_time() const noexcept;
  /// Last submit time.
  [[nodiscard]] double last_submit() const noexcept;

  // Column extractors (for the stats layer).
  [[nodiscard]] std::vector<double> run_times() const;
  [[nodiscard]] std::vector<double> wait_times() const;
  [[nodiscard]] std::vector<double> submit_times() const;
  [[nodiscard]] std::vector<double> turnarounds() const;
  [[nodiscard]] std::vector<double> cores_requested() const;
  /// Submission gaps between consecutive jobs (size n-1, non-negative when
  /// sorted).
  [[nodiscard]] std::vector<double> interarrival_times() const;

  /// Number of distinct users.
  [[nodiscard]] std::size_t user_count() const;

  /// Total core-hours consumed by all jobs.
  [[nodiscard]] double total_core_hours() const noexcept;

 private:
  SystemSpec spec_;
  std::vector<Job> jobs_;
};

}  // namespace lumos::trace

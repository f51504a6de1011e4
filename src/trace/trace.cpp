#include "trace/trace.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace lumos::trace {

Trace::Trace(SystemSpec spec, std::vector<Job> jobs)
    : spec_(std::move(spec)), jobs_(std::move(jobs)) {}

void Trace::sort_by_submit() {
  // A stable sort of already-sorted input is the identity, so skip it;
  // readers of submit-ordered files (every SWF the writer emits) hit this.
  if (!is_sorted_by_submit()) {
    std::stable_sort(jobs_.begin(), jobs_.end(),
                     [](const Job& a, const Job& b) {
                       return a.submit_time < b.submit_time;
                     });
  }
  // Renumbering invalidates precedence edges expressed in the old id
  // space; remap them through old-id -> new-id so workflow DAGs survive
  // the sort. Unresolvable parents are left untouched for
  // validate_dependencies to reject with a proper diagnostic.
  const bool has_parents =
      std::any_of(jobs_.begin(), jobs_.end(),
                  [](const Job& j) { return !j.parents.empty(); });
  if (has_parents) {
    std::unordered_map<std::uint64_t, std::uint64_t> renumber;
    renumber.reserve(jobs_.size());
    for (std::size_t i = 0; i < jobs_.size(); ++i) renumber[jobs_[i].id] = i;
    for (Job& j : jobs_) {
      for (std::uint64_t& parent : j.parents) {
        const auto it = renumber.find(parent);
        if (it != renumber.end()) parent = it->second;
      }
    }
  }
  for (std::size_t i = 0; i < jobs_.size(); ++i) jobs_[i].id = i;
}

bool Trace::is_sorted_by_submit() const noexcept {
  return std::is_sorted(jobs_.begin(), jobs_.end(),
                        [](const Job& a, const Job& b) {
                          return a.submit_time < b.submit_time;
                        });
}

Trace Trace::window(double t_begin, double t_end) const {
  Trace out(spec_);
  out.spec_.epoch_unix += static_cast<std::int64_t>(t_begin);
  for (const Job& j : jobs_) {
    if (j.submit_time >= t_begin && j.submit_time < t_end) {
      Job copy = j;
      copy.submit_time -= t_begin;
      out.add(copy);
    }
  }
  out.sort_by_submit();
  return out;
}

double Trace::end_time() const noexcept {
  double t = 0.0;
  for (const Job& j : jobs_) t = std::max(t, j.end_time());
  return t;
}

double Trace::last_submit() const noexcept {
  double t = 0.0;
  for (const Job& j : jobs_) t = std::max(t, j.submit_time);
  return t;
}

std::vector<double> Trace::run_times() const {
  std::vector<double> v;
  v.reserve(jobs_.size());
  for (const Job& j : jobs_) v.push_back(j.run_time);
  return v;
}

std::vector<double> Trace::wait_times() const {
  std::vector<double> v;
  v.reserve(jobs_.size());
  for (const Job& j : jobs_) v.push_back(j.wait_time);
  return v;
}

std::vector<double> Trace::submit_times() const {
  std::vector<double> v;
  v.reserve(jobs_.size());
  for (const Job& j : jobs_) v.push_back(j.submit_time);
  return v;
}

std::vector<double> Trace::turnarounds() const {
  std::vector<double> v;
  v.reserve(jobs_.size());
  for (const Job& j : jobs_) v.push_back(j.turnaround());
  return v;
}

std::vector<double> Trace::cores_requested() const {
  std::vector<double> v;
  v.reserve(jobs_.size());
  for (const Job& j : jobs_) v.push_back(static_cast<double>(j.cores));
  return v;
}

std::vector<double> Trace::interarrival_times() const {
  std::vector<double> v;
  if (jobs_.size() < 2) return v;
  v.reserve(jobs_.size() - 1);
  for (std::size_t i = 1; i < jobs_.size(); ++i) {
    v.push_back(jobs_[i].submit_time - jobs_[i - 1].submit_time);
  }
  return v;
}

std::size_t Trace::user_count() const {
  std::unordered_set<std::uint32_t> users;
  users.reserve(jobs_.size() / 8 + 1);
  for (const Job& j : jobs_) users.insert(j.user);
  return users.size();
}

double Trace::total_core_hours() const noexcept {
  double total = 0.0;
  for (const Job& j : jobs_) total += j.core_hours();
  return total;
}

}  // namespace lumos::trace

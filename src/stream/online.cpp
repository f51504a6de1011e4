#include "stream/online.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "util/annotations.hpp"
#include "util/error.hpp"

namespace lumos::stream {

namespace {

bool same_config(const StreamConfig& a, const StreamConfig& b) noexcept {
  return a.sketch_k == b.sketch_k &&
         a.histogram_relative_error == b.histogram_relative_error &&
         a.max_tracked_users == b.max_tracked_users &&
         a.max_groups_per_user == b.max_groups_per_user &&
         a.min_jobs_per_user == b.min_jobs_per_user &&
         a.run_tolerance == b.run_tolerance && a.epoch_unix == b.epoch_unix &&
         a.utc_offset_hours == b.utc_offset_hours &&
         a.window_seconds == b.window_seconds &&
         a.sketch_seed == b.sketch_seed;
}

stats::QuantileSketch make_sketch(const StreamConfig& c,
                                  std::uint64_t salt) {
  stats::QuantileSketch::Options o;
  o.k = c.sketch_k;
  // Distinct deterministic coin per sketch so the three streams do not
  // share compaction decisions.
  o.seed = c.sketch_seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return stats::QuantileSketch(o);
}

stats::StreamingHistogram make_histogram(const StreamConfig& c) {
  stats::StreamingHistogram::Options o;
  o.relative_error = c.histogram_relative_error;
  return stats::StreamingHistogram(o);
}

}  // namespace

OnlineCharacterizer::OnlineCharacterizer(StreamConfig config)
    : config_(config),
      log_run_ratio_(std::log(1.0 + 2.0 * config_.run_tolerance)),
      runtime_sketch_(make_sketch(config_, 1)),
      wait_sketch_(make_sketch(config_, 2)),
      interarrival_sketch_(make_sketch(config_, 3)),
      runtime_histogram_(make_histogram(config_)) {
  LUMOS_REQUIRE(config_.window_seconds > 0.0,
                "StreamConfig window_seconds must be positive");
  LUMOS_REQUIRE(config_.run_tolerance > 0.0 && config_.run_tolerance < 1.0,
                "StreamConfig run_tolerance must be in (0, 1)");
  LUMOS_REQUIRE(config_.max_tracked_users >= 1,
                "StreamConfig max_tracked_users must be >= 1");
  LUMOS_REQUIRE(config_.max_groups_per_user >= 1,
                "StreamConfig max_groups_per_user must be >= 1");
}

std::uint64_t OnlineCharacterizer::group_key(const trace::Job& job) const {
  // Streaming stand-in for analysis::analyze_repetition's "same cores,
  // runtime within run_tolerance of the group mean": quantize log(runtime)
  // into buckets of ratio (1 + 2 * tol), so two runtimes within ~tol of a
  // common center land in the same bucket.
  std::int32_t bucket = std::numeric_limits<std::int32_t>::min();
  if (job.run_time > 0.0) {
    bucket = static_cast<std::int32_t>(
        std::floor(std::log(job.run_time) / log_run_ratio_));
  }
  return (static_cast<std::uint64_t>(job.cores) << 32) |
         static_cast<std::uint32_t>(bucket);
}

void OnlineCharacterizer::bound_user_groups(UserState& user) {
  while (user.groups.size() > config_.max_groups_per_user) {
    // Evict the smallest-count group; min_element keeps the first such
    // key, which makes the choice deterministic.
    const auto victim = std::min_element(
        user.groups.begin(), user.groups.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    user.overflow += victim->second;
    user.groups.erase(victim);
  }
}

void OnlineCharacterizer::evict_smallest_user() {
  while (users_.size() > config_.max_tracked_users) {
    const auto victim = std::min_element(
        users_.begin(), users_.end(), [](const auto& a, const auto& b) {
          return a.second.jobs < b.second.jobs;
        });
    untracked_jobs_ += victim->second.jobs;
    users_.erase(victim);
  }
}

void OnlineCharacterizer::advance_window(double t) {
  const auto index =
      static_cast<std::int64_t>(std::floor(t / config_.window_seconds));
  if (!window_started_) {
    window_started_ = true;
    open_window_index_ = index;
    return;
  }
  if (index <= open_window_index_) return;
  if (open_window_jobs_ > 0) {
    last_window_.start =
        static_cast<double>(open_window_index_) * config_.window_seconds;
    last_window_.jobs = open_window_jobs_;
    last_window_.rate_per_hour = static_cast<double>(open_window_jobs_) /
                                 (config_.window_seconds / 3600.0);
  }
  // Every elapsed window counts as completed, including empty gaps.
  windows_completed_ +=
      static_cast<std::uint64_t>(index - open_window_index_);
  open_window_index_ = index;
  open_window_jobs_ = 0;
}

LUMOS_HOT_PATH void OnlineCharacterizer::ingest(const trace::Job& job) {
  const double t = job.submit_time;
  if (jobs_ == 0) {
    first_submit_ = t;
    last_submit_ = t;
  } else {
    double gap = t - last_submit_;
    if (gap < 0.0) {
      ++out_of_order_;
      gap = 0.0;
    } else {
      last_submit_ = t;
    }
    ++gap_count_;
    gap_sum_ += gap;
    gap_sum_sq_ += gap * gap;
    interarrival_sketch_.insert(gap);
    first_submit_ = std::min(first_submit_, t);
  }
  ++jobs_;

  runtime_sketch_.insert(job.run_time);
  runtime_histogram_.insert(job.run_time);
  wait_sketch_.insert(job.wait_time);

  hourly_[static_cast<std::size_t>(util::hour_of_day(
      t, config_.epoch_unix, config_.utc_offset_hours))] += 1.0;

  UserState& user = util::find_or_insert(users_, job.user)->second;
  ++user.jobs;
  ++util::find_or_insert(user.groups, group_key(job))->second;
  bound_user_groups(user);
  evict_smallest_user();

  advance_window(t);
  ++open_window_jobs_;
}

void OnlineCharacterizer::merge(const OnlineCharacterizer& other) {
  LUMOS_REQUIRE(same_config(config_, other.config_),
                "OnlineCharacterizer::merge requires identical StreamConfig");
  if (other.jobs_ == 0) return;
  if (jobs_ == 0) {
    first_submit_ = other.first_submit_;
    last_submit_ = other.last_submit_;
  } else {
    // Contiguous shards (other strictly after this) contribute the exact
    // boundary gap, so merged moments equal serial ingest. Overlapping
    // ranges merge moments without a synthetic gap — a documented
    // approximation for out-of-order shard assignment.
    if (other.first_submit_ >= last_submit_) {
      const double gap = other.first_submit_ - last_submit_;
      ++gap_count_;
      gap_sum_ += gap;
      gap_sum_sq_ += gap * gap;
      interarrival_sketch_.insert(gap);
    }
    first_submit_ = std::min(first_submit_, other.first_submit_);
    last_submit_ = std::max(last_submit_, other.last_submit_);
  }
  jobs_ += other.jobs_;
  out_of_order_ += other.out_of_order_;

  runtime_sketch_.merge(other.runtime_sketch_);
  wait_sketch_.merge(other.wait_sketch_);
  interarrival_sketch_.merge(other.interarrival_sketch_);
  runtime_histogram_.merge(other.runtime_histogram_);

  for (std::size_t h = 0; h < hourly_.size(); ++h) {
    hourly_[h] += other.hourly_[h];
  }

  gap_count_ += other.gap_count_;
  gap_sum_ += other.gap_sum_;
  gap_sum_sq_ += other.gap_sum_sq_;

  util::merge_into(users_, other.users_,
                   [this](UserState& mine, const UserState& theirs) {
                     mine.jobs += theirs.jobs;
                     mine.overflow += theirs.overflow;
                     util::merge_into(mine.groups, theirs.groups,
                                      [](std::uint64_t& a, std::uint64_t b) {
                                        a += b;
                                      });
                     bound_user_groups(mine);
                   });
  untracked_jobs_ += other.untracked_jobs_;
  evict_smallest_user();

  // Windows: keep the later shard's open window; completed counts add,
  // plus the later-started shard's completed windows.
  windows_completed_ += other.windows_completed_;
  if (other.last_window_.jobs > 0 &&
      (last_window_.jobs == 0 ||
       other.last_window_.start > last_window_.start)) {
    last_window_ = other.last_window_;
  }
  if (!window_started_ ||
      (other.window_started_ &&
       other.open_window_index_ > open_window_index_)) {
    window_started_ = other.window_started_;
    open_window_index_ = other.open_window_index_;
    open_window_jobs_ = other.open_window_jobs_;
  } else if (other.window_started_ &&
             other.open_window_index_ == open_window_index_) {
    open_window_jobs_ += other.open_window_jobs_;
  }
}

double OnlineCharacterizer::peak_ratio() const noexcept {
  double lo = std::numeric_limits<double>::infinity();
  double hi = 0.0;
  for (double c : hourly_) {
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  if (hi == 0.0) return 0.0;
  return lo > 0.0 ? hi / lo : hi;
}

double OnlineCharacterizer::business_hours_share() const noexcept {
  if (jobs_ == 0) return 0.0;
  double business = 0.0;
  for (int h = 8; h <= 17; ++h) {
    business += hourly_[static_cast<std::size_t>(h)];
  }
  return business / static_cast<double>(jobs_);
}

double OnlineCharacterizer::interarrival_mean() const noexcept {
  return gap_count_ == 0 ? 0.0
                         : gap_sum_ / static_cast<double>(gap_count_);
}

double OnlineCharacterizer::interarrival_cv() const noexcept {
  if (gap_count_ < 2) return 0.0;
  const double n = static_cast<double>(gap_count_);
  const double mean = gap_sum_ / n;
  if (mean == 0.0) return 0.0;
  const double var =
      std::max(0.0, (gap_sum_sq_ - gap_sum_ * gap_sum_ / n) / (n - 1.0));
  return std::sqrt(var) / mean;
}

OnlineCharacterizer::Repetition OnlineCharacterizer::repetition(
    std::size_t top_k) const {
  Repetition rep;
  if (top_k == 0) return rep;
  double share_sum = 0.0;
  double group_sum = 0.0;
  std::vector<std::uint64_t> counts;
  for (const auto& [id, user] : users_) {
    if (user.jobs < config_.min_jobs_per_user) continue;
    counts.clear();
    for (const auto& [key, n] : user.groups) counts.push_back(n);
    // Only the top-k set matters: its integer sum does not depend on
    // the order within it.
    const auto top_end =
        counts.begin() +
        static_cast<std::ptrdiff_t>(std::min(top_k, counts.size()));
    std::nth_element(counts.begin(), top_end, counts.end(),
                     std::greater<>());
    std::uint64_t topk_jobs = 0;
    for (auto it = counts.begin(); it != top_end; ++it) topk_jobs += *it;
    share_sum +=
        static_cast<double>(topk_jobs) / static_cast<double>(user.jobs);
    group_sum += static_cast<double>(user.groups.size());
    ++rep.representative_users;
  }
  if (rep.representative_users > 0) {
    const auto n = static_cast<double>(rep.representative_users);
    rep.topk_share = share_sum / n;
    rep.mean_groups_per_user = group_sum / n;
  }
  return rep;
}

std::size_t OnlineCharacterizer::retained_items() const noexcept {
  std::size_t total = runtime_sketch_.retained() + wait_sketch_.retained() +
                      interarrival_sketch_.retained() +
                      runtime_histogram_.buckets() + hourly_.size();
  for (const auto& [id, user] : users_) total += 1 + user.groups.size();
  return total;
}

OnlineCharacterizer::Snapshot OnlineCharacterizer::snapshot() const {
  Snapshot s;
  s.config = config_;
  s.jobs = jobs_;
  s.out_of_order = out_of_order_;
  s.first_submit = first_submit_;
  s.last_submit = last_submit_;
  s.runtime_sketch = runtime_sketch_.snapshot();
  s.wait_sketch = wait_sketch_.snapshot();
  s.interarrival_sketch = interarrival_sketch_.snapshot();
  s.runtime_histogram = runtime_histogram_.snapshot();
  s.hourly = hourly_;
  s.gap_count = gap_count_;
  s.gap_sum = gap_sum_;
  s.gap_sum_sq = gap_sum_sq_;
  s.users.reserve(users_.size());
  for (const auto& [id, user] : users_) {
    Snapshot::UserEntry entry;
    entry.id = id;
    entry.jobs = user.jobs;
    entry.overflow = user.overflow;
    entry.groups = user.groups;
    s.users.push_back(std::move(entry));
  }
  s.untracked_jobs = untracked_jobs_;
  s.open_window_index = open_window_index_;
  s.window_started = window_started_;
  s.open_window_jobs = open_window_jobs_;
  s.windows_completed = windows_completed_;
  s.last_window = last_window_;
  return s;
}

OnlineCharacterizer OnlineCharacterizer::restore(const Snapshot& snapshot) {
  // The constructor re-validates the config; the sketch restores validate
  // their own invariants (weight conservation, options, bucket caps).
  OnlineCharacterizer c(snapshot.config);
  c.jobs_ = snapshot.jobs;
  c.out_of_order_ = snapshot.out_of_order;
  c.first_submit_ = snapshot.first_submit;
  c.last_submit_ = snapshot.last_submit;
  c.runtime_sketch_ = stats::QuantileSketch::restore(snapshot.runtime_sketch);
  c.wait_sketch_ = stats::QuantileSketch::restore(snapshot.wait_sketch);
  c.interarrival_sketch_ =
      stats::QuantileSketch::restore(snapshot.interarrival_sketch);
  c.runtime_histogram_ =
      stats::StreamingHistogram::restore(snapshot.runtime_histogram);
  LUMOS_REQUIRE(c.runtime_sketch_.count() == snapshot.jobs &&
                    c.wait_sketch_.count() == snapshot.jobs &&
                    c.runtime_histogram_.count() == snapshot.jobs,
                "OnlineCharacterizer::restore: runtime/wait sketch and "
                "histogram counts must match the job count");
  LUMOS_REQUIRE(c.interarrival_sketch_.count() == snapshot.gap_count,
                "OnlineCharacterizer::restore: interarrival sketch count "
                "does not match gap_count");
  c.hourly_ = snapshot.hourly;
  c.gap_count_ = snapshot.gap_count;
  c.gap_sum_ = snapshot.gap_sum;
  c.gap_sum_sq_ = snapshot.gap_sum_sq;
  LUMOS_REQUIRE(snapshot.users.size() <= snapshot.config.max_tracked_users,
                "OnlineCharacterizer::restore: user table exceeds "
                "max_tracked_users");
  c.users_.reserve(snapshot.users.size());
  for (const auto& entry : snapshot.users) {
    LUMOS_REQUIRE(entry.groups.size() <= snapshot.config.max_groups_per_user,
                  "OnlineCharacterizer::restore: user group table exceeds "
                  "max_groups_per_user");
    UserState user;
    user.jobs = entry.jobs;
    user.overflow = entry.overflow;
    user.groups = entry.groups;
    LUMOS_REQUIRE(util::sort_unique_keys(user.groups),
                  "OnlineCharacterizer::restore: duplicate group key");
    std::uint64_t grouped = entry.overflow;
    for (const auto& [key, n] : user.groups) grouped += n;
    LUMOS_REQUIRE(grouped == entry.jobs,
                  "OnlineCharacterizer::restore: user group counts plus "
                  "overflow must sum to the user's jobs");
    c.users_.emplace_back(entry.id, std::move(user));
  }
  LUMOS_REQUIRE(util::sort_unique_keys(c.users_),
                "OnlineCharacterizer::restore: duplicate user id");
  c.untracked_jobs_ = snapshot.untracked_jobs;
  c.open_window_index_ = snapshot.open_window_index;
  c.window_started_ = snapshot.window_started;
  c.open_window_jobs_ = snapshot.open_window_jobs;
  c.windows_completed_ = snapshot.windows_completed;
  c.last_window_ = snapshot.last_window;
  return c;
}

void OnlineCharacterizer::publish(obs::Report& report,
                                  const std::string& prefix) const {
  const auto set = [&](std::string_view key, double value) {
    report.set(prefix + std::string(key), value);
  };
  set("jobs", static_cast<double>(jobs_));
  set("out_of_order", static_cast<double>(out_of_order_));
  set("span_s", jobs_ == 0 ? 0.0 : last_submit_ - first_submit_);

  set("runtime_p50_s", runtime_sketch_.quantile(0.5));
  set("runtime_p90_s", runtime_sketch_.quantile(0.9));
  set("runtime_p99_s", runtime_sketch_.quantile(0.99));
  set("runtime_mean_s", runtime_histogram_.mean());
  set("wait_p50_s", wait_sketch_.quantile(0.5));
  set("wait_p90_s", wait_sketch_.quantile(0.9));
  set("interarrival_p50_s", interarrival_sketch_.quantile(0.5));

  set("peak_hour_ratio", peak_ratio());
  set("business_hours_share", business_hours_share());
  set("interarrival_mean_s", interarrival_mean());
  set("interarrival_cv", interarrival_cv());

  const Repetition rep = repetition(3);
  set("rep_top3_share", rep.topk_share);
  set("rep_users", static_cast<double>(rep.representative_users));
  set("rep_mean_groups", rep.mean_groups_per_user);
  set("tracked_users", static_cast<double>(users_.size()));
  set("untracked_jobs", static_cast<double>(untracked_jobs_));

  set("windows_completed", static_cast<double>(windows_completed_));
  set("last_window_jobs", static_cast<double>(last_window_.jobs));
  set("last_window_rate_per_hour", last_window_.rate_per_hour);
  set("open_window_jobs", static_cast<double>(open_window_jobs_));

  set("retained_items", static_cast<double>(retained_items()));
}

}  // namespace lumos::stream

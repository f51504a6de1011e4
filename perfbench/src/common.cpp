#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

namespace sim = lumos::sim;

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double process_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
  }
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- Digest --------------------------------------------------------------

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ULL;
  }
}

void Digest::counters(const sim::SimCounters& c) {
  // audits/audit_failures depend on SimConfig::audit, not on behaviour,
  // so an audited run digests the same as an unaudited one.
  for (const std::uint64_t v :
       {c.events, c.completions, c.arrivals, c.event_batches,
        c.scheduling_passes, c.sort_invocations, c.profile_rebuilds,
        c.profile_cache_hits, c.profile_invalidations, c.backfill_attempts,
        c.backfill_successes, c.node_failures, c.node_recoveries,
        c.jobs_interrupted, c.retries, c.jobs_abandoned, c.dag_releases,
        c.dag_abandoned, c.events_cancelled, c.hedges_launched,
        c.hedges_won, c.hedges_cancelled}) {
    u64(v);
  }
  f64(c.work_lost_core_hours);
  f64(c.hedge_wasted_core_hours);
}

void Digest::metrics(const sim::SimMetrics& m) {
  u64(m.jobs);
  for (const double v : {m.avg_wait, m.avg_bounded_slowdown, m.utilization,
                         m.violation, m.total_violation, m.makespan,
                         m.goodput_core_hours, m.wasted_core_hours}) {
    f64(v);
  }
  for (const std::size_t v : {m.violated_jobs, m.backfilled_jobs,
                              m.interrupted_jobs, m.abandoned_jobs,
                              m.hedged_jobs}) {
    u64(v);
  }
  counters(m.counters);
}

void Digest::outcomes(const std::vector<sim::JobOutcome>& outcomes) {
  u64(outcomes.size());
  for (const auto& o : outcomes) {
    f64(o.start_time);
    f64(o.finish_time);
    f64(o.first_reservation);
    u64(o.interruptions);
    u64((o.backfilled ? 1U : 0U) | (o.abandoned ? 2U : 0U) |
        (o.hedged ? 4U : 0U) | (o.hedge_won ? 8U : 0U));
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

// ---- Checks --------------------------------------------------------------

bool Checks::record(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    messages.push_back(what);
  }
  return ok;
}

// ---- SWF emitter ---------------------------------------------------------

namespace {

class SwfWriter {
 public:
  explicit SwfWriter(const std::filesystem::path& path)
      : file_(std::fopen(path.c_str(), "wb")) {
    if (file_ == nullptr) {
      throw std::runtime_error("cannot write " + path.string());
    }
    buf_.reserve(kFlushAt + 256);
  }
  ~SwfWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  SwfWriter(const SwfWriter&) = delete;
  SwfWriter& operator=(const SwfWriter&) = delete;

  void text(std::string_view s) { buf_.append(s); }
  template <typename T>
  void num(T v) {
    char tmp[32];
    const auto res = std::to_chars(tmp, tmp + sizeof tmp, v);
    buf_.append(tmp, res.ptr);
    buf_.push_back(' ');
  }
  void end_row() {
    buf_.back() = '\n';
    if (buf_.size() >= kFlushAt) flush();
  }
  std::uint64_t close() {
    flush();
    const bool ok = std::fclose(file_) == 0;
    file_ = nullptr;
    if (!ok) throw std::runtime_error("SWF write failed");
    return written_;
  }

 private:
  static constexpr std::size_t kFlushAt = 1 << 20;
  void flush() {
    if (std::fwrite(buf_.data(), 1, buf_.size(), file_) != buf_.size()) {
      throw std::runtime_error("SWF write failed");
    }
    written_ += buf_.size();
    buf_.clear();
  }
  std::FILE* file_;
  std::string buf_;
  std::uint64_t written_ = 0;
};

int status_to_swf(lumos::trace::JobStatus s) {
  switch (s) {
    case lumos::trace::JobStatus::Passed: return 1;
    case lumos::trace::JobStatus::Failed: return 0;
    case lumos::trace::JobStatus::Killed: return 5;
  }
  return 0;
}

}  // namespace

std::uint64_t emit_swf(const std::filesystem::path& path,
                       const lumos::trace::Trace& trace) {
  const auto& spec = trace.spec();
  SwfWriter w(path);
  w.text("; System: " + spec.name + "\n; MaxProcs: " +
         std::to_string(spec.primary_capacity()) + "\n; UnixStartTime: " +
         std::to_string(spec.epoch_unix) + "\n");
  w.text("; TimeZoneOffsetHours: ");
  w.num(spec.utc_offset_hours);
  w.end_row();
  for (const auto& j : trace.jobs()) {
    w.num(j.id + 1);           // 1 job number (1-based)
    w.num(j.submit_time);      // 2 submit
    w.num(j.wait_time);        // 3 wait
    w.num(j.run_time);         // 4 run
    w.num(j.cores);            // 5 allocated procs
    w.num(-1);                 // 6 cpu time
    w.num(-1);                 // 7 memory
    w.num(j.cores);            // 8 requested procs
    w.num(j.has_requested_time() ? j.requested_time : -1.0);  // 9
    w.num(-1);                 // 10 requested memory
    w.num(status_to_swf(j.status));  // 11 status
    w.num(j.user);             // 12 user
    w.num(-1);                 // 13 group
    w.num(-1);                 // 14 executable
    w.num(-1);                 // 15 queue
    w.num(j.virtual_cluster >= 0 ? j.virtual_cluster : -1);  // 16
    w.num(-1);                 // 17 preceding job
    w.num(-1);                 // 18 think time
    w.end_row();
  }
  return w.close();
}

// ---- Tracer --------------------------------------------------------------

Tracer::Tracer(std::string trace_id)
    : id_(std::move(trace_id)), origin_(Clock::now()) {}

int Tracer::begin(std::string name, std::uint64_t calls) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.calls = calls;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(id);
  // Read the clock last so the span excludes its own bookkeeping.
  spans_[id].start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  return id;
}

void Tracer::end(int id) {
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("tracer: spans must nest");
  }
  spans_[id].end_ns = now;
  open_.pop_back();
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = duration_s(i);
  // Children of a span never overlap (single-threaded, strictly nested),
  // so the time they cover is the sum of their durations.
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      self[s.parent] -= static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return self;
}

std::map<std::string, Tracer::LayerTotal> Tracer::layers(int root) const {
  const auto self = self_seconds();
  std::map<std::string, LayerTotal> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    int p = static_cast<int>(i);
    while (p >= 0 && p != root) p = spans_[p].parent;
    if (p != root) continue;
    auto& t = out[spans_[i].name];
    t.self_s += self[i];
    t.calls += spans_[i].calls;
  }
  return out;
}

lumos::obs::Json Tracer::to_json() const {
  using lumos::obs::Json;
  const auto self = self_seconds();
  Json spans = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json j = Json::object();
    j["trace_id"] = Json(id_);
    j["id"] = Json(static_cast<std::int64_t>(i));
    j["name"] = Json(s.name);
    j["parent"] = Json(s.parent);
    j["start_ns"] = Json(s.start_ns);
    j["end_ns"] = Json(s.end_ns);
    j["calls"] = Json(s.calls);
    j["self_s"] = Json(self[i]);
    spans.push_back(std::move(j));
  }
  return spans;
}

// ---- simulator layer metrics --------------------------------------------

void add_sim_counters(Layers& layers, const sim::SimResult& r) {
  const auto& c = r.counters;
  const std::pair<const char*, double> sums[] = {
      {"sim.events", static_cast<double>(c.events)},
      {"sim.event_batches", static_cast<double>(c.event_batches)},
      {"sim.scheduling_passes", static_cast<double>(c.scheduling_passes)},
      {"sim.backfill_attempts", static_cast<double>(c.backfill_attempts)},
      {"sim.backfill_successes", static_cast<double>(c.backfill_successes)},
      {"sim.profile_rebuilds", static_cast<double>(c.profile_rebuilds)},
      {"sim.profile_cache_hits", static_cast<double>(c.profile_cache_hits)},
      {"sim.sort_invocations", static_cast<double>(c.sort_invocations)},
      {"sim.events_cancelled", static_cast<double>(c.events_cancelled)},
      {"sim.dag_releases", static_cast<double>(c.dag_releases)},
      {"sim.hedges_launched", static_cast<double>(c.hedges_launched)},
      {"sim.hedges_won", static_cast<double>(c.hedges_won)},
      {"sim.node_failures", static_cast<double>(c.node_failures)},
      {"sim.retries", static_cast<double>(c.retries)},
      {"sim.goodput_core_hours", r.goodput_core_hours},
      {"sim.wasted_core_hours", r.wasted_core_hours},
  };
  for (const auto& [name, v] : sums) layers[name] += v;
  auto& maxq = layers["sim.max_queue_length"];
  maxq = std::max(maxq, static_cast<double>(r.max_queue_length));
}

void finish_sim_layers(Layers& l) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  l["sim.ns_per_event"] = ratio(l["sim.simulate_s"] * 1e9, l["sim.events"]);
  l["sim.backfill_success_ratio"] =
      ratio(l["sim.backfill_successes"], l["sim.backfill_attempts"]);
  l["sim.profile_hit_ratio"] =
      ratio(l["sim.profile_cache_hits"],
            l["sim.profile_cache_hits"] + l["sim.profile_rebuilds"]);
  l["sim.cancelled_share"] = ratio(
      l["sim.events_cancelled"], l["sim.events"] + l["sim.events_cancelled"]);
  l["sim.hedge_win_ratio"] =
      ratio(l["sim.hedges_won"], l["sim.hedges_launched"]);
  const double good = l["sim.goodput_core_hours"];
  const double wasted = l["sim.wasted_core_hours"];
  l["sim.goodput_share"] = ratio(good, good + wasted);
  l.erase("sim.goodput_core_hours");
  l.erase("sim.wasted_core_hours");
}

}  // namespace perfbench

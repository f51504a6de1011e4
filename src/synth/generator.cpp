#include "synth/generator.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "obs/registry.hpp"
#include "synth/arrival.hpp"
#include "synth/failure_model.hpp"
#include "synth/user_model.hpp"
#include "synth/wait_model.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace lumos::synth {

WorkloadGenerator::WorkloadGenerator(SystemCalibration cal,
                                     GeneratorOptions options)
    : cal_(std::move(cal)), options_(options) {
  if (options_.duration_days) cal_.duration_days = *options_.duration_days;
  if (options_.num_users) cal_.num_users = *options_.num_users;
  LUMOS_REQUIRE(cal_.duration_days > 0.0, "duration must be positive");
}

trace::Trace WorkloadGenerator::generate() {
  util::Rng rng(options_.seed ^
                std::hash<std::string>{}(cal_.spec.name));
  UserPopulation population(cal_, rng);
  ArrivalProcess arrivals(cal_, rng);
  FailureModel failures(cal_);
  WaitModel waits(cal_);

  const double horizon = cal_.duration_days * 86400.0;
  trace::Trace trace(cal_.spec);

  // Backlog tracker: min-heap of pending start times of already generated
  // jobs. Queue length at t = #jobs with submit <= t < start.
  std::priority_queue<double, std::vector<double>, std::greater<>> starts;
  std::size_t max_queue = 1;

  std::uint32_t last_user = population.sample_user(rng);
  std::uint64_t id = 0;

  for (;;) {
    const double submit = arrivals.next();
    if (submit >= horizon) break;
    if (options_.max_jobs > 0 && trace.size() >= options_.max_jobs) break;

    // Drain jobs whose recorded start has passed; the heap is the backlog.
    while (!starts.empty() && starts.top() <= submit) starts.pop();
    const std::size_t queue_len = starts.size();
    max_queue = std::max(max_queue, queue_len);
    const double load = static_cast<double>(queue_len) /
                        static_cast<double>(std::max<std::size_t>(max_queue, 1));

    // Burst continuations tend to come from the same user (retry sweeps).
    const std::uint32_t uid =
        (arrivals.in_burst() && rng.bernoulli(cal_.burst_same_user))
            ? last_user
            : population.sample_user(rng);
    last_user = uid;
    const UserProfile& user = population.user(uid);

    const JobTemplate tmpl = population.sample_template(user, load, rng);

    // Intended runtime: template median with a few percent jitter so the
    // jobs stay in one resource-configuration group (§V-A).
    double intended_run =
        tmpl.run_median_s *
        std::exp(rng.normal(0.0, cal_.within_template_sigma));
    intended_run = std::clamp(intended_run, cal_.run_min_s, cal_.run_max_s);

    const StatusDraw status = failures.draw(intended_run, tmpl.cores, user,
                                            rng);

    trace::Job job;
    job.id = id++;
    job.user = uid;
    job.submit_time = submit;
    job.run_time = status.run_time_s;
    job.status = status.status;
    job.cores = tmpl.cores;
    job.nodes = tmpl.nodes;
    job.kind = cal_.spec.primary_kind;
    job.virtual_cluster = user.virtual_cluster;
    job.wait_time = waits.sample(tmpl.cores, status.run_time_s, load, rng);

    if (cal_.emit_walltime) {
      // Coarse user estimate: padded actual *intended* runtime rounded up
      // to 30-minute multiples (users request for the intended length even
      // when the job dies early).
      const double padded = intended_run * user.walltime_factor;
      job.requested_time =
          std::max(1800.0, std::ceil(padded / 1800.0) * 1800.0);
      // A scheduler would kill anything exceeding its request.
      if (job.run_time > job.requested_time) {
        job.run_time = job.requested_time;
        job.status = trace::JobStatus::Killed;
      }
    } else {
      job.requested_time = trace::kNoValue;
    }

    starts.push(job.submit_time + job.wait_time);
    trace.add(job);
  }

  trace.sort_by_submit();
  obs::Registry::global().counter("synth.jobs_emitted").add(trace.size());
  LUMOS_INFO << "generated " << trace.size() << " jobs for "
             << cal_.spec.name;
  return trace;
}

trace::Trace generate_system(std::string_view name,
                             GeneratorOptions options) {
  WorkloadGenerator gen(calibration_for(name), options);
  return gen.generate();
}

}  // namespace lumos::synth

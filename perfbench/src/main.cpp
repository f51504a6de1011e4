// lumos_perfbench — runs one benchmark workload end to end.
//
//   lumos_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --workdir DIR [--spans-out FILE]
//
// Phases: set-up at least three times and for at least a second (inputs
// from the seed; the median is setup_s), reset the memory high-water
// mark, repeat the workload's operation for at least S seconds and three
// times (the end-to-end metrics are medians over these untraced
// repetitions, with time measured as process CPU time), verify outside
// timing, and with --trace 1 run the traced decomposition once and write
// its spans.
//
// The last stdout line is one JSON object with the raw results; the
// wrapper perfbench/run.py maps it onto the metric catalogue, checks the
// recorded reference digests and prints the benchmark's result line.
#include <malloc.h>
#include <unistd.h>

#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"

namespace {

using namespace perfbench;
using lumos::obs::Json;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path workdir;
  std::filesystem::path spans_out;
};

/// Set-up repeats at least this often and for at least this long, so a
/// cheap set-up (table2: about 0.1 s) still gives a steady median.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;
constexpr std::size_t kMinReps = 3;

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--workdir") a.workdir = value;
    else if (flag == "--spans-out") a.spans_out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workdir.empty()) throw std::invalid_argument("--workdir is required");
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a, const Context& ctx) {
  if (a.workload == "table2") return make_table2(ctx);
  if (a.workload == "characterize") return make_characterize(ctx);
  if (a.workload == "serve") return make_serve(ctx);
  if (a.workload == "dag_hedge") return make_dag_hedge(ctx);
  throw std::invalid_argument("unknown workload '" + a.workload + "'");
}

/// Resident-set high-water mark (VmHWM) in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Returns freed heap to the OS and restarts the high-water mark at the
/// current resident set, so set-up allocations do not mask the run's peak.
/// Returns false where /proc/self/clear_refs is not writable; the peak
/// then includes set-up.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return static_cast<bool>(clear);
}

/// Accounting of one traced root span: its wall, the self time of every
/// span name under it, and their sum (which equals the wall).
Json accounting(const Tracer& tracer, int root) {
  Json out = Json::object();
  out["wall_s"] = Json(tracer.duration_s(root));
  Json self = Json::object();
  double sum = 0.0;
  for (const auto& [name, t] : tracer.layers(root)) {
    self[name] = Json(t.self_s);
    sum += t.self_s;
  }
  out["self_s"] = std::move(self);
  out["sum_self_s"] = Json(sum);
  return out;
}

int run(const Args& a) {
  std::filesystem::remove_all(a.workdir);
  std::filesystem::create_directories(a.workdir);
  Context ctx;
  ctx.seed = a.seed;
  ctx.workdir = a.workdir;
  auto workload = make_workload(a, ctx);

  Checks checks;
  Json out = Json::object();
  Json e2e = Json::object();
  Json layers_json = Json::object();
  Layers layers;
  Json messages = Json::array();

  // ---- set-up ----------------------------------------------------------
  const std::string trace_id =
      a.workload + "-" + std::to_string(a.seed) + "-" +
      std::to_string(Clock::now().time_since_epoch().count());
  Tracer tracer(trace_id);
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::vector<double> generate_s;
  std::vector<double> write_s;
  const auto setup_start = Clock::now();
  while (setup_s.size() < kMinSetups ||
         seconds_since(setup_start) < kMinSetupSeconds) {
    Tracer* t = a.trace ? &tracer : nullptr;
    const int root = a.trace ? tracer.begin("setup") : -1;
    const Stopwatch watch;
    workload->setup(t);
    setup_s.push_back(watch.cpu_s());
    setup_wall_s.push_back(watch.wall_s());
    if (a.trace) {
      tracer.end(root);
      const auto totals = tracer.layers(root);
      const auto get = [&](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.self_s;
      };
      generate_s.push_back(get("synth.generate"));
      write_s.push_back(get("setup.write_swf"));
    }
  }
  // The input files reach the disk now, so their writeback does not run
  // alongside the timed repetitions.
  ::sync();
  const bool peak_reset = reset_peak_rss();

  // ---- timed, untraced repetitions -------------------------------------
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> jobs_per_s;
  std::vector<double> events_per_s;
  std::string first_digest;
  std::uint64_t units = 0;
  std::uint64_t failed_units = 0;
  const auto loop_start = Clock::now();
  while (walls.size() < kMinReps ||
         seconds_since(loop_start) < a.seconds) {
    Rep rep;
    try {
      rep = workload->run();
    } catch (const std::exception& e) {
      checks.record(false, std::string("run threw: ") + e.what());
      break;
    }
    if (first_digest.empty()) first_digest = rep.digest;
    checks.record(rep.digest == first_digest,
                  "output digest " + rep.digest + " differs from first run's " +
                      first_digest);
    units += rep.units;
    failed_units += rep.failed_units;
    walls.push_back(rep.wall_s);
    cpus.push_back(rep.cpu_s);
    jobs_per_s.push_back(rep.jobs / rep.cpu_s);
    events_per_s.push_back(rep.events / rep.cpu_s);
  }
  const double peak = peak_rss_mib();
  if (walls.empty()) throw std::runtime_error("no repetition completed");
  const double median_wall = median(walls);

  // ---- verification outside timing ---------------------------------------
  std::map<std::string, std::string> digests;
  digests["output"] = first_digest;
  try {
    workload->verify(checks, digests);
  } catch (const std::exception& e) {
    checks.record(false, std::string("verify threw: ") + e.what());
  }

  e2e["jobs_per_s"] = Json(median(jobs_per_s));
  e2e["events_per_s"] = Json(median(events_per_s));
  e2e["setup_s"] = Json(median(setup_s));
  e2e["peak_rss_mb"] = Json(peak);

  // ---- traced run ----------------------------------------------------
  if (a.trace) {
    try {
      const TracedWall wall =
          workload->traced(tracer, median_wall, checks, layers);
      layers["trace_overhead_pct"] =
          100.0 * (wall.traced_s - wall.untraced_s) / wall.untraced_s;
    } catch (const std::exception& e) {
      checks.record(false, std::string("traced run threw: ") + e.what());
    }
    layers["synth.generate_s"] = median(generate_s);
    layers["setup.write_swf_s"] = median(write_s);
    for (const auto& [name, value] : layers) layers_json[name] = Json(value);

    Json spans = Json::object();
    spans["trace_id"] = Json(tracer.id());
    spans["workload"] = Json(a.workload);
    spans["seed"] = Json(a.seed);
    spans["untraced_median_wall_s"] = Json(median_wall);
    Json acc = Json::object();
    for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
      if (tracer.spans()[i].parent < 0 && tracer.spans()[i].name != "setup") {
        acc[tracer.spans()[i].name] =
            accounting(tracer, static_cast<int>(i));
      }
    }
    spans["accounting"] = std::move(acc);
    spans["layers"] = layers_json;
    spans["spans"] = tracer.to_json();
    if (!a.spans_out.empty()) {
      std::filesystem::create_directories(a.spans_out.parent_path());
      std::ofstream f(a.spans_out);
      f << spans.dump(1) << '\n';
      if (!f) throw std::runtime_error("cannot write " + a.spans_out.string());
    }
  }

  for (const auto& m : checks.messages) messages.push_back(Json(m));
  Json digest_json = Json::object();
  for (const auto& [k, v] : digests) digest_json[k] = Json(v);
  out["workload"] = Json(a.workload);
  out["seed"] = Json(a.seed);
  out["input_seed"] = Json(workload->input_seed());
  out["reps"] = Json(static_cast<std::uint64_t>(walls.size()));
  const auto to_json = [](const std::vector<double>& values) {
    Json arr = Json::array();
    for (const double v : values) arr.push_back(Json(v));
    return arr;
  };
  out["rep_walls_s"] = to_json(walls);
  out["rep_cpu_s"] = to_json(cpus);
  out["setup_wall_s"] = Json(median(setup_wall_s));
  out["attempted"] = Json(checks.attempted);
  out["failed"] = Json(checks.failed);
  out["units"] = Json(units);
  out["failed_units"] = Json(failed_units);
  out["failures"] = std::move(messages);
  std::string notes = workload->notes();
  if (!peak_reset) {
    notes += (notes.empty() ? "" : "; ") +
             std::string("peak_rss_mb includes set-up (clear_refs refused)");
  }
  out["notes"] = Json(notes);
  out["digests"] = std::move(digest_json);
  out["end_to_end"] = std::move(e2e);
  out["layers"] = std::move(layers_json);
  std::cout << out.dump(-1) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "lumos_perfbench: " << e.what() << '\n';
    return 2;
  }
  try {
    const int code = run(args);
    std::filesystem::remove_all(args.workdir);
    return code;
  } catch (const std::exception& e) {
    std::cerr << "lumos_perfbench: " << e.what() << '\n';
    std::error_code ec;
    std::filesystem::remove_all(args.workdir, ec);
    return 1;
  }
}

// lumos — unified command-line front-end.
//
//   lumos generate  --system Mira --days 7 --out mira.swf [--format swf|csv]
//                   [--dag-workflows N --dag-shape chain|forkjoin|layered]
//                   [--heavy-tail-prob P --heavy-tail-mult M]
//   lumos validate  --swf trace.swf --system Theta
//   lumos characterize [--swf trace.swf --system NAME | --days D --seed S]
//   lumos simulate  --swf trace.swf --system Theta --policy fcfs
//                   --backfill adaptive [--factor 0.1] [--hedge 1.25]
//   lumos fit       --swf trace.swf --system Theta [--regen-days D --out f.swf]
//   lumos predict   --system Philly [--days D] [--max-jobs N]
//   lumos takeaways [--days D --seed S]
//
// Every subcommand works on synthetic workloads out of the box and accepts
// real traces in SWF (or lumos CSV via --csv).
#include <cstring>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "core/lumos.hpp"
#include "synth/dag.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using lumos::util::format;

struct Cli {
  std::string command;
  std::map<std::string, std::string> options;

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto v = get(key);
    return v ? std::atof(v->c_str()) : fallback;
  }
};

int usage() {
  std::cerr <<
      "usage: lumos <command> [options]\n"
      "commands:\n"
      "  generate     synthesise a calibrated workload to SWF/CSV\n"
      "  validate     run the paper's consistency screening on a trace\n"
      "  characterize full cross-system report (or one real trace)\n"
      "  simulate     schedule a trace with a chosen policy + backfill\n"
      "               (--audit checks event-loop invariants every event)\n"
      "  fit          fit a calibration to a trace (and optionally regen)\n"
      "  predict      runtime-prediction study (use case 1)\n"
      "  takeaways    evaluate the paper's 8 takeaways on a fresh study\n"
      "common options: --system NAME --days D --seed S --swf FILE --csv FILE\n"
      "                --dag-workflows N [--dag-shape chain|forkjoin|layered]\n"
      "                --heavy-tail-prob P [--heavy-tail-mult M]\n"
      "                (simulate: --policy cp --hedge T for DAG workloads)\n";
  return 2;
}

lumos::trace::Trace load_or_generate(const Cli& cli) {
  const std::string system = cli.get("system").value_or("Theta");
  auto trace = [&]() -> lumos::trace::Trace {
    if (const auto swf = cli.get("swf")) {
      const auto spec = lumos::trace::find_system_spec(system);
      if (!spec) throw lumos::InvalidArgument("unknown system: " + system);
      return lumos::trace::read_swf_file(*swf, *spec);
    }
    if (const auto csv = cli.get("csv")) {
      const auto spec = lumos::trace::find_system_spec(system);
      if (!spec) throw lumos::InvalidArgument("unknown system: " + system);
      return lumos::trace::read_lumos_csv_file(*csv, *spec);
    }
    if (cli.get("dag-workflows")) {
      lumos::synth::DagWorkloadOptions options;
      options.seed = static_cast<std::uint64_t>(cli.number("seed", 42));
      options.workflows =
          static_cast<std::size_t>(cli.number("dag-workflows", 64));
      if (const auto shape = cli.get("dag-shape")) {
        options.shape = lumos::synth::workflow_shape_from_string(*shape);
      }
      return lumos::synth::generate_dag_workload(options);
    }
    lumos::synth::GeneratorOptions options;
    options.seed = static_cast<std::uint64_t>(cli.number("seed", 42));
    if (cli.get("days")) options.duration_days = cli.number("days", 14.0);
    if (cli.get("max-jobs")) {
      options.max_jobs = static_cast<std::size_t>(cli.number("max-jobs", 0));
    }
    return lumos::synth::generate_system(system, options);
  }();
  if (cli.get("heavy-tail-prob")) {
    lumos::synth::HeavyTailOptions tail;
    tail.seed = static_cast<std::uint64_t>(cli.number("seed", 42)) + 1;
    tail.fraction = cli.number("heavy-tail-prob", tail.fraction);
    tail.max_multiplier = cli.number("heavy-tail-mult", tail.max_multiplier);
    trace = lumos::synth::inject_heavy_tail(trace, tail);
  }
  return trace;
}

int cmd_generate(const Cli& cli) {
  const auto trace = load_or_generate(cli);
  const std::string out = cli.get("out").value_or(
      trace.spec().name + ".swf");
  const std::string fmt = cli.get("format").value_or(
      out.size() > 4 && out.substr(out.size() - 4) == ".csv" ? "csv" : "swf");
  if (fmt == "csv") {
    lumos::trace::write_lumos_csv_file(out, trace);
  } else {
    lumos::trace::write_swf_file(out, trace);
  }
  std::cout << trace.spec().name << ": " << trace.size() << " jobs -> "
            << out << " (" << fmt << ")\n";
  return 0;
}

int cmd_validate(const Cli& cli) {
  const auto trace = load_or_generate(cli);
  const auto report = lumos::trace::validate(trace);
  std::cout << report.to_string();
  return report.consistent() ? 0 : 1;
}

int cmd_characterize(const Cli& cli) {
  if (cli.get("swf") || cli.get("csv")) {
    const auto trace = load_or_generate(cli);
    lumos::core::CrossSystemStudy study(
        std::vector<lumos::trace::Trace>{trace});
    std::cout << study.full_report();
    return 0;
  }
  lumos::core::StudyOptions options;
  options.seed = static_cast<std::uint64_t>(cli.number("seed", 42));
  if (cli.get("days")) options.duration_days = cli.number("days", 14.0);
  if (const auto systems = cli.get("systems")) {
    for (auto part : lumos::util::split(*systems, ',')) {
      options.systems.emplace_back(part);
    }
  }
  const lumos::core::CrossSystemStudy study(options);
  std::cout << study.full_report();
  if (const auto dir = cli.get("export")) {
    study.export_csv(*dir);
    std::cout << "CSV series written to " << *dir << "/" << std::endl;
  }
  return 0;
}

int cmd_simulate(const Cli& cli) {
  const auto trace = load_or_generate(cli);
  lumos::sim::SimConfig config;
  config.policy =
      lumos::sim::policy_from_string(cli.get("policy").value_or("fcfs"));
  config.backfill.kind =
      lumos::sim::backfill_from_string(cli.get("backfill").value_or("easy"));
  config.backfill.relax_factor = cli.number("factor", 0.10);
  config.audit = cli.get("audit").has_value();
  if (cli.get("hedge")) {
    config.hedge.threshold = cli.number("hedge", 1.25);
    config.hedge.min_planned_s = cli.number("hedge-min-planned", 60.0);
  }
  const auto result = lumos::sim::simulate(trace, config);
  const auto metrics = lumos::sim::compute_metrics(trace, result);
  std::cout << trace.spec().name << " x " << to_string(config.policy)
            << " + " << to_string(config.backfill.kind) << ":\n  "
            << metrics.to_string() << "\n";
  if (config.audit) {
    const auto& c = result.counters;
    std::cout << lumos::util::format(
        "  audit: %llu checks, %llu failures (events=%llu passes=%llu "
        "sorts=%llu profile_rebuilds=%llu cache_hits=%llu)\n",
        static_cast<unsigned long long>(c.audits),
        static_cast<unsigned long long>(c.audit_failures),
        static_cast<unsigned long long>(c.events),
        static_cast<unsigned long long>(c.scheduling_passes),
        static_cast<unsigned long long>(c.sort_invocations),
        static_cast<unsigned long long>(c.profile_rebuilds),
        static_cast<unsigned long long>(c.profile_cache_hits));
  }
  if (config.hedge.enabled()) {
    const auto& c = result.counters;
    std::cout << lumos::util::format(
        "  hedges: %llu launched, %llu won, %llu cancelled "
        "(wasted %.1f core-h)\n",
        static_cast<unsigned long long>(c.hedges_launched),
        static_cast<unsigned long long>(c.hedges_won),
        static_cast<unsigned long long>(c.hedges_cancelled),
        c.hedge_wasted_core_hours);
  }
  if (result.used_oracle_runtimes) {
    std::cout << "  (trace lacks walltime requests; planning used oracle "
                 "runtimes)\n";
  }
  return 0;
}

int cmd_fit(const Cli& cli) {
  const auto trace = load_or_generate(cli);
  const auto fit = lumos::synth::fit_calibration(trace);
  const auto& cal = fit.calibration;
  std::cout << "Fitted calibration for " << cal.spec.name << ":\n"
            << format("  users=%d window=%.1fd burst_prob=%.2f "
                      "burst_mean=%.1fs idle_mean=%.1fs\n",
                      cal.num_users, cal.duration_days, cal.burst_prob,
                      cal.burst_mean_s, cal.idle_mean_s)
            << format("  runtime: exp(N(%.2f, %.2f^2)) corr=%.2f\n",
                      cal.log_run_mu, cal.log_run_sigma,
                      cal.size_runtime_corr)
            << format("  kill sigmoid: base=%.2f max=%.2f mid=%.2f "
                      "width=%.2f; fail=%.2f\n",
                      cal.kill_base, cal.kill_max, cal.kill_log_mid,
                      cal.kill_log_width, cal.fail_base)
            << format("  waits: P0=%.2f med=%.0fs sigma=%.2f\n",
                      cal.wait_zero_prob, cal.wait_log_med_s,
                      cal.wait_log_sigma)
            << format("  sizes: %zu distinct requests\n", cal.sizes.size());
  if (const auto out = cli.get("out")) {
    lumos::synth::GeneratorOptions options;
    options.seed = static_cast<std::uint64_t>(cli.number("seed", 42));
    if (cli.get("regen-days")) {
      options.duration_days = cli.number("regen-days", cal.duration_days);
    }
    lumos::synth::WorkloadGenerator generator(cal, options);
    const auto regen = generator.generate();
    lumos::trace::write_swf_file(*out, regen);
    std::cout << "Regenerated " << regen.size() << " jobs -> " << *out
              << "\n";
  }
  return 0;
}

int cmd_predict(const Cli& cli) {
  const auto trace = load_or_generate(cli);
  lumos::predict::StudyConfig config;
  config.max_jobs = static_cast<std::size_t>(cli.number("max-jobs", 8000));
  const auto result = lumos::predict::run_prediction_study(trace, config);
  lumos::util::TextTable t({"model", "elapsed", "underest base",
                            "underest +elapsed", "accuracy base",
                            "accuracy +elapsed"});
  for (auto model : config.models) {
    for (double frac : config.elapsed_fractions) {
      const auto& base = result.row(model, false, frac);
      const auto& with = result.row(model, true, frac);
      t.add_row({lumos::predict::to_string(model),
                 format("avg/%.0f", 1.0 / frac),
                 lumos::util::percent(base.underestimate_rate),
                 lumos::util::percent(with.underestimate_rate),
                 lumos::util::percent(base.accuracy),
                 lumos::util::percent(with.accuracy)});
    }
  }
  std::cout << result.system << " (avg runtime "
            << lumos::util::fixed(result.avg_runtime_s, 0) << " s):\n"
            << t.render();
  return 0;
}

int cmd_takeaways(const Cli& cli) {
  lumos::core::StudyOptions options;
  options.seed = static_cast<std::uint64_t>(cli.number("seed", 42));
  if (cli.get("days")) options.duration_days = cli.number("days", 10.0);
  const lumos::core::CrossSystemStudy study(options);
  const auto checks = lumos::core::check_takeaways(study);
  std::cout << lumos::core::render_takeaways(checks);
  int held = 0;
  for (const auto& c : checks) held += c.holds;
  std::cout << held << "/8 takeaways reproduced\n";
  return held == 8 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  Cli cli;
  cli.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      cli.options[key] = argv[++i];
    } else {
      cli.options[key] = "1";
    }
  }
  try {
    if (cli.command == "generate") return cmd_generate(cli);
    if (cli.command == "validate") return cmd_validate(cli);
    if (cli.command == "characterize") return cmd_characterize(cli);
    if (cli.command == "simulate") return cmd_simulate(cli);
    if (cli.command == "fit") return cmd_fit(cli);
    if (cli.command == "predict") return cmd_predict(cli);
    if (cli.command == "takeaways") return cmd_takeaways(cli);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

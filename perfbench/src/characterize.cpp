// Workload `characterize`: the paper's §III–V cross-system
// characterization over all five systems at their calibrated windows.
//
// run():    trace::read_swf_file per system, then
//           core::CrossSystemStudy::full_report.
// traced(): the same reads, each CrossSystemStudy analysis called once
//           on its own, then full_report. full_report calls several
//           analyses twice, so core.full_report_repeat_s (full_report
//           minus the single calls) shows the repeated work.
#include <filesystem>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/study.hpp"
#include "synth/calibration.hpp"
#include "synth/generator.hpp"
#include "trace/swf.hpp"

namespace perfbench {

namespace {

namespace core = lumos::core;
namespace trace = lumos::trace;

class Characterize final : public Workload {
 public:
  explicit Characterize(const Context& ctx) : ctx_(ctx) {}

  void setup(Tracer* tracer) override {
    files_.clear();
    specs_.clear();
    emitted_rows_ = 0;
    emitted_vc_rows_ = 0;
    std::vector<trace::Trace> traces;
    {
      // Same generation as CrossSystemStudy(StudyOptions{seed}).
      Tracer::Scope s(tracer, "synth.generate");
      for (auto& cal : lumos::synth::all_calibrations()) {
        lumos::synth::GeneratorOptions gen;
        gen.seed = ctx_.seed;
        lumos::synth::WorkloadGenerator generator(std::move(cal), gen);
        traces.push_back(generator.generate());
      }
    }
    Tracer::Scope s(tracer, "setup.write_swf");
    for (const auto& t : traces) {
      files_.push_back(ctx_.workdir / (t.spec().name + ".swf"));
      specs_.push_back(t.spec());
      emit_swf(files_.back(), t);
      emitted_rows_ += t.size();
      for (const auto& j : t.jobs()) {
        if (j.virtual_cluster >= 0) ++emitted_vc_rows_;
      }
    }
  }

  [[nodiscard]] std::uint64_t input_seed() const override {
    return ctx_.seed;
  }

  Rep run() override {
    Rep rep;
    const Stopwatch watch;
    core::CrossSystemStudy study(read_all(nullptr));
    const std::string report = study.full_report();
    rep.wall_s = watch.wall_s();
    rep.cpu_s = watch.cpu_s();
    Digest d;
    d.str(report);
    rep.digest = d.hex();
    parsed_rows_ = 0;
    parsed_vc_rows_ = 0;
    for (const auto& t : study.traces()) {
      parsed_rows_ += t.size();
      for (const auto& j : t.jobs()) {
        if (j.virtual_cluster >= 0) ++parsed_vc_rows_;
      }
    }
    rep.jobs = static_cast<double>(parsed_rows_);
    rep.events = rep.jobs;  // one SWF row decoded per input job
    return rep;
  }

  void verify(Checks& checks,
              std::map<std::string, std::string>& /*digests*/) override {
    checks.record(parsed_rows_ == emitted_rows_,
                  "characterize: parsed " + std::to_string(parsed_rows_) +
                      " rows, emitted " + std::to_string(emitted_rows_));
    // Not a failure: the SWF row decoder ignores field 16 (README "Known
    // defects"); the digest reference pins this behaviour until it is
    // fixed.
    notes_ = "virtual-cluster ids: " + std::to_string(emitted_vc_rows_) +
             " rows emitted with one, " + std::to_string(parsed_vc_rows_) +
             " parsed with one";
  }

  TracedWall traced(Tracer& tracer, double untraced_median_s,
                    Checks& /*checks*/, Layers& layers) override {
    const auto start = Clock::now();
    const int run = tracer.begin("characterize.run");
    core::CrossSystemStudy study(read_all(&tracer));
    // Each analysis once, as full_report would call it.
    const auto analyses = [&](const char* name, auto&& call) {
      Tracer::Scope s(&tracer, std::string("analysis.") + name);
      call();
    };
    analyses("geometries", [&] { return study.geometries(); });
    analyses("arrivals", [&] { return study.arrivals(); });
    analyses("dominations", [&] { return study.dominations(); });
    analyses("utilizations", [&] { return study.utilizations(); });
    analyses("waitings", [&] { return study.waitings(); });
    analyses("failures", [&] { return study.failures(); });
    analyses("repetitions", [&] { return study.repetitions(); });
    analyses("queue_behaviors", [&] { return study.queue_behaviors(); });
    analyses("user_statuses", [&] { return study.user_statuses(); });
    {
      Tracer::Scope s(&tracer, "core.full_report");
      (void)study.full_report();
    }
    tracer.end(run);
    const double traced_wall = seconds_since(start);

    const auto totals = tracer.layers(run);
    double singles = 0.0;
    for (const auto& [name, t] : totals) {
      if (name.rfind("analysis.", 0) == 0) {
        layers[name + "_s"] = t.self_s;
        singles += t.self_s;
      }
    }
    const double read_s = totals.at("trace.read_swf_file").self_s;
    layers["trace.read_swf_s"] = read_s;
    layers["trace.rows_per_s"] = static_cast<double>(emitted_rows_) / read_s;
    const double full = totals.at("core.full_report").self_s;
    layers["core.full_report_s"] = full;
    layers["core.full_report_repeat_s"] = full - singles;
    // The single analysis calls are extra diagnostic work the untraced
    // run does not do; they are left out of the overhead comparison.
    return {traced_wall - singles, untraced_median_s};
  }

  [[nodiscard]] std::string notes() const override { return notes_; }

 private:
  std::vector<trace::Trace> read_all(Tracer* tracer) const {
    std::vector<trace::Trace> traces;
    for (std::size_t i = 0; i < files_.size(); ++i) {
      Tracer::Scope s(tracer, "trace.read_swf_file");
      traces.push_back(trace::read_swf_file(files_[i].string(), specs_[i]));
    }
    return traces;
  }

  Context ctx_;
  std::vector<std::filesystem::path> files_;
  std::vector<trace::SystemSpec> specs_;
  std::size_t emitted_rows_ = 0;
  std::size_t emitted_vc_rows_ = 0;
  std::size_t parsed_rows_ = 0;
  std::size_t parsed_vc_rows_ = 0;
  std::string notes_;
};

}  // namespace

std::unique_ptr<Workload> make_characterize(const Context& ctx) {
  return std::make_unique<Characterize>(ctx);
}

}  // namespace perfbench

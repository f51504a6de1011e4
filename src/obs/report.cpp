#include "obs/report.hpp"

namespace lumos::obs {

void Report::set(std::string_view key, double value) {
  metrics[std::string(key)] = value;
}

Json Report::to_json() const {
  Json entry = Json::object();
  entry["figure"] = figure;
  Json metrics_json = Json::object();
  for (const auto& [key, value] : metrics) metrics_json[key] = value;
  entry["metrics"] = std::move(metrics_json);
  // Observability sections only when instruments were touched — a harness
  // without counters serialises as plain {figure, metrics}.
  const Json snap = obs::to_json(observability);
  for (const char* section : {"counters", "gauges"}) {
    const Json* value = snap.find(section);
    if (value != nullptr && !value->entries().empty()) {
      entry[section] = *value;
    }
  }
  return entry;
}

Report Report::from_json(std::string harness, const Json& entry) {
  Report report;
  report.harness = std::move(harness);
  if (const Json* figure = entry.find("figure")) {
    report.figure = figure->as_string();
  }
  if (const Json* metrics = entry.find("metrics")) {
    for (const auto& [key, value] : metrics->entries()) {
      report.metrics[key] = value.as_double();
    }
  }
  return report;
}

}  // namespace lumos::obs

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

}  // namespace lumos::obs

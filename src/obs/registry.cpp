#include "obs/registry.hpp"

namespace lumos::obs {

namespace {

template <typename T>
T& find_or_create(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
                  std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& Registry::counter(std::string_view name) {
  util::ScopedLock lock(mutex_);
  return find_or_create(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  util::ScopedLock lock(mutex_);
  return find_or_create(gauges_, name);
}

Snapshot Registry::snapshot() const {
  util::ScopedLock lock(mutex_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->value()});
  }
  return snap;  // std::map iteration is already name-sorted
}

void Registry::reset() {
  util::ScopedLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
}

void Registry::clear() {
  util::ScopedLock lock(mutex_);
  counters_.clear();
  gauges_.clear();
}

void Registry::merge(const Snapshot& snap) {
  util::ScopedLock lock(mutex_);
  for (const auto& s : snap.counters) {
    find_or_create(counters_, s.name).add(s.value);
  }
  for (const auto& s : snap.gauges) {
    find_or_create(gauges_, s.name).set(s.value);
  }
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

}  // namespace lumos::obs

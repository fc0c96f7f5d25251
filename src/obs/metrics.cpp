#include "obs/metrics.hpp"

#include <cassert>
#include <stdexcept>

#include "util/json.hpp"

namespace drs::obs {

IntHistogram::IntHistogram(std::vector<std::int64_t> upper_edges)
    : edges_(std::move(upper_edges)), buckets_(edges_.size() + 1, 0) {
  for (std::size_t i = 1; i < edges_.size(); ++i) {
    assert(edges_[i - 1] < edges_[i] && "histogram edges must increase");
  }
}

void IntHistogram::add(std::int64_t sample) {
  std::size_t i = 0;
  while (i < edges_.size() && sample > edges_[i]) ++i;
  ++buckets_[i];
  ++count_;
  sum_ += sample;
}

void IntHistogram::merge(const IntHistogram& other) {
  if (other.edges_ != edges_) throw std::invalid_argument("IntHistogram::merge: edges differ");
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
}

Counter& MetricRegistry::counter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricRegistry::gauge(const std::string& name) { return gauges_[name]; }

IntHistogram& MetricRegistry::histogram(const std::string& name,
                                        std::vector<std::int64_t> upper_edges) {
  return histograms_.try_emplace(name, std::move(upper_edges)).first->second;
}

std::string MetricRegistry::scoped(const char* scope, std::uint64_t index,
                                   const char* name) {
  std::string out = scope;
  out += '.';
  out += std::to_string(index);
  out += '.';
  out += name;
  return out;
}

void MetricRegistry::write_json(util::JsonWriter& json) const {
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, counter] : counters_) {
    json.field(name, counter.value());
  }
  json.end_object();
  json.key("gauges").begin_object();
  for (const auto& [name, gauge] : gauges_) {
    json.field(name, gauge.value());
  }
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, histogram] : histograms_) {
    json.key(name).begin_object();
    json.key("edges").begin_array();
    for (const std::int64_t edge : histogram.edges()) json.value(edge);
    json.end_array();
    json.key("counts").begin_array();
    for (std::size_t i = 0; i < histogram.bucket_count(); ++i) {
      json.value(histogram.bucket(i));
    }
    json.end_array();
    json.field("count", histogram.count());
    json.field("sum", histogram.sum());
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

std::string MetricRegistry::to_json() const {
  util::JsonWriter json;
  write_json(json);
  return json.str();
}

}  // namespace drs::obs

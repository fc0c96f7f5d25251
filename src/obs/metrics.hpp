// Typed metric registry: counters, gauges, integer histograms.
//
// All values are std::int64_t — per drs-lint's determinism rules there is no
// floating point anywhere in the registry, and histogram bucketing uses
// fixed integer upper edges, so a snapshot is bit-identical across runs and
// platforms. Storage is std::map keyed by metric name, which makes every
// iteration (and therefore to_json()) deterministically sorted.
//
// Naming convention (docs/OBSERVABILITY.md): dot-separated scopes with the
// instance index inline — "daemon.3.probes_sent", "backplane.0.frames",
// "system.link_downtime_ms". Names sort lexicographically (daemon.10 before
// daemon.2); consumers should match on the scoped() pattern, not on order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace drs::util {
class JsonWriter;
}

namespace drs::obs {

class Counter {
 public:
  void add(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t value) { value_ = value; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Histogram over fixed, strictly increasing integer upper edges. A sample
/// lands in the first bucket whose edge is >= sample; samples beyond the
/// last edge land in the implicit overflow bucket, so bucket_count() is
/// edges().size() + 1.
class IntHistogram {
 public:
  explicit IntHistogram(std::vector<std::int64_t> upper_edges);

  void add(std::int64_t sample);
  /// Adds every sample `other` holds; its edges must equal these.
  void merge(const IntHistogram& other);

  const std::vector<std::int64_t>& edges() const { return edges_; }
  std::size_t bucket_count() const { return buckets_.size(); }
  std::int64_t bucket(std::size_t i) const { return buckets_.at(i); }
  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }

 private:
  std::vector<std::int64_t> edges_;
  std::vector<std::int64_t> buckets_;  // edges_.size() + 1 (overflow last)
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
};

class MetricRegistry {
 public:
  /// Get-or-create; references stay valid for the registry's lifetime
  /// (std::map nodes are stable).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Get-or-create; `upper_edges` is used only on first creation.
  IntHistogram& histogram(const std::string& name,
                          std::vector<std::int64_t> upper_edges);

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// "scope.index.name" per the naming convention above.
  static std::string scoped(const char* scope, std::uint64_t index,
                            const char* name);

  /// Canonical single-line JSON: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"edges":[...],"counts":[...],"count":n,"sum":s}}},
  /// names sorted — byte-equal snapshots mean equal registries.
  void write_json(util::JsonWriter& json) const;
  std::string to_json() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, IntHistogram> histograms_;
};

}  // namespace drs::obs

// drs_bench: the end-to-end benchmark of the DRS reproduction (README.md).
//
//   drs_bench --workload fig1_n90|fleet27|chaos|mc_fig3 [--seed 7]
//             [--seconds 10] [--trace-out trace.json] [--json-out all.json]
//
// One workload per process, driven only through the library's public calls.
// A run
//   1. runs the workload's once-per-process output checks,
//   2. repeats fixed-size passes while the next one, at the mean pass time so
//      far, still ends within --seconds of wall time. A pass builds
//      a fresh system, warms it up, then runs its units in a closed loop: a
//      single caller starts the next unit when the previous one returns.
//      Every pass must reproduce the first pass's work counters exactly.
//   3. times 7 construct-plus-start() builds of the workload's system before
//      every pass, at least 21 in all; setup_s is their median (nothing
//      simulated).
// Units and builds are timed on the calling thread's CPU clock (every
// workload runs on that one thread) and scaled to a reference host speed:
// before a unit, once 20 ms have passed since the last reading, and before
// every round of builds, a HostGauge slice (host_gauge.hpp) reads how fast
// the host runs right now, and the times that follow are multiplied by
// HostGauge::kReferenceNs / slice time. That cancels most of a shared
// host's drift in speed (README.md, "Spread behind the bounds").
//
// Untraced, the run reports the end-to-end metrics. With --trace-out it also
// runs the seeded layer probes, alternates untraced and traced passes, prints
// the per-layer metrics and each span name's self time, and writes the spans
// and unit-boundary counter samples as a Chrome trace_event file.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics": {name: {"value", "unit"}}}. Exit status: 0 when every
// check holds, 1 when an output check or the determinism guard fails, 2 on a
// usage error.
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytic/survivability.hpp"
#include "chaos/campaign.hpp"
#include "cluster/fleet.hpp"
#include "cluster/partition.hpp"
#include "core/system.hpp"
#include "cost/cost_model.hpp"
#include "montecarlo/estimator.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "proto/icmp.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/arena.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

#include "host_gauge.hpp"

namespace {

using namespace drs;
using drs_bench::HostGauge;
using drs_bench::thread_cpu_ns;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Ticks of the whole VM's CPU time so far, and the share of them the host
/// stole, from /proc/stat's aggregate "cpu" line (0s when it is unreadable).
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(stat >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal (guest time is in user).
  for (int field = 0; field < 8; ++field) {
    double value = 0.0;
    if (!(stat >> value)) return CpuTicks{};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}


// ---------------------------------------------------------------------------
// Spans and counter samples
// ---------------------------------------------------------------------------

struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      // 1-based position in the span vector
  std::uint32_t parent = 0;  // 0 = root
};

struct Sample {
  const char* name = nullptr;
  std::int64_t at_ns = 0;
  double value = 0.0;
};

struct SelfTime {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  // total minus the time direct children cover
};

/// Spans around the benchmark's calls into each layer, plus counter samples
/// at unit boundaries. Storage is reserved once, so recording never
/// allocates; a full buffer counts what it drops instead of growing.
class Recorder {
 public:
  void reserve(std::size_t spans, std::size_t samples) {
    spans_.reserve(spans);
    samples_.reserve(samples);
    open_.reserve(64);
    origin_ns_ = util::wall_clock_ns();
  }
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  std::uint64_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }

  std::uint32_t begin(const char* name) {
    if (!enabled_) return 0;
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    Span span;
    span.name = name;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = open_.empty() ? 0 : open_.back();
    span.start_ns = util::wall_clock_ns();
    spans_.push_back(span);
    open_.push_back(span.id);
    return span.id;
  }

  void end(std::uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].end_ns = util::wall_clock_ns();
    open_.pop_back();
  }

  void sample(const char* name, double value) {
    if (!enabled_) return;
    if (samples_.size() == samples_.capacity()) {
      ++dropped_;
      return;
    }
    samples_.push_back(Sample{name, util::wall_clock_ns(), value});
  }

  std::map<std::string, SelfTime> self_times() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent != 0) child_ns[span.parent - 1] += span.end_ns - span.start_ns;
    }
    std::map<std::string, SelfTime> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      SelfTime& entry = by_name[spans_[i].name];
      ++entry.count;
      entry.total_ns += duration;
      entry.self_ns += duration - child_ns[i];
    }
    return by_name;
  }

  /// Chrome trace_event JSON: one complete ("X") event per span, carrying
  /// its span id, parent id and the run id; one counter ("C") event per
  /// sample. Timestamps are microseconds since the recorder was reserved.
  std::string chrome_json(const std::string& run_id,
                          const std::string& workload) const {
    const auto us = [this](std::int64_t ns) {
      return static_cast<double>(ns - origin_ns_) * 1e-3;
    };
    util::JsonWriter json;
    json.begin_object();
    json.key("traceEvents").begin_array();
    json.begin_object()
        .field("name", "process_name")
        .field("ph", "M")
        .field("pid", std::uint64_t{1})
        .key("args")
        .begin_object()
        .field("name", "drs_bench " + workload)
        .end_object()
        .end_object();
    for (const Span& span : spans_) {
      json.begin_object()
          .field("name", span.name)
          .field("ph", "X")
          .field("ts", us(span.start_ns))
          .field("dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3)
          .field("pid", std::uint64_t{1})
          .field("tid", std::uint64_t{1})
          .key("args")
          .begin_object()
          .field("span_id", std::uint64_t{span.id})
          .field("parent_id", std::uint64_t{span.parent})
          .field("run_id", run_id)
          .end_object()
          .end_object();
    }
    for (const Sample& sample : samples_) {
      json.begin_object()
          .field("name", sample.name)
          .field("ph", "C")
          .field("ts", us(sample.at_ns))
          .field("pid", std::uint64_t{1})
          .key("args")
          .begin_object()
          .field("value", sample.value)
          .end_object()
          .end_object();
    }
    json.end_array();
    json.key("otherData")
        .begin_object()
        .field("run_id", run_id)
        .field("workload", workload)
        .field("dropped", dropped_)
        .end_object();
    json.end_object();
    return json.str();
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<Sample> samples_;
  std::vector<std::uint32_t> open_;
  std::uint64_t dropped_ = 0;
  std::int64_t origin_ns_ = 0;
};

class SpanScope {
 public:
  SpanScope(Recorder& recorder, const char* name)
      : recorder_(recorder), id_(recorder.begin(name)) {}
  ~SpanScope() { recorder_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Recorder& recorder_;
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Work counters
// ---------------------------------------------------------------------------

/// Work counters of one pass's timed phase, by metric name. Deterministic
/// for a given seed: the determinism guard requires every pass of a run,
/// traced or not, to reproduce them exactly. "bench.ops" and "bench.failed"
/// are the pass's attempted and failed operations.
using Counters = std::map<std::string, std::uint64_t>;

/// Gauges (point-in-time sizes) are taken as-is; everything else is a
/// cumulative counter whose timed-phase value is after - before.
Counters delta(const Counters& after, const Counters& before) {
  Counters out;
  for (const auto& [name, value] : after) {
    const bool gauge = name == "sim.event_slots" || name == "arena.bytes_reserved";
    const auto it = before.find(name);
    out[name] = gauge || it == before.end() ? value : value - it->second;
  }
  return out;
}

void add_simulator(Counters& c, const sim::Simulator& sim) {
  c["sim.events"] += sim.executed_events();
  c["sim.event_slots"] += sim.event_slots();
  const util::Arena::Stats& arena = sim.arena().stats();
  c["arena.allocations"] += arena.allocations;
  c["arena.freelist_hits"] += arena.freelist_hits;
  c["arena.bytes_reserved"] += arena.bytes_reserved;
}

void add_cluster(Counters& c, const net::ClusterNetwork& network,
                 core::DrsSystem& system) {
  for (net::NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
    const net::Backplane::Counters& bp = network.backplane(k).counters();
    c["net.frames"] += bp.frames;
    c["net.bytes"] += bp.bytes;
    c["net.drops"] += bp.dropped_failed + bp.dropped_backlog +
                      bp.lost_in_flight + bp.lost_random;
  }
  for (net::NodeId i = 0; i < network.node_count(); ++i) {
    c["core.probes_sent"] += system.daemon(i).metrics().probes_sent;
    c["core.probes_failed"] += system.daemon(i).metrics().probes_failed;
    c["proto.echoes_answered"] += system.icmp(i).echo_requests_answered();
  }
}

/// Bits `backplanes` hub backplanes could carry over `span` of simulated
/// time at `bits_per_second`: net.hub_util's denominator.
std::uint64_t medium_bits(std::uint64_t backplanes, util::Duration span,
                          double bits_per_second) {
  return static_cast<std::uint64_t>(static_cast<double>(backplanes) *
                                    span.to_seconds() * bits_per_second);
}

double hub_util(const Counters& c) {
  const auto bytes = c.find("net.bytes");
  const auto bits = c.find("net.medium_bits");
  if (bytes == c.end() || bits == c.end() || bits->second == 0) return 0.0;
  return static_cast<double>(bytes->second) * 8.0 / static_cast<double>(bits->second);
}

std::uint64_t cluster_frames(const net::ClusterNetwork& network) {
  return network.backplane(net::kNetworkA).counters().frames +
         network.backplane(net::kNetworkB).counters().frames;
}

/// The canonical metric JSON minus its sim./arena./shard./engine. entries,
/// whose values are per-queue or wall-clock detail: the same remainder the
/// sharded differential corpus compares. Those entries are flat integers,
/// so each one ends at the next ',' or '}'.
std::string semantic_metrics(std::string json) {
  for (const char* prefix : {"\"sim.", "\"arena.", "\"shard.", "\"engine."}) {
    std::size_t pos;
    while ((pos = json.find(prefix)) != std::string::npos) {
      const std::size_t end = json.find_first_of(",}", json.find(':', pos));
      if (json[end] == ',') {
        json.erase(pos, end - pos + 1);
      } else {
        const std::size_t begin = json[pos - 1] == ',' ? pos - 1 : pos;
        json.erase(begin, end - begin);
      }
    }
  }
  return json;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Options {
  std::uint64_t seed = 7;
  /// --quick divides every workload's unit counts (smoke test only).
  std::uint64_t divisor = 1;
  /// Breaks each workload's output check on purpose (checks-can-fail test).
  bool sabotage = false;

  std::uint64_t scaled(std::uint64_t n) const {
    return std::max<std::uint64_t>(1, n / divisor);
  }
};

struct PassResult {
  Counters counters;
  std::vector<double> unit_ms;       // thread CPU time at the reference speed
  std::vector<double> unit_cpu_ms;   // thread CPU time (diagnostic)
  std::vector<double> unit_wall_ms;  // wall time (diagnostic)
  std::vector<double> gauge_ns;      // HostGauge slices taken during the pass
  std::int64_t timed_ns = 0;         // thread CPU time of all units
  std::vector<std::string> errors;   // failed output checks
  bool traced = false;
};

/// How often a pass re-reads the host's speed: before the next unit once
/// this much wall time has passed since the last gauge slice. A slice costs
/// about 0.4 ms, 2 % of the pass.
constexpr std::int64_t kGaugeEveryNs = 20'000'000;

class Workload {
 public:
  explicit Workload(Recorder& recorder) : rec_(recorder) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One construct-plus-start() of the workload's system; no simulated time
  /// advances. setup_s is the median of these.
  virtual void build_once() = 0;
  /// Output checks made once per process, outside the timed phase.
  virtual void check_once(std::vector<std::string>& errors) { (void)errors; }
  virtual PassResult run_pass() = 0;
  virtual bool random_inputs() const = 0;

 protected:
  /// Times one closed-loop unit from call to return, including its span when
  /// the pass is traced. Its thread CPU time is scaled by the latest gauge
  /// slice to the reference host speed; raw CPU and wall time are kept as
  /// diagnostics.
  template <typename Fn>
  void timed_unit(PassResult& result, const char* span_name, Fn&& fn) {
    const std::int64_t t0 = util::wall_clock_ns();
    if (result.gauge_ns.empty() || t0 - last_gauge_ns_ >= kGaugeEveryNs) {
      SpanScope span(rec_, "bench.gauge");
      result.gauge_ns.push_back(gauge_.slice_ns());
      last_gauge_ns_ = t0;
    }
    const std::int64_t c0 = thread_cpu_ns();
    const std::int64_t w0 = util::wall_clock_ns();
    {
      SpanScope span(rec_, span_name);
      fn();
    }
    const std::int64_t wall = util::wall_clock_ns() - w0;
    const std::int64_t cpu = thread_cpu_ns() - c0;
    const double cpu_ms = static_cast<double>(cpu) * 1e-6;
    result.unit_ms.push_back(cpu_ms * HostGauge::kReferenceNs / result.gauge_ns.back());
    result.unit_cpu_ms.push_back(cpu_ms);
    result.unit_wall_ms.push_back(static_cast<double>(wall) * 1e-6);
    result.timed_ns += cpu;
  }

  Recorder& rec_;
  HostGauge gauge_;
  std::int64_t last_gauge_ns_ = 0;
};

// --- fig1_n90: the paper's Fig. 1 operating point -------------------------

class Fig1Workload final : public Workload {
 public:
  static constexpr std::uint16_t kNodes = 90;
  static constexpr double kBudget = 0.10;
  static constexpr std::int64_t kWarmupCycles = 5;
  static constexpr std::uint64_t kUnitsPerPass = 100;  // probe cycles

  Fig1Workload(Recorder& recorder, const Options& options)
      : Workload(recorder), units_(options.scaled(kUnitsPerPass)) {
    const cost::CostModel model;
    // Fig. 1's response time at a 10 % budget, rounded up to whole ms
    // (820.224 ms -> 821 ms): the fastest cycle the budget sustains.
    interval_ = util::Duration::millis(static_cast<std::int64_t>(
        std::ceil(model.response_time_seconds(kNodes, kBudget) * 1e3)));
    drs_.probe_interval = interval_;
    // Same timeout rule as cost::measure_cycle, the Fig. 1 packet-level path.
    drs_.probe_timeout = std::min(interval_ / 2, util::Duration::millis(200));
    expected_util_ = model.utilization(
        kNodes, options.sabotage ? interval_ / 2 : interval_);
  }

  void build_once() override {
    System system = build();
    system.drs->stop();
  }

  PassResult run_pass() override {
    PassResult result;
    System system = build();
    sim::Simulator& sim = *system.sim;
    {
      SpanScope span(rec_, "sim.Simulator.run_for");
      sim.run_for(interval_ * kWarmupCycles);
    }
    const Counters before = snapshot(system);
    for (std::uint64_t u = 0; u < units_; ++u) {
      timed_unit(result, "sim.Simulator.run_for", [&] { sim.run_for(interval_); });
      if (rec_.enabled()) {
        rec_.sample("sim.events", static_cast<double>(sim.executed_events()));
        rec_.sample("net.frames", static_cast<double>(cluster_frames(*system.network)));
      }
    }
    Counters c = delta(snapshot(system), before);
    system.drs->stop();

    c["net.medium_bits"] = medium_bits(
        net::kNetworksPerHost, interval_ * static_cast<std::int64_t>(units_),
        net::Backplane::Config{}.bits_per_second);
    c["bench.ops"] = c["core.probes_sent"];
    c["bench.failed"] = c["core.probes_failed"];
    const double util = hub_util(c);
    if (std::fabs(util - expected_util_) > 0.01) {
      char what[160];
      std::snprintf(what, sizeof what,
                    "fig1_n90: hub utilization %.4f is not within 1 point of "
                    "CostModel::utilization %.4f",
                    util, expected_util_);
      result.errors.emplace_back(what);
    }
    result.counters = std::move(c);
    return result;
  }

  bool random_inputs() const override { return false; }

 private:
  struct System {
    std::unique_ptr<sim::Simulator> sim;
    std::unique_ptr<net::ClusterNetwork> network;
    std::unique_ptr<core::DrsSystem> drs;
  };

  System build() {
    System system;
    system.sim = std::make_unique<sim::Simulator>();
    {
      SpanScope span(rec_, "net.ClusterNetwork.ctor");
      system.network = std::make_unique<net::ClusterNetwork>(
          *system.sim,
          net::ClusterNetwork::Config{.node_count = kNodes, .backplane = {}});
    }
    {
      SpanScope span(rec_, "core.DrsSystem.ctor");
      system.drs = std::make_unique<core::DrsSystem>(*system.network, drs_);
    }
    {
      SpanScope span(rec_, "core.DrsSystem.start");
      system.drs->start();
    }
    return system;
  }

  static Counters snapshot(System& system) {
    Counters c;
    add_simulator(c, *system.sim);
    add_cluster(c, *system.network, *system.drs);
    return c;
  }

  std::uint64_t units_;
  util::Duration interval_;
  core::DrsConfig drs_;
  double expected_util_ = 0.0;
};

// --- fleet27: the 27 x 8 MCI deployment on the sharded engine --------------

class Fleet27Workload final : public Workload {
 public:
  // One shard: every window runs inline on the calling thread, so no worker
  // thread starts. Worker threads spinning at a barrier on a shared host's
  // vCPUs measured the host's scheduler, not the engine (README.md).
  static constexpr std::uint32_t kShards = 1;
  static constexpr std::uint64_t kUnitsPerPass = 300;  // gateway intervals

  Fleet27Workload(Recorder& recorder, const Options& options)
      : Workload(recorder),
        units_(options.scaled(kUnitsPerPass)),
        check_span_(util::Duration::seconds(10) /
                    static_cast<std::int64_t>(options.divisor)),
        sabotage_(options.sabotage) {
    config_.shards = kShards;
    config_.trace_capacity = 0;  // untraced; certified ordering (the default)
    unit_ = config_.fleet.gateway_probe_interval;
  }

  void build_once() override { build(); }

  void check_once(std::vector<std::string>& errors) override {
    const util::SimTime until = util::SimTime::zero() + check_span_;
    std::string legacy_metrics;
    {
      cluster::FleetConfig reference = config_.fleet;
      if (sabotage_) reference.gateway_probe_interval = util::Duration::millis(110);
      sim::Simulator sim;
      std::unique_ptr<cluster::Fleet> fleet;
      {
        SpanScope span(rec_, "cluster.Fleet.ctor");
        fleet = std::make_unique<cluster::Fleet>(sim, reference);
      }
      {
        SpanScope span(rec_, "cluster.Fleet.start");
        fleet->start();
      }
      {
        SpanScope span(rec_, "sim.Simulator.run_until");
        sim.run_until(until);
      }
      obs::MetricRegistry registry;
      {
        SpanScope span(rec_, "cluster.Fleet.collect_metrics");
        fleet->collect_metrics(registry);
      }
      legacy_metrics = semantic_metrics(registry.to_json());
      fleet->stop();
    }
    std::unique_ptr<cluster::ShardedFleet> fleet = build();
    {
      SpanScope span(rec_, "cluster.ShardedFleet.run_until");
      fleet->run_until(until);
    }
    obs::MetricRegistry registry;
    {
      SpanScope span(rec_, "cluster.ShardedFleet.collect_metrics");
      fleet->collect_metrics(registry);
    }
    if (semantic_metrics(registry.to_json()) != legacy_metrics) {
      errors.emplace_back(
          "fleet27: the sharded fleet's metric snapshot after the check "
          "prefix differs from cluster::Fleet's");
    }
  }

  PassResult run_pass() override {
    PassResult result;
    std::unique_ptr<cluster::ShardedFleet> fleet = build();
    util::SimTime now = util::SimTime::zero() + util::Duration::seconds(1);
    {
      SpanScope span(rec_, "cluster.ShardedFleet.run_until");
      fleet->run_until(now);  // warmup
    }
    const Counters before = snapshot(*fleet);
    for (std::uint64_t u = 0; u < units_; ++u) {
      now += unit_;
      timed_unit(result, "cluster.ShardedFleet.run_until",
                 [&] { fleet->run_until(now); });
      if (rec_.enabled()) sample(*fleet);
    }
    Counters c = delta(snapshot(*fleet), before);
    if (!fleet->all_pristine()) {
      result.errors.emplace_back(
          "fleet27: a cluster left the healthy steady state in a failure-free "
          "run");
    }

    c["net.medium_bits"] = medium_bits(
        std::uint64_t{net::kNetworksPerHost} * config_.fleet.clusters,
        unit_ * static_cast<std::int64_t>(units_),
        config_.fleet.backplane.bits_per_second);
    c["bench.ops"] = c["core.probes_sent"] + c["relay.frames"];
    c["bench.failed"] = c["core.probes_failed"] + c["relay.drops"];
    result.counters = std::move(c);
    return result;
  }

  bool random_inputs() const override { return false; }

 private:
  std::unique_ptr<cluster::ShardedFleet> build() {
    std::unique_ptr<cluster::ShardedFleet> fleet;
    {
      SpanScope span(rec_, "cluster.ShardedFleet.ctor");
      fleet = std::make_unique<cluster::ShardedFleet>(config_);
    }
    {
      SpanScope span(rec_, "cluster.ShardedFleet.start");
      fleet->start();
    }
    return fleet;
  }

  Counters snapshot(cluster::ShardedFleet& fleet) {
    obs::MetricRegistry registry;
    {
      SpanScope span(rec_, "cluster.ShardedFleet.collect_metrics");
      fleet.collect_metrics(registry);
    }
    Counters c;
    const sim::ShardedEngine& engine = fleet.engine();
    for (std::uint32_t s = 0; s < engine.shard_count(); ++s) {
      add_simulator(c, engine.simulator(s));
    }
    for (net::ClusterId k = 0; k < fleet.cluster_count(); ++k) {
      add_cluster(c, fleet.cluster(k), fleet.system(k));
      c["proto.echoes_answered"] += fleet.gateway_icmp(k).echo_requests_answered();
    }
    c["engine.windows"] = engine.windows_run();
    c["engine.windows_coalesced"] = engine.windows_coalesced();
    const auto relay = [&registry](const char* name) {
      return static_cast<std::uint64_t>(registry.counter(name).value());
    };
    c["relay.frames"] = relay("relay.frames");
    c["relay.drops"] = relay("relay.dropped_failed") + relay("relay.lost_in_flight");
    return c;
  }

  void sample(cluster::ShardedFleet& fleet) {
    std::uint64_t frames = 0;
    for (net::ClusterId k = 0; k < fleet.cluster_count(); ++k) {
      frames += cluster_frames(fleet.cluster(k));
    }
    rec_.sample("sim.events", static_cast<double>(fleet.engine().events_executed()));
    rec_.sample("net.frames", static_cast<double>(frames));
    rec_.sample("engine.windows", static_cast<double>(fleet.engine().windows_run()));
  }

  cluster::ShardedFleetConfig config_;
  std::uint64_t units_;
  util::Duration unit_;
  util::Duration check_span_;
  bool sabotage_;
};

// --- chaos: the survivability campaigns -------------------------------------

class ChaosWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kCampaignsPerPass = 500;

  ChaosWorkload(Recorder& recorder, const Options& options)
      : Workload(recorder),
        campaigns_(options.scaled(kCampaignsPerPass)),
        seed_(options.seed) {
    config_.cripple_detection = options.sabotage;
  }

  /// One campaign-shaped cluster, built the way run_campaign builds it.
  void build_once() override {
    arena_.reset();
    sim::Simulator sim(&arena_);
    obs::Tracer tracer(config_.trace_capacity);
    sim.set_tracer(&tracer);
    std::unique_ptr<net::ClusterNetwork> network;
    {
      SpanScope span(rec_, "net.ClusterNetwork.ctor");
      network = std::make_unique<net::ClusterNetwork>(
          sim, net::ClusterNetwork::Config{
                   .node_count = config_.schedule.node_count, .backplane = {}});
    }
    std::unique_ptr<core::DrsSystem> system;
    {
      SpanScope span(rec_, "core.DrsSystem.ctor");
      system = std::make_unique<core::DrsSystem>(*network, config_.drs);
    }
    {
      SpanScope span(rec_, "core.DrsSystem.start");
      system->start();
    }
    system->stop();
  }

  PassResult run_pass() override {
    PassResult result;
    const util::Arena::Stats before = arena_.stats();
    Counters& c = result.counters;
    for (std::uint64_t i = 0; i < campaigns_; ++i) {
      // The runner's worker shape: one arena, rewound between campaigns.
      arena_.reset();
      chaos::CampaignResult campaign;
      timed_unit(result, "chaos.run_campaign", [&] {
        campaign = chaos::run_campaign(seed_, i, config_, &arena_);
      });
      c["sim.events"] += campaign.sim_events;
      c["chaos.actions"] += campaign.actions_applied;
      c["chaos.checks"] += campaign.checks;
      c["chaos.violations"] += campaign.violations.size();
      c["bench.failed"] += campaign.violations.empty() ? 0u : 1u;
      rec_.sample("sim.events", static_cast<double>(c["sim.events"]));
    }
    const util::Arena::Stats& after = arena_.stats();
    c["arena.allocations"] = after.allocations - before.allocations;
    c["arena.freelist_hits"] = after.freelist_hits - before.freelist_hits;
    c["arena.bytes_reserved"] = after.bytes_reserved;
    c["chaos.campaigns"] = campaigns_;
    c["bench.ops"] = campaigns_;
    if (c["bench.failed"] > 0) {
      result.errors.push_back("chaos: " + std::to_string(c["bench.failed"]) +
                              " campaigns reported invariant violations");
    }
    return result;
  }

  bool random_inputs() const override { return true; }

 private:
  chaos::CampaignConfig config_;
  util::Arena arena_;
  std::uint64_t campaigns_;
  std::uint64_t seed_;
};

// --- mc_fig3: Fig. 3's Monte Carlo against Equation 1 ------------------------

class McWorkload final : public Workload {
 public:
  static constexpr std::uint64_t kIterations = 20'000;

  McWorkload(Recorder& recorder, const Options& options)
      : Workload(recorder),
        stride_(options.divisor),
        seed_(options.seed),
        sabotage_(options.sabotage) {}

  /// The cell plan with its Equation 1 oracle: f = 2..10, f < N < 64.
  void build_once() override {
    SpanScope span(rec_, "analytic.p_success");
    cells_.clear();
    std::uint64_t index = 0;
    for (std::int64_t f = 2; f <= 10; ++f) {
      for (std::int64_t n = f + 1; n < 64; ++n, ++index) {
        if (index % stride_ != 0) continue;
        // The sabotaged oracle is Equation 1 at the wrong failure count.
        cells_.push_back(Cell{n, f, analytic::p_success(n, sabotage_ ? f + 1 : f)});
      }
    }
  }

  PassResult run_pass() override {
    PassResult result;
    Counters& c = result.counters;
    c["bench.failed"] = 0;
    mc::EstimateOptions options;
    options.iterations = kIterations;
    options.seed = seed_;
    options.threads = 1;
    for (const Cell& cell : cells_) {
      mc::Estimate estimate;
      timed_unit(result, "mc.estimate_p_success", [&] {
        estimate = mc::estimate_p_success(cell.nodes, cell.failures, options);
      });
      c["mc.trials"] += estimate.trials;
      rec_.sample("mc.trials", static_cast<double>(c["mc.trials"]));
      const double sigma = std::sqrt(cell.p * (1.0 - cell.p) /
                                     static_cast<double>(estimate.trials));
      if (std::fabs(estimate.p - cell.p) > 5.0 * sigma) {
        ++c["bench.failed"];
        if (result.errors.size() < 5) {
          char what[160];
          std::snprintf(what, sizeof what,
                        "mc_fig3: N=%" PRId64 " f=%" PRId64
                        ": estimate %.6f is more than 5 sigma from Eq. 1's %.6f",
                        cell.nodes, cell.failures, estimate.p, cell.p);
          result.errors.emplace_back(what);
        }
      }
    }
    c["mc.cells"] = cells_.size();
    c["bench.ops"] = cells_.size();
    return result;
  }

  bool random_inputs() const override { return true; }

 private:
  struct Cell {
    std::int64_t nodes = 0;
    std::int64_t failures = 0;
    double p = 0.0;  // Equation 1
  };

  std::uint64_t stride_;
  std::uint64_t seed_;
  bool sabotage_;
  std::vector<Cell> cells_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        Recorder& recorder,
                                        const Options& options) {
  if (name == "fig1_n90") return std::make_unique<Fig1Workload>(recorder, options);
  if (name == "fleet27") return std::make_unique<Fleet27Workload>(recorder, options);
  if (name == "chaos") return std::make_unique<ChaosWorkload>(recorder, options);
  if (name == "mc_fig3") return std::make_unique<McWorkload>(recorder, options);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only)
// ---------------------------------------------------------------------------

struct Probes {
  double queue_push_pop_ns = 0.0;  // per event: schedule + pop + dispatch
  double queue_cancel_ns = 0.0;    // per op: schedule + cancel
  double echo_ns = 0.0;            // per echo request/reply on an idle hub
  double events_per_echo = 0.0;
};

/// EventQueue push/pop and push/cancel loops with seeded timestamps, and a
/// bare IcmpService echo loop on an idle 2-node hub with no daemons (the
/// minimum frame). Together they split sim.ns_per_event into the queue, the
/// net+proto delivery path, and the remainder.
Probes run_probes(Recorder& rec, std::uint64_t seed, std::uint64_t divisor,
                  std::vector<std::string>& errors) {
  Probes probes;
  const std::uint64_t ops = std::max<std::uint64_t>(1, 400'000 / divisor);
  constexpr std::uint64_t kWindowNs = 2'000'000;
  {
    // A rolling window of ~1024 pending events, popped in time order, like
    // the armed timeouts of a running simulation.
    SpanScope span(rec, "sim.EventQueue.push_pop_loop");
    sim::EventQueue queue;
    util::Rng rng(seed, 1);
    std::uint64_t fired = 0;
    util::SimTime now = util::SimTime::zero();
    const std::int64_t t0 = thread_cpu_ns();
    for (std::uint64_t i = 0; i < ops; ++i) {
      queue.push(now + util::Duration::nanos(
                           static_cast<std::int64_t>(rng.next_below(kWindowNs))),
                 [&fired] { ++fired; });
      if (queue.size() >= 1024) {
        auto popped = queue.pop();
        now = popped.time;
        popped.fn();
      }
    }
    while (!queue.empty()) queue.pop().fn();
    probes.queue_push_pop_ns = static_cast<double>(thread_cpu_ns() - t0) /
                               static_cast<double>(ops);
    if (fired != ops) errors.emplace_back("probe: EventQueue lost events");
  }
  {
    // The probe-timeout lifecycle: almost every timeout is cancelled.
    SpanScope span(rec, "sim.EventQueue.cancel_loop");
    sim::EventQueue queue;
    util::Rng rng(seed, 2);
    std::vector<sim::EventId> ids;
    ids.reserve(1024);
    std::uint64_t cancelled = 0;
    const std::int64_t t0 = thread_cpu_ns();
    for (std::uint64_t i = 0; i < ops; ++i) {
      ids.push_back(queue.push(
          util::SimTime::from_ns(static_cast<std::int64_t>(i * 16 + rng.next_below(kWindowNs))),
          [] {}));
      if (ids.size() == 1024 || i + 1 == ops) {
        for (const sim::EventId id : ids) cancelled += queue.cancel(id) ? 1u : 0u;
        ids.clear();
      }
    }
    probes.queue_cancel_ns = static_cast<double>(thread_cpu_ns() - t0) /
                             static_cast<double>(ops);
    if (cancelled != ops) errors.emplace_back("probe: EventQueue cancel failed");
  }
  {
    SpanScope span(rec, "proto.IcmpService.echo_loop");
    const std::uint64_t echoes = std::max<std::uint64_t>(1, 100'000 / divisor);
    sim::Simulator sim;
    net::ClusterNetwork network(sim, {.node_count = 2, .backplane = {}});
    proto::IcmpService side_a(network.host(0));
    proto::IcmpService side_b(network.host(1));
    std::uint64_t replies = 0;
    const auto count_reply = [&replies](std::uint16_t) {
      ++replies;
      return true;
    };
    side_a.set_probe_reply_hook(count_reply);
    side_b.set_probe_reply_hook(count_reply);
    util::Rng rng(seed, 3);
    proto::PingOptions options;
    options.managed_timeout = false;
    const std::int64_t t0 = thread_cpu_ns();
    for (std::uint64_t i = 0; i < echoes; ++i) {
      const std::uint64_t draw = rng.next_below(4);  // network x direction
      const auto network_id = static_cast<net::NetworkId>(draw & 1u);
      options.via = network_id;
      if (draw & 2u) {
        side_b.send_echo(net::cluster_ip(network_id, 0), options);
      } else {
        side_a.send_echo(net::cluster_ip(network_id, 1), options);
      }
      sim.run();
    }
    probes.echo_ns = static_cast<double>(thread_cpu_ns() - t0) /
                     static_cast<double>(echoes);
    probes.events_per_echo = static_cast<double>(sim.executed_events()) /
                             static_cast<double>(echoes);
    if (replies != echoes) errors.emplace_back("probe: echo replies went missing");
  }
  return probes;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Peak resident set of this process image, from /proc/self/status VmHWM.
/// (getrusage's ru_maxrss is not used: Linux carries the pre-exec image's
/// peak across execve, so a small workload would report its launcher's.)
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void write_metrics(util::JsonWriter& json, const std::vector<Metric>& metrics) {
  json.begin_object();
  for (const Metric& m : metrics) {
    json.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
  }
  json.end_object();
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text << '\n';
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = util::Flags::parse(
      argc, argv,
      {{"workload", "fig1_n90 | fleet27 | chaos | mc_fig3"},
       {"seed", "input seed for chaos, mc_fig3 and the layer probes (default 7)"},
       {"seconds", "timed passes run while the next one ends within this much wall time (default 10)"},
       {"trace-out", "traced run: per-layer metrics + Chrome trace to this path"},
       {"json-out", "write every metric, counter and self time to this path"},
       {"quick", "one pass at 1/50 of the units (smoke test only)"},
       {"sabotage", "break the workload's output check (checks-can-fail test)"}});
  if (!flags) return 2;
  if (flags->help_requested()) return 0;

  const std::int64_t run_start_ns = util::wall_clock_ns();
  const std::string name = flags->get_string("workload", "");
  Options options;
  options.seed = static_cast<std::uint64_t>(flags->get_int("seed", 7));
  const bool quick = flags->get_bool("quick");
  options.divisor = quick ? 50 : 1;
  options.sabotage = flags->get_bool("sabotage");
  const double seconds = flags->get_double("seconds", 10.0);
  const std::string trace_out = flags->get_string("trace-out", "");
  const bool traced = !trace_out.empty();

  Recorder rec;
  if (traced) rec.reserve(std::size_t{1} << 18, std::size_t{1} << 18);
  std::unique_ptr<Workload> workload = make_workload(name, rec, options);
  if (!workload || !(seconds >= 0.0)) {
    std::fprintf(stderr,
                 "usage: drs_bench --workload fig1_n90|fleet27|chaos|mc_fig3 "
                 "[--seed N] [--seconds S] [--trace-out F] [--json-out F]\n");
    return 2;
  }
  char run_id[24];
  std::snprintf(run_id, sizeof run_id, "%016" PRIx64,
                util::mix64(static_cast<std::uint64_t>(run_start_ns),
                            options.seed ^ static_cast<std::uint64_t>(getpid())));
  std::printf("drs_bench %s seed %" PRIu64 " (%s)%s%s\n", name.c_str(),
              options.seed,
              workload->random_inputs() ? "inputs drawn from the seed"
                                        : "no random inputs; the seed is unused",
              traced ? " traced" : "", quick ? " quick" : "");

  std::vector<std::string> errors;
  rec.set_enabled(traced);
  {
    SpanScope span(rec, "bench.check");
    workload->check_once(errors);
  }
  Probes probes;
  if (traced) {
    SpanScope span(rec, "bench.probes");
    probes = run_probes(rec, options.seed, options.divisor, errors);
  }

  // Set-up builds run in rounds before every pass, so their samples span the
  // run's host conditions the way unit times do. Each round reads the gauge
  // first and scales its builds' CPU times by it, as units are scaled.
  std::vector<double> setup_s;
  HostGauge setup_gauge;
  const auto build_round = [&] {
    rec.set_enabled(traced);
    const double scale = HostGauge::kReferenceNs / setup_gauge.slice_ns();
    for (int i = 0; i < (quick ? 3 : 7); ++i) {
      SpanScope span(rec, "bench.setup");
      const std::int64_t t0 = thread_cpu_ns();
      workload->build_once();
      setup_s.push_back(static_cast<double>(thread_cpu_ns() - t0) * 1e-9 * scale);
    }
  };

  // Timed passes, closed loop. The traced run alternates untraced and traced
  // passes so trace.overhead_frac compares like with like. A pass starts
  // only when one more pass, at the mean so far, still ends within --seconds.
  std::vector<PassResult> passes;
  double peak_rss = 0.0;
  const CpuTicks ticks_before = cpu_ticks();
  const std::int64_t timed_start_ns = util::wall_clock_ns();
  const std::size_t min_passes = traced ? 2 : 1;
  const auto fits_another_pass = [&] {
    const double elapsed_s =
        static_cast<double>(util::wall_clock_ns() - timed_start_ns) * 1e-9;
    return elapsed_s + elapsed_s / static_cast<double>(passes.size()) <= seconds;
  };
  while (passes.size() < min_passes || (!quick && fits_another_pass())) {
    build_round();
    const bool traced_pass = traced && passes.size() % 2 == 1;
    rec.set_enabled(traced_pass);
    SpanScope span(rec, "bench.pass");
    passes.push_back(workload->run_pass());
    passes.back().traced = traced_pass;
    // Every later pass repeats this work on a fresh system; reading the peak
    // at exit would add the per-unit records of however many passes the
    // host's speed allowed.
    if (passes.size() == 1) peak_rss = peak_rss_mb();
  }
  while (!quick && setup_s.size() < 21) build_round();
  rec.set_enabled(false);
  const CpuTicks ticks_after = cpu_ticks();

  // Determinism guard: every pass reproduces the first pass's counters.
  const Counters& c = passes.front().counters;
  for (std::size_t p = 1; p < passes.size(); ++p) {
    for (const auto& [key, value] : passes[p].counters) {
      const auto it = c.find(key);
      if (it == c.end() || it->second != value) {
        errors.push_back("determinism: pass " + std::to_string(p) + " " + key +
                         " = " + std::to_string(value) + ", pass 0 had " +
                         (it == c.end() ? "none" : std::to_string(it->second)));
      }
    }
  }

  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> untraced_ms, traced_ms, untraced_cpu_ms, untraced_wall_ms, gauge_ns;
  std::int64_t untraced_ns = 0;
  const auto append = [](std::vector<double>& into, const std::vector<double>& from) {
    into.insert(into.end(), from.begin(), from.end());
  };
  for (const PassResult& pass : passes) {
    attempted += pass.counters.at("bench.ops");
    failed += pass.counters.at("bench.failed");
    for (const std::string& error : pass.errors) errors.push_back(error);
    append(pass.traced ? traced_ms : untraced_ms, pass.unit_ms);
    if (!pass.traced) {
      append(untraced_cpu_ms, pass.unit_cpu_ms);
      append(untraced_wall_ms, pass.unit_wall_ms);
      append(gauge_ns, pass.gauge_ns);
      untraced_ns += pass.timed_ns;
    }
  }
  // Keep the error list readable when a check fails in every pass.
  std::sort(errors.begin(), errors.end());
  errors.erase(std::unique(errors.begin(), errors.end()), errors.end());
  const bool correct = errors.empty() && failed == 0;

  const auto get = [&c](const char* key) {
    const auto it = c.find(key);
    return it == c.end() ? 0.0 : static_cast<double>(it->second);
  };

  // End-to-end metrics (untraced passes only).
  const double unit_p50 = quantile(untraced_ms, 0.5);
  std::vector<Metric> end_to_end = {
      {"unit_ms_p50", unit_p50, "ms"},
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
  };

  // Diagnostics: printed and written to --json-out, never gated.
  const auto n = static_cast<double>(untraced_ms.size());
  double tail_q = 0.5;
  for (const double q : {0.999, 0.99, 0.95, 0.9}) {
    if (n * (1.0 - q) >= 10.0) {
      tail_q = q;
      break;
    }
  }
  char tail_name[32];
  std::snprintf(tail_name, sizeof tail_name, "unit_ms_p%g", tail_q * 100.0);
  const double timed_ns = static_cast<double>(untraced_ns);
  const double untraced_passes = static_cast<double>(std::count_if(
      passes.begin(), passes.end(), [](const PassResult& p) { return !p.traced; }));
  std::vector<Metric> diagnostics = {
      {tail_name, quantile(untraced_ms, tail_q), "ms"},
      {"unit_samples", n, "count"},
      {"unit_cpu_ms_p50", quantile(untraced_cpu_ms, 0.5), "ms"},
      {"unit_wall_ms_p50", quantile(untraced_wall_ms, 0.5), "ms"},
      {"gauge_us_p50", quantile(gauge_ns, 0.5) * 1e-3, "us"},
      {"host_steal_frac", ratio(ticks_after.steal - ticks_before.steal,
                                ticks_after.total - ticks_before.total),
       "ratio"},
      {"passes", static_cast<double>(passes.size()), "count"},
      {"fail_frac", ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
      {"wall_s", static_cast<double>(util::wall_clock_ns() - run_start_ns) * 1e-9, "s"},
  };
  // Thread CPU time per unit of each layer's work, for the layers this
  // workload exercises.
  for (const auto& [metric, work] : {std::pair{"sim.ns_per_event", "sim.events"},
                                     std::pair{"net.ns_per_frame", "net.frames"},
                                     std::pair{"mc.ns_per_trial", "mc.trials"}}) {
    if (get(work) > 0.0) {
      diagnostics.push_back({metric, timed_ns / (get(work) * untraced_passes), "ns"});
    }
  }

  // Per-layer metrics (traced run).
  std::vector<Metric> per_layer;
  std::map<std::string, SelfTime> self_times;
  if (traced) {
    per_layer = {
        {"sim.events", get("sim.events"), "count"},
        {"sim.event_slots", get("sim.event_slots"), "count"},
        {"sim.queue_push_pop_ns", probes.queue_push_pop_ns, "ns"},
        {"sim.queue_cancel_ns", probes.queue_cancel_ns, "ns"},
        {"engine.windows", get("engine.windows"), "count"},
        {"engine.windows_coalesced", get("engine.windows_coalesced"), "count"},
        {"engine.events_per_window", ratio(get("sim.events"), get("engine.windows")),
         "count"},
        {"relay.frames", get("relay.frames"), "count"},
        {"relay.drops", get("relay.drops"), "count"},
        {"net.frames", get("net.frames"), "count"},
        {"net.bytes", get("net.bytes"), "bytes"},
        {"net.drops", get("net.drops"), "count"},
        {"net.hub_util", hub_util(c), "ratio"},
        {"proto.echoes_answered", get("proto.echoes_answered"), "count"},
        {"proto.echo_ns", probes.echo_ns, "ns"},
        {"core.probes_sent", get("core.probes_sent"), "count"},
        {"core.probes_failed", get("core.probes_failed"), "count"},
        {"arena.allocations", get("arena.allocations"), "count"},
        {"arena.freelist_hit_ratio",
         ratio(get("arena.freelist_hits"), get("arena.allocations")), "ratio"},
        {"arena.bytes_reserved", get("arena.bytes_reserved"), "bytes"},
        {"chaos.actions", get("chaos.actions"), "count"},
        {"chaos.checks", get("chaos.checks"), "count"},
        {"chaos.violations", get("chaos.violations"), "count"},
        {"chaos.events_per_campaign", ratio(get("sim.events"), get("chaos.campaigns")),
         "count"},
        {"mc.trials", get("mc.trials"), "count"},
        {"trace.overhead_frac",
         ratio(quantile(traced_ms, 0.5), unit_p50) - 1.0, "ratio"},
    };
    self_times = rec.self_times();
    diagnostics.push_back({"probe.events_per_echo", probes.events_per_echo, "count"});
    diagnostics.push_back({"trace.spans", static_cast<double>(rec.spans().size()), "count"});
    diagnostics.push_back({"trace.dropped", static_cast<double>(rec.dropped()), "count"});
  }

  // Human-readable report.
  print_metrics("end-to-end (untraced passes):", end_to_end);
  print_metrics("diagnostics:", diagnostics);
  if (traced) {
    print_metrics("per-layer (first pass counters, traced-run probes):", per_layer);
    std::vector<std::pair<std::string, SelfTime>> rows(self_times.begin(), self_times.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.self_ns > b.second.self_ns;
    });
    std::printf("span self time (traced passes, set-up and probes):\n");
    std::printf("  %-40s %10s %12s %12s\n", "span", "count", "self ms", "total ms");
    for (const auto& [span, t] : rows) {
      std::printf("  %-40s %10" PRIu64 " %12.3f %12.3f\n", span.c_str(), t.count,
                  static_cast<double>(t.self_ns) * 1e-6,
                  static_cast<double>(t.total_ns) * 1e-6);
    }
  }
  for (const std::string& error : errors) std::printf("CHECK FAILED: %s\n", error.c_str());
  std::printf("attempted %" PRIu64 " failed %" PRIu64 " -> %s\n", attempted, failed,
              correct ? "correct" : "INCORRECT");

  if (traced && !write_file(trace_out, rec.chrome_json(run_id, name))) {
    std::fprintf(stderr, "cannot write --trace-out %s\n", trace_out.c_str());
    return 2;
  }
  const std::string json_out = flags->get_string("json-out", "");
  if (!json_out.empty()) {
    util::JsonWriter json;
    json.begin_object()
        .field("workload", name)
        .field("seed", options.seed)
        .field("random_inputs", workload->random_inputs())
        .field("run_id", std::string(run_id))
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed);
    json.key("errors").begin_array();
    for (const std::string& error : errors) json.value(error);
    json.end_array();
    json.key("setup_samples_s").begin_array();
    for (const double s : setup_s) json.value(s);
    json.end_array();
    json.key("end_to_end");
    write_metrics(json, end_to_end);
    json.key("diagnostics");
    write_metrics(json, diagnostics);
    json.key("per_layer");
    write_metrics(json, per_layer);
    json.key("passes").begin_array();
    for (const PassResult& pass : passes) {
      json.begin_object()
          .field("traced", pass.traced)
          .field("units", static_cast<std::uint64_t>(pass.unit_ms.size()))
          .field("timed_ms", static_cast<double>(pass.timed_ns) * 1e-6)
          .field("unit_ms_p50", quantile(pass.unit_ms, 0.5))
          .field("unit_cpu_ms_p50", quantile(pass.unit_cpu_ms, 0.5))
          .field("gauge_us_p50", quantile(pass.gauge_ns, 0.5) * 1e-3);
      json.key("counters").begin_object();
      for (const auto& [key, value] : pass.counters) json.field(key, value);
      json.end_object().end_object();
    }
    json.end_array();
    json.key("self_times").begin_object();
    for (const auto& [span, t] : self_times) {
      json.key(span)
          .begin_object()
          .field("count", t.count)
          .field("self_ms", static_cast<double>(t.self_ns) * 1e-6)
          .field("total_ms", static_cast<double>(t.total_ns) * 1e-6)
          .end_object();
    }
    json.end_object().end_object();
    if (!write_file(json_out, json.str())) {
      std::fprintf(stderr, "cannot write --json-out %s\n", json_out.c_str());
      return 2;
    }
  }

  // The result line: end-to-end metrics untraced, per-layer metrics traced.
  util::JsonWriter result;
  result.begin_object()
      .field("correct", correct)
      .field("attempted", attempted)
      .field("failed", failed)
      .key("metrics");
  write_metrics(result, traced ? per_layer : end_to_end);
  result.end_object();
  std::printf("%s\n", result.str().c_str());
  return correct ? 0 : 1;
}

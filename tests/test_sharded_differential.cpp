// Differential proof that the sharded fleet is byte-identical to the legacy
// single-queue fleet at every shard count.
//
// Every scenario runs once on a legacy cluster::Fleet (one Simulator, one
// tracer — the oracle) and once per shard count in {1, 2, 4, 8} on a
// cluster::ShardedFleet, with identical configs and identical injection
// schedules (both through schedule_component_failure, which keys each
// injection under the entity owning the component). The comparison is the
// strongest the topology admits:
//   - the full protocol trace (every TraceEventKind except kQueueHighWater,
//     which reports per-queue occupancy and is per-shard by design),
//     serialized to canonical JSON and compared as bytes — send instants,
//     ordering, and payload fields must match to the nanosecond;
//   - the full metric snapshot minus the sim./arena./shard. prefixes (event
//     slots, arena chunks and friends measure per-queue populations, which
//     sharding intentionally changes);
//   - probe totals and the pristine flag.
//
// The corpus covers 22 scenarios across five shapes: healthy fleets of
// varying geometry, targeted component failures (cluster NICs and
// backplanes, gateway NICs, the shared relay hub — failed and healed),
// seeded chaos schedules over the fleet's flat component space, the
// 27-cluster fleet_smoke deployment shape, and the relay's own ordering: a
// lossy relay (loss draws follow the oracle's replay order) and a relay
// tuned so hub deliveries land on the same nanosecond as gateway ticks
// (same-instant ties between entities). docs/SHARDING.md explains why
// equality is exact rather than statistical.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/schedule.hpp"
#include "cluster/fleet.hpp"
#include "cluster/partition.hpp"
#include "net/failure.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"

namespace drs {
namespace {

// Every trace kind except kQueueHighWater (see the file comment).
std::vector<obs::TraceEvent> protocol_events(
    const std::vector<obs::TraceEvent>& events) {
  return obs::filter_kinds(
      events,
      {obs::TraceEventKind::kPingSent, obs::TraceEventKind::kPingLost,
       obs::TraceEventKind::kProbeLost, obs::TraceEventKind::kLinkChange,
       obs::TraceEventKind::kDetourInstall, obs::TraceEventKind::kDetourSwitch,
       obs::TraceEventKind::kDetourTeardown,
       obs::TraceEventKind::kDiscoveryStart,
       obs::TraceEventKind::kRelaySelected, obs::TraceEventKind::kLeaseGranted,
       obs::TraceEventKind::kLeaseExpired, obs::TraceEventKind::kTcpRetransmit,
       obs::TraceEventKind::kTcpRto});
}

// Drops flat "<prefix><name>":<int> entries from a canonical metrics JSON
// (names are keys in sorted flat maps, values plain integers, so each entry
// ends at the next ',' or '}').
std::string strip_metric_prefixes(std::string json) {
  for (const char* prefix : {"\"sim.", "\"arena.", "\"shard.", "\"engine."}) {
    std::size_t pos;
    while ((pos = json.find(prefix)) != std::string::npos) {
      const std::size_t colon = json.find(':', pos);
      if (colon == std::string::npos) break;
      const std::size_t end = json.find_first_of(",}", colon);
      if (end == std::string::npos) break;
      if (json[end] == ',') {
        json.erase(pos, end - pos + 1);
      } else {
        std::size_t begin = pos;
        if (begin > 0 && json[begin - 1] == ',') --begin;
        json.erase(begin, end - begin);
      }
    }
  }
  return json;
}

/// Everything one fleet run exposes to comparison.
struct Observed {
  std::string trace_json;    // canonical JSON of protocol_events
  std::string metrics_json;  // registry snapshot minus sim./arena./shard.
  std::uint64_t probes_sent = 0;
  bool pristine = false;
};

/// Byte compare with a readable first-divergence excerpt instead of GTest's
/// full-string dump (the traces run to megabytes).
void expect_same_bytes(const std::string& legacy, const std::string& sharded,
                       const std::string& label, const char* what) {
  if (legacy == sharded) return;
  const std::size_t n = std::min(legacy.size(), sharded.size());
  std::size_t i = 0;
  while (i < n && legacy[i] == sharded[i]) ++i;
  const std::size_t begin = i > 60 ? i - 60 : 0;
  ADD_FAILURE() << label << ": " << what << " diverges at byte " << i
                << " (legacy " << legacy.size() << "B, sharded "
                << sharded.size() << "B)\n  legacy : ..."
                << legacy.substr(begin, 120) << "\n  sharded: ..."
                << sharded.substr(begin, 120);
}

struct Scenario {
  std::string name;
  cluster::FleetConfig fleet;
  std::vector<net::FailureAction> actions;  // scheduled after start()
  util::Duration run = util::Duration::seconds(1);
};

cluster::FleetConfig fleet_config(std::uint16_t clusters,
                                  std::uint16_t nodes) {
  cluster::FleetConfig config;
  config.clusters = clusters;
  config.nodes_per_cluster = nodes;
  config.drs = chaos::fast_campaign_drs_config();
  return config;
}

Observed run_legacy(const Scenario& scenario) {
  sim::Simulator sim;
  obs::Tracer tracer(std::size_t{1} << 20);
  sim.set_tracer(&tracer);
  cluster::Fleet fleet(sim, scenario.fleet);
  fleet.start();
  for (const net::FailureAction& action : scenario.actions) {
    fleet.schedule_component_failure(action.at, action.component, action.fail);
  }
  sim.run_until(util::SimTime::zero() + scenario.run);
  EXPECT_EQ(tracer.evicted(), 0u)
      << scenario.name << ": legacy ring too small for a full-trace compare";
  Observed observed;
  observed.trace_json = obs::to_canonical_json(protocol_events(tracer.events()));
  obs::MetricRegistry registry;
  fleet.collect_metrics(registry);
  observed.metrics_json = strip_metric_prefixes(registry.to_json());
  observed.probes_sent = fleet.total_probes_sent();
  observed.pristine = fleet.all_pristine();
  return observed;
}

Observed run_sharded(const Scenario& scenario, std::uint32_t shards) {
  cluster::ShardedFleetConfig config;
  config.fleet = scenario.fleet;
  config.shards = shards;
  config.trace_capacity = std::size_t{1} << 16;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  for (const net::FailureAction& action : scenario.actions) {
    fleet.schedule_component_failure(action.at, action.component, action.fail);
  }
  fleet.run_until(util::SimTime::zero() + scenario.run);
  // Window containment and in-order execution (the trace merge's
  // precondition) are counted on every run.
  EXPECT_EQ(fleet.engine().window_violations(), 0u) << scenario.name;
  // EOT conservativeness across the whole corpus: adaptive windows are on by
  // default, and no cross-shard arrival may land in sim-time its destination
  // shard could already have executed past.
  EXPECT_GE(fleet.engine().min_foreign_margin_ns(), 0) << scenario.name;
  Observed observed;
  observed.trace_json =
      obs::to_canonical_json(protocol_events(fleet.merged_trace()));
  obs::MetricRegistry registry;
  fleet.collect_metrics(registry);
  observed.metrics_json = strip_metric_prefixes(registry.to_json());
  observed.probes_sent = fleet.total_probes_sent();
  observed.pristine = fleet.all_pristine();
  return observed;
}

void run_scenario(const Scenario& scenario) {
  SCOPED_TRACE(scenario.name);
  const Observed legacy = run_legacy(scenario);
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    const std::string label = scenario.name + " @" + std::to_string(shards);
    const Observed sharded = run_sharded(scenario, shards);
    expect_same_bytes(legacy.trace_json, sharded.trace_json, label, "trace");
    expect_same_bytes(legacy.metrics_json, sharded.metrics_json, label,
                      "metrics");
    EXPECT_EQ(legacy.probes_sent, sharded.probes_sent) << label;
    EXPECT_EQ(legacy.pristine, sharded.pristine) << label;
  }
}

util::SimTime at_ms(std::int64_t ms) {
  return util::SimTime::zero() + util::Duration::millis(ms);
}

// -- shape 1: healthy fleets of varying geometry (5 scenarios) ---------------

TEST(ShardedDifferential, HealthyFleets) {
  run_scenario({"healthy-k2-n4", fleet_config(2, 4), {},
                util::Duration::millis(1200)});
  run_scenario({"healthy-k3-n4", fleet_config(3, 4), {},
                util::Duration::millis(1000)});
  run_scenario({"healthy-k4-n4", fleet_config(4, 4), {},
                util::Duration::millis(800)});
  run_scenario({"healthy-k5-n4", fleet_config(5, 4), {},
                util::Duration::millis(600)});
  run_scenario({"healthy-k6-n6", fleet_config(6, 6), {},
                util::Duration::millis(500)});
}

// -- shape 2: targeted component failures (7 scenarios) ----------------------

TEST(ShardedDifferential, TargetedFailures) {
  {
    // A cluster-internal NIC outage with recovery: purely shard-local churn.
    Scenario s{"cluster-nic-outage", fleet_config(4, 4), {},
               util::Duration::millis(1800)};
    s.actions = {{at_ms(400), 0, true}, {at_ms(1000), 0, false}};
    run_scenario(s);
  }
  {
    // One cluster's backplane A dies and heals (local index 2n+0).
    Scenario s{"cluster-backplane-outage", fleet_config(4, 4), {},
               util::Duration::millis(1800)};
    const net::ComponentIndex stride = 2u * 4u + 2u;
    s.actions = {{at_ms(400), 2u * stride + 2u * 4u, true},
                 {at_ms(1100), 2u * stride + 2u * 4u, false}};
    run_scenario(s);
  }
  {
    // Gateway NIC outage with recovery: echo-mesh timeouts on both sides of
    // the relay, then healing.
    Scenario s{"gateway-outage", fleet_config(4, 4), {},
               util::Duration::millis(1800)};
    const net::ComponentIndex gateway1 = 4u * (2u * 4u + 2u) + 1u;
    s.actions = {{at_ms(400), gateway1, true}, {at_ms(1000), gateway1, false}};
    run_scenario(s);
  }
  {
    // Gateway NIC failed for the rest of the run.
    Scenario s{"gateway-permanent", fleet_config(3, 4), {},
               util::Duration::millis(1500)};
    const net::ComponentIndex gateway0 = 3u * (2u * 4u + 2u);
    s.actions = {{at_ms(500), gateway0, true}};
    run_scenario(s);
  }
  {
    // The shared relay hub dies and heals: the oracle's failure transitions,
    // in-flight loss accounting and dropped_failed counting all engage.
    Scenario s{"relay-outage", fleet_config(4, 4), {},
               util::Duration::millis(1800)};
    const net::ComponentIndex relay = 4u * (2u * 4u + 2u) + 4u;
    s.actions = {{at_ms(400), relay, true}, {at_ms(1100), relay, false}};
    run_scenario(s);
  }
  {
    // Relay dead for the rest of the run: every later offer drops.
    Scenario s{"relay-permanent", fleet_config(3, 4), {},
               util::Duration::millis(1500)};
    const net::ComponentIndex relay = 3u * (2u * 4u + 2u) + 3u;
    s.actions = {{at_ms(600), relay, true}};
    run_scenario(s);
  }
  {
    // Overlapping outages across all three component classes.
    Scenario s{"mixed-overlap", fleet_config(5, 4), {},
               util::Duration::millis(2000)};
    const net::ComponentIndex stride = 2u * 4u + 2u;
    const net::ComponentIndex gateway2 = 5u * stride + 2u;
    const net::ComponentIndex relay = 5u * stride + 5u;
    s.actions = {{at_ms(400), 1u * stride + 3u, true},
                 {at_ms(600), relay, true},
                 {at_ms(800), gateway2, true},
                 {at_ms(1000), relay, false},
                 {at_ms(1200), 1u * stride + 3u, false},
                 {at_ms(1400), gateway2, false}};
    run_scenario(s);
  }
}

// -- shape 3: seeded chaos schedules over the flat component space (6) -------

TEST(ShardedDifferential, ChaosSchedules) {
  const cluster::FleetConfig fleet = fleet_config(3, 4);
  const net::ComponentIndex components = 3u * (2u * 4u + 2u) + 3u + 1u;
  chaos::ScheduleConfig schedule_config;
  schedule_config.events = 8;
  schedule_config.start = util::Duration::millis(400);
  schedule_config.min_gap = util::Duration::millis(150);
  schedule_config.max_jitter = util::Duration::millis(50);
  schedule_config.max_concurrent_failures = 3;
  for (std::uint64_t campaign = 0; campaign < 6; ++campaign) {
    const chaos::Schedule schedule = chaos::generate_domain_schedule(
        0x5EEDFA11u, campaign, components, schedule_config);
    Scenario s{"chaos-campaign-" + std::to_string(campaign), fleet,
               schedule.actions,
               (schedule.end - util::SimTime::zero()) +
                   util::Duration::millis(500)};
    run_scenario(s);
  }
}

// -- shape 4: the paper's 27-cluster deployment shape (2 scenarios) ----------

TEST(ShardedDifferential, FleetSmokeShape) {
  run_scenario({"fleet27-healthy", fleet_config(27, 8), {},
                util::Duration::millis(250)});
  {
    Scenario s{"fleet27-relay-blip", fleet_config(27, 8), {},
               util::Duration::millis(250)};
    const net::ComponentIndex stride = 2u * 8u + 2u;
    const net::ComponentIndex relay = 27u * stride + 27u;
    const net::ComponentIndex gateway13 = 27u * stride + 13u;
    s.actions = {{at_ms(80), relay, true},
                 {at_ms(120), gateway13, true},
                 {at_ms(140), relay, false},
                 {at_ms(200), gateway13, false}};
    run_scenario(s);
  }
}

// -- shape 5: the relay's own ordering (2 scenarios) -------------------------

TEST(ShardedDifferential, LossyRelay) {
  // Every relay frame draws from the loss RNG, so the oracle must replay
  // offers in exactly Fleet's transmit order for the lost set — and with it
  // every echo counter and trace line — to match.
  Scenario s{"relay-lossy", fleet_config(4, 4), {},
             util::Duration::millis(1500)};
  s.fleet.relay_backplane.frame_loss_rate = 0.05;
  run_scenario(s);

  // The scenario is only a check if frames are actually lost.
  sim::Simulator sim;
  cluster::Fleet fleet(sim, s.fleet);
  fleet.start();
  sim.run_until(util::SimTime::zero() + s.run);
  EXPECT_GT(fleet.relay_backplane().counters().lost_random, 0u);
}

TEST(ShardedDifferential, RelayTies) {
  // A 64-byte frame serializes in 5 us at 102.4 Mb/s; with 95 us of
  // propagation and a 100 us echo cadence, the first frame a tick puts on
  // the relay is delivered on the exact nanosecond of the next tick. Hub
  // deliveries and cluster events at one instant, and the relay offers both
  // make, must then order by key — the only corpus scenario where they meet.
  Scenario s{"relay-ties", fleet_config(4, 4), {},
             util::Duration::millis(30)};
  s.fleet.relay_backplane.bits_per_second = 102.4e6;
  s.fleet.relay_backplane.propagation_delay = util::Duration::micros(95);
  s.fleet.gateway_probe_interval = util::Duration::micros(100);
  s.fleet.gateway_probe_timeout = util::Duration::millis(1);
  run_scenario(s);
}

}  // namespace
}  // namespace drs

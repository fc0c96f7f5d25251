// Golden pin of the probe sweep's protocol output.
//
// Twenty seeded scenarios in three shapes — healthy clusters of varying size,
// single-NIC failures with recovery, and full scripted chaos campaigns — each
// reduce to one digest line in tests/golden/probe_corpus.txt: the trace's
// event count and byte length, FNV-1a digests of its canonical JSON (every
// protocol event kind including the ping_sent flood, so send instants and
// ordering are pinned to the nanosecond) and of the metrics snapshot, the
// run's counters, and its failover latencies. The full traces total about
// 12 MB, too much to check in; a digest still fails on any byte of drift.
// The file was generated while the per-peer scheduler the sweep replaced
// (one wheel event per probe send, one managed timeout per probe) still
// existed, and both schedulers reproduced it line for line.
//
// Two deliberate exclusions, both sim-layer observability rather than
// protocol behavior: queue_high_water trace events report the event-queue
// population, and "sim."-prefixed metrics (event slots, scheduled/executed
// counts) measure the same population. How many events the scheduler keeps
// pending is a performance detail; everything the protocol can observe is
// pinned.
//
// Chaos campaigns take no metrics snapshot, so their metrics digest is that
// of the empty string. Their lines carry the campaign's action and check
// counts instead, plus the trace ring's eviction count, which must be 0: a
// digest of a truncated trace would pin a truncated story.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "core/system.hpp"
#include "golden_file.hpp"
#include "net/network.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "util/hash.hpp"

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

// Drops the flat "sim.<name>":<int> entries from a canonical metrics JSON
// (names are keys in sorted flat maps, values plain integers, so each entry
// ends at the next ',' or '}').
std::string without_sim_metrics(std::string json) {
  std::size_t pos;
  while ((pos = json.find("\"sim.")) != std::string::npos) {
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
  return json;
}

/// Everything one scenario run contributes to its digest line.
struct Observed {
  std::vector<obs::TraceEvent> events;  // protocol_events of the run
  std::string metrics_json;             // registry snapshot minus sim.*
  std::string counters;                 // shape-specific "name=value" pairs
  /// Detection latencies (ns since injection) of every post-injection DOWN
  /// verdict, daemon by daemon in node order, each daemon's in trace order —
  /// empty for healthy runs.
  std::vector<std::int64_t> failover_ns;
  bool pristine = false;
};

std::string digest_line(const std::string& label, const Observed& observed) {
  const std::string trace = obs::to_canonical_json(observed.events);
  std::string line = label;
  line += " events=" + std::to_string(observed.events.size());
  line += " bytes=" + std::to_string(trace.size());
  line += " trace=" + util::to_hex64(util::fnv1a64(trace));
  line += " metrics=" + util::to_hex64(util::fnv1a64(observed.metrics_json));
  line += " " + observed.counters;
  line += observed.pristine ? " pristine=1" : " pristine=0";
  line += " failover_ns=[";
  for (std::size_t i = 0; i < observed.failover_ns.size(); ++i) {
    if (i > 0) line += ',';
    line += std::to_string(observed.failover_ns[i]);
  }
  return line + "]\n";
}

/// A hand-built cluster scenario: warm up, optionally fail one NIC and heal
/// it, converge. `fail_node < 0` keeps the cluster healthy throughout.
Observed run_cluster(std::uint16_t n, int fail_node) {
  sim::Simulator sim;
  obs::Tracer tracer(std::size_t{1} << 18);
  sim.set_tracer(&tracer);
  net::ClusterNetwork network(sim, {.node_count = n, .backplane = {}});
  core::DrsSystem system(network, chaos::fast_campaign_drs_config());
  system.start();
  sim.run_for(util::Duration::seconds(1));
  util::SimTime injected = util::SimTime::max();
  if (fail_node >= 0) {
    const net::ComponentIndex nic = net::ClusterNetwork::nic_component(
        static_cast<net::NodeId>(fail_node), 0);
    injected = sim.now();
    network.set_component_failed(nic, true);
    sim.run_for(util::Duration::seconds(2));
    network.set_component_failed(nic, false);
  }
  sim.run_for(util::Duration::seconds(2));

  Observed observed;
  observed.counters =
      "probes_sent=" + std::to_string(system.total_probes_sent()) +
      " control_messages=" + std::to_string(system.total_control_messages());
  observed.pristine = system.all_pristine();
  obs::MetricRegistry registry;
  core::snapshot_metrics(system, registry);
  observed.metrics_json = without_sim_metrics(registry.to_json());
  system.stop();
  EXPECT_EQ(tracer.evicted(), 0u) << "trace ring too small for n=" << n;
  observed.events = protocol_events(tracer.events());
  for (net::NodeId i = 0; i < n; ++i) {
    for (const obs::TraceEvent& e : observed.events) {
      if (e.kind == obs::TraceEventKind::kLinkChange && e.node == i &&
          e.b == static_cast<std::int64_t>(core::LinkState::kDown) &&
          e.at_ns >= injected.ns()) {
        observed.failover_ns.push_back(e.at_ns - injected.ns());
      }
    }
  }
  return observed;
}

/// A scripted chaos campaign.
Observed run_chaos(std::uint64_t seed, std::uint64_t campaign) {
  chaos::CampaignConfig config;
  config.capture_trace = true;
  const chaos::CampaignResult result =
      chaos::run_campaign(seed, campaign, config);
  EXPECT_EQ(result.trace_evicted, 0u) << "campaign " << campaign;
  Observed observed;
  observed.events = protocol_events(result.trace);
  observed.counters =
      "actions=" + std::to_string(result.actions_applied) +
      " checks=" + std::to_string(result.checks) +
      " trace_evicted=" + std::to_string(result.trace_evicted);
  observed.pristine = result.violations.empty();
  for (const double ms : result.failover_latencies_ms) {
    observed.failover_ns.push_back(static_cast<std::int64_t>(ms * 1e6));
  }
  for (const double ms : result.detection_delays_ms) {
    observed.failover_ns.push_back(static_cast<std::int64_t>(ms * 1e6));
  }
  return observed;
}

/// The whole corpus, one digest line per scenario.
std::string corpus() {
  std::string out;
  for (const int n : {2, 3, 4, 5, 8, 12}) {
    const Observed observed =
        run_cluster(static_cast<std::uint16_t>(n), /*fail_node=*/-1);
    EXPECT_TRUE(observed.pristine) << n;
    EXPECT_TRUE(observed.failover_ns.empty()) << n;
    out += digest_line("healthy n=" + std::to_string(n), observed);
  }
  for (const int n : {3, 4, 5, 8, 9, 10}) {
    const Observed observed =
        run_cluster(static_cast<std::uint16_t>(n), /*fail_node=*/1);
    // The fault must actually bite: every surviving node detects the DOWN.
    EXPECT_FALSE(observed.failover_ns.empty()) << n;
    EXPECT_TRUE(observed.pristine) << "n=" << n << " did not heal";
    out += digest_line("nic-failure n=" + std::to_string(n), observed);
  }
  for (std::uint64_t campaign = 0; campaign < 8; ++campaign) {
    const Observed observed = run_chaos(0xC4A05ULL, campaign);
    EXPECT_TRUE(observed.pristine) << campaign;
    out += digest_line("chaos campaign " + std::to_string(campaign), observed);
  }
  return out;
}

TEST(ProbeGolden, SweepReproducesThePinnedCorpus) {
  check_golden("probe_corpus.txt", corpus(), "probe corpus",
               " — regenerate with DRS_UPDATE_GOLDEN=1 only if the protocol "
               "behaviour change is intentional");
}

}  // namespace
}  // namespace drs

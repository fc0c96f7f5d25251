// Fleet-scale pinning: the paper's 27-cluster deployment as one simulation.
//
// The golden smoke run locks the fleet's observable aggregate — per-cluster
// probe totals, gateway echo counters, pristine state, end-to-end relay
// reachability — down to the byte. The remaining tests pin the properties
// the Fleet exists for: member clusters behave exactly like standalone
// clusters (isolation invariant), the flat component space addresses every
// cluster/gateway/relay part and rejects what lies past it, and
// relay-segment failures are detected and survive healing.
//
// To regenerate after an intentional protocol change:
//   DRS_UPDATE_GOLDEN=1 ./build/tests/test_cluster_fleet
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "chaos/campaign.hpp"
#include "cluster/fleet.hpp"
#include "core/system.hpp"
#include "golden_file.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace drs {
namespace {

/// The paper's deployment shape, on the fast campaign timings so half a
/// second of simulated time covers ten probe cycles.
cluster::FleetConfig smoke_config() {
  cluster::FleetConfig config;
  config.clusters = 27;
  config.nodes_per_cluster = 8;
  config.drs = chaos::fast_campaign_drs_config();
  return config;
}

/// Deterministic integer report of a 500 ms fleet run: protocol-level
/// counters only (no allocator internals), so the golden survives unrelated
/// refactors but pins every probe the fleet sends.
std::string fleet_smoke_report() {
  sim::Simulator sim;
  cluster::Fleet fleet(sim, smoke_config());
  fleet.start();
  fleet.settle(util::Duration::millis(500));

  std::ostringstream report;
  report << "{\"clusters\":" << fleet.cluster_count()
         << ",\"nodes_per_cluster\":" << fleet.nodes_per_cluster();
  report << ",\"cluster_probes_sent\":[";
  for (net::ClusterId c = 0; c < fleet.cluster_count(); ++c) {
    report << (c == 0 ? "" : ",") << fleet.system(c).total_probes_sent();
  }
  report << "],\"gateway_echoes\":[";
  for (net::ClusterId c = 0; c < fleet.cluster_count(); ++c) {
    report << (c == 0 ? "" : ",") << fleet.gateway_icmp(c).probes_sent();
  }
  report << "],\"gateway_timeouts\":[";
  for (net::ClusterId c = 0; c < fleet.cluster_count(); ++c) {
    report << (c == 0 ? "" : ",") << fleet.gateway_icmp(c).probes_timed_out();
  }
  report << "],\"all_pristine\":" << (fleet.all_pristine() ? "true" : "false");
  const bool reachable = fleet.test_relay_reachability(
      0, static_cast<net::ClusterId>(fleet.cluster_count() - 1u));
  report << ",\"relay_0_to_26\":" << (reachable ? "true" : "false") << "}";
  fleet.stop();
  return report.str();
}

TEST(ClusterFleet, TwentySevenClusterSmokeGolden) {
  const std::string actual = fleet_smoke_report();
  // Rerun identity first: the golden is only meaningful if the scenario is
  // a pure function of the config.
  ASSERT_EQ(fleet_smoke_report(), actual);
  check_golden("fleet_smoke_27.json", actual, "fleet report");
}

// Isolation invariant: a fleet member cluster reuses the standalone subnet
// plan verbatim and shares nothing but the simulator, so its DRS system
// must produce exactly the counters a standalone cluster of the same size
// produces over the same simulated span.
TEST(ClusterFleet, MemberClusterMatchesStandaloneCluster) {
  cluster::FleetConfig config = smoke_config();
  config.clusters = 3;
  config.nodes_per_cluster = 5;
  sim::Simulator fleet_sim;
  cluster::Fleet fleet(fleet_sim, config);
  fleet.start();
  fleet.settle(util::Duration::seconds(1));

  sim::Simulator solo_sim;
  net::ClusterNetwork solo(solo_sim,
                           {.node_count = config.nodes_per_cluster,
                            .backplane = config.backplane});
  core::DrsSystem solo_system(solo, config.drs);
  solo_system.start();
  solo_sim.run_for(util::Duration::seconds(1));

  for (net::ClusterId c = 0; c < config.clusters; ++c) {
    EXPECT_EQ(fleet.system(c).total_probes_sent(),
              solo_system.total_probes_sent())
        << "cluster " << c;
    EXPECT_EQ(fleet.system(c).total_control_messages(),
              solo_system.total_control_messages())
        << "cluster " << c;
    EXPECT_TRUE(fleet.system(c).all_pristine()) << "cluster " << c;
  }
  EXPECT_TRUE(solo_system.all_pristine());
  solo_system.stop();
  fleet.stop();
}

TEST(ClusterFleet, ComponentSpaceAddressesEveryPart) {
  cluster::FleetConfig config = smoke_config();
  config.clusters = 4;
  config.nodes_per_cluster = 3;
  sim::Simulator sim;
  cluster::Fleet fleet(sim, config);

  const auto stride =
      static_cast<net::ComponentIndex>(2u * config.nodes_per_cluster + 2u);
  ASSERT_EQ(fleet.component_count(),
            config.clusters * stride + config.clusters + 1u);

  // The three regions start healthy, then fail and heal cleanly.
  for (net::ComponentIndex i = 0; i < fleet.component_count(); ++i) {
    EXPECT_FALSE(fleet.component_failed(i)) << i;
  }
  const net::ComponentIndex nic =
      fleet.cluster_component(2, net::ClusterNetwork::nic_component(1, 0));
  const net::ComponentIndex gateway = fleet.gateway_component(3);
  const net::ComponentIndex relay = fleet.relay_backplane_component();
  for (const net::ComponentIndex index : {nic, gateway, relay}) {
    fleet.set_component_failed(index, true);
    EXPECT_TRUE(fleet.component_failed(index)) << index;
  }
  // A member cluster sees the flat-index failure through its own local view.
  EXPECT_TRUE(fleet.cluster(2).component_failed(
      net::ClusterNetwork::nic_component(1, 0)));
  for (const net::ComponentIndex index : {nic, gateway, relay}) {
    fleet.set_component_failed(index, false);
    EXPECT_FALSE(fleet.component_failed(index)) << index;
  }
}

// Fleet shares ShardedFleet's component map and contract: an index past the
// space throws instead of landing on the relay backplane, and a fleet needs
// at least one cluster.
TEST(ClusterFleet, RejectsIndicesPastTheSpaceAndEmptyFleets) {
  cluster::FleetConfig config = smoke_config();
  config.clusters = 3;
  config.nodes_per_cluster = 4;
  sim::Simulator sim;
  cluster::Fleet fleet(sim, config);
  ASSERT_EQ(fleet.component_count(), 34u);
  const util::SimTime at = util::SimTime::zero() + util::Duration::millis(10);
  EXPECT_THROW(fleet.set_component_failed(39, true), std::out_of_range);
  EXPECT_THROW(fleet.schedule_component_failure(at, 39, true),
               std::out_of_range);
  EXPECT_THROW((void)fleet.component_failed(34), std::out_of_range);
  sim.run_until(at);
  EXPECT_FALSE(fleet.relay_backplane().failed());

  config.clusters = 0;
  sim::Simulator empty_sim;
  EXPECT_THROW((cluster::Fleet{empty_sim, config}), std::invalid_argument);
}

TEST(ClusterFleet, RelayFailureIsDetectedAndHeals) {
  cluster::FleetConfig config = smoke_config();
  config.clusters = 3;
  config.nodes_per_cluster = 3;
  sim::Simulator sim;
  cluster::Fleet fleet(sim, config);
  fleet.start();
  fleet.settle(util::Duration::millis(300));
  ASSERT_TRUE(fleet.test_relay_reachability(0, 2));

  fleet.set_component_failed(fleet.relay_backplane_component(), true);
  EXPECT_FALSE(fleet.test_relay_reachability(0, 2));
  // Cluster-internal traffic is unaffected: islands never touch the relay.
  fleet.settle(util::Duration::millis(300));
  EXPECT_TRUE(fleet.all_pristine());

  fleet.set_component_failed(fleet.relay_backplane_component(), false);
  EXPECT_TRUE(fleet.test_relay_reachability(0, 2));
  fleet.stop();
}

}  // namespace
}  // namespace drs

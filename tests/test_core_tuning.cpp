// Detector tuning features: adaptive probe timeouts and flap damping.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "net/failure.hpp"

namespace drs::core {
namespace {

using namespace drs::util::literals;

util::Duration detection_latency(DrsSystem& system, sim::Simulator& sim,
                                 net::ClusterNetwork& network,
                                 net::ComponentIndex component) {
  EXPECT_EQ(system.daemon(0).links().down_count(), 0u);
  const util::SimTime injected = sim.now();
  network.set_component_failed(component, true);
  // Step to node 0's first DOWN verdict.
  const util::SimTime detected = sim.step_until(
      injected + 2_s, [&] { return system.daemon(0).links().down_count() > 0; });
  return detected == util::SimTime::max() ? util::Duration::max()
                                          : detected - injected;
}

// --- Adaptive probe timeout -----------------------------------------------------

TEST(AdaptiveTimeout, CutsDetectionLatency) {
  auto run = [](bool adaptive) {
    sim::Simulator sim;
    net::ClusterNetwork network(sim, {.node_count = 6, .backplane = {}});
    DrsConfig config;
    config.probe_interval = 100_ms;
    config.probe_timeout = 80_ms;
    config.adaptive_timeout = adaptive;
    config.min_probe_timeout = 2_ms;
    DrsSystem system(network, config);
    system.start();
    sim.run_for(1_s);  // let the RTT estimator converge
    return detection_latency(system, sim, network,
                             net::ClusterNetwork::nic_component(1, 0));
  };
  const util::Duration fixed = run(false);
  const util::Duration adaptive = run(true);
  ASSERT_NE(fixed, util::Duration::max());
  ASSERT_NE(adaptive, util::Duration::max());
  // Fixed: ~2 cycles of waiting for the 80 ms timeout. Adaptive: timeouts
  // collapse to the 2 ms floor, so detection is bounded by probe pacing.
  EXPECT_LT(adaptive + 50_ms, fixed);
}

TEST(AdaptiveTimeout, RespectsFloorUnderJitter) {
  // 1 ms jitter on the medium: the adaptive timeout must not generate a
  // stream of false losses (the floor and the 4*rttvar term absorb it).
  sim::Simulator sim;
  net::Backplane::Config jittery;
  jittery.jitter = 1_ms;
  jittery.seed = 3;
  net::ClusterNetwork network(sim, {.node_count = 6, .backplane = jittery});
  DrsConfig config;
  config.adaptive_timeout = true;
  config.min_probe_timeout = 5_ms;  // > 2 * max one-way jitter
  DrsSystem system(network, config);
  system.start();
  sim.run_for(5_s);
  for (net::NodeId i = 0; i < 6; ++i) {
    EXPECT_EQ(system.daemon(i).links().down_count(), 0u) << "node " << i;
    EXPECT_EQ(system.daemon(i).metrics().links_declared_down, 0u);
  }
}

TEST(AdaptiveTimeout, FirstProbesUseConfiguredTimeout) {
  // Before any RTT sample exists the fixed timeout applies (no division by
  // zero, no zero-duration timers).
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 3, .backplane = {}});
  DrsConfig config;
  config.adaptive_timeout = true;
  DrsSystem system(network, config);
  system.start();
  sim.run_for(50_ms);
  EXPECT_GT(system.total_probes_sent(), 0u);
  for (net::NodeId i = 0; i < 3; ++i) {
    EXPECT_EQ(system.daemon(i).metrics().probes_failed, 0u);
  }
}

TEST(AdaptiveTimeout, SweeperRecordsStayWithinTheInFlightWindow) {
  // Timeouts shrink once RTT samples arrive, so deadlines stop following
  // send order and records land mid-ring. The scan must still drop the
  // records of replied probes as it passes them: the record count stays
  // within one cycle of cluster-wide probes instead of growing with every
  // send.
  constexpr std::uint16_t kNodes = 8;
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = kNodes, .backplane = {}});
  DrsConfig config;
  config.adaptive_timeout = true;
  // Declared before the daemons so it outlives them (as in DrsSystem).
  ProbeScheduler scheduler(sim);
  std::vector<std::unique_ptr<proto::IcmpService>> icmps;
  std::vector<std::unique_ptr<DrsDaemon>> daemons;
  for (net::NodeId i = 0; i < kNodes; ++i) {
    icmps.push_back(std::make_unique<proto::IcmpService>(network.host(i)));
    daemons.push_back(std::make_unique<DrsDaemon>(
        network.host(i), *icmps.back(), kNodes, config, scheduler));
    daemons.back()->start();
  }
  sim.run_for(1_s);  // warm-up: the RTT estimators converge
  const std::size_t probes_per_cycle = 2u * kNodes * (kNodes - 1u);
  for (int step = 1; step <= 50; ++step) {
    sim.run_for(100_ms);
    ASSERT_LE(scheduler.record_count(), probes_per_cycle)
        << "after " << step * 100 << " ms past warm-up";
  }
  for (net::NodeId i = 0; i < kNodes; ++i) {
    EXPECT_EQ(daemons[i]->metrics().probes_failed, 0u) << "node " << i;
  }
}

// --- Flap damping ----------------------------------------------------------------

TEST(FlapDamping, TableSuppressesAfterRepeatedFlaps) {
  LinkPolicy policy;
  policy.failures_to_down = 1;
  policy.successes_to_up = 1;
  policy.flap_threshold = 2;
  policy.flap_window = 10_s;
  policy.flap_hold = 5_s;
  LinkStateTable table(0, 4, policy);
  auto at = [](std::int64_t ms) {
    return util::SimTime::zero() + util::Duration::millis(ms);
  };
  // Flap 1 and 2: normal down/up cycles.
  table.record_probe(1, 0, false, at(0));
  table.record_probe(1, 0, true, at(100));
  table.record_probe(1, 0, false, at(200));
  table.record_probe(1, 0, true, at(300));
  EXPECT_EQ(table.state(1, 0), LinkState::kUp);
  EXPECT_EQ(table.suppressions(), 0u);
  // Flap 3 exceeds the budget: the link is held DOWN.
  table.record_probe(1, 0, false, at(400));
  EXPECT_EQ(table.suppressions(), 1u);
  EXPECT_TRUE(table.suppressed(1, 0, at(500)));
  table.record_probe(1, 0, true, at(500));
  EXPECT_EQ(table.state(1, 0), LinkState::kDown);  // success ignored in hold
  // After the hold expires, recovery works again.
  table.record_probe(1, 0, true, at(5500));
  EXPECT_EQ(table.state(1, 0), LinkState::kUp);
  EXPECT_FALSE(table.suppressed(1, 0, at(5500)));
}

TEST(FlapDamping, OldFlapsAgeOutOfTheWindow) {
  LinkPolicy policy;
  policy.failures_to_down = 1;
  policy.flap_threshold = 2;
  policy.flap_window = 1_s;
  policy.flap_hold = 5_s;
  LinkStateTable table(0, 4, policy);
  auto at = [](std::int64_t ms) {
    return util::SimTime::zero() + util::Duration::millis(ms);
  };
  // Three flaps spread over 3 seconds: never more than 2 within any 1 s
  // window, so no suppression.
  for (int flap = 0; flap < 3; ++flap) {
    table.record_probe(1, 0, false, at(flap * 1500));
    table.record_probe(1, 0, true, at(flap * 1500 + 100));
  }
  EXPECT_EQ(table.suppressions(), 0u);
}

TEST(FlapDamping, DisabledByDefault) {
  LinkStateTable table(0, 4, LinkPolicy{});
  auto at = [](std::int64_t ms) {
    return util::SimTime::zero() + util::Duration::millis(ms);
  };
  for (int flap = 0; flap < 20; ++flap) {
    table.record_probe(1, 0, false, at(flap * 10));
    table.record_probe(1, 0, false, at(flap * 10 + 1));
    table.record_probe(1, 0, true, at(flap * 10 + 2));
  }
  EXPECT_EQ(table.suppressions(), 0u);
  EXPECT_FALSE(table.suppressed(1, 0, at(1000)));
}

TEST(FlapDamping, ReducesRouteChurnOnFlappingNic) {
  auto run = [](std::uint32_t threshold) {
    sim::Simulator sim;
    net::ClusterNetwork network(sim, {.node_count = 5, .backplane = {}});
    DrsConfig config;
    config.probe_interval = 50_ms;
    config.probe_timeout = 20_ms;
    config.failures_to_down = 1;
    config.flap_threshold = threshold;
    config.flap_window = 5_s;
    config.flap_hold = 3_s;
    DrsSystem system(network, config);
    system.start();
    sim.run_for(300_ms);
    // A NIC that flaps every 200 ms for 6 seconds.
    net::FailureInjector injector(network);
    const auto component = net::ClusterNetwork::nic_component(1, 0);
    for (int i = 0; i < 30; ++i) {
      injector.schedule(net::FailureAction{
          sim.now() + util::Duration::millis(200 * i), component, i % 2 == 0});
    }
    sim.run_for(8_s);
    return system.daemon(0).metrics().route_changes;
  };
  const std::uint64_t undamped = run(0);
  const std::uint64_t damped = run(2);
  EXPECT_GT(undamped, damped * 2) << "undamped=" << undamped
                                  << " damped=" << damped;
}

TEST(FlapDamping, SuppressedLinkStillRecoversEventually) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 5, .backplane = {}});
  DrsConfig config;
  config.probe_interval = 50_ms;
  config.probe_timeout = 20_ms;
  config.failures_to_down = 1;
  config.flap_threshold = 1;
  config.flap_window = 5_s;
  config.flap_hold = 1_s;
  DrsSystem system(network, config);
  system.start();
  sim.run_for(300_ms);
  // Two quick flaps trigger suppression...
  net::FailureInjector injector(network);
  const auto component = net::ClusterNetwork::nic_component(1, 0);
  injector.apply_now(component, true);
  sim.run_for(200_ms);
  injector.apply_now(component, false);
  sim.run_for(200_ms);
  injector.apply_now(component, true);
  sim.run_for(200_ms);
  injector.apply_now(component, false);
  // ... but once the link stays good past the hold, service returns to
  // direct routing.
  sim.run_for(5_s);
  EXPECT_EQ(system.daemon(0).peer_mode(1), PeerRouteMode::kDirect);
  EXPECT_TRUE(system.test_reachability(0, 1));
}

// --- Warm-standby relays --------------------------------------------------------

DrsConfig standby_config(bool warm) {
  DrsConfig c;
  c.probe_interval = 50_ms;
  c.probe_timeout = 20_ms;
  c.failures_to_down = 2;
  c.discover_timeout = 40_ms;
  c.warm_standby = warm;
  return c;
}

/// Time from the second direct link's DOWN verdict to relay mode.
util::Duration relay_switch_latency(bool warm) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 6, .backplane = {}});
  DrsSystem system(network, standby_config(warm));
  system.start();
  sim.run_for(500_ms);
  // First leg dies; with warm standby the daemon pre-arms a relay now.
  network.set_component_failed(net::ClusterNetwork::nic_component(0, 1), true);
  sim.run_for(1_s);
  // Second leg dies: step to the DOWN verdict on it, then to relay mode.
  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  const util::SimTime end = sim.now() + 1_s;
  const DrsDaemon& daemon = system.daemon(0);
  const util::SimTime down_verdict = sim.step_until(end, [&] {
    return daemon.links().state(1, net::kNetworkA) == LinkState::kDown;
  });
  const util::SimTime relay_mode = sim.step_until(
      end, [&] { return daemon.peer_mode(1) == PeerRouteMode::kRelay; });
  EXPECT_NE(down_verdict, util::SimTime::max());
  EXPECT_NE(relay_mode, util::SimTime::max());
  return relay_mode - down_verdict;
}

TEST(WarmStandby, ActivatesInstantlyOnSecondFailure) {
  const util::Duration cold = relay_switch_latency(false);
  const util::Duration warm = relay_switch_latency(true);
  // Cold path pays the discover round; warm is same-event.
  EXPECT_GE(cold, standby_config(false).discover_timeout);
  EXPECT_EQ(warm, util::Duration::zero());
}

TEST(WarmStandby, CountsActivations) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 6, .backplane = {}});
  DrsSystem system(network, standby_config(true));
  system.start();
  sim.run_for(500_ms);
  network.set_component_failed(net::ClusterNetwork::nic_component(0, 1), true);
  sim.run_for(1_s);
  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(1_s);
  EXPECT_EQ(system.daemon(0).metrics().standby_activations, 1u);
  EXPECT_EQ(system.daemon(0).peer_mode(1), PeerRouteMode::kRelay);
  EXPECT_TRUE(system.test_reachability(0, 1));
}

TEST(WarmStandby, HealInvalidatesStandby) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 6, .backplane = {}});
  DrsSystem system(network, standby_config(true));
  system.start();
  sim.run_for(500_ms);
  network.set_component_failed(net::ClusterNetwork::nic_component(0, 1), true);
  sim.run_for(1_s);  // standby armed
  network.heal_all();
  sim.run_for(1_s);  // back to direct, standby cleared
  // Kill the previous standby relay (node 2) entirely, then cross-split:
  // the daemon must rediscover (node 3) instead of blindly using stale state.
  network.set_component_failed(net::ClusterNetwork::nic_component(2, 0), true);
  network.set_component_failed(net::ClusterNetwork::nic_component(2, 1), true);
  network.set_component_failed(net::ClusterNetwork::nic_component(0, 1), true);
  sim.run_for(1_s);
  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(2_s);
  ASSERT_TRUE(system.daemon(0).relay_for(1).has_value());
  EXPECT_EQ(*system.daemon(0).relay_for(1), 3);
  EXPECT_TRUE(system.test_reachability(0, 1));
}

TEST(WarmStandby, NoStandbyTrafficWhenDisabled) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 6, .backplane = {}});
  DrsSystem system(network, standby_config(false));
  system.start();
  sim.run_for(500_ms);
  network.set_component_failed(net::ClusterNetwork::nic_component(0, 1), true);
  sim.run_for(1_s);
  // One leg down, other up: no discovery should have run at all.
  EXPECT_EQ(system.daemon(0).metrics().discoveries_started, 0u);
}

}  // namespace
}  // namespace drs::core

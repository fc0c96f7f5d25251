#include "net/failure.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace drs::net {
namespace {

using namespace drs::util::literals;

class ClusterNetworkTest : public ::testing::Test {
 protected:
  ClusterNetworkTest() : network(sim, {.node_count = 6, .backplane = {}}) {}
  sim::Simulator sim;
  ClusterNetwork network;
};

TEST(ClusterNetworkSize, RejectsSizesTheAddressPlanCannotNumber) {
  sim::Simulator sim;
  EXPECT_THROW(ClusterNetwork(sim, {.node_count = 0, .backplane = {}}),
               std::invalid_argument);
  EXPECT_THROW(ClusterNetwork(sim, {.node_count = 1, .backplane = {}}),
               std::invalid_argument);
  EXPECT_THROW(
      ClusterNetwork(sim, {.node_count = kMaxClusterNodes + 1, .backplane = {}}),
      std::invalid_argument);
  EXPECT_NO_THROW(ClusterNetwork(sim, {.node_count = 2, .backplane = {}}));
}

TEST_F(ClusterNetworkTest, ComponentCountMatchesModel) {
  EXPECT_EQ(network.component_count(), 2u * 6 + 2);
}

TEST_F(ClusterNetworkTest, ComponentNumberingRoundTrips) {
  for (ComponentIndex c = 0; c < network.component_count(); ++c) {
    const ComponentRef ref = network.component(c);
    if (ref.kind == ComponentRef::Kind::kNic) {
      EXPECT_EQ(ClusterNetwork::nic_component(ref.node, ref.network), c);
    } else {
      EXPECT_EQ(network.backplane_component(ref.network), c);
    }
  }
}

TEST_F(ClusterNetworkTest, NicComponentsComeFirstThenBackplanes) {
  EXPECT_EQ(network.component(0).kind, ComponentRef::Kind::kNic);
  EXPECT_EQ(network.component(0).node, 0);
  EXPECT_EQ(network.component(0).network, 0);
  EXPECT_EQ(network.component(1).network, 1);
  EXPECT_EQ(network.component(11).node, 5);
  EXPECT_EQ(network.component(12).kind, ComponentRef::Kind::kBackplane);
  EXPECT_EQ(network.component(12).network, 0);
  EXPECT_EQ(network.component(13).network, 1);
}

TEST_F(ClusterNetworkTest, AddressAndMacPlanApplied) {
  for (NodeId i = 0; i < 6; ++i) {
    for (NetworkId k = 0; k < 2; ++k) {
      EXPECT_EQ(network.host(i).nic(k).ip(), cluster_ip(k, i));
      EXPECT_EQ(network.host(i).nic(k).mac(), cluster_mac(k, i));
      EXPECT_EQ(network.host(i).nic(k).backplane(), &network.backplane(k));
    }
  }
}

TEST_F(ClusterNetworkTest, BootRoutingTablesHaveBothSubnets) {
  const auto& table = network.host(2).routing_table();
  EXPECT_EQ(table.routes().size(), 2u);
  ASSERT_TRUE(table.lookup(cluster_ip(0, 4)).has_value());
  EXPECT_EQ(table.lookup(cluster_ip(0, 4))->out_ifindex, 0);
  ASSERT_TRUE(table.lookup(cluster_ip(1, 4)).has_value());
  EXPECT_EQ(table.lookup(cluster_ip(1, 4))->out_ifindex, 1);
}

TEST_F(ClusterNetworkTest, SetComponentFailedHitsTheRightPart) {
  network.set_component_failed(ClusterNetwork::nic_component(3, 1), true);
  EXPECT_TRUE(network.host(3).nic(1).failed());
  EXPECT_FALSE(network.host(3).nic(0).failed());
  EXPECT_TRUE(network.component_failed(ClusterNetwork::nic_component(3, 1)));

  network.set_component_failed(network.backplane_component(0), true);
  EXPECT_TRUE(network.backplane(0).failed());
  EXPECT_FALSE(network.backplane(1).failed());

  network.heal_all();
  for (ComponentIndex c = 0; c < network.component_count(); ++c) {
    EXPECT_FALSE(network.component_failed(c));
  }
}

TEST_F(ClusterNetworkTest, InjectorAppliesAtScheduledTime) {
  FailureInjector injector(network);
  std::vector<FailureAction> applied;
  injector.set_observer(
      [&](const FailureAction& action) { applied.push_back(action); });
  const ComponentIndex target = ClusterNetwork::nic_component(1, 0);
  injector.schedule_outage(util::SimTime::zero() + 10_ms, target, 20_ms);
  sim.run_for(5_ms);
  EXPECT_FALSE(network.component_failed(target));
  EXPECT_EQ(injector.applied(), 0u);
  sim.run_for(10_ms);  // t = 15 ms
  EXPECT_TRUE(network.component_failed(target));
  sim.run_for(20_ms);  // t = 35 ms
  EXPECT_FALSE(network.component_failed(target));
  EXPECT_EQ(injector.applied(), 2u);
  ASSERT_EQ(applied.size(), 2u);
  EXPECT_TRUE(applied[0].fail);
  EXPECT_FALSE(applied[1].fail);
  EXPECT_EQ(applied[0].at, util::SimTime::zero() + 10_ms);
  EXPECT_EQ(applied[1].at, util::SimTime::zero() + 30_ms);
}

TEST_F(ClusterNetworkTest, InjectorCountsCurrentlyFailed) {
  FailureInjector injector(network);
  EXPECT_EQ(injector.currently_failed(), 0u);
  injector.apply_now(0, true);
  injector.apply_now(5, true);
  EXPECT_EQ(injector.currently_failed(), 2u);
  injector.apply_now(0, false);
  EXPECT_EQ(injector.currently_failed(), 1u);
}

TEST_F(ClusterNetworkTest, ScheduleScriptAppliesOutOfOrderActions) {
  FailureInjector injector(network);
  std::vector<ComponentIndex> applied;
  injector.set_observer(
      [&](const FailureAction& action) { applied.push_back(action.component); });
  injector.schedule_script({{util::SimTime::zero() + 30_ms, 2, false},
                            {util::SimTime::zero() + 10_ms, 2, true},
                            {util::SimTime::zero() + 20_ms, 7, true}});
  sim.run_for(15_ms);
  EXPECT_TRUE(network.component_failed(2));
  sim.run_for(20_ms);  // t = 35 ms
  EXPECT_FALSE(network.component_failed(2));
  EXPECT_TRUE(network.component_failed(7));
  EXPECT_EQ(injector.applied(), 3u);
  // The observer sees actions in application order, not script order.
  EXPECT_EQ(applied, (std::vector<ComponentIndex>{2, 7, 2}));
}

TEST_F(ClusterNetworkTest, ObserverSeesEveryAppliedAction) {
  FailureInjector injector(network);
  std::vector<FailureAction> seen;
  injector.set_observer(
      [&](const FailureAction& action) { seen.push_back(action); });
  injector.apply_now(4, true);
  injector.schedule_outage(util::SimTime::zero() + 5_ms, 9, 5_ms);
  sim.run_for(20_ms);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].component, 4u);
  EXPECT_TRUE(seen[0].fail);
  EXPECT_EQ(seen[1].component, 9u);
  EXPECT_TRUE(seen[1].fail);
  EXPECT_FALSE(seen[2].fail);
  EXPECT_EQ(seen[2].at, util::SimTime::zero() + 10_ms);
}

TEST(ComponentRef, Describes) {
  EXPECT_EQ((ComponentRef{ComponentRef::Kind::kNic, 3, 1}).to_string(),
            "nic(node=3, net=1)");
  EXPECT_EQ((ComponentRef{ComponentRef::Kind::kBackplane, 0, 1}).to_string(),
            "backplane(1)");
}

}  // namespace
}  // namespace drs::net

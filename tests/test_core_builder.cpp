// DrsConfig::validate + DrsSystemBuilder: descriptive rejection of
// inconsistent knob combinations at every entry point (DrsSystem ctor,
// builder, chaos runner), and fluent one-expression deployment including
// pre-seeded failures.
#include <gtest/gtest.h>

#include <stdexcept>

#include "chaos/runner.hpp"
#include "core/builder.hpp"
#include "core/system.hpp"

namespace {

using namespace drs;
using namespace drs::util::literals;

// --- DrsConfig::validate ----------------------------------------------------

TEST(DrsConfigValidate, DefaultConfigIsValid) {
  EXPECT_FALSE(core::DrsConfig{}.validate().has_value());
}

TEST(DrsConfigValidate, TimeoutMustBeBelowInterval) {
  core::DrsConfig config;
  config.probe_timeout = config.probe_interval;
  const auto error = config.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("probe_timeout"), std::string::npos) << *error;
  EXPECT_NE(error->find("probe_interval"), std::string::npos) << *error;
}

TEST(DrsConfigValidate, MinTimeoutMustNotExceedTimeout) {
  core::DrsConfig config;
  config.min_probe_timeout = config.probe_timeout + 1_ms;
  const auto error = config.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("min_probe_timeout"), std::string::npos) << *error;
}

TEST(DrsConfigValidate, RejectsNonPositiveDurationsAndCounts) {
  core::DrsConfig config;
  config.probe_interval = util::Duration::zero();
  EXPECT_TRUE(config.validate().has_value());

  config = core::DrsConfig{};
  config.failures_to_down = 0;
  EXPECT_TRUE(config.validate().has_value());

  config = core::DrsConfig{};
  config.successes_to_up = 0;
  EXPECT_TRUE(config.validate().has_value());

  config = core::DrsConfig{};
  config.allow_relay = true;
  config.discover_timeout = util::Duration::zero();
  EXPECT_TRUE(config.validate().has_value());
}

TEST(DrsConfigValidate, WarmStandbyRequiresRelay) {
  core::DrsConfig config;
  config.warm_standby = true;
  config.allow_relay = false;
  const auto error = config.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("warm_standby"), std::string::npos) << *error;
}

TEST(DrsConfigValidate, FlapDampingNeedsWindowAndHold) {
  core::DrsConfig config;
  config.flap_threshold = 3;
  config.flap_window = util::Duration::zero();
  EXPECT_TRUE(config.validate().has_value());
}

// --- rejection at the entry points ------------------------------------------

TEST(DrsSystemCtor, ThrowsDescriptiveErrorOnInvalidConfig) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  core::DrsConfig config;
  config.probe_timeout = 2 * config.probe_interval;
  try {
    core::DrsSystem system(network, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("probe_timeout"), std::string::npos);
  }
}

TEST(ChaosRunner, RejectsInvalidCampaignConfig) {
  chaos::ChaosOptions options;
  options.campaigns = 1;
  options.campaign.drs.probe_timeout = options.campaign.drs.probe_interval;
  EXPECT_THROW(chaos::run_chaos(options), std::invalid_argument);
}

// --- the builder ------------------------------------------------------------

TEST(DrsSystemBuilder, BuildsARunningClusterInOneExpression) {
  auto cluster = core::DrsSystemBuilder()
                     .node_count(6)
                     .probe_interval(50_ms)
                     .probe_timeout(20_ms)
                     .build();
  EXPECT_EQ(cluster.system().node_count(), 6);
  cluster.settle(1_s);
  EXPECT_TRUE(cluster.test_reachability(0, 1));
  EXPECT_EQ(cluster.system().daemon(0).config().probe_interval, 50_ms);
}

TEST(DrsSystemBuilder, KnobCallsOverrideBaseConfig) {
  core::DrsConfig base;
  base.probe_interval = 200_ms;
  base.probe_timeout = 80_ms;
  auto cluster = core::DrsSystemBuilder()
                     .node_count(4)
                     .config(base)
                     .allow_relay(false)
                     .build();
  EXPECT_EQ(cluster.system().daemon(0).config().probe_interval, 200_ms);
  EXPECT_FALSE(cluster.system().daemon(0).config().allow_relay);
}

TEST(DrsSystemBuilder, PreSeededFailuresAreInForceBeforeStart) {
  // Node 1's primary NIC is dead from the first probe cycle: the cluster
  // comes up already degraded and DRS pins 0->1 to the secondary network.
  auto cluster = core::DrsSystemBuilder()
                     .node_count(4)
                     .probe_interval(50_ms)
                     .probe_timeout(20_ms)
                     .fail_component(net::ClusterNetwork::nic_component(1, 0))
                     .build();
  cluster.settle(2_s);
  EXPECT_TRUE(cluster.test_reachability(0, 1));
  EXPECT_EQ(cluster.system().daemon(0).peer_mode(1),
            core::PeerRouteMode::kViaNetworkB);
}

TEST(DrsSystemBuilder, ThrowsOnInvalidConfiguration) {
  EXPECT_THROW(core::DrsSystemBuilder()
                   .node_count(4)
                   .probe_timeout(2_s)  // above the 100 ms default interval
                   .build(),
               std::invalid_argument);
}

TEST(DrsSystemBuilder, AutoStartOffLeavesDaemonsIdle) {
  auto cluster =
      core::DrsSystemBuilder().node_count(4).auto_start(false).build();
  cluster.simulator().run_for(1_s);
  EXPECT_EQ(cluster.system().total_probes_sent(), 0u);
  cluster.system().start();
  cluster.settle(1_s);
  EXPECT_GT(cluster.system().total_probes_sent(), 0u);
}

// --- DrsSystemBuilder::with_policy ------------------------------------------

TEST(DrsSystemBuilderPolicy, BuildsAnyRegisteredPolicyByName) {
  auto cluster = core::DrsSystemBuilder()
                     .node_count(6)
                     .with_policy("static_resilient")
                     .build();
  EXPECT_FALSE(cluster.has_system());
  ASSERT_TRUE(cluster.has_policy());
  EXPECT_STREQ(cluster.policy().name(), "static_resilient");
  cluster.settle(1_s);
  EXPECT_TRUE(cluster.test_reachability(0, 1));
}

TEST(DrsSystemBuilderPolicy, DrsByNameStillExposesTheSystem) {
  auto cluster = core::DrsSystemBuilder()
                     .node_count(4)
                     .with_policy("drs")
                     .probe_interval(50_ms)
                     .probe_timeout(20_ms)
                     .build();
  ASSERT_TRUE(cluster.has_system());
  ASSERT_TRUE(cluster.has_policy());
  EXPECT_EQ(cluster.system().daemon(0).config().probe_interval, 50_ms);
  cluster.settle(1_s);
  EXPECT_TRUE(cluster.test_reachability(0, 1));
}

TEST(DrsSystemBuilderPolicy, UnknownNameListsRegisteredNames) {
  try {
    (void)core::DrsSystemBuilder().with_policy("bgp").build();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("bgp"), std::string::npos) << what;
    EXPECT_NE(what.find("static_resilient"), std::string::npos) << what;
    EXPECT_NE(what.find("alternate_path"), std::string::npos) << what;
  }
}

TEST(DrsSystemBuilderPolicy, InvalidPolicyParamsRejected) {
  policy::PolicyParams params;
  params.alternate_path.notify_delay = util::Duration::zero();
  EXPECT_THROW(core::DrsSystemBuilder()
                   .with_policy("alternate_path", params)
                   .build(),
               std::invalid_argument);
}

TEST(DrsSystemBuilderPolicy, SystemAccessorThrowsWithoutDrs) {
  auto cluster =
      core::DrsSystemBuilder().node_count(4).with_policy("static").build();
  EXPECT_THROW(cluster.system(), std::logic_error);
}

TEST(DrsSystemBuilderPolicy, PolicyAccessorThrowsOnLegacyPath) {
  auto cluster = core::DrsSystemBuilder().node_count(4).build();
  EXPECT_TRUE(cluster.has_system());
  EXPECT_FALSE(cluster.has_policy());
  EXPECT_THROW(cluster.policy(), std::logic_error);
}

TEST(DrsSystemBuilderPolicy, PreSeededFailureVisibleToPrecomputedPolicy) {
  // static_resilient resolves at start() against the already-failed NIC:
  // 0 -> 1 must come up routed over network B with zero protocol traffic.
  auto cluster = core::DrsSystemBuilder()
                     .node_count(4)
                     .with_policy("static_resilient")
                     .fail_component(net::ClusterNetwork::nic_component(1, 0))
                     .build();
  cluster.settle(1_s);
  EXPECT_TRUE(cluster.test_reachability(0, 1));
  EXPECT_EQ(cluster.policy().control_messages(), 0u);
}

}  // namespace

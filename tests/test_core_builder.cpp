// DrsConfig::validate + DrsSystemBuilder: descriptive rejection of
// inconsistent knob combinations at every entry point (DrsSystem ctor,
// chaos runner), and one-expression deployment of a running cluster.
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
  auto cluster = core::DrsSystemBuilder().node_count(6).build();
  EXPECT_EQ(cluster.system().node_count(), 6);
  cluster.settle(1_s);
  EXPECT_GT(cluster.system().total_probes_sent(), 0u);
  EXPECT_TRUE(cluster.test_reachability(0, 1));
}

}  // namespace

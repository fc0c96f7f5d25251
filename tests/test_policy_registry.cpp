// The policy registry: stable sorted names, validation routed through each
// policy's parameter struct, descriptive unknown-name failures, and the
// uniform control_messages() overhead hook across every registered policy.
#include "policy/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace drs::policy {
namespace {

using namespace drs::util::literals;

TEST(PolicyRegistry, NamesAreSortedAndComplete) {
  const std::vector<std::string> names = policy_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  const std::vector<std::string> expected = {
      "alternate_path", "drs", "ospf", "rip", "static", "static_resilient"};
  EXPECT_EQ(names, expected);
}

TEST(PolicyRegistry, EveryFactoryHasHelpText) {
  for (const std::string& name : policy_names()) {
    const PolicyFactory* factory = find_policy(name);
    ASSERT_NE(factory, nullptr) << name;
    ASSERT_NE(factory->help, nullptr) << name;
    EXPECT_GT(std::string(factory->help).size(), 10u) << name;
  }
}

TEST(PolicyRegistry, FindPolicyReturnsNullForUnknown) {
  EXPECT_NE(find_policy("drs"), nullptr);
  EXPECT_NE(find_policy("alternate_path"), nullptr);
  EXPECT_EQ(find_policy("bgp"), nullptr);
  EXPECT_EQ(find_policy(""), nullptr);
}

TEST(PolicyRegistry, DefaultParamsValidateForEveryPolicy) {
  const PolicyParams params;
  for (const std::string& name : policy_names()) {
    const auto error = validate_policy(name, params);
    EXPECT_FALSE(error.has_value()) << name << ": " << *error;
  }
}

TEST(PolicyRegistry, UnknownNameValidationListsRegisteredNames) {
  const auto error = validate_policy("ripv2", PolicyParams{});
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("ripv2"), std::string::npos) << *error;
  for (const std::string& name : policy_names()) {
    EXPECT_NE(error->find(name), std::string::npos) << *error;
  }
}

TEST(PolicyRegistry, PerPolicyParameterValidationIsRouted) {
  PolicyParams params;
  params.rip.advertise_interval = util::Duration::zero();
  EXPECT_TRUE(validate_policy("rip", params).has_value());
  EXPECT_FALSE(validate_policy("drs", params).has_value());  // others fine

  params = PolicyParams{};
  params.ospf.dead_interval = params.ospf.hello_interval;
  EXPECT_TRUE(validate_policy("ospf", params).has_value());

  params = PolicyParams{};
  params.drs.failures_to_down = 0;
  EXPECT_TRUE(validate_policy("drs", params).has_value());

  params = PolicyParams{};
  params.static_resilient.prefer_network = net::kNetworksPerHost;
  EXPECT_TRUE(validate_policy("static_resilient", params).has_value());

  params = PolicyParams{};
  params.alternate_path.notify_delay = util::Duration::zero();
  EXPECT_TRUE(validate_policy("alternate_path", params).has_value());
}

TEST(PolicyRegistry, MakePolicyThrowsDescriptivelyOnUnknownName) {
  sim::Simulator simulator;
  net::ClusterNetwork network(simulator, {.node_count = 4, .backplane = {}});
  try {
    (void)make_policy("bgp", network, PolicyParams{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("bgp"), std::string::npos) << what;
    EXPECT_NE(what.find("drs"), std::string::npos) << what;
  }
}

TEST(PolicyRegistry, MakePolicyThrowsOnInvalidParams) {
  sim::Simulator simulator;
  net::ClusterNetwork network(simulator, {.node_count = 4, .backplane = {}});
  PolicyParams params;
  params.rip.route_timeout = params.rip.advertise_interval;  // must exceed
  EXPECT_THROW((void)make_policy("rip", network, params),
               std::invalid_argument);
}

TEST(PolicyRegistry, ConstructedPoliciesReportTheirRegisteredName) {
  sim::Simulator simulator;
  net::ClusterNetwork network(simulator, {.node_count = 4, .backplane = {}});
  for (const std::string& name : policy_names()) {
    const auto policy = make_policy(name, network, PolicyParams{});
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(PolicyRegistry, OverheadHookIsUniformAcrossPolicies) {
  // Every policy reports through control_messages(); the precomputed and
  // static ones send nothing, the probing/advertising ones send plenty.
  for (const std::string& name : policy_names()) {
    sim::Simulator simulator;
    net::ClusterNetwork network(simulator, {.node_count = 4, .backplane = {}});
    const auto policy = make_policy(name, network, PolicyParams{});
    policy->start();
    simulator.run_for(30_s);
    const std::uint64_t messages = policy->control_messages();
    if (name == "static" || name == "static_resilient") {
      EXPECT_EQ(messages, 0u) << name;
    } else if (name == "alternate_path") {
      EXPECT_EQ(messages, 0u) << name;  // quiescent until a failure notice
    } else {
      EXPECT_GT(messages, 0u) << name;
    }
    policy->stop();
  }
}

TEST(PolicyRegistry, FailureHooksAreSafeForEveryPolicy) {
  // The default hooks are no-ops for probing policies and trigger
  // re-resolution for precomputed ones; none may crash or allocate routes
  // that break connectivity bookkeeping.
  for (const std::string& name : policy_names()) {
    sim::Simulator simulator;
    net::ClusterNetwork network(simulator, {.node_count = 4, .backplane = {}});
    const auto policy = make_policy(name, network, PolicyParams{});
    policy->start();
    simulator.run_for(1_s);
    const auto nic = net::ClusterNetwork::nic_component(1, 0);
    network.set_component_failed(nic, true);
    policy->on_component_failed(nic);
    simulator.run_for(1_s);
    network.set_component_failed(nic, false);
    policy->on_component_restored(nic);
    simulator.run_for(1_s);
    policy->stop();
  }
}

}  // namespace
}  // namespace drs::policy

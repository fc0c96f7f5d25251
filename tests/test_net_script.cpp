#include "net/script.hpp"

#include <gtest/gtest.h>

namespace drs::net {
namespace {

using namespace drs::util::literals;

TEST(Script, ParsesFailRestoreAndComments) {
  const auto result = parse_failure_script(R"(
# comment line
@1.5s fail nic 3 0     # node 3 net A
@2s   fail backplane 1

@4s   restore nic 3 0
)",
                                           8);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.actions.size(), 3u);
  EXPECT_EQ(result.actions[0].at, 1500_ms);
  EXPECT_EQ(result.actions[0].component.kind, ComponentRef::Kind::kNic);
  EXPECT_EQ(result.actions[0].component.node, 3);
  EXPECT_EQ(result.actions[0].component.network, 0);
  EXPECT_TRUE(result.actions[0].fail);
  EXPECT_EQ(result.actions[1].component.kind, ComponentRef::Kind::kBackplane);
  EXPECT_EQ(result.actions[1].component.network, 1);
  EXPECT_FALSE(result.actions[2].fail);
}

TEST(Script, ParsesAllDurationUnits) {
  const auto result = parse_failure_script(
      "@5ns fail nic 0 0\n@6us fail nic 0 1\n@7ms fail nic 1 0\n@8s fail nic 1 1\n",
      4);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.actions[0].at, 5_ns);
  EXPECT_EQ(result.actions[1].at, 6_us);
  EXPECT_EQ(result.actions[2].at, 7_ms);
  EXPECT_EQ(result.actions[3].at, 8_s);
}

TEST(Script, FlapExpandsToAlternatingPairs) {
  const auto result =
      parse_failure_script("@1s flap nic 2 1 period=200ms count=3\n", 8);
  ASSERT_TRUE(result.ok()) << result.error;
  ASSERT_EQ(result.actions.size(), 6u);
  EXPECT_EQ(result.actions[0].at, 1_s);
  EXPECT_TRUE(result.actions[0].fail);
  EXPECT_EQ(result.actions[1].at, 1_s + 200_ms);
  EXPECT_FALSE(result.actions[1].fail);
  EXPECT_EQ(result.actions[5].at, 1_s + 5 * 200_ms);
  EXPECT_FALSE(result.actions[5].fail);
}

TEST(Script, ActionsSortedByOffset) {
  const auto result = parse_failure_script(
      "@3s fail nic 0 0\n@1s fail nic 1 0\n@2s fail nic 2 0\n", 8);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.actions[0].at, 1_s);
  EXPECT_EQ(result.actions[1].at, 2_s);
  EXPECT_EQ(result.actions[2].at, 3_s);
}

class ScriptErrors : public ::testing::TestWithParam<const char*> {};

TEST_P(ScriptErrors, RejectedWithLineDiagnostic) {
  const auto result = parse_failure_script(GetParam(), 8);
  EXPECT_FALSE(result.ok());
  EXPECT_NE(result.error.find("line 1"), std::string::npos) << result.error;
  EXPECT_TRUE(result.actions.empty());
}

INSTANTIATE_TEST_SUITE_P(
    BadInputs, ScriptErrors,
    ::testing::Values("fail nic 0 0",               // missing @offset
                      "@oops fail nic 0 0",         // bad duration
                      "@1s",                        // no action
                      "@1s explode nic 0 0",        // unknown verb
                      "@1s fail disk 0",            // unknown component
                      "@1s fail nic 99 0",          // node out of range
                      "@1s fail nic 0 7",           // network out of range
                      "@1s fail backplane 9",       // backplane out of range
                      "@1s fail nic 0 0 extra",     // trailing garbage
                      "@1s flap nic 0 0",           // flap missing options
                      "@1s flap nic 0 0 period=0s count=2",  // zero period
                      "@1s flap nic 0 0 period=1s wat=2",    // unknown option
                      "@-1s fail nic 0 0",          // negative offset
                      "@1s fail nic abc 0",         // node not a number
                      "@1s fail nic 1x 0",          // node with trailing junk
                      "@1s fail nic 0 zz",          // network not a number
                      "@1s fail backplane 1x",      // network with trailing junk
                      "@1-2s fail nic 0 0",         // offset with trailing junk
                      "@1.5.5s fail nic 0 0",       // two decimal points
                      "@1s flap nic 0 0 period=1s count=2x",  // count junk
                      "@9300000000s fail nic 0 0",  // offset past int64 ns
                      // Period past int64 ns; last restore past int64 ns.
                      "@1s flap nic 0 0 period=9300000000s count=1",
                      "@1s flap nic 0 0 period=1000000000s count=6",
                      // Expansions past kMaxScriptActions.
                      "@0s flap nic 1 0 period=1ns count=1000000000000",
                      "@0s flap nic 1 0 period=1ns count=10000000"));

TEST(Script, ScheduleAppliesAtBasePlusOffset) {
  sim::Simulator sim;
  ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  FailureInjector injector(network);
  const auto script = parse_failure_script(
      "@100ms fail nic 1 0\n@300ms restore nic 1 0\n@200ms fail backplane 1\n", 4);
  ASSERT_TRUE(script.ok());
  sim.run_for(1_s);  // base is not zero
  schedule_script(injector, script.actions, sim.now());

  sim.run_for(150_ms);
  EXPECT_TRUE(network.host(1).nic(0).failed());
  EXPECT_FALSE(network.backplane(1).failed());
  sim.run_for(100_ms);
  EXPECT_TRUE(network.backplane(1).failed());
  sim.run_for(100_ms);
  EXPECT_FALSE(network.host(1).nic(0).failed());
  EXPECT_TRUE(network.backplane(1).failed());  // never restored
}

}  // namespace
}  // namespace drs::net

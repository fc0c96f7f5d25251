#include "cluster/failure_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace drs::cluster {
namespace {

using namespace drs::util::literals;

TraceConfig big_trace() {
  TraceConfig config;
  config.node_count = 100;  // the paper's fleet size
  config.horizon = 3600_s;
  config.failures_per_server = 5.0;  // plenty of events for tight statistics
  config.network_share = 0.13;
  config.seed = 2026;
  return config;
}

TEST(FailureTrace, EventsSortedWithinHorizon) {
  const auto trace = generate_trace(big_trace());
  ASSERT_FALSE(trace.empty());
  EXPECT_TRUE(std::is_sorted(
      trace.begin(), trace.end(),
      [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; }));
  for (const auto& event : trace) {
    EXPECT_GE(event.at, util::SimTime::zero());
    EXPECT_LT(event.at, util::SimTime::zero() + 3600_s);
    EXPECT_GT(event.repair_time, util::Duration::zero());
  }
}

TEST(FailureTrace, EventCountNearExpectation) {
  const auto trace = generate_trace(big_trace());
  // 100 servers x 5 failures: Poisson(500), sd ~ 22.
  EXPECT_NEAR(static_cast<double>(trace.size()), 500.0, 100.0);
}

TEST(FailureTrace, NetworkShareMatchesPaperStatistic) {
  const auto trace = generate_trace(big_trace());
  const TraceStats stats = summarize(trace);
  EXPECT_EQ(stats.total, trace.size());
  // 13 % +- sampling noise.
  EXPECT_NEAR(stats.network_fraction(), 0.13, 0.05);
  EXPECT_GT(stats.nic, 0u);
  EXPECT_EQ(stats.network_related, stats.nic + stats.backplane);
}

TEST(FailureTrace, DeterministicPerSeed) {
  const auto a = generate_trace(big_trace());
  const auto b = generate_trace(big_trace());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at);
    EXPECT_EQ(a[i].failure_class, b[i].failure_class);
  }
  TraceConfig other = big_trace();
  other.seed = 1;
  EXPECT_NE(generate_trace(other).size(), 0u);
}

TEST(FailureTrace, ZeroRateYieldsEmptyTrace) {
  TraceConfig config;
  config.failures_per_server = 0.0;
  EXPECT_TRUE(generate_trace(config).empty());
}

TEST(FailureTrace, AllNetworkShare) {
  TraceConfig config = big_trace();
  config.network_share = 1.0;
  const TraceStats stats = summarize(generate_trace(config));
  EXPECT_EQ(stats.network_related, stats.total);
}

TEST(FailureTrace, NodeAndNetworkFieldsInRange) {
  const auto trace = generate_trace(big_trace());
  for (const auto& event : trace) {
    if (event.failure_class == FailureClass::kNic) {
      EXPECT_LT(event.node, 100);
    }
    EXPECT_LT(event.network, 2);
  }
}

TEST(TraceStats, EmptyTraceFractionIsZero) {
  EXPECT_EQ(summarize({}).network_fraction(), 0.0);
}

}  // namespace
}  // namespace drs::cluster

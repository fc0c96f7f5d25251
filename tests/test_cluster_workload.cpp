#include <gtest/gtest.h>

#include "cluster/availability.hpp"
#include "cluster/scenario.hpp"
#include "cluster/workload.hpp"
#include "net/failure.hpp"

namespace drs::cluster {
namespace {

using namespace drs::util::literals;

// --- AvailabilityTracker ----------------------------------------------------

util::SimTime at(std::int64_t ms) {
  return util::SimTime::zero() + util::Duration::millis(ms);
}

TEST(AvailabilityTracker, AllUpIsPerfect) {
  AvailabilityTracker tracker;
  for (int i = 0; i < 100; ++i) tracker.add_sample(at(i), true);
  EXPECT_EQ(tracker.samples(), 100u);
  EXPECT_EQ(tracker.failures(), 0u);
  EXPECT_TRUE(tracker.outages().empty());
  EXPECT_FALSE(tracker.outage_open());
}

TEST(AvailabilityTracker, OutageIntervalBoundaries) {
  AvailabilityTracker tracker;
  tracker.add_sample(at(0), true);
  tracker.add_sample(at(10), false);
  tracker.add_sample(at(20), false);
  tracker.add_sample(at(30), true);
  tracker.add_sample(at(40), false);
  tracker.add_sample(at(50), true);
  ASSERT_EQ(tracker.outages().size(), 2u);
  EXPECT_EQ(tracker.outages()[0].begin, at(10));
  EXPECT_EQ(tracker.outages()[0].end, at(30));
  EXPECT_EQ(tracker.outages()[1].length(), 10_ms);
  EXPECT_EQ(tracker.longest_outage(), 20_ms);
  EXPECT_EQ(tracker.total_outage(), 30_ms);
  EXPECT_EQ(tracker.samples(), 6u);
  EXPECT_EQ(tracker.failures(), 3u);
}

TEST(AvailabilityTracker, OpenOutageReported) {
  AvailabilityTracker tracker;
  tracker.add_sample(at(0), true);
  tracker.add_sample(at(10), false);
  EXPECT_TRUE(tracker.outage_open());
  EXPECT_TRUE(tracker.outages().empty());  // not closed yet
}

// --- Workload on a healthy cluster ------------------------------------------

TEST(Workload, HealthyClusterServesEverything) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 6, .backplane = {}});
  WorkloadConfig config;
  RequestReplyWorkload workload(network, config);
  workload.start();
  sim.run_for(2_s);
  workload.stop();
  sim.run_for(200_ms);
  const auto& stats = workload.stats();
  EXPECT_GT(stats.requests_sent, 500u);
  EXPECT_DOUBLE_EQ(stats.success_rate(), 1.0);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_GT(stats.latency_seconds.mean(), 0.0);
  EXPECT_LT(stats.latency_seconds.mean(), 1e-3);
}

TEST(Workload, CompletionHookSeesEveryOutcome) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  RequestReplyWorkload workload(network, {});
  std::uint64_t ok = 0, bad = 0;
  workload.set_completion_hook(
      [&](bool success, net::NodeId, net::NodeId) { (success ? ok : bad) += 1; });
  workload.start();
  sim.run_for(1_s);
  workload.stop();
  sim.run_for(200_ms);
  EXPECT_EQ(ok, workload.stats().replies_received);
  EXPECT_EQ(bad, workload.stats().timeouts);
}

TEST(Workload, DeadServerCausesTimeouts) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  network.set_component_failed(net::ClusterNetwork::nic_component(2, 0), true);
  network.set_component_failed(net::ClusterNetwork::nic_component(2, 1), true);
  RequestReplyWorkload workload(network, {});
  workload.start();
  sim.run_for(1_s);
  workload.stop();
  sim.run_for(200_ms);
  EXPECT_GT(workload.stats().timeouts, 0u);
  EXPECT_LT(workload.stats().success_rate(), 1.0);
}

// --- End-to-end availability study -------------------------------------------

StudyConfig small_study(const std::string& policy) {
  StudyConfig config;
  config.node_count = 6;
  config.policy = policy;
  config.params.drs.probe_interval = 50_ms;
  config.params.drs.probe_timeout = 20_ms;
  config.params.drs.discover_timeout = 25_ms;
  config.params.rip.advertise_interval = 1_s;
  config.params.rip.route_timeout = 6_s;
  config.trace.horizon = 30_s;
  config.trace.failures_per_server = 2.0;
  config.trace.network_share = 1.0;  // only network failures stress routing
  config.trace.mean_repair = 5_s;
  config.trace.backplane_share = 0.1;
  config.trace.seed = 99;
  config.warmup = 2_s;
  return config;
}

TEST(Study, DrsDeliversHigherAvailabilityThanStatic) {
  const StudyResult drs = run_study(small_study("drs"));
  const StudyResult stat = run_study(small_study("static"));
  ASSERT_GT(drs.workload.requests_sent, 0u);
  ASSERT_GT(drs.trace_stats.network_related, 0u);
  EXPECT_GT(drs.workload.success_rate(), stat.workload.success_rate());
  EXPECT_GT(drs.workload.success_rate(), 0.97);
  EXPECT_GT(drs.protocol_messages, 0u);
  EXPECT_EQ(stat.protocol_messages, 0u);
}

TEST(Study, ComparativeRunsEveryRegisteredPolicy) {
  const auto results = run_comparative_study(small_study("drs"));
  const std::vector<std::string> names = policy::policy_names();
  ASSERT_EQ(results.size(), names.size());
  std::size_t drs_index = 0, rip_index = 0, static_index = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].policy, names[i]);
    if (names[i] == "drs") drs_index = i;
    if (names[i] == "rip") rip_index = i;
    if (names[i] == "static") static_index = i;
  }
  // Identical seed => identical traces.
  EXPECT_EQ(results[drs_index].trace_stats.total,
            results[static_index].trace_stats.total);
  // Ordering of merit on the same failures: DRS beats the reactive
  // baseline, and anything beats static.
  EXPECT_GE(results[drs_index].workload.success_rate(),
            results[rip_index].workload.success_rate());
  EXPECT_GE(results[rip_index].workload.success_rate(),
            results[static_index].workload.success_rate() - 1e-9);
}

}  // namespace
}  // namespace drs::cluster

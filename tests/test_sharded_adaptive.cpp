// The adaptive-lookahead (earliest-output-time) window protocol, tested
// where the differential corpus cannot see:
//   - coalescing invariance: adaptive windows change ONLY the window count —
//     the merged trace and semantic metrics are byte-identical to the
//     fixed-lookahead protocol (windows capped at the lookahead), while the
//     window count shrinks >= 5x;
//   - the window cap bounds window width;
//   - window spans: recorded spans tile the run (monotone, non-overlapping),
//     account for every executed event, and export to Chrome trace format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "cluster/fleet.hpp"
#include "cluster/partition.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sim/sharded.hpp"
#include "util/time.hpp"

namespace drs {
namespace {

util::SimTime at_ms(std::int64_t ms) {
  return util::SimTime::zero() + util::Duration::millis(ms);
}

cluster::FleetConfig fleet_config(std::uint16_t clusters,
                                  std::uint16_t nodes) {
  cluster::FleetConfig config;
  config.clusters = clusters;
  config.nodes_per_cluster = nodes;
  config.drs = chaos::fast_campaign_drs_config();
  return config;
}

/// A fleet run that exercises the oracle's whole surface: relay blip,
/// gateway outage with recovery, healthy tail.
struct FleetRun {
  std::string trace_json;
  std::string semantic_metrics;  // cluster./gateway./relay./fleet. only
  std::uint64_t probes_sent = 0;
  std::uint64_t executed_events = 0;
  std::uint64_t windows_run = 0;
  std::uint64_t windows_coalesced = 0;
  bool pristine = true;
  /// Recorded only for capped runs (record_window_spans); 0 otherwise.
  std::uint64_t window_spans = 0;
  std::int64_t widest_window_ns = 0;
  std::int64_t lookahead_ns = 0;
};

// Keeps only the semantic metric families every execution mode must agree
// on; per-queue (sim./arena./shard.) and engine diagnostics are mode-local.
std::string semantic_only(std::string json) {
  for (const char* prefix : {"\"sim.", "\"arena.", "\"shard.", "\"engine."}) {
    std::size_t pos;
    while ((pos = json.find(prefix)) != std::string::npos) {
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
  }
  return json;
}

void schedule_mixed_outages(cluster::ShardedFleet& fleet) {
  fleet.schedule_component_failure(at_ms(120),
                                   fleet.relay_backplane_component(), true);
  fleet.schedule_component_failure(at_ms(180),
                                   fleet.relay_backplane_component(), false);
  fleet.schedule_component_failure(at_ms(250), fleet.gateway_component(1),
                                   true);
  fleet.schedule_component_failure(at_ms(400), fleet.gateway_component(1),
                                   false);
}

/// `max_window_ns` = 0 runs uncapped adaptive windows; lookahead_ns gives the
/// fixed-lookahead protocol.
FleetRun run_fleet(std::uint32_t shards, std::int64_t max_window_ns = 0) {
  cluster::ShardedFleetConfig config;
  config.fleet = fleet_config(4, 4);
  config.shards = shards;
  config.trace_capacity = std::size_t{1} << 16;
  config.max_window_ns = max_window_ns;
  config.record_window_spans = max_window_ns > 0;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  schedule_mixed_outages(fleet);
  fleet.run_until(at_ms(600));

  EXPECT_EQ(fleet.engine().window_violations(), 0u);
  EXPECT_GE(fleet.engine().min_foreign_margin_ns(), 0);

  FleetRun run;
  run.trace_json = obs::to_canonical_json(fleet.merged_trace());
  obs::MetricRegistry registry;
  fleet.collect_metrics(registry);
  run.semantic_metrics = semantic_only(registry.to_json());
  run.probes_sent = fleet.total_probes_sent();
  run.executed_events = fleet.engine().events_executed();
  run.windows_run = fleet.engine().windows_run();
  run.windows_coalesced = fleet.engine().windows_coalesced();
  run.pristine = fleet.all_pristine();
  for (const obs::WindowSpan& span : fleet.engine().window_spans()) {
    ++run.window_spans;
    run.widest_window_ns =
        std::max(run.widest_window_ns, span.end_ns - span.start_ns);
  }
  run.lookahead_ns = fleet.engine().lookahead_ns();
  return run;
}

// -- coalescing invariance ----------------------------------------------------

TEST(ShardedAdaptive, CoalescingChangesOnlyTheWindowCount) {
  // Capping windows at the lookahead is the fixed-lookahead protocol: the
  // widening step never coalesces and no window is wider than one lookahead.
  const std::int64_t lookahead_ns =
      fleet_config(4, 4).relay_backplane.propagation_delay.ns();
  const FleetRun fixed = run_fleet(4, /*max_window_ns=*/lookahead_ns);
  ASSERT_EQ(fixed.lookahead_ns, lookahead_ns);
  ASSERT_EQ(fixed.window_spans, fixed.windows_run);
  EXPECT_LE(fixed.widest_window_ns, fixed.lookahead_ns);
  const FleetRun adaptive = run_fleet(4);

  // Identical observable output...
  EXPECT_EQ(fixed.trace_json, adaptive.trace_json);
  EXPECT_EQ(fixed.semantic_metrics, adaptive.semantic_metrics);
  EXPECT_EQ(fixed.probes_sent, adaptive.probes_sent);
  EXPECT_EQ(fixed.executed_events, adaptive.executed_events);
  EXPECT_EQ(fixed.pristine, adaptive.pristine);

  // ...from far fewer synchronization windows. The acceptance bar is 5x;
  // the probe cadence (100 ms) vs the 5 us lookahead makes the real ratio
  // orders of magnitude larger on idle stretches.
  EXPECT_EQ(fixed.windows_coalesced, 0u);
  EXPECT_GT(adaptive.windows_coalesced, 0u);
  ASSERT_GT(adaptive.windows_run, 0u);
  EXPECT_GE(fixed.windows_run, 5u * adaptive.windows_run)
      << "fixed " << fixed.windows_run << " vs adaptive "
      << adaptive.windows_run;
}

TEST(ShardedAdaptive, MaxWindowCapBoundsWindowWidth) {
  // Windows start at the next pending event (idle gaps are skipped), so the
  // cap bounds each window's WIDTH, not the window count per unit sim-time.
  const std::int64_t cap_ns = util::Duration::millis(1).ns();
  auto run = [&](std::int64_t max_window_ns) {
    cluster::ShardedFleetConfig config;
    config.fleet = fleet_config(2, 4);
    config.shards = 2;
    config.record_window_spans = true;
    config.max_window_ns = max_window_ns;
    cluster::ShardedFleet fleet(config);
    fleet.start();
    fleet.run_until(at_ms(50));
    EXPECT_EQ(fleet.engine().window_violations(), 0u);
    std::int64_t widest = 0;
    for (const obs::WindowSpan& span : fleet.engine().window_spans()) {
      widest = std::max(widest, span.end_ns - span.start_ns);
    }
    return std::pair<std::uint64_t, std::int64_t>{
        fleet.engine().windows_run(), widest};
  };

  const auto [uncapped_windows, uncapped_widest] = run(0);
  const auto [capped_windows, capped_widest] = run(cap_ns);
  // The uncapped adaptive run coalesces past the cap (otherwise the cap is
  // not exercised); the capped run never exceeds it, at the cost of extra
  // windows.
  EXPECT_GT(uncapped_widest, cap_ns);
  EXPECT_LE(capped_widest, cap_ns);
  EXPECT_GT(capped_windows, uncapped_windows);
}

// -- window spans -------------------------------------------------------------

TEST(ShardedAdaptive, WindowSpansTileTheRunAndExport) {
  cluster::ShardedFleetConfig config;
  config.fleet = fleet_config(3, 4);
  config.shards = 3;
  config.record_window_spans = true;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  fleet.run_until(at_ms(400));

  const std::vector<obs::WindowSpan>& spans = fleet.engine().window_spans();
  ASSERT_EQ(spans.size(), fleet.engine().windows_run());
  ASSERT_FALSE(spans.empty());
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_LT(spans[i].start_ns, spans[i].end_ns) << "span " << i;
    if (i > 0) {
      EXPECT_GE(spans[i].start_ns, spans[i - 1].end_ns)
          << "overlapping windows at span " << i;
    }
    EXPECT_LE(spans[i].active_shards, 3u);
    events += spans[i].events;
  }
  // Every executed event belongs to exactly one window.
  EXPECT_EQ(events, fleet.engine().events_executed());

  const std::string chrome =
      obs::to_chrome_trace_json(fleet.merged_trace(), spans);
  EXPECT_NE(chrome.find("\"window\""), std::string::npos);
  EXPECT_NE(chrome.find("\"active_shards\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
}

}  // namespace
}  // namespace drs

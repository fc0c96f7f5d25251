// Unit coverage of the obs layer: the tracer ring (lazy allocation, oldest
// eviction, chronological iteration), the DRS_TRACE_EVENT macro contract,
// both exporters' byte-level output, the integer metric registry, and the
// failover-timeline / detour-audit folds. The cross-layer pins live here
// too: obs's link-state codes must stay numerically identical to
// core::LinkState so traces stay readable without the core headers.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/link_state.hpp"
#include "core/system.hpp"
#include "net/network.hpp"
#include "obs/export.hpp"
#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"

namespace drs::obs {
namespace {

TraceEvent at(std::int64_t t, TraceEventKind kind) {
  return TraceEvent{.at_ns = t, .kind = kind};
}

// --- Tracer ring -------------------------------------------------------------

TEST(Tracer, RetainsEmissionOrderBelowCapacity) {
  Tracer tracer(8);
  for (std::int64_t t = 0; t < 5; ++t) {
    tracer.emit(at(t, TraceEventKind::kPingSent));
  }
  EXPECT_EQ(tracer.size(), 5u);
  EXPECT_EQ(tracer.emitted(), 5u);
  EXPECT_EQ(tracer.evicted(), 0u);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::int64_t t = 0; t < 5; ++t) EXPECT_EQ(events[static_cast<std::size_t>(t)].at_ns, t);
}

TEST(Tracer, EvictsOldestWhenFull) {
  Tracer tracer(4);
  for (std::int64_t t = 0; t < 10; ++t) {
    tracer.emit(at(t, TraceEventKind::kPingSent));
  }
  EXPECT_EQ(tracer.capacity(), 4u);
  EXPECT_EQ(tracer.size(), 4u);       // never exceeds capacity
  EXPECT_EQ(tracer.emitted(), 10u);
  EXPECT_EQ(tracer.evicted(), 6u);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  // The survivors are the newest four, still oldest-first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].at_ns, static_cast<std::int64_t>(6 + i));
  }
}

TEST(Tracer, ZeroCapacityClampsToOne) {
  Tracer tracer(0);
  EXPECT_EQ(tracer.capacity(), 1u);
  tracer.emit(at(1, TraceEventKind::kPingSent));
  tracer.emit(at(2, TraceEventKind::kPingSent));
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.events().front().at_ns, 2);
}

TEST(Tracer, ClearDropsEventsButKeepsCounters) {
  Tracer tracer(4);
  for (std::int64_t t = 0; t < 6; ++t) {
    tracer.emit(at(t, TraceEventKind::kPingSent));
  }
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.emitted(), 6u);
  tracer.emit(at(100, TraceEventKind::kPingSent));
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_EQ(tracer.events().front().at_ns, 100);
}

TEST(Tracer, RingAllocationIsLazyAndCountedOnce) {
  const std::uint64_t before = Tracer::rings_allocated();
  Tracer tracer(8);
  EXPECT_EQ(Tracer::rings_allocated(), before) << "construction must not allocate";
  tracer.emit(at(1, TraceEventKind::kPingSent));
  EXPECT_EQ(Tracer::rings_allocated(), before + 1);
  tracer.emit(at(2, TraceEventKind::kPingSent));
  EXPECT_EQ(Tracer::rings_allocated(), before + 1) << "one ring per tracer";
}

// --- DRS_TRACE_EVENT macro ---------------------------------------------------

static_assert(DRS_OBS_ENABLED == 1,
              "this test file is built with tracing enabled");

TEST(TraceMacro, NullTracerIsSafe) {
  Tracer* tracer = nullptr;
  DRS_TRACE_EVENT(tracer, .at_ns = 1, .kind = TraceEventKind::kPingSent);
  SUCCEED();
}

TEST(TraceMacro, RespectsRuntimeEnableSwitch) {
  Tracer tracer(8);
  tracer.set_enabled(false);
  DRS_TRACE_EVENT(&tracer, .at_ns = 1, .kind = TraceEventKind::kPingSent);
  EXPECT_EQ(tracer.emitted(), 0u);
  tracer.set_enabled(true);
  DRS_TRACE_EVENT(&tracer, .at_ns = 2, .kind = TraceEventKind::kProbeLost,
                  .node = 3, .peer = 4, .network = 1, .a = 7, .b = 9);
  ASSERT_EQ(tracer.size(), 1u);
  const TraceEvent event = tracer.events().front();
  EXPECT_EQ(event.at_ns, 2);
  EXPECT_EQ(event.kind, TraceEventKind::kProbeLost);
  EXPECT_EQ(event.node, 3);
  EXPECT_EQ(event.peer, 4);
  EXPECT_EQ(event.network, 1);
  EXPECT_EQ(event.a, 7);
  EXPECT_EQ(event.b, 9);
}

// A live DrsSystem with no tracer attached must not allocate any ring —
// the runtime-off half of the overhead regression (the compile-time-off
// half lives in test_obs_compiled_out).
TEST(TraceMacro, SystemWithoutTracerAllocatesNoRings) {
  const std::uint64_t before = Tracer::rings_allocated();
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  core::DrsConfig config;
  config.probe_interval = util::Duration::millis(50);
  config.probe_timeout = util::Duration::millis(20);
  core::DrsSystem system(network, config);
  system.start();
  sim.run_for(util::Duration::millis(300));
  system.stop();
  EXPECT_EQ(Tracer::rings_allocated(), before);
}

// --- Cross-layer code pins ---------------------------------------------------

TEST(EventCodes, LinkStateCodesMatchCore) {
  EXPECT_EQ(kLinkUp, static_cast<std::int64_t>(core::LinkState::kUp));
  EXPECT_EQ(kLinkSuspect, static_cast<std::int64_t>(core::LinkState::kSuspect));
  EXPECT_EQ(kLinkDown, static_cast<std::int64_t>(core::LinkState::kDown));
}

TEST(EventCodes, KindNamesAreStable) {
  EXPECT_STREQ(to_string(TraceEventKind::kPingSent), "ping_sent");
  EXPECT_STREQ(to_string(TraceEventKind::kProbeLost), "probe_lost");
  EXPECT_STREQ(to_string(TraceEventKind::kLinkChange), "link_change");
  EXPECT_STREQ(to_string(TraceEventKind::kDetourInstall), "detour_install");
  EXPECT_STREQ(to_string(TraceEventKind::kDetourTeardown), "detour_teardown");
  EXPECT_STREQ(to_string(TraceEventKind::kQueueHighWater), "queue_high_water");
}

// --- Exporters ---------------------------------------------------------------

TEST(Export, CanonicalJsonIsByteStable) {
  const std::vector<TraceEvent> events{
      TraceEvent{.at_ns = 1500,
                 .kind = TraceEventKind::kLinkChange,
                 .node = 2,
                 .peer = 3,
                 .network = 1,
                 .a = kLinkUp,
                 .b = kLinkDown}};
  EXPECT_EQ(to_canonical_json(events),
            "{\"format\":\"drs-trace-v1\",\"count\":1,\"events\":"
            "[{\"t\":1500,\"kind\":\"link_change\",\"node\":2,\"peer\":3,"
            "\"net\":1,\"a\":0,\"b\":2}]}");
}

TEST(Export, SentinelFieldsRenderAsMinusOne) {
  const std::vector<TraceEvent> events{
      TraceEvent{.at_ns = 0, .kind = TraceEventKind::kQueueHighWater,
                 .a = 16, .b = 16}};
  EXPECT_EQ(to_canonical_json(events),
            "{\"format\":\"drs-trace-v1\",\"count\":1,\"events\":"
            "[{\"t\":0,\"kind\":\"queue_high_water\",\"node\":-1,\"peer\":-1,"
            "\"net\":-1,\"a\":16,\"b\":16}]}");
}

TEST(Export, ChromeTraceCarriesInstantEventsPerNodeTrack) {
  const std::vector<TraceEvent> events{
      TraceEvent{.at_ns = 1500,
                 .kind = TraceEventKind::kProbeLost,
                 .node = 2,
                 .peer = 3,
                 .network = 0,
                 .a = 42}};
  const std::string json = to_chrome_trace_json(events);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"probe_lost\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1"), std::string::npos);  // 1500 ns -> 1 us
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"t_ns\":1500"), std::string::npos);  // full precision
}

TEST(Export, FilterKindsPreservesOrder) {
  std::vector<TraceEvent> events;
  events.push_back(at(1, TraceEventKind::kPingSent));
  events.push_back(at(2, TraceEventKind::kProbeLost));
  events.push_back(at(3, TraceEventKind::kPingSent));
  events.push_back(at(4, TraceEventKind::kLinkChange));
  const std::vector<TraceEvent> filtered = filter_kinds(
      events, {TraceEventKind::kProbeLost, TraceEventKind::kLinkChange});
  ASSERT_EQ(filtered.size(), 2u);
  EXPECT_EQ(filtered[0].at_ns, 2);
  EXPECT_EQ(filtered[1].at_ns, 4);
}

// --- Metric registry ---------------------------------------------------------

TEST(Metrics, CounterAndGaugeBasics) {
  MetricRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.counter("a").add();
  registry.counter("a").add(4);
  registry.gauge("g").set(7);
  registry.gauge("g").set(-2);
  EXPECT_EQ(registry.counter("a").value(), 5);
  EXPECT_EQ(registry.gauge("g").value(), -2);
  EXPECT_FALSE(registry.empty());
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Metrics, HistogramUsesInclusiveUpperEdges) {
  MetricRegistry registry;
  IntHistogram& h = registry.histogram("h", {10, 20});
  h.add(10);  // lands in the <=10 bucket
  h.add(11);  // lands in the <=20 bucket
  h.add(20);
  h.add(21);  // beyond the last edge: overflow bucket
  ASSERT_EQ(h.bucket_count(), 3u);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(1), 2);
  EXPECT_EQ(h.bucket(2), 1);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 62);
  // Re-lookup returns the same histogram; new edges are ignored.
  EXPECT_EQ(&registry.histogram("h", {999}), &h);
  EXPECT_EQ(h.edges().size(), 2u);
}

TEST(Metrics, HistogramMergeAddsEverySample) {
  IntHistogram a({10, 20});
  IntHistogram b({10, 20});
  a.add(5);
  b.add(15);
  b.add(99);
  a.merge(b);
  EXPECT_EQ(a.bucket(0), 1);
  EXPECT_EQ(a.bucket(1), 1);
  EXPECT_EQ(a.bucket(2), 1);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.sum(), 119);
  EXPECT_EQ(b.count(), 2);  // the source is unchanged
  IntHistogram other({10});
  EXPECT_THROW(a.merge(other), std::invalid_argument);
}

TEST(Metrics, ScopedNamingConvention) {
  EXPECT_EQ(MetricRegistry::scoped("daemon", 3, "probes_sent"),
            "daemon.3.probes_sent");
  EXPECT_EQ(MetricRegistry::scoped("backplane", 0, "frames"),
            "backplane.0.frames");
}

TEST(Metrics, JsonIsSortedAndByteStable) {
  MetricRegistry registry;
  registry.counter("z").add(1);
  registry.counter("a").add(2);
  registry.gauge("g").set(3);
  registry.histogram("h", {5}).add(7);
  EXPECT_EQ(registry.to_json(),
            "{\"counters\":{\"a\":2,\"z\":1},\"gauges\":{\"g\":3},"
            "\"histograms\":{\"h\":{\"edges\":[5],\"counts\":[0,1],"
            "\"count\":1,\"sum\":7}}}");
}

// --- Failover timelines and the detour audit ---------------------------------

TEST(Timeline, ReconstructPicksFirstLandmarkOfEachKind) {
  Tracer tracer(16);
  tracer.emit(at(50, TraceEventKind::kProbeLost));   // pre-failure: ignored
  tracer.emit(at(120, TraceEventKind::kProbeLost));  // detection
  tracer.emit(at(150, TraceEventKind::kProbeLost));  // later loss: ignored
  TraceEvent down = at(180, TraceEventKind::kLinkChange);
  down.a = kLinkSuspect;
  down.b = kLinkDown;
  tracer.emit(down);
  tracer.emit(at(200, TraceEventKind::kDetourInstall));
  const FailoverTimeline timeline = reconstruct_failover(tracer, 100, 400);
  EXPECT_TRUE(timeline.detected());
  EXPECT_TRUE(timeline.rerouted());
  EXPECT_EQ(timeline.detected_at_ns, 120);
  EXPECT_EQ(timeline.link_down_at_ns, 180);
  EXPECT_EQ(timeline.detour_at_ns, 200);
  EXPECT_EQ(timeline.detection_latency_ns(), 20);
  EXPECT_EQ(timeline.repair_latency_ns(), 280);  // from detection, not injection
}

TEST(Timeline, WithoutDetectionLatencyFallsBackToInjection) {
  const FailoverTimeline timeline = reconstruct_failover(Tracer(16), 100, 400);
  EXPECT_FALSE(timeline.detected());
  EXPECT_EQ(timeline.detection_latency_ns(), 0);
  EXPECT_EQ(timeline.repair_latency_ns(), 300);
}

TraceEvent pair_event(std::int64_t t, TraceEventKind kind, std::uint16_t node,
                      std::uint16_t peer) {
  return TraceEvent{.at_ns = t, .kind = kind, .node = node, .peer = peer};
}

TraceEvent down_event(std::int64_t t, std::uint16_t node, std::uint16_t peer) {
  TraceEvent event = pair_event(t, TraceEventKind::kLinkChange, node, peer);
  event.a = kLinkSuspect;
  event.b = kLinkDown;
  return event;
}

TEST(DetourAudit, CleanAlternationPasses) {
  std::vector<TraceEvent> events;
  events.push_back(down_event(10, 0, 1));
  events.push_back(pair_event(20, TraceEventKind::kDetourInstall, 0, 1));
  events.push_back(pair_event(30, TraceEventKind::kDetourSwitch, 0, 1));
  events.push_back(pair_event(40, TraceEventKind::kDetourTeardown, 0, 1));
  events.push_back(down_event(50, 0, 1));  // a second, separate episode
  events.push_back(pair_event(60, TraceEventKind::kDetourInstall, 0, 1));
  events.push_back(pair_event(70, TraceEventKind::kDetourTeardown, 0, 1));
  EXPECT_TRUE(audit_detours(events).empty());
}

TEST(DetourAudit, InstallWithoutDownVerdictIsFlagged) {
  std::vector<TraceEvent> events;
  events.push_back(pair_event(20, TraceEventKind::kDetourInstall, 0, 1));
  events.push_back(pair_event(40, TraceEventKind::kDetourTeardown, 0, 1));
  const std::vector<std::string> problems = audit_detours(events);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("without preceding link DOWN"), std::string::npos);
  EXPECT_NE(problems[0].find("node 0 peer 1"), std::string::npos);
}

TEST(DetourAudit, DoubleInstallAndStrayTeardownAreFlagged) {
  std::vector<TraceEvent> events;
  events.push_back(down_event(10, 0, 1));
  events.push_back(pair_event(20, TraceEventKind::kDetourInstall, 0, 1));
  events.push_back(pair_event(25, TraceEventKind::kDetourInstall, 0, 1));
  events.push_back(pair_event(40, TraceEventKind::kDetourTeardown, 0, 1));
  events.push_back(pair_event(50, TraceEventKind::kDetourTeardown, 0, 1));
  events.push_back(pair_event(60, TraceEventKind::kDetourSwitch, 0, 1));
  const std::vector<std::string> problems = audit_detours(events);
  // while-open install, teardown with no episode, switch with no episode,
  // and a 2-vs-2... installs==teardowns so no imbalance: 3 problems.
  EXPECT_EQ(problems.size(), 3u);
}

TEST(DetourAudit, OpenEpisodeAtEndFlaggedOnlyWhenExpectClosed) {
  std::vector<TraceEvent> events;
  events.push_back(down_event(10, 2, 3));
  events.push_back(pair_event(20, TraceEventKind::kDetourInstall, 2, 3));
  const std::vector<std::string> problems = audit_detours(events);
  ASSERT_EQ(problems.size(), 2u);  // still open + install/teardown imbalance
  EXPECT_NE(problems[0].find("still open"), std::string::npos);
  EXPECT_TRUE(audit_detours(events, /*expect_closed=*/false).empty());
}

TEST(DetourAudit, PairsAreIndependent) {
  std::vector<TraceEvent> events;
  events.push_back(down_event(10, 0, 1));
  // Node 1 installing against peer 0 must not inherit node 0's DOWN verdict.
  events.push_back(pair_event(20, TraceEventKind::kDetourInstall, 1, 0));
  events.push_back(pair_event(30, TraceEventKind::kDetourTeardown, 1, 0));
  const std::vector<std::string> problems = audit_detours(events);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("node 1 peer 0"), std::string::npos);
}

}  // namespace
}  // namespace drs::obs

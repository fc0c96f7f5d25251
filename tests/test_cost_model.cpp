#include "cost/cost_model.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace drs::cost {
namespace {

using namespace drs::util::literals;

TEST(EchoFrame, MinimumFrameWithoutOverhead) {
  EchoFrameModel frame;
  // 14 + 20 + 8 + 0 + 4 = 46 -> padded to the 64-byte minimum.
  EXPECT_EQ(frame.frame_bytes(), 64u);
  EXPECT_EQ(frame.frame_bits(), 512u);
}

TEST(EchoFrame, PreambleAndIfgAddTwenty) {
  EchoFrameModel frame;
  frame.count_preamble_and_ifg = true;
  EXPECT_EQ(frame.frame_bytes(), 84u);
}

TEST(EchoFrame, LargePayloadEscapesMinimum) {
  EchoFrameModel frame;
  frame.echo_data_bytes = 56;  // classic `ping` default
  // 14 + 20 + 8 + 56 + 4 = 102.
  EXPECT_EQ(frame.frame_bytes(), 102u);
}

TEST(CostModel, CycleFrameCount) {
  CostModel model;
  // Every ordered pair probes once; request + reply.
  EXPECT_EQ(model.cycle_frames(2), 4u);
  EXPECT_EQ(model.cycle_frames(10), 180u);
  EXPECT_EQ(model.cycle_frames(90), 16020u);
}

TEST(CostModel, PaperAnchorNinetyHostsTenPercentUnderOneSecond) {
  // "ninety hosts are supported in less than 1 second with only 10% of the
  // bandwidth usage" — the Fig. 1 anchor.
  CostModel model;
  const double t = model.response_time_seconds(90, 0.10);
  EXPECT_LT(t, 1.0);
  EXPECT_GT(t, 0.7);  // and not trivially fast: ~0.82 s
  EXPECT_NEAR(t, 0.820224, 1e-6);
}

TEST(CostModel, AnchorFailsJustAboveNinetyFour) {
  // The boundary: max_nodes at (10 %, 1 s) is deterministic.
  CostModel model;
  const std::int64_t limit = model.max_nodes(0.10, 1.0);
  EXPECT_GE(limit, 90);
  EXPECT_LE(limit, 100);
  EXPECT_GT(model.response_time_seconds(limit + 1, 0.10), 1.0);
  EXPECT_LE(model.response_time_seconds(limit, 0.10), 1.0);
}

TEST(CostModel, ResponseTimeQuadraticInNodes) {
  CostModel model;
  const double t20 = model.response_time_seconds(20, 0.10);
  const double t40 = model.response_time_seconds(40, 0.10);
  // 2*40*39 / (2*20*19) = 4.105...
  EXPECT_NEAR(t40 / t20, 4.105, 0.01);
}

TEST(CostModel, ResponseTimeInverseInBudget) {
  CostModel model;
  EXPECT_NEAR(model.response_time_seconds(50, 0.05) /
                  model.response_time_seconds(50, 0.25),
              5.0, 1e-9);
}

TEST(CostModel, MoreBudgetNeverHurtsMaxNodes) {
  CostModel model;
  std::int64_t previous = 0;
  for (double budget : {0.05, 0.10, 0.15, 0.25}) {
    const std::int64_t n = model.max_nodes(budget, 1.0);
    EXPECT_GE(n, previous);
    previous = n;
  }
}

TEST(CostModel, UtilizationMatchesDefinition) {
  CostModel model;
  // 10 nodes every 100 ms: 180 frames * 512 bits = 92160 bits per cycle;
  // at 100 Mb/s that is 921.6 us busy per 100 ms -> 0.9216 %.
  EXPECT_NEAR(model.utilization(10, 100_ms), 0.009216, 1e-9);
}

TEST(CostModel, MeasuredUtilizationMatchesClosedForm) {
  CostModel model;
  const double predicted = model.utilization(8, 100_ms);
  const MeasuredCycle measured = measure_cycle(8, 100_ms, 5, model);
  // The packet level also carries echo *replies* from the daemons on the
  // other hosts probing back — the model's 2N(N-1) already counts both
  // directions, so they should agree within a couple of percent (start-up
  // transients, spread-probe phase).
  EXPECT_NEAR(measured.utilization_network_a, predicted, predicted * 0.05);
  EXPECT_NEAR(measured.utilization_network_b, predicted, predicted * 0.05);
  EXPECT_EQ(measured.probes_failed, 0u);
  EXPECT_GT(measured.probes_sent, 0u);
}

TEST(CostModel, MeasuredWithPreambleAccounting) {
  CostModel model;
  model.frame.count_preamble_and_ifg = true;
  const double predicted = model.utilization(6, 100_ms);
  const MeasuredCycle measured = measure_cycle(6, 100_ms, 5, model);
  EXPECT_NEAR(measured.utilization_network_a, predicted, predicted * 0.05);
}

TEST(CostModel, OverloadedIntervalLosesProbes) {
  // An interval far below the cycle's serialization demand saturates the
  // medium: probes queue up and some time out. 60 nodes need ~36 ms of
  // medium time per cycle; offering it every 4 ms cannot work.
  CostModel model;
  const MeasuredCycle measured = measure_cycle(60, 4_ms, 25, model);
  EXPECT_GT(measured.probes_failed, 0u);
  EXPECT_GT(measured.utilization_network_a, 0.5);
}

// -- the model's domain --------------------------------------------------------

/// Runs `call`, which must throw std::invalid_argument; returns its message.
template <class Call>
std::string rejection(Call call) {
  try {
    call();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  ADD_FAILURE() << "no std::invalid_argument";
  return {};
}

TEST(CostModelDomain, LimitIsTheLargestClusterWhoseCycleBitsFit) {
  CostModel model;
  // 2^27 · (2^27 − 1) · 2 · 512 bits = 2^64 − 2^37 fits; one node more wraps.
  EXPECT_EQ(model.node_limit(), std::int64_t{1} << 27);
  const std::int64_t n = model.node_limit();
  EXPECT_EQ(model.cycle_bits(n),
            2 * static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n - 1) * 512);
  // Full 802.3 accounting: 672-bit frames leave room for fewer nodes.
  model.frame.count_preamble_and_ifg = true;
  const std::int64_t m = model.node_limit();
  EXPECT_LT(m, n);
  const auto pairs = std::numeric_limits<std::uint64_t>::max() / (2 * 672);
  EXPECT_LE(static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(m - 1), pairs);
  EXPECT_GT(static_cast<std::uint64_t>(m + 1) * static_cast<std::uint64_t>(m), pairs);
}

TEST(CostModelDomain, ResponseTimeFollowsTheCurveUpToTheLimit) {
  CostModel model;
  const std::int64_t n = model.node_limit();
  const double curve = 2.0 * static_cast<double>(n) * static_cast<double>(n - 1) *
                       512.0 / (0.1 * 100e6);
  EXPECT_NEAR(model.response_time_seconds(n, 0.1), curve, curve * 1e-12);
  // Below two nodes nothing is probed.
  EXPECT_EQ(model.response_time_seconds(0, 0.1), 0.0);
  EXPECT_EQ(model.response_time_seconds(1, 0.1), 0.0);
}

TEST(CostModelDomain, CountsOutsideTheDomainThrowNamingTheLimit) {
  // Unchecked, the 64-bit cycle count wraps: n = 1e9 would read 9.43e11 s
  // (the curve gives ~1.02e14 s) and n = INT64_MAX 0.0002 s.
  for (const net::MediumKind medium :
       {net::MediumKind::kHub, net::MediumKind::kSwitch}) {
    CostModel model;
    model.medium = medium;
    for (const std::int64_t n :
         {model.node_limit() + 1, std::int64_t{1'000'000'000},
          std::numeric_limits<std::int64_t>::max(), std::int64_t{-1},
          std::numeric_limits<std::int64_t>::min()}) {
      SCOPED_TRACE(n);
      const std::string message =
          rejection([&] { model.response_time_seconds(n, 0.1); });
      EXPECT_NE(message.find("134217728-node limit"), std::string::npos)
          << message;
      EXPECT_NE(message.find("n = " + std::to_string(n)), std::string::npos)
          << message;
      rejection([&] { model.utilization(n, 100_ms); });
      rejection([&] { model.cycle_frames(n); });
    }
  }
}

TEST(CostModelDomain, MeasureCycleRejectsWhatItCannotBuild) {
  // Narrowed to uint16_t, 65538 would build a 2-node cluster and measure
  // its 14 probes.
  CostModel model;
  for (const std::int64_t n : {std::int64_t{65'538}, std::int64_t{65'025},
                               std::int64_t{1}, std::int64_t{-3}}) {
    SCOPED_TRACE(n);
    const std::string message =
        rejection([&] { measure_cycle(n, 100_ms, 1, model); });
    EXPECT_NE(message.find("65024-node limit"), std::string::npos) << message;
  }
}

}  // namespace
}  // namespace drs::cost

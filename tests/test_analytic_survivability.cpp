#include "analytic/survivability.hpp"

#include <gtest/gtest.h>

#include "analytic/enumerate.hpp"

namespace drs::analytic {
namespace {

// ---------------------------------------------------------------------------
// The reconstructed Equation 1 against exhaustive enumeration — the ground
// truth for the whole reproduction.
// ---------------------------------------------------------------------------

class FormulaVsEnumeration
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(FormulaVsEnumeration, SuccessCountsMatchExactly) {
  const auto [nodes, failures] = GetParam();
  const EnumerationResult brute = enumerate_success_count(nodes, failures);
  EXPECT_EQ(brute.successes, success_count(nodes, failures))
      << "N=" << nodes << " f=" << failures;
  EXPECT_EQ(brute.total, total_count(nodes, failures));
}

INSTANTIATE_TEST_SUITE_P(
    SmallClusters, FormulaVsEnumeration,
    ::testing::Combine(::testing::Values<std::int64_t>(2, 3, 4, 5, 6, 7),
                       ::testing::Values<std::int64_t>(0, 1, 2, 3, 4, 5, 6)));

TEST(FormulaVsEnumeration, AllFailureCountsForMediumCluster) {
  // Every possible f for N=5 (12 components), including total destruction.
  const std::int64_t nodes = 5;
  for (std::int64_t f = 0; f <= component_count(nodes); ++f) {
    const EnumerationResult brute = enumerate_success_count(nodes, f);
    EXPECT_EQ(brute.successes, success_count(nodes, f)) << "f=" << f;
  }
}

// ---------------------------------------------------------------------------
// The paper's stated anchors.
// ---------------------------------------------------------------------------

TEST(Thresholds, PaperCrossoversReproduceExactly) {
  EXPECT_EQ(threshold_nodes(2, 0.99), 18);
  EXPECT_EQ(threshold_nodes(3, 0.99), 32);
  EXPECT_EQ(threshold_nodes(4, 0.99), 45);
}

TEST(Thresholds, JustBelowCrossoverIsBelowTarget) {
  EXPECT_LT(p_success(17, 2), 0.99);
  EXPECT_GE(p_success(18, 2), 0.99);
  EXPECT_LT(p_success(31, 3), 0.99);
  EXPECT_GE(p_success(32, 3), 0.99);
  EXPECT_LT(p_success(44, 4), 0.99);
  EXPECT_GE(p_success(45, 4), 0.99);
}

TEST(Thresholds, ExactRationalsAtTheCrossovers) {
  // F(18,2)/C(38,2) = 696/703, F(32,3)/C(66,3) = 45322/45760,
  // F(45,4)/C(92,4) = 2767007/2794155 (derived in DESIGN.md).
  EXPECT_EQ(to_string(success_count(18, 2)), "696");
  EXPECT_EQ(to_string(total_count(18, 2)), "703");
  EXPECT_EQ(to_string(success_count(32, 3)), "45322");
  EXPECT_EQ(to_string(total_count(32, 3)), "45760");
  EXPECT_EQ(to_string(success_count(45, 4)), "2767007");
  EXPECT_EQ(to_string(total_count(45, 4)), "2794155");
}

TEST(Thresholds, UnreachableTargetReturnsMinusOne) {
  EXPECT_EQ(threshold_nodes(2, 1.0 + 1e-12, 100), -1);
}

// ---------------------------------------------------------------------------
// Structural properties of Equation 1.
// ---------------------------------------------------------------------------

TEST(Equation1, ZeroAndOneFailureAreAlwaysSurvived) {
  for (std::int64_t n = 2; n <= 64; ++n) {
    EXPECT_DOUBLE_EQ(p_success(n, 0), 1.0);
    EXPECT_DOUBLE_EQ(p_success(n, 1), 1.0) << "n=" << n;
  }
}

TEST(Equation1, ProbabilityIsInUnitInterval) {
  for (std::int64_t n = 2; n <= 20; ++n) {
    for (std::int64_t f = 0; f <= component_count(n); ++f) {
      const double p = p_success(n, f);
      EXPECT_GE(p, 0.0) << "n=" << n << " f=" << f;
      EXPECT_LE(p, 1.0) << "n=" << n << " f=" << f;
    }
  }
}

TEST(Equation1, TotalDestructionIsFatal) {
  for (std::int64_t n = 2; n <= 10; ++n) {
    EXPECT_DOUBLE_EQ(p_success(n, component_count(n)), 0.0);
  }
}

class MonotoneInNodes : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(MonotoneInNodes, PSuccessNeverDecreasesWithClusterSize) {
  const std::int64_t f = GetParam();
  double previous = 0.0;
  for (std::int64_t n = std::max<std::int64_t>(2, f / 2); n <= 64; ++n) {
    if (f > component_count(n)) continue;
    const double p = p_success(n, f);
    EXPECT_GE(p, previous - 1e-12) << "f=" << f << " n=" << n;
    previous = p;
  }
}

INSTANTIATE_TEST_SUITE_P(FailureCounts, MonotoneInNodes,
                         ::testing::Values<std::int64_t>(2, 3, 4, 5, 6, 7, 8, 9,
                                                         10));

class ConvergesToOne : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(ConvergesToOne, LimitBehaviour) {
  // The paper's headline: lim_{N->inf} P[S] = 1 for fixed f.
  const std::int64_t f = GetParam();
  EXPECT_GT(p_success(500, f), 0.999);
  EXPECT_GT(p_success(2000, f), 0.99995);
}

INSTANTIATE_TEST_SUITE_P(FailureCounts, ConvergesToOne,
                         ::testing::Values<std::int64_t>(2, 3, 4, 5, 6));

TEST(Equation1, MoreFailuresNeverHelp) {
  for (std::int64_t n : {4, 8, 16, 32, 64}) {
    for (std::int64_t f = 0; f < component_count(n); ++f) {
      EXPECT_GE(p_success(n, f), p_success(n, f + 1) - 1e-12)
          << "n=" << n << " f=" << f;
    }
  }
}

// ---------------------------------------------------------------------------
// Connectivity predicate unit behaviour (beyond the aggregate counts).
// ---------------------------------------------------------------------------

TEST(PairConnected, HealthySystemConnected) {
  ComponentSet failed;
  EXPECT_TRUE(pair_connected(4, failed, 0, 1));
  EXPECT_TRUE(all_live_pairs_connected(4, failed));
}

TEST(PairConnected, BothBackplanesDownDisconnects) {
  ComponentSet failed;
  failed.set(8);  // backplane 0 of a 4-node system
  failed.set(9);  // backplane 1
  EXPECT_FALSE(pair_connected(4, failed, 0, 1));
}

TEST(PairConnected, EndpointFullyDeadDisconnects) {
  ComponentSet failed;
  failed.set(0);  // node0 nic A
  failed.set(1);  // node0 nic B
  EXPECT_FALSE(pair_connected(4, failed, 0, 1));
  // Other pairs remain connected; all_live_pairs ignores the dead host.
  EXPECT_TRUE(pair_connected(4, failed, 1, 2));
  EXPECT_TRUE(all_live_pairs_connected(4, failed));
}

TEST(PairConnected, CrossSplitNeedsRelay) {
  // node0 alive only on net A, node1 alive only on net B.
  ComponentSet failed;
  failed.set(1);  // node0 nic B
  failed.set(2);  // node1 nic A
  EXPECT_TRUE(pair_connected(4, failed, 0, 1));  // nodes 2,3 can bridge
  // Kill one NIC on each potential relay: no bridge remains.
  failed.set(4);  // node2 nic A
  failed.set(7);  // node3 nic B
  EXPECT_FALSE(pair_connected(4, failed, 0, 1));
}

TEST(PairConnected, RelayRequiresBothBackplanes) {
  ComponentSet failed;
  failed.set(1);  // node0 nic B
  failed.set(2);  // node1 nic A
  failed.set(9);  // backplane B down: relay path impossible
  EXPECT_FALSE(pair_connected(4, failed, 0, 1));
}

TEST(PairConnected, SingleBackplaneDirectStillWorks) {
  ComponentSet failed;
  failed.set(9);  // backplane B down, both endpoints alive on A
  EXPECT_TRUE(pair_connected(4, failed, 0, 1));
}

TEST(PairConnected, AllPairsAreExchangeable) {
  // MODEL.md's exchangeability claim: the success count is identical for
  // every designated pair, so fixing (0, 1) loses no generality.
  const std::int64_t nodes = 5;
  for (std::int64_t f : {2, 3, 4}) {
    u128 reference = 0;
    bool first = true;
    for (std::int64_t a = 0; a < nodes; ++a) {
      for (std::int64_t b = a + 1; b < nodes; ++b) {
        u128 successes = 0;
        for_each_subset(component_count(nodes), f,
                        [&](const ComponentSet& failed) {
                          if (pair_connected(nodes, failed, a, b)) ++successes;
                        });
        if (first) {
          reference = successes;
          first = false;
        } else {
          EXPECT_EQ(successes, reference) << "pair (" << a << "," << b
                                          << ") f=" << f;
        }
      }
    }
    EXPECT_EQ(reference, success_count(nodes, f));
  }
}

TEST(ForEachSubset, CountsMatchBinomial) {
  for (std::int64_t m = 0; m <= 10; ++m) {
    for (std::int64_t f = 0; f <= m; ++f) {
      u128 visited = for_each_subset(m, f, [](const ComponentSet&) {});
      EXPECT_EQ(visited, binomial(m, f)) << "m=" << m << " f=" << f;
    }
  }
}

TEST(ForEachSubset, SubsetsHaveRequestedSize) {
  for_each_subset(8, 3, [](const ComponentSet& set) {
    EXPECT_EQ(set.count(), 3);
  });
}

}  // namespace
}  // namespace drs::analytic

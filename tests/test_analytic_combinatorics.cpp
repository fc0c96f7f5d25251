#include "analytic/combinatorics.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace drs::analytic {
namespace {

TEST(Binomial, BaseCases) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 1), 5u);
}

TEST(Binomial, OutOfDomainIsZero) {
  EXPECT_EQ(binomial(5, 6), 0u);
  EXPECT_EQ(binomial(5, -1), 0u);
  EXPECT_EQ(binomial(-1, 0), 0u);
}

TEST(Binomial, KnownValues) {
  EXPECT_EQ(binomial(10, 5), 252u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
  EXPECT_EQ(binomial(130, 10), binomial(130, 120));  // symmetry
  EXPECT_EQ(to_string(binomial(100, 50)),
            "100891344545564193334812497256");
}

TEST(Binomial, PascalIdentityHolds) {
  for (std::int64_t n = 1; n <= 40; ++n) {
    for (std::int64_t k = 0; k <= n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n - 1, k - 1) + binomial(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Binomial, SymmetryHolds) {
  for (std::int64_t n = 0; n <= 40; ++n) {
    for (std::int64_t k = 0; k <= n; ++k) {
      EXPECT_EQ(binomial(n, k), binomial(n, n - k));
    }
  }
}

TEST(Binomial, RowSumsArePowersOfTwo) {
  for (std::int64_t n = 0; n <= 30; ++n) {
    u128 sum = 0;
    for (std::int64_t k = 0; k <= n; ++k) sum += binomial(n, k);
    EXPECT_EQ(sum, u128{1} << n);
  }
}

TEST(Binomial, PaperRangeFitsExactly) {
  // Largest quantity any reproduced experiment needs: C(130, 10).
  const u128 v = binomial(130, 10);
  EXPECT_EQ(to_string(v), "266401260897200");
  EXPECT_GT(to_double(v), 2.6e14);
  EXPECT_LT(to_double(v), 2.7e14);
}

TEST(LogBinomial, MatchesLogOfExact) {
  EXPECT_NEAR(log_binomial(52, 5), std::log(2598960.0), 1e-9);
  EXPECT_EQ(log_binomial(3, 5), -std::numeric_limits<double>::infinity());
}

TEST(CoverageCount, OutOfDomainIsZero) {
  EXPECT_EQ(coverage_count(3, 2), 0u);  // r < m: some node unscathed
  EXPECT_EQ(coverage_count(3, 7), 0u);  // r > 2m: impossible
  EXPECT_EQ(coverage_count(-1, 0), 0u);
}

TEST(CoverageCount, EmptySystemHasOneCovering) {
  EXPECT_EQ(coverage_count(0, 0), 1u);
}

TEST(CoverageCount, SmallCasesByHand) {
  // m=1 node: cover with 1 of its 2 NICs (2 ways) or both (1 way).
  EXPECT_EQ(coverage_count(1, 1), 2u);
  EXPECT_EQ(coverage_count(1, 2), 1u);
  // m=2: r=2 -> each node loses one: 2*2 = 4.
  EXPECT_EQ(coverage_count(2, 2), 4u);
  // m=2, r=3 -> one node loses both (2 choices), other loses one (2): 4.
  EXPECT_EQ(coverage_count(2, 3), 4u);
  EXPECT_EQ(coverage_count(2, 4), 1u);
}

TEST(CoverageCount, MatchesBruteForceEnumeration) {
  // Enumerate all subsets of 2m NICs of size r; count those hitting every
  // node.
  for (std::int64_t m = 1; m <= 5; ++m) {
    for (std::int64_t r = 0; r <= 2 * m; ++r) {
      std::uint64_t brute = 0;
      const std::uint64_t universe = 1ull << (2 * m);
      for (std::uint64_t mask = 0; mask < universe; ++mask) {
        if (__builtin_popcountll(mask) != r) continue;
        bool covers = true;
        for (std::int64_t node = 0; node < m; ++node) {
          if ((mask >> (2 * node) & 3ull) == 0) covers = false;
        }
        if (covers) ++brute;
      }
      EXPECT_EQ(coverage_count(m, r), u128{brute}) << "m=" << m << " r=" << r;
    }
  }
}

TEST(CoverageCount, SumsToSurjectionTotal) {
  // Summing T(m, r) over r gives the number of NIC subsets covering all
  // nodes: prod over nodes of (2^2 - 1) = 3^m.
  for (std::int64_t m = 0; m <= 10; ++m) {
    u128 sum = 0;
    for (std::int64_t r = 0; r <= 2 * m; ++r) sum += coverage_count(m, r);
    u128 expected = 1;
    for (std::int64_t i = 0; i < m; ++i) expected *= 3;
    EXPECT_EQ(sum, expected) << "m=" << m;
  }
}

TEST(U128Formatting, ToStringAndToDouble) {
  EXPECT_EQ(to_string(u128{0}), "0");
  EXPECT_EQ(to_string(u128{42}), "42");
  EXPECT_EQ(to_string((u128{1} << 64)), "18446744073709551616");
  EXPECT_DOUBLE_EQ(to_double(u128{1} << 64), 0x1.0p64);
  EXPECT_DOUBLE_EQ(to_double(u128{1000}), 1000.0);
}

}  // namespace
}  // namespace drs::analytic

#include "montecarlo/estimator.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analytic/enumerate.hpp"
#include "analytic/survivability.hpp"
#include "golden_file.hpp"
#include "montecarlo/component_model.hpp"
#include "montecarlo/convergence.hpp"
#include "montecarlo/packet_validation.hpp"
#include "montecarlo/time_availability.hpp"

namespace drs::mc {
namespace {

TEST(Sampling, DrawsExactlyFDistinctComponents) {
  util::Rng rng(1);
  analytic::ComponentSet set;
  for (int rep = 0; rep < 100; ++rep) {
    sample_failures(10, 7, rng, set);
    EXPECT_EQ(set.count(), 7);
  }
}

TEST(Sampling, ZeroFailuresLeavesEverythingUp) {
  util::Rng rng(2);
  analytic::ComponentSet set;
  set.set(3);
  sample_failures(10, 0, rng, set);
  EXPECT_EQ(set.count(), 0);  // clear happened
}

// sample_failures must draw exactly what Rng::sample_distinct draws: the same
// subset, from the same number of RNG calls (the next draw agrees).
TEST(Sampling, MatchesSampleDistinctDrawForDraw) {
  for (std::int64_t nodes = 2; nodes <= 95; ++nodes) {
    const std::int64_t m = analytic::component_count(nodes);
    for (const std::int64_t k : {std::int64_t{0}, std::int64_t{1}, nodes, m}) {
      util::Rng reference(static_cast<std::uint64_t>(nodes << 8 | k));
      util::Rng rng = reference;
      std::vector<std::uint32_t> picks;
      for (int rep = 0; rep < 3; ++rep) {
        reference.sample_distinct(static_cast<std::uint64_t>(m),
                                  static_cast<std::size_t>(k), picks);
        analytic::ComponentSet expected;
        for (const std::uint32_t c : picks) expected.set(c);
        analytic::ComponentSet set;
        sample_failures(nodes, k, rng, set);
        EXPECT_EQ(set.count(), k) << "N=" << nodes << " k=" << k;
        for (std::int64_t c = 0; c < m; ++c) {
          ASSERT_EQ(set.test(c), expected.test(c))
              << "N=" << nodes << " k=" << k << " rep=" << rep << " c=" << c;
        }
        ASSERT_EQ(rng.next_u64(), reference.next_u64())
            << "N=" << nodes << " k=" << k << " rep=" << rep;
      }
    }
  }
}

// Pair and system successes per cell, over a grid that reaches the bitset's
// last bit (N=95, f=192) and runs a partial final block (20,011 iterations)
// both inline and fanned out over 4 threads. Pins every estimate bit for bit.
// The all-pairs predicate costs O(N^2) per trial, so each (N, f) runs in two
// (block size, threads) configurations rather than all four.
std::string estimate_corpus() {
  struct Config {
    std::uint64_t block_size;
    unsigned threads;
  };
  std::string out;
  for (const std::int64_t nodes : {2, 3, 4, 8, 12, 16, 24, 32, 48, 63, 95}) {
    const std::int64_t m = analytic::component_count(nodes);
    for (const std::int64_t f : std::set<std::int64_t>{0, 2, m / 2, m - 1, m}) {
      for (const Config config : {Config{4096, 1}, Config{1000, 4}}) {
        EstimateOptions options;
        options.iterations = 20'011;
        options.seed = 0xC0FFEEULL;
        options.block_size = config.block_size;
        options.threads = config.threads;
        const Estimate pair = estimate_p_success(nodes, f, options);
        const Estimate system = estimate_system_success(nodes, f, options);
        out += "N=" + std::to_string(nodes) + " f=" + std::to_string(f) +
               " block=" + std::to_string(config.block_size) +
               " threads=" + std::to_string(config.threads) +
               " pair=" + std::to_string(pair.successes) +
               " system=" + std::to_string(system.successes) + "\n";
      }
    }
  }
  return out;
}

TEST(Estimator, ReproducesThePinnedCorpus) {
  check_golden("mc_corpus.txt", estimate_corpus(), "Monte Carlo estimate corpus",
               " — regenerate with DRS_UPDATE_GOLDEN=1 only if the sampled "
               "failure sets are meant to change");
}

// Every entry point that fills a ComponentSet from (N, f) rejects a cell the
// 192-bit set cannot hold, on the calling thread before any worker starts
// (threads = 4 would otherwise terminate), and the domain's edge still runs.
TEST(Domain, RejectsCellsTheBitsetCannotHold) {
  EstimateOptions options;
  options.iterations = 100;
  options.threads = 4;
  const std::pair<std::int64_t, std::int64_t> outside[] = {
      {96, 3}, {100, 10}, {1, 1}, {8, -1}, {8, 19}};
  for (const auto& [nodes, failures] : outside) {
    EXPECT_TRUE(analytic::validate_failure_domain(nodes, failures).has_value());
    EXPECT_THROW(estimate_p_success(nodes, failures, options), std::invalid_argument)
        << "N=" << nodes << " f=" << failures;
    EXPECT_THROW(estimate_system_success(nodes, failures, options),
                 std::invalid_argument)
        << "N=" << nodes << " f=" << failures;
    EXPECT_THROW(analytic::enumerate_success_count(nodes, failures),
                 std::invalid_argument)
        << "N=" << nodes << " f=" << failures;
    EXPECT_THROW(analytic::all_pairs_success_count(nodes, failures),
                 std::invalid_argument)
        << "N=" << nodes << " f=" << failures;
    PacketValidationOptions packet;
    packet.nodes = nodes;
    packet.failures = failures;
    EXPECT_THROW(validate_against_packet_level(packet), std::invalid_argument)
        << "N=" << nodes << " f=" << failures;
  }
  EXPECT_THROW((void)analytic::p_all_pairs_success(100, 1), std::invalid_argument);
  TimeAvailabilityOptions availability;
  availability.nodes = 96;
  EXPECT_THROW(simulate_time_availability(availability), std::invalid_argument);

  try {
    estimate_p_success(96, 3, options);
    ADD_FAILURE() << "N=96 accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("N = 96"), std::string::npos) << what;
    EXPECT_NE(what.find("95-node limit"), std::string::npos) << what;
  }

  EXPECT_FALSE(analytic::validate_failure_domain(95, 192).has_value());
  EXPECT_EQ(estimate_p_success(95, 192, options).successes, 0u);
  // Every host is down, so no live pair can be cut.
  EXPECT_EQ(estimate_system_success(95, 192, options).successes, 100u);
  EXPECT_EQ(analytic::enumerate_success_count(95, 192).total, 1u);
}

TEST(Estimator, DeterministicForFixedSeed) {
  EstimateOptions options;
  options.iterations = 10000;
  options.seed = 77;
  const Estimate a = estimate_p_success(12, 3, options);
  const Estimate b = estimate_p_success(12, 3, options);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.p, b.p);
}

TEST(Estimator, DifferentSeedsDiffer) {
  EstimateOptions a_options, b_options;
  a_options.iterations = b_options.iterations = 10000;
  a_options.seed = 1;
  b_options.seed = 2;
  EXPECT_NE(estimate_p_success(12, 3, a_options).successes,
            estimate_p_success(12, 3, b_options).successes);
}

TEST(Estimator, ThreadCountInvariant) {
  EstimateOptions base;
  base.iterations = 20000;
  base.seed = 99;
  base.block_size = 1024;
  base.threads = 1;
  const Estimate single = estimate_p_success(16, 4, base);
  for (unsigned threads : {2u, 4u, 8u}) {
    EstimateOptions options = base;
    options.threads = threads;
    const Estimate parallel = estimate_p_success(16, 4, options);
    EXPECT_EQ(parallel.successes, single.successes) << threads << " threads";
  }
}

TEST(Estimator, BlockSizeInvariantWouldBreak) {
  // Document the contract: block size is part of the deterministic stream
  // layout, so changing it changes (slightly) which trials run. The estimate
  // must still agree within statistical noise.
  EstimateOptions a_options;
  a_options.iterations = 50000;
  a_options.seed = 5;
  a_options.block_size = 1000;
  EstimateOptions b_options = a_options;
  b_options.block_size = 7777;
  const double pa = estimate_p_success(16, 4, a_options).p;
  const double pb = estimate_p_success(16, 4, b_options).p;
  EXPECT_NEAR(pa, pb, 0.01);
}

class EstimatorAccuracy
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(EstimatorAccuracy, WithinWilsonIntervalOfEquation1) {
  const auto [nodes, failures] = GetParam();
  EstimateOptions options;
  options.iterations = 40000;
  options.seed = 1234;
  const Estimate estimate = estimate_p_success(nodes, failures, options);
  const double truth = analytic::p_success(nodes, failures);
  // 95 % Wilson interval at 40k trials; allow the rare miss by widening 1.5x.
  const double slack = 1.5 * (estimate.wilson95.hi - estimate.wilson95.lo) / 2;
  EXPECT_NEAR(estimate.p, truth, std::max(slack, 1e-3))
      << "N=" << nodes << " f=" << failures;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EstimatorAccuracy,
    ::testing::Values(std::tuple{4, 2}, std::tuple{8, 2}, std::tuple{8, 4},
                      std::tuple{16, 3}, std::tuple{24, 5}, std::tuple{32, 4},
                      std::tuple{48, 2}, std::tuple{63, 10}));

// Property-based cross-check against the exhaustive enumeration (rather than
// the closed form): for every small (N, f) the sampled estimate must bracket
// the exact subset count's probability with its own Wilson interval. This
// ties the sampler to the ground-truth `pair_connected` semantics with no
// algebra in between.
class EstimatorVsEnumeration
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t>> {};

TEST_P(EstimatorVsEnumeration, ExactProbabilityInsideWilsonInterval) {
  const auto [nodes, failures] = GetParam();
  const double exact =
      analytic::enumerate_success_count(nodes, failures).probability();
  EstimateOptions options;
  options.iterations = 40000;
  options.seed = 0xE9;  // fixed: the assertion is deterministic, not flaky
  const Estimate estimate = estimate_p_success(nodes, failures, options);
  // Widen the 95 % interval slightly so a legitimate ~2σ draw on one of the
  // 25 grid points cannot fail the suite.
  const double slack =
      0.5 * (estimate.wilson95.hi - estimate.wilson95.lo) + 1e-9;
  EXPECT_GE(exact, estimate.wilson95.lo - slack)
      << "N=" << nodes << " f=" << failures << " p=" << estimate.p;
  EXPECT_LE(exact, estimate.wilson95.hi + slack)
      << "N=" << nodes << " f=" << failures << " p=" << estimate.p;
}

INSTANTIATE_TEST_SUITE_P(Grid, EstimatorVsEnumeration,
                         ::testing::Combine(::testing::Range<std::int64_t>(4, 9),
                                            ::testing::Range<std::int64_t>(1,
                                                                           6)));

TEST(Estimator, SystemSuccessThreadCountInvariant) {
  // Same block-determinism contract for the all-pairs criterion: the successes
  // count is bit-identical for 1, 2 and 8 workers.
  EstimateOptions base;
  base.iterations = 20000;
  base.seed = 424242;
  base.block_size = 512;
  base.threads = 1;
  const Estimate single = estimate_system_success(12, 4, base);
  EXPECT_GT(single.successes, 0u);
  for (unsigned threads : {2u, 8u}) {
    EstimateOptions options = base;
    options.threads = threads;
    const Estimate parallel = estimate_system_success(12, 4, options);
    EXPECT_EQ(parallel.successes, single.successes) << threads << " threads";
    EXPECT_EQ(parallel.p, single.p) << threads << " threads";
  }
}

TEST(Estimator, ExactForDegenerateCases) {
  EstimateOptions options;
  options.iterations = 2000;
  EXPECT_DOUBLE_EQ(estimate_p_success(8, 0, options).p, 1.0);
  EXPECT_DOUBLE_EQ(estimate_p_success(8, 1, options).p, 1.0);
  EXPECT_DOUBLE_EQ(estimate_p_success(8, 18, options).p, 0.0);  // all dead
}

TEST(Convergence, DeviationShrinksWithIterations) {
  // The Fig. 3 property: MAD decreases (strongly) from 10 to 100k iterations.
  const ConvergencePoint coarse = convergence_point(3, 10, 32, 42, 1);
  const ConvergencePoint fine = convergence_point(3, 100000, 32, 42, 1);
  EXPECT_EQ(coarse.failures, 3);
  EXPECT_EQ(coarse.iterations, 10u);
  EXPECT_EQ(fine.iterations, 100000u);
  EXPECT_LT(fine.mean_abs_deviation, coarse.mean_abs_deviation / 5);
  EXPECT_LT(fine.mean_abs_deviation, 0.005);
}

TEST(Convergence, ThousandIterationsAlreadyTight) {
  // The paper reports a small MAD at 1,000 iterations for every f.
  for (std::int64_t f : {2, 5, 10}) {
    const ConvergencePoint point = convergence_point(f, 1000, 64, 7, 1);
    EXPECT_LT(point.mean_abs_deviation, 0.02) << "f=" << f;
  }
}

TEST(Convergence, MaxDeviationBoundsMean) {
  const ConvergencePoint point = convergence_point(4, 500, 32, 11, 1);
  EXPECT_GE(point.max_abs_deviation, point.mean_abs_deviation);
}

}  // namespace
}  // namespace drs::mc

// Golden-file pinning of the paper-facing bench tables.
//
// bench_fig1_proactive_cost and bench_fig2_psuccess print tables computed
// from the cost model and Equation 1; those numbers ARE the reproduced paper
// claims, so a silent drift (a refactor of CostModel, a combinatorics change)
// must fail loudly. Each test rebuilds the bench's table at a small fixed
// configuration through the same library calls and byte-compares it with a
// golden file under tests/golden/.
//
// To regenerate after an intentional change:
//   DRS_UPDATE_GOLDEN=1 ./build/tests/test_bench_golden
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "analytic/survivability.hpp"
#include "cost/cost_model.hpp"
#include "golden_file.hpp"
#include "util/table.hpp"

namespace {

using namespace drs;

TEST(BenchGolden, Fig1ResponseTimeTable) {
  // The Figure 1 rows bench_fig1_proactive_cost prints (64-byte minimum
  // frames, the paper-anchor configuration), at a subset of cluster sizes.
  cost::CostModel model;
  util::Table table(
      {"N", "5% budget", "10% budget", "15% budget", "25% budget"});
  for (std::int64_t n : {2, 10, 30, 60, 90, 120}) {
    std::vector<std::string> row{std::to_string(n)};
    for (double budget : {0.05, 0.10, 0.15, 0.25}) {
      row.push_back(
          util::format_double(model.response_time_seconds(n, budget), 4));
    }
    table.add_row(std::move(row));
  }
  // The paper's headline anchor rides along in the same golden: "ninety
  // hosts ... less than 1 second with only 10 %" of a 100 Mb/s network.
  const double anchor = model.response_time_seconds(90, 0.10);
  EXPECT_LT(anchor, 1.0);
  char line[96];
  std::snprintf(line, sizeof line, "anchor: N=90 @10%% budget = %.6f s (<1 s)\n",
                anchor);
  check_golden("fig1_response_time.txt", table.to_text() + line, "bench table");
}

TEST(BenchGolden, Fig1MaxNodesTable) {
  cost::CostModel model;
  util::Table table(
      {"deadline (s)", "5% budget", "10% budget", "15% budget", "25% budget"});
  for (double deadline : {0.5, 1.0, 2.0}) {
    std::vector<std::string> row{util::format_double(deadline, 2)};
    for (double budget : {0.05, 0.10, 0.15, 0.25}) {
      row.push_back(std::to_string(model.max_nodes(budget, deadline)));
    }
    table.add_row(std::move(row));
  }
  check_golden("fig1_max_nodes.txt", table.to_text(), "bench table");
}

TEST(BenchGolden, Fig2PSuccessTable) {
  // The Figure 2 / Equation 1 grid bench_fig2_psuccess prints, truncated to
  // N <= 24 and f <= 6 so the golden stays reviewable.
  std::vector<std::string> headers{"N"};
  for (int f = 2; f <= 6; ++f) headers.push_back("f=" + std::to_string(f));
  util::Table table(headers);
  for (std::int64_t n = 2; n <= 24; ++n) {
    std::vector<std::string> row{std::to_string(n)};
    for (std::int64_t f = 2; f <= 6; ++f) {
      if (f > analytic::component_count(n)) {
        row.push_back("-");
      } else {
        row.push_back(util::format_double(analytic::p_success(n, f), 4));
      }
    }
    table.add_row(std::move(row));
  }
  check_golden("fig2_psuccess.txt", table.to_text(), "bench table");
}

TEST(BenchGolden, Fig2CrossoverTable) {
  // Paper: P[Success] >= 0.99 at N = 18 / 32 / 45 for f = 2 / 3 / 4.
  util::Table table({"f", "N at P>=0.99", "P at crossover"});
  for (std::int64_t f : {2, 3, 4}) {
    const std::int64_t n = analytic::threshold_nodes(f, 0.99);
    table.add_row({std::to_string(f), std::to_string(n),
                   util::format_double(analytic::p_success(n, f), 6)});
  }
  EXPECT_EQ(analytic::threshold_nodes(2, 0.99), 18);
  EXPECT_EQ(analytic::threshold_nodes(3, 0.99), 32);
  EXPECT_EQ(analytic::threshold_nodes(4, 0.99), 45);
  check_golden("fig2_crossovers.txt", table.to_text(), "bench table");
}

}  // namespace

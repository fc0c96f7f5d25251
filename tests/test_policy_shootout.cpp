// The policy shootout at the CI smoke grid: every registered policy over a
// reduced chaos corpus, ranked into one deterministic table and pinned
// byte-for-byte.
//
// To regenerate after an intentional behaviour change:
//   DRS_UPDATE_GOLDEN=1 ./build/tests/test_policy_shootout
#include "policy/shootout.hpp"

#include <gtest/gtest.h>

#include "golden_file.hpp"
#include "policy/registry.hpp"

namespace drs::policy {
namespace {

using namespace drs::util::literals;

/// The CI smoke grid: small corpus, scaled-down protocol timers so every
/// policy gets a fair shot inside the measurement window.
ShootoutConfig smoke_config() {
  ShootoutConfig config;
  config.node_count = 8;
  config.seed = 1;
  config.campaigns = 2;
  config.events_per_campaign = 8;
  config.max_patterns = 4;
  config.params.drs.probe_interval = 50_ms;
  config.params.drs.probe_timeout = 20_ms;
  config.params.drs.failures_to_down = 2;
  config.params.drs.discover_timeout = 25_ms;
  config.params.rip.advertise_interval = 1_s;
  config.params.rip.route_timeout = 6_s;
  config.params.ospf.hello_interval = 1_s;
  config.params.ospf.dead_interval = 4_s;
  config.params.ospf.lsa_refresh = 10_s;
  config.warmup = 2_s;
  config.measure = 8_s;
  return config;
}

TEST(PolicyShootout, CorpusIsNonTrivialAndDeduplicated) {
  const ShootoutReport report = run_shootout(
      [] {
        ShootoutConfig config = smoke_config();
        config.policy_filter = {"static"};  // corpus only, cheapest policy
        return config;
      }());
  ASSERT_GE(report.corpus.size(), 2u);
  for (std::size_t i = 0; i < report.corpus.size(); ++i) {
    for (std::size_t j = i + 1; j < report.corpus.size(); ++j) {
      EXPECT_NE(report.corpus[i], report.corpus[j]) << "duplicate pattern";
    }
  }
}

TEST(PolicyShootout, RankedTableMatchesGolden) {
  const ShootoutReport report = run_shootout(smoke_config());
  ASSERT_EQ(report.rows.size(), policy_names().size());
  for (const ShootoutRow& row : report.rows) {
    EXPECT_EQ(row.patterns, report.corpus.size()) << row.policy;
  }
  // Proactive/precomputed policies must outrank plain static routing.
  EXPECT_NE(report.rows.front().policy, "static");
  check_golden("policy_shootout.txt", report.table(), "shootout ranking",
               " (regenerate with DRS_UPDATE_GOLDEN=1 only if the behaviour "
               "change is intentional)");
}

TEST(PolicyShootout, JsonMirrorsTheRanking) {
  ShootoutConfig config = smoke_config();
  config.policy_filter = {"drs", "static_resilient"};
  config.max_patterns = 2;
  const ShootoutReport report = run_shootout(config);
  ASSERT_EQ(report.rows.size(), 2u);
  const std::string json = report.json();
  EXPECT_NE(json.find("\"ranking\""), std::string::npos);
  EXPECT_NE(json.find(report.rows.front().policy), std::string::npos);
  // Ranking order in JSON matches the table's best-first order.
  EXPECT_LT(json.find(report.rows[0].policy),
            json.find(report.rows[1].policy));
}

}  // namespace
}  // namespace drs::policy

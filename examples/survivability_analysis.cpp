// Survivability analysis CLI: Equation 1, the 0.99 thresholds, and on-demand
// Monte-Carlo validation — the paper's quantitative story as a tool.
//
//   $ ./survivability_analysis --failures 3 --max-nodes 64 --iterations 10000
#include <cstdio>

#include "drs.hpp"

using namespace drs;

int main(int argc, char** argv) {
  auto flags = util::Flags::parse(
      argc, argv,
      {{"failures", "failure count f (default 3)"},
       {"max-nodes", "largest N in the series, at most 95 (default 64)"},
       {"iterations", "Monte-Carlo iterations per N; 0 = analytic only"},
       {"target", "threshold target probability (default 0.99)"},
       {"seed", "Monte-Carlo seed"},
       {"csv", "emit CSV instead of an aligned table"},
       {"mtbf-hours", "component MTBF in hours (enables the availability report)"},
       {"mttr-hours", "component MTTR in hours (default 4)"}});
  if (!flags) return 1;
  if (flags->help_requested()) return 0;

  const std::int64_t failures = flags->get_int("failures", 3);
  const std::int64_t max_nodes = flags->get_int("max-nodes", 64);
  if (const auto error = analytic::validate_failure_domain(max_nodes, 0)) {
    std::fprintf(stderr, "--max-nodes: %s\n", error->c_str());
    return 1;
  }
  if (failures < 0) {
    std::fprintf(stderr, "--failures: f = %lld must be >= 0\n",
                 static_cast<long long>(failures));
    return 1;
  }
  const auto iterations =
      static_cast<std::uint64_t>(flags->get_int("iterations", 0));
  const double target = flags->get_double("target", 0.99);
  const auto seed = static_cast<std::uint64_t>(flags->get_int("seed", 42));

  std::vector<std::string> headers{"N", "P[Success] (Eq. 1)"};
  if (iterations > 0) {
    headers.push_back("simulated");
    headers.push_back("|diff|");
    headers.push_back("wilson95");
  }
  util::Table table(headers);
  for (std::int64_t n = std::max<std::int64_t>(2, failures / 2); n <= max_nodes;
       ++n) {
    if (failures > analytic::component_count(n)) continue;
    const double exact = analytic::p_success(n, failures);
    std::vector<std::string> row{std::to_string(n),
                                 util::format_double(exact, 6)};
    if (iterations > 0) {
      mc::EstimateOptions options;
      options.iterations = iterations;
      options.seed = seed;
      const auto estimate = mc::estimate_p_success(n, failures, options);
      row.push_back(util::format_double(estimate.p, 6));
      row.push_back(util::format_double(std::abs(estimate.p - exact), 6));
      // Built up with += (not operator+ chaining): GCC 12's -Wrestrict trips
      // a false positive on the inlined `const char* + std::string&&` form.
      std::string interval = "[";
      interval += util::format_double(estimate.wilson95.lo, 4);
      interval += ", ";
      interval += util::format_double(estimate.wilson95.hi, 4);
      interval += "]";
      row.push_back(std::move(interval));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", flags->get_bool("csv") ? table.to_csv().c_str()
                                             : table.to_text().c_str());

  const std::int64_t threshold = analytic::threshold_nodes(failures, target);
  if (threshold > 0) {
    std::printf("P[Success] first reaches %s at N = %lld (f = %lld)\n",
                util::format_double(target, 4).c_str(),
                static_cast<long long>(threshold),
                static_cast<long long>(failures));
  }

  if (flags->has("mtbf-hours")) {
    analytic::ComponentReliability reliability;
    reliability.mtbf_seconds = flags->get_double("mtbf-hours", 720.0) * 3600.0;
    reliability.mttr_seconds = flags->get_double("mttr-hours", 4.0) * 3600.0;
    const std::int64_t n = std::min<std::int64_t>(max_nodes, 64);
    const double availability = analytic::pair_availability(n, reliability);
    std::printf(
        "\ntime-domain availability (N=%lld, MTBF=%.1f h, MTTR=%.1f h, "
        "q=%.6f):\n"
        "  DRS dual-network pair availability:   %.8f\n"
        "  single-network baseline:              %.8f\n"
        "  expected annual pair downtime (DRS):  %s\n",
        static_cast<long long>(n), reliability.mtbf_seconds / 3600.0,
        reliability.mttr_seconds / 3600.0, reliability.steady_state_q(),
        availability, analytic::single_network_pair_availability(reliability),
        util::to_string(analytic::expected_annual_pair_downtime(n, reliability))
            .c_str());
    if (iterations > 0) {
      mc::TimeAvailabilityOptions options;
      options.nodes = n;
      options.reliability = reliability;
      options.horizon_seconds = reliability.mtbf_seconds * 200.0;
      options.sample_period_seconds = reliability.mttr_seconds / 2.0;
      options.seed = seed;
      const auto simulated = mc::simulate_time_availability(options);
      std::printf("  renewal-process simulation:           %.8f "
                  "(%llu samples)\n",
                  simulated.availability,
                  static_cast<unsigned long long>(simulated.samples));
    }
  }
  return 0;
}

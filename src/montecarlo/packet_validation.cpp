#include "montecarlo/packet_validation.hpp"

#include <sstream>
#include <stdexcept>

#include "analytic/enumerate.hpp"
#include "analytic/survivability.hpp"
#include "core/system.hpp"
#include "montecarlo/component_model.hpp"
#include "net/network.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace drs::mc {

std::string Disagreement::to_string() const {
  std::ostringstream out;
  out << "sample " << sample_index << ": model="
      << (model_says_connected ? "connected" : "cut") << " packet="
      << (packet_level_connected ? "connected" : "cut") << " failed={";
  for (std::size_t i = 0; i < failed_components.size(); ++i) {
    out << (i ? "," : "") << failed_components[i];
  }
  out << "}";
  return out.str();
}

PacketValidationResult validate_against_packet_level(
    const PacketValidationOptions& options) {
  if (const auto error =
          analytic::validate_failure_domain(options.nodes, options.failures)) {
    throw std::invalid_argument("validate_against_packet_level: " + *error);
  }
  PacketValidationResult result;
  util::Rng rng(options.seed, 0x9ACEDULL);
  std::vector<std::uint32_t> picks;
  // One arena for the whole validation run, rewound between replications so
  // every sample after the first reuses the warmed-up chunks.
  util::Arena arena;

  for (std::uint64_t sample = 0; sample < options.samples; ++sample) {
    rng.sample_distinct(
        static_cast<std::uint64_t>(analytic::component_count(options.nodes)),
        static_cast<std::size_t>(options.failures), picks);
    analytic::ComponentSet failed;
    for (std::uint32_t c : picks) failed.set(c);
    const bool model = analytic::pair_connected(options.nodes, failed, 0, 1);

    // Fresh cluster per sample: inject, let the daemons converge, measure.
    arena.reset();
    sim::Simulator simulator(&arena);
    net::ClusterNetwork network(
        simulator,
        {.node_count = static_cast<std::uint16_t>(options.nodes), .backplane = {}});
    core::DrsSystem system(network, options.drs);
    system.start();
    for (std::uint32_t c : picks) network.set_component_failed(c, true);
    system.settle(options.settle);
    const bool packet = system.test_reachability(0, 1);

    ++result.samples;
    if (model) ++result.model_connected;
    if (packet) ++result.packet_connected;
    if (model == packet) {
      ++result.agreements;
    } else {
      result.disagreements.push_back(Disagreement{sample, model, packet, picks});
    }
  }
  return result;
}

}  // namespace drs::mc

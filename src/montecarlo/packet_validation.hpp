// Packet-level cross-validation of the combinatorial model.
//
// The Monte-Carlo estimator and Equation 1 both rest on the abstract
// predicate `pair_connected`. This module closes the loop with the real
// protocol implementation: for sampled failure subsets it builds an actual
// simulated cluster, runs the actual DRS daemons until they converge, and
// checks that live end-to-end reachability matches the predicate — i.e. that
// the deployed algorithm achieves exactly the survivability the model
// credits it with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "util/time.hpp"

namespace drs::mc {

struct PacketValidationOptions {
  std::int64_t nodes = 8;
  std::int64_t failures = 3;
  std::uint64_t samples = 25;
  std::uint64_t seed = 0x5EED5EEDULL;
  core::DrsConfig drs;
  /// Simulated time given to the daemons to detect and reroute. Must cover
  /// detection (failures_to_down probe cycles) plus relay discovery.
  util::Duration settle = util::Duration::seconds(2);
};

struct Disagreement {
  std::uint64_t sample_index = 0;
  bool model_says_connected = false;
  bool packet_level_connected = false;
  std::vector<std::uint32_t> failed_components;
  std::string to_string() const;
};

struct PacketValidationResult {
  std::uint64_t samples = 0;
  std::uint64_t agreements = 0;
  std::uint64_t model_connected = 0;
  std::uint64_t packet_connected = 0;
  std::vector<Disagreement> disagreements;

  bool perfect() const { return agreements == samples; }
};

/// Throws std::invalid_argument when analytic::validate_failure_domain
/// rejects (options.nodes, options.failures).
PacketValidationResult validate_against_packet_level(
    const PacketValidationOptions& options);

}  // namespace drs::mc

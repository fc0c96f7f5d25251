// The name-keyed routing-policy registry.
//
// Every policy the harnesses can run is registered here under a stable
// string name, with a parameter-validation hook (DrsConfig::validate()
// style: nullopt = fine, otherwise a human-readable complaint) and a
// factory. PolicyParams carries one parameter struct per registered policy;
// a factory reads only its own. make_policy() is the single entry point the
// comparison harness, the cluster study driver and the policy_shootout
// experiment family all construct through — unknown names
// fail with the registered-name list in the message.
//
// See docs/POLICIES.md for the registration walkthrough.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "policy/alternate_path.hpp"
#include "policy/policy.hpp"
#include "policy/static_resilient.hpp"
#include "reactive/ospf_lite.hpp"
#include "reactive/rip_lite.hpp"

namespace drs::policy {

/// One parameter struct per registered policy; each factory consumes only
/// its own member, so a single PolicyParams can drive a whole shootout.
struct PolicyParams {
  core::DrsConfig drs;
  reactive::RipConfig rip;
  reactive::OspfConfig ospf;
  StaticResilientConfig static_resilient;
  AlternatePathConfig alternate_path;
};

struct PolicyFactory {
  const char* name;
  const char* help;
  /// Validates the parameter struct this policy consumes.
  std::optional<std::string> (*validate)(const PolicyParams& params);
  std::unique_ptr<RoutingPolicy> (*create)(net::ClusterNetwork& network,
                                           const PolicyParams& params);
};

/// Registry lookup; nullptr when unknown.
const PolicyFactory* find_policy(std::string_view name);

/// Registered names, sorted ("alternate_path", "drs", ...).
std::vector<std::string> policy_names();

/// Validates `params` for the named policy. Unknown names are themselves a
/// validation failure (listing the registered names).
[[nodiscard]] std::optional<std::string> validate_policy(
    std::string_view name, const PolicyParams& params);

/// Constructs the named policy over `network`. Throws std::invalid_argument
/// on unknown names (message lists the registered names) and on parameter
/// validation failures.
std::unique_ptr<RoutingPolicy> make_policy(std::string_view name,
                                           net::ClusterNetwork& network,
                                           const PolicyParams& params);

}  // namespace drs::policy

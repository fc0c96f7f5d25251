// RoutingPolicy adapters over the pre-existing protocol stacks.
//
// Each adapter reproduces the exact construction/start order the old
// enum switch in reactive/comparison.cpp used — subsystem first,
// then (for non-DRS stacks) one ICMP echo responder per node — so the
// redesigned harness's event stream is byte-identical to the pre-redesign
// one (pinned by test_policy_differential).
#pragma once

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "policy/policy.hpp"
#include "reactive/ospf_lite.hpp"
#include "reactive/rip_lite.hpp"

namespace drs::policy {

/// The DRS daemons themselves; overhead = probes + control messages.
class DrsPolicy final : public RoutingPolicy {
 public:
  DrsPolicy(net::ClusterNetwork& network, const core::DrsConfig& config)
      : system_(network, config) {}

  const char* name() const override { return "drs"; }
  void start() override { system_.start(); }
  void stop() override { system_.stop(); }
  proto::IcmpService& icmp(net::NodeId node) override {
    return system_.icmp(node);
  }
  std::uint64_t control_messages() const override {
    return system_.total_probes_sent() + system_.total_control_messages();
  }

  core::DrsSystem& system() { return system_; }

 private:
  core::DrsSystem system_;
};

/// RIP-lite; overhead = advertisements sent.
class RipPolicy final : public RoutingPolicy {
 public:
  RipPolicy(net::ClusterNetwork& network, const reactive::RipConfig& config)
      : network_(network), config_(config) {}

  const char* name() const override { return "rip"; }
  void start() override;
  void stop() override;
  proto::IcmpService& icmp(net::NodeId node) override {
    return *icmp_.at(node);
  }
  std::uint64_t control_messages() const override;

 private:
  net::ClusterNetwork& network_;
  reactive::RipConfig config_;
  std::unique_ptr<reactive::RipSystem> system_;
  std::vector<std::unique_ptr<proto::IcmpService>> icmp_;
};

/// OSPF-lite; overhead = hellos + LSAs originated + LSAs flooded.
class OspfPolicy final : public RoutingPolicy {
 public:
  OspfPolicy(net::ClusterNetwork& network, const reactive::OspfConfig& config)
      : network_(network), config_(config) {}

  const char* name() const override { return "ospf"; }
  void start() override;
  void stop() override;
  proto::IcmpService& icmp(net::NodeId node) override {
    return *icmp_.at(node);
  }
  std::uint64_t control_messages() const override;

 private:
  net::ClusterNetwork& network_;
  reactive::OspfConfig config_;
  std::unique_ptr<reactive::OspfSystem> system_;
  std::vector<std::unique_ptr<proto::IcmpService>> icmp_;
};

/// The do-nothing boot-routes baseline. Its overhead really is zero, and it
/// reports that through the same control_messages() hook as everyone else
/// (no harness special case).
class StaticPolicy final : public RoutingPolicy {
 public:
  explicit StaticPolicy(net::ClusterNetwork& network) : network_(network) {}

  const char* name() const override { return "static"; }
  void start() override;
  void stop() override { icmp_.clear(); }
  proto::IcmpService& icmp(net::NodeId node) override {
    return *icmp_.at(node);
  }
  std::uint64_t control_messages() const override { return 0; }

 private:
  net::ClusterNetwork& network_;
  std::vector<std::unique_ptr<proto::IcmpService>> icmp_;
};

}  // namespace drs::policy

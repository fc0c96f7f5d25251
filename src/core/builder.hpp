// One-expression construction of a complete DRS deployment.
//
// DrsSystem deliberately takes an externally-owned ClusterNetwork, which is
// the right shape for the simulator-driving tests and benches (they set
// their own DrsConfig knobs) but makes "give me a running N-node cluster" a
// three-object dance. DrsSystemBuilder assembles the default stack in one
// expression and returns a DrsDeployment that owns every piece, in
// construction order, so teardown is automatic.
//
//   auto cluster = core::DrsSystemBuilder().node_count(8).build();
//   cluster.settle(1_s);
//
// Other routing policies are built by name through policy::make_policy.
#pragma once

#include <memory>

#include "core/system.hpp"
#include "net/network.hpp"

namespace drs::core {

/// Owns an entire simulated cluster: simulator, network and DRS daemons.
/// Move-only; destroying it tears the stack down in reverse order.
class DrsDeployment {
 public:
  DrsDeployment(std::unique_ptr<sim::Simulator> simulator,
                std::unique_ptr<net::ClusterNetwork> network,
                std::unique_ptr<DrsSystem> system)
      : simulator_(std::move(simulator)),
        network_(std::move(network)),
        system_(std::move(system)) {}

  sim::Simulator& simulator() { return *simulator_; }
  net::ClusterNetwork& network() { return *network_; }
  DrsSystem& system() { return *system_; }

  /// Pass-throughs to DrsSystem for the two calls every walkthrough makes.
  void settle(util::Duration warmup) { system_->settle(warmup); }
  bool test_reachability(net::NodeId a, net::NodeId b) {
    return system_->test_reachability(a, b);
  }

 private:
  std::unique_ptr<sim::Simulator> simulator_;
  std::unique_ptr<net::ClusterNetwork> network_;
  std::unique_ptr<DrsSystem> system_;
};

class DrsSystemBuilder {
 public:
  /// Cluster size (default 8, the paper's smallest deployed cluster).
  DrsSystemBuilder& node_count(std::uint16_t n);

  /// Assembles the deployment with the default DrsConfig and backplane, and
  /// starts the daemons.
  [[nodiscard]] DrsDeployment build() const;

 private:
  std::uint16_t node_count_ = 8;
};

}  // namespace drs::core

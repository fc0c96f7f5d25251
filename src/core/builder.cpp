#include "core/builder.hpp"

namespace drs::core {

DrsSystemBuilder& DrsSystemBuilder::node_count(std::uint16_t n) {
  node_count_ = n;
  return *this;
}

DrsDeployment DrsSystemBuilder::build() const {
  auto simulator = std::make_unique<sim::Simulator>();
  auto network = std::make_unique<net::ClusterNetwork>(
      *simulator, net::ClusterNetwork::Config{.node_count = node_count_,
                                              .backplane = {}});
  auto system = std::make_unique<DrsSystem>(*network, DrsConfig{});
  system->start();
  return DrsDeployment(std::move(simulator), std::move(network),
                       std::move(system));
}

}  // namespace drs::core

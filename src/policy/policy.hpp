// The pluggable routing-policy interface.
//
// A RoutingPolicy owns whatever control plane a cluster runs — the DRS
// daemons, a distance-vector or link-state baseline, or a precomputed
// failover scheme with no control plane at all — behind one uniform
// lifecycle so the comparison harness, the cluster study driver and the
// policy-shootout experiment family can treat them interchangeably:
//
//   install/converge   start() / stop() — bring the control plane up over an
//                      externally-owned ClusterNetwork (reading the *live*
//                      component state, so pre-failed clusters work);
//   failure hooks      on_component_failed() / on_component_restored() —
//                      called by the harness right after it mutates the
//                      ClusterNetwork. Probing policies (DRS, RIP, OSPF)
//                      ignore them and detect through their own traffic;
//                      precomputed policies use them as the notification
//                      edge that swaps backup routes in.
//   next-hop surface   the policy writes net::RoutingTable entries (origin
//                      kPolicy for the precomputed schemes) — resolution
//                      stays in the data plane, so the application probe
//                      stream measures exactly what a real packet would see;
//   overhead account   control_messages() — every message the policy put on
//                      the wire to detect or react (probes + control for
//                      DRS, advertisements for RIP, hellos + LSAs for OSPF,
//                      notification fan-outs for alternate-path, honestly 0
//                      for the static schemes). One accessor, one code path,
//                      for every policy.
//
// Concrete policies are registered by name in policy/registry.hpp; see
// docs/POLICIES.md for the contract and how to add one.
#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "proto/icmp.hpp"

namespace drs::policy {

class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  RoutingPolicy() = default;
  RoutingPolicy(const RoutingPolicy&) = delete;
  RoutingPolicy& operator=(const RoutingPolicy&) = delete;

  /// The registry name this instance was created under ("drs", "rip", ...).
  virtual const char* name() const = 0;

  /// Brings the control plane up over the network passed at construction,
  /// reading the live component state. Must also guarantee every host
  /// answers ICMP echo (the application probe stream's stand-in), whether
  /// through the policy's own services or dedicated responders.
  virtual void start() = 0;
  virtual void stop() = 0;

  /// Called by harnesses immediately after flipping a component's state.
  /// Default: ignore — probing policies find out the hard way.
  virtual void on_component_failed(net::ComponentIndex component) {
    (void)component;
  }
  virtual void on_component_restored(net::ComponentIndex component) {
    (void)component;
  }

  /// The ICMP service answering (and able to originate) echo on `node`.
  /// Harnesses use it to source the application probe stream.
  virtual proto::IcmpService& icmp(net::NodeId node) = 0;

  /// Messages this policy put on the wire so far to detect or react —
  /// the single overhead-accounting hook every policy reports through.
  virtual std::uint64_t control_messages() const = 0;
};

}  // namespace drs::policy

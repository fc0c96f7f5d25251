#include "cluster/scenario.hpp"

#include <memory>

#include "net/failure.hpp"

namespace drs::cluster {

StudyResult run_study(const StudyConfig& config) {
  sim::Simulator simulator;
  net::ClusterNetwork network(simulator,
                              {.node_count = config.node_count, .backplane = {}});

  // Policy under test, by registry name. Each policy brings the services it
  // needs (the non-DRS ones install per-node ICMP responders themselves).
  std::unique_ptr<policy::RoutingPolicy> routing_policy =
      policy::make_policy(config.policy, network, config.params);
  routing_policy->start();

  StudyResult result;
  result.policy = config.policy;

  RequestReplyWorkload workload(network, config.workload);
  workload.set_completion_hook(
      [&result, &simulator](bool ok, net::NodeId, net::NodeId) {
        result.availability.add_sample(simulator.now(), ok);
      });

  // Generate the trace (bounded to this cluster's node count) and schedule
  // its network events; "other" failures only contribute to the statistics.
  TraceConfig trace_config = config.trace;
  trace_config.node_count = config.node_count;
  const std::vector<TraceEvent> trace = generate_trace(trace_config);
  result.trace_stats = summarize(trace);

  net::FailureInjector injector(network);
  // Precomputed policies (static_resilient, alternate_path) react through
  // failure notifications rather than probing; the injector's observer is
  // the simulation's stand-in for that hardware signal. Probing policies
  // ignore the hooks (no-op default), so this is uniform across the registry.
  injector.set_observer([&routing_policy](const net::FailureAction& action) {
    if (action.fail) {
      routing_policy->on_component_failed(action.component);
    } else {
      routing_policy->on_component_restored(action.component);
    }
  });
  for (const TraceEvent& event : trace) {
    const util::SimTime at = event.at + config.warmup;
    net::ComponentIndex component = 0;
    switch (event.failure_class) {
      case FailureClass::kNic:
        component = net::ClusterNetwork::nic_component(event.node, event.network);
        break;
      case FailureClass::kBackplane:
        component = network.backplane_component(event.network);
        break;
      case FailureClass::kOther:
        continue;  // not a network component
    }
    injector.schedule_outage(at, component, event.repair_time);
  }

  workload.start();
  simulator.run_for(config.warmup + trace_config.horizon +
                    util::Duration::seconds(1));
  workload.stop();

  result.workload = workload.stats();
  result.protocol_messages = routing_policy->control_messages();
  routing_policy->stop();
  return result;
}

std::vector<StudyResult> run_comparative_study(StudyConfig config) {
  std::vector<StudyResult> results;
  for (const std::string& name : policy::policy_names()) {
    config.policy = name;
    results.push_back(run_study(config));
  }
  return results;
}

}  // namespace drs::cluster

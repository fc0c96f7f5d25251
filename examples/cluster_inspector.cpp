// Operator's view: a live cluster under random failure churn, inspected
// through the DRS management plane (STATUS_REQUEST queries over the data
// path) and, with --trace, the daemons' control-plane trace events.
//
//   $ ./cluster_inspector [--nodes 8] [--churn-events 10] [--trace]
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "drs.hpp"

using namespace drs;
using namespace drs::util::literals;

namespace {

void print_health_report(core::DrsSystem& drs, sim::Simulator& simulator) {
  util::Table table({"node", "reachable", "links down", "detours", "leases",
                     "query rtt"});
  const std::uint16_t n = drs.node_count();
  for (net::NodeId node = 1; node < n; ++node) {
    std::optional<core::DrsDaemon::RemoteStatus> status;
    bool done = false;
    drs.daemon(0).query_peer_status(node, 200_ms, [&](const auto& s) {
      status = s;
      done = true;
    });
    const auto deadline = simulator.now() + 300_ms;
    while (!done && simulator.now() < deadline && !simulator.idle()) {
      simulator.step();
    }
    if (status) {
      table.add_row({std::to_string(node), "yes",
                     std::to_string(status->links_down),
                     std::to_string(status->detours),
                     std::to_string(status->leases_held),
                     util::to_string(status->rtt)});
    } else {
      table.add_row({std::to_string(node), "NO", "-", "-", "-", "-"});
    }
  }
  std::printf("t=%s, health as seen from node 0:\n%s\n",
              util::to_string(simulator.now()).c_str(), table.to_text().c_str());
}

/// Prints the relay-discovery, lease and detour events of the run, then how
/// many events the ring evicted (those may include control-plane ones).
void print_control_plane_trace(const obs::Tracer& tracer) {
  using Kind = obs::TraceEventKind;
  const std::vector<obs::TraceEvent> events = obs::filter_kinds(
      tracer.events(),
      {Kind::kDiscoveryStart, Kind::kRelaySelected, Kind::kLeaseGranted,
       Kind::kLeaseExpired, Kind::kDetourInstall, Kind::kDetourSwitch,
       Kind::kDetourTeardown});
  std::printf("control-plane events (%zu):\n", events.size());
  for (const obs::TraceEvent& event : events) {
    const std::string at = util::to_string(util::SimTime::from_ns(event.at_ns));
    std::printf("  t=%s node=%u %s", at.c_str(), event.node, obs::to_string(event.kind));
    if (event.peer != obs::kNoPeer) std::printf(" peer=%u", event.peer);
    if (event.network != obs::kNoNetwork) std::printf(" net=%u", event.network);
    std::printf(" a=%lld b=%lld\n", static_cast<long long>(event.a),
                static_cast<long long>(event.b));
  }
  std::printf("trace events emitted=%llu evicted=%llu\n",
              static_cast<unsigned long long>(tracer.emitted()),
              static_cast<unsigned long long>(tracer.evicted()));
  if (tracer.evicted() > 0) {
    std::printf("warning: the trace ring overflowed; the earliest events "
                "above are missing\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto flags = util::Flags::parse(
      argc, argv,
      {{"nodes", "cluster size (default 8)"},
       {"churn-events", "random component flips to inject (default 10)"},
       {"script", "failure-script file (see src/net/script.hpp); replaces churn"},
       {"seed", "churn seed"},
       {"trace", "print the control-plane trace events at the end"}});
  if (!flags) return 1;
  if (flags->help_requested()) return 0;
  const auto nodes = static_cast<std::uint16_t>(flags->get_int("nodes", 8));
  const int churn = static_cast<int>(flags->get_int("churn-events", 10));
  util::Rng rng(static_cast<std::uint64_t>(flags->get_int("seed", 5)));

  const bool trace = flags->get_bool("trace");
  obs::Tracer tracer;
  sim::Simulator simulator;
  if (trace) simulator.set_tracer(&tracer);
  net::ClusterNetwork network(simulator, {.node_count = nodes, .backplane = {}});

  core::DrsSystem drs(network, core::DrsConfig{});
  drs.start();
  drs.settle(1_s);
  std::printf("== healthy baseline ==\n");
  print_health_report(drs, simulator);

  net::FailureInjector injector(network);
  if (flags->has("script")) {
    const std::string path = flags->get_string("script", "");
    std::ifstream file(path);
    if (!file) {
      std::fprintf(stderr, "cannot open script: %s\n", path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << file.rdbuf();
    const auto script = net::parse_failure_script(text.str(), nodes);
    if (!script.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), script.error.c_str());
      return 1;
    }
    net::schedule_script(injector, script.actions, simulator.now());
    const util::Duration span =
        script.actions.empty() ? 0_s : script.actions.back().at;
    drs.settle(span + 1_s);
    std::printf("== after script '%s' (%zu actions, %zu currently failed) ==\n",
                path.c_str(), script.actions.size(), injector.currently_failed());
  } else {
    for (int i = 0; i < churn; ++i) {
      const auto component = static_cast<net::ComponentIndex>(
          rng.next_below(network.component_count()));
      injector.apply_now(component, !network.component_failed(component));
      drs.settle(util::Duration::millis(rng.next_int(100, 600)));
    }
    drs.settle(1_s);
    std::printf("== after %d random component flips (%zu currently failed) ==\n",
                churn, injector.currently_failed());
  }
  print_health_report(drs, simulator);

  network.heal_all();
  drs.settle(2_s);
  std::printf("== healed ==\n");
  print_health_report(drs, simulator);

  if (trace) print_control_plane_trace(tracer);
  return 0;
}

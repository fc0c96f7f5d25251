#include "chaos/campaign.hpp"

#include <algorithm>

#include "net/failure.hpp"
#include "obs/tracer.hpp"

namespace drs::chaos {

core::DrsConfig fast_campaign_drs_config() {
  core::DrsConfig config;
  config.probe_interval = util::Duration::millis(50);
  config.probe_timeout = util::Duration::millis(20);
  config.failures_to_down = 2;
  config.discover_timeout = util::Duration::millis(25);
  return config;
}

CampaignResult run_campaign(std::uint64_t seed, std::uint64_t campaign,
                            const CampaignConfig& config, util::Arena* arena) {
  const Schedule schedule =
      generate_schedule(seed, campaign, config.schedule);
  // The repair bound is always derived from the *healthy* timing: a crippled
  // daemon set is judged against what the protocol promises, not against its
  // sabotaged settings — that is what makes the checkers able to fail.
  const util::Duration bound = core::worst_case_repair_bound(config.drs);

  core::DrsConfig drs = config.drs;
  if (config.cripple_detection) drs.failures_to_down = 1u << 30;

  sim::Simulator sim(arena);
  // Attached before the system so the daemons latch it at start(); the
  // tracer is what failover latency is measured from, so it is always on.
  obs::Tracer tracer(config.trace_capacity);
  sim.set_tracer(&tracer);
  net::ClusterNetwork network(
      sim, {.node_count = config.schedule.node_count, .backplane = {}});
  core::DrsSystem system(network, drs);
  net::FailureInjector injector(network);
  InvariantChecker checker(system, network);

  CampaignResult result;
  result.campaign = campaign;

  system.start();
  injector.schedule_script(schedule.actions);

  // Distinct action times, ascending; the restore-all batch shares one time.
  std::vector<util::SimTime> checkpoints;
  std::vector<bool> checkpoint_has_fail;
  for (const net::FailureAction& action : schedule.actions) {
    if (checkpoints.empty() || checkpoints.back() != action.at) {
      checkpoints.push_back(action.at);
      checkpoint_has_fail.push_back(action.fail);
    } else {
      checkpoint_has_fail.back() = checkpoint_has_fail.back() || action.fail;
    }
  }

  for (std::size_t i = 0; i < checkpoints.size(); ++i) {
    const util::SimTime t = checkpoints[i];
    if (sim.now() < t) sim.run_until(t);  // applies the action(s) at t

    if (checkpoint_has_fail[i]) {
      // Failover-latency probe: poll full reachability until it is restored
      // or the repair bound is blown. A healthy protocol repairs within the
      // bound; a crippled one trips kInvariantFailoverLatency here.
      const util::SimTime deadline = t + bound;
      const bool disrupted =
          !checker.all_connected_pairs_reachable(config.echo_timeout);
      bool recovered = !disrupted;
      while (!recovered && sim.now() < deadline) {
        sim.run_for(config.latency_probe_step);
        recovered = checker.all_connected_pairs_reachable(config.echo_timeout);
      }
      if (disrupted) {
        if (recovered) {
          // The protocol is judged from its first chance to notice: the
          // earliest post-injection missed monitoring probe in the trace.
          // (The violation deadline above stays anchored at injection — the
          // repair bound already budgets the detection window.)
          const obs::FailoverTimeline timeline =
              obs::reconstruct_failover(tracer, t.ns(), sim.now().ns());
          const util::SimTime detected =
              timeline.detected() ? util::SimTime::from_ns(timeline.detected_at_ns)
                                  : t;
          result.detection_delays_ms.push_back((detected - t).to_millis());
          result.failover_latencies_ms.push_back(
              (sim.now() - detected).to_millis());
          result.timelines.push_back(timeline);
        } else {
          result.violations.push_back(Violation{
              kInvariantFailoverLatency, sim.now(),
              "reachability not restored within " +
                  util::to_string(bound) + " of the failure"});
        }
      }
      ++result.checks;
    }

    // Quiet point: the detection window has elapsed and (by schedule
    // construction) the next action is still ahead. Assert the steady-state
    // invariants.
    if (sim.now() < t + bound) sim.run_until(t + bound);
    result.checks += checker.check_no_blackhole(result.violations,
                                                config.echo_timeout);
    result.checks += checker.check_no_routing_cycle(result.violations);
  }

  // Everything is restored; after the convergence window the cluster must be
  // indistinguishable from one that never saw a failure.
  sim.run_until(schedule.end + config.settle);
  result.checks += checker.check_detour_cleanup(result.violations);
  result.checks +=
      checker.check_no_blackhole(result.violations, config.echo_timeout);
  result.checks += checker.check_no_routing_cycle(result.violations);

  system.stop();
  if (config.capture_trace) result.trace = tracer.events();
  result.trace_evicted = tracer.evicted();
  result.actions_applied = injector.applied();
  result.sim_events = sim.executed_events();
  result.sim_seconds = sim.now().to_seconds();
  return result;
}

}  // namespace drs::chaos

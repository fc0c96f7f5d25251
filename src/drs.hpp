// The supported public surface of the DRS reproduction, in one include.
//
// Downstream code (the examples, external experiments) writes
//
//   #include "drs.hpp"          // and links the `drs` CMake target
//
// and gets the full stack: the deterministic simulator, the packet-level
// cluster network, the DRS daemons (with core::DrsSystemBuilder as the
// friendly front door), the reactive baselines, the analytic and Monte-Carlo
// survivability models, the Fig. 1 cost model, the cluster workloads, the
// chaos harness, and the declarative experiment engine.
//
// Headers not reachable from here (per-module implementation details) are
// not part of the supported surface and may change without notice.
#pragma once

// Utilities: time, RNG, stats, tables, flags, JSON, hashing, caching,
// deterministic parallelism.
#include "util/cache.hpp"
#include "util/flags.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

// Deterministic observability: sim-time event traces, integer metric
// registries, failover timelines, Chrome-trace / canonical-JSON export.
#include "obs/event.hpp"
#include "obs/export.hpp"
#include "obs/macros.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/tracer.hpp"

// Deterministic discrete-event simulation.
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

// The simulated dual-network cluster hardware.
#include "net/addr.hpp"
#include "net/backplane.hpp"
#include "net/failure.hpp"
#include "net/network.hpp"
#include "net/script.hpp"

// Transport protocols the applications and daemons ride on.
#include "proto/icmp.hpp"
#include "proto/tcp_lite.hpp"
#include "proto/udp.hpp"

// The DRS protocol itself.
#include "core/builder.hpp"
#include "core/config.hpp"
#include "core/daemon.hpp"
#include "core/metrics.hpp"
#include "core/system.hpp"

// The pluggable routing-policy layer: the RoutingPolicy interface, the
// name-keyed registry, the precomputed static-resilient / alternate-path
// baselines, and the all-policies shootout.
#include "policy/policy.hpp"
#include "policy/registry.hpp"
#include "policy/shootout.hpp"

// The failure-scenario comparison harness that runs any registered policy
// (see docs/POLICIES.md).
#include "reactive/comparison.hpp"

// Survivability models: exact (Equation 1), Monte-Carlo, packet-level.
#include "analytic/availability.hpp"
#include "analytic/enumerate.hpp"
#include "analytic/survivability.hpp"
#include "montecarlo/convergence.hpp"
#include "montecarlo/estimator.hpp"
#include "montecarlo/packet_validation.hpp"
#include "montecarlo/time_availability.hpp"

// The Fig. 1 proactive-monitoring cost model.
#include "cost/cost_model.hpp"

// Application-level cluster workloads and scenarios.
#include "cluster/availability.hpp"
#include "cluster/scenario.hpp"
#include "cluster/workload.hpp"

// Randomized chaos campaigns with runtime invariant checking.
#include "chaos/runner.hpp"

// The declarative experiment engine (specs, scenario families, sharded
// cached execution, bench CLI vocabulary).
#include "exp/cli.hpp"
#include "exp/engine.hpp"
#include "exp/scenario.hpp"
#include "exp/spec.hpp"
